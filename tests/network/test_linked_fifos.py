"""Model tests of :class:`repro.network.array_backend.LinkedFifos`.

The array engine's source and output queues are one intrusive linked
list with batch append / batch pop; the scalar engine's are one
``deque`` per slot.  Hypothesis drives random interleavings of the batch
operations against deque models: duplicate slots inside one append
batch (FIFO order within the batch must survive the sort), empty
batches, link-capacity growth mid-stream, pops of arbitrary non-empty
subsets, and the injection pass's offer / settle visit.  A second test
drives the output FIFOs' one append per cycle, whose batch is the
cycle's arrivals followed by its injections.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.array_backend import LinkedFifos
from repro.network.simulator import SimulatorStateError

NUM_SLOTS = 6

#: One step: ("append", slots) with repeats allowed, ("offer", slots)
#: with none plus the visited slots whose head leaves, or ("pop",
#: selector bits over the non-empty slots).
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.lists(st.integers(0, NUM_SLOTS - 1), max_size=12),
        ),
        st.tuples(
            st.just("offer"),
            st.lists(st.integers(0, NUM_SLOTS - 1), max_size=NUM_SLOTS,
                     unique=True),
            st.lists(st.booleans(), min_size=NUM_SLOTS, max_size=NUM_SLOTS),
        ),
        st.tuples(
            st.just("pop"),
            st.lists(st.booleans(), min_size=NUM_SLOTS, max_size=NUM_SLOTS),
        ),
    ),
    max_size=40,
)


class ItemIds:
    """Row ids as the engine hands them out: recycled ones first, and
    the FIFOs' link capacity doubled when fresh ids run past it."""

    def __init__(self, fifos: LinkedFifos) -> None:
        self.fifos = fifos
        self.free = []
        self.next_item = 0

    def take(self, count: int) -> list:
        items = []
        for _ in range(count):
            if self.free:
                items.append(self.free.pop())
            else:
                items.append(self.next_item)
                self.next_item += 1
        if self.next_item > self.fifos.next.shape[0]:
            self.fifos.reserve(2 * self.next_item)
        return items


def as_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


@given(steps)
@settings(max_examples=200, deadline=None)
def test_batch_operations_match_a_dict_of_deques(script):
    fifos = LinkedFifos(NUM_SLOTS, capacity=2)
    model = {slot: deque() for slot in range(NUM_SLOTS)}
    ids = ItemIds(fifos)
    for op, *args in script:
        if op == "pop":
            slots = [s for s in range(NUM_SLOTS) if args[0][s] and model[s]]
            got = fifos.pop(as_array(slots))
            want = [model[s].popleft() for s in slots]
            assert got.tolist() == want
            ids.free.extend(want)
            continue
        slots = args[0]
        items = ids.take(len(slots))
        if op == "offer":
            visited = fifos.offer(as_array(slots), as_array(items))
            for slot, item in zip(slots, items):
                model[slot].append(item)
            # Every slot with a packet visits its oldest one; the
            # selected ones leave, the rest stay queued.
            assert visited.tolist() == [
                model[s][0] if model[s] else -1 for s in range(NUM_SLOTS)
            ]
            leave = [s for s in range(NUM_SLOTS) if args[1][s] and model[s]]
            fifos.settle(visited, as_array(leave), visited[as_array(leave)])
            ids.free.extend(model[s].popleft() for s in leave)
        else:
            fifos.append(as_array(slots), as_array(items))
            for slot, item in zip(slots, items):
                model[slot].append(item)
        assert fifos.to_lists() == [list(model[s]) for s in range(NUM_SLOTS)]
    assert fifos.to_lists() == [list(model[s]) for s in range(NUM_SLOTS)]
    assert (fifos.head >= 0).tolist() == [
        bool(model[s]) for s in range(NUM_SLOTS)
    ]


slot_batches = st.lists(st.integers(0, NUM_SLOTS - 1), max_size=10)

#: One cycle of the output FIFOs: the slots of its arrivals, the slots
#: of its injections (both may repeat, and share slots with each
#: other), and the selector of the slots the switch pops.
cycles = st.lists(
    st.tuples(
        slot_batches,
        slot_batches,
        st.lists(st.booleans(), min_size=NUM_SLOTS, max_size=NUM_SLOTS),
    ),
    max_size=25,
)


@given(cycles)
@settings(max_examples=200, deadline=None)
def test_one_append_per_cycle_keeps_arrivals_ahead_of_injections(script):
    """The array engine files a cycle's arrival rows and injected rows
    with one append, arrivals first; the scalar engine appends each
    arrival, then each injection, to its slot's deque.  Every slot must
    end up in the scalar order, whatever the mix of slots."""
    fifos = LinkedFifos(NUM_SLOTS, capacity=2)
    model = [deque() for _ in range(NUM_SLOTS)]
    ids = ItemIds(fifos)
    for arrival_slots, injection_slots, popped in script:
        arrivals = ids.take(len(arrival_slots))
        injections = ids.take(len(injection_slots))
        fifos.append(
            as_array(arrival_slots + injection_slots),
            as_array(arrivals + injections),
        )
        for slot, item in zip(arrival_slots, arrivals):
            model[slot].append(item)
        for slot, item in zip(injection_slots, injections):
            model[slot].append(item)
        assert fifos.to_lists() == [list(queue) for queue in model]
        slots = [s for s in range(NUM_SLOTS) if popped[s] and model[s]]
        got = fifos.pop(as_array(slots))
        want = [model[s].popleft() for s in slots]
        assert got.tolist() == want
        ids.free.extend(want)
    assert fifos.to_lists() == [list(queue) for queue in model]


def test_reserve_keeps_existing_links():
    fifos = LinkedFifos(2, capacity=3)
    fifos.append(np.asarray([1, 1, 1]), np.asarray([0, 1, 2]))
    fifos.reserve(64)
    fifos.append(np.asarray([1, 0]), np.asarray([40, 41]))
    assert fifos.to_lists() == [[41], [0, 1, 2, 40]]


def test_to_lists_reports_a_link_cycle():
    fifos = LinkedFifos(1, capacity=4)
    fifos.append(np.asarray([0, 0]), np.asarray([2, 3]))
    fifos.next[3] = 2  # corrupt: 2 -> 3 -> 2 -> ...
    with pytest.raises(SimulatorStateError, match="cycle"):
        fifos.to_lists()
