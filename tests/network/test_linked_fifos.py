"""Model test of :class:`repro.network.array_backend.LinkedFifos`.

The array engine's source and output queues are one intrusive linked
list with batch append / batch pop; the scalar engine's are one
``deque`` per slot.  Hypothesis drives random interleavings of the batch
operations against that dict-of-deques model: duplicate slots inside one
append batch (FIFO order within the batch must survive the sort), empty
batches, link-capacity growth mid-stream, distinct-slot appends and
pops of arbitrary non-empty subsets.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.array_backend import LinkedFifos
from repro.network.simulator import SimulatorStateError

NUM_SLOTS = 6

#: One step: ("append", slots) with repeats allowed, ("distinct", slots)
#: with none, or ("pop", selector bits over the non-empty slots).
steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.lists(st.integers(0, NUM_SLOTS - 1), max_size=12),
        ),
        st.tuples(
            st.just("distinct"),
            st.lists(st.integers(0, NUM_SLOTS - 1), max_size=NUM_SLOTS,
                     unique=True),
        ),
        st.tuples(
            st.just("pop"),
            st.lists(st.booleans(), min_size=NUM_SLOTS, max_size=NUM_SLOTS),
        ),
    ),
    max_size=40,
)


@given(steps)
@settings(max_examples=200, deadline=None)
def test_batch_operations_match_a_dict_of_deques(script):
    fifos = LinkedFifos(NUM_SLOTS, capacity=2)
    model = {slot: deque() for slot in range(NUM_SLOTS)}
    free = []          # recycled item ids, reused before fresh ones
    next_item = 0
    for op, arg in script:
        if op == "pop":
            slots = [s for s in range(NUM_SLOTS) if arg[s] and model[s]]
            got = fifos.pop(np.asarray(slots, dtype=np.int64))
            want = [model[s].popleft() for s in slots]
            assert got.tolist() == want
            free.extend(want)
            continue
        items = []
        for _ in arg:
            if free:
                items.append(free.pop())
            else:
                items.append(next_item)
                next_item += 1
        # Capacity growth: the store doubles when ids run past it.
        if next_item > fifos.next.shape[0]:
            fifos.reserve(2 * next_item)
        slots_arr = np.asarray(arg, dtype=np.int64)
        items_arr = np.asarray(items, dtype=np.int64)
        if op == "distinct":
            fifos.append_distinct(slots_arr, items_arr)
        else:
            fifos.append(slots_arr, items_arr)
        for slot, item in zip(arg, items):
            model[slot].append(item)
        assert fifos.to_lists() == [list(model[s]) for s in range(NUM_SLOTS)]
    assert fifos.to_lists() == [list(model[s]) for s in range(NUM_SLOTS)]
    assert (fifos.head >= 0).tolist() == [
        bool(model[s]) for s in range(NUM_SLOTS)
    ]


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
