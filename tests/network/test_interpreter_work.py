"""The array engine's interpreter work per simulated cycle stays down.

At the paper's 1056-terminal scale the array engine's wall time is
mostly Python executing one line per array operation and per piece of
phase bookkeeping.  :func:`oracles.count_line_events` counts those lines
exactly, so a change that adds array operations to every cycle shows
here as a number, on any machine, where wall time would hide it in
noise.  Where a statement's line events fall is the compiler's choice,
so the ceiling holds for the CPython version CI runs (3.11).
"""

from __future__ import annotations

import platform
import sys

import pytest

from oracles import count_line_events
from repro.core.params import DragonflyParams
from repro.network.backend import make_simulator
from repro.network.config import SimulationConfig
from repro.network.traffic import make_pattern
from repro.routing import make_routing
from repro.topology.dragonfly import Dragonfly

#: Line events per cycle of the point below, as measured when the
#: ceiling was set; the test allows 2% over it.
MEASURED_EVENTS_PER_CYCLE = 338.0


@pytest.mark.skipif(
    platform.python_implementation() != "CPython" or sys.version_info[:2] != (3, 11),
    reason="line events per statement are CPython 3.11's",
)
def test_paper_scale_ugal_point_stays_under_its_line_event_ceiling():
    """One short 1056-terminal UGAL-L point (worst case, load 0.2,
    100 + 100 cycles, seed 1, pattern seed 18 as the pipeline
    benchmark derives it) on the array engine."""
    topology = Dragonfly(DragonflyParams.paper_1k())
    config = SimulationConfig(load=0.2, warmup_cycles=100, measure_cycles=100, seed=1)
    sim = make_simulator(
        topology,
        make_routing("UGAL-L"),
        make_pattern("worst_case", topology, seed=config.seed + 17),
        config,
        backend="array",
    )
    result, events = count_line_events(sim)
    assert result.backend_info["backend"] == "array"
    per_cycle = events / result.to_dict()["total_cycles"]
    assert per_cycle <= MEASURED_EVENTS_PER_CYCLE * 1.02, (
        f"{per_cycle:.1f} line events per cycle, ceiling "
        f"{MEASURED_EVENTS_PER_CYCLE * 1.02:.1f}"
    )
