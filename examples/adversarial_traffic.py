#!/usr/bin/env python3
"""Adversarial traffic and indirect adaptive routing (paper Sections 4.2/4.3).

Reproduces the paper's central routing story on the worst-case pattern
(every node of group i sends to a random node of group i+1):

* MIN collapses to 1/(a*h) of capacity -- the whole group funnels over
  one global channel;
* VAL recovers ~50% by spreading over random intermediate groups;
* UGAL-L (realisable, local queues only) matches the throughput but
  pays a large latency penalty at intermediate load because congestion
  on a *remote* router's global channel is sensed only via backpressure;
* UGAL-L_CR (the paper's contribution) senses congestion through credit
  round-trip latency and approaches the ideal UGAL-G.

Run:  python examples/adversarial_traffic.py
"""

from repro import SimulationConfig, make_dragonfly, make_routing
from repro.analysis.channel_load import (
    min_worst_case_throughput,
    valiant_worst_case_throughput,
)
from repro.network.sweep import run_point


def main() -> None:
    topology = make_dragonfly(p=2, a=4, h=2)
    params = topology.params
    print("network:", topology.describe())
    print(
        f"analytic bounds on worst-case traffic: "
        f"MIN <= {min_worst_case_throughput(params):.3f}, "
        f"VAL/ideal ~= {valiant_worst_case_throughput(params):.2f}"
    )
    print()

    algorithms = ("MIN", "VAL", "UGAL-L", "UGAL-G", "UGAL-L_VCH", "UGAL-L_CR")
    loads = (0.05, 0.1, 0.2, 0.3, 0.4, 0.45)

    header = f"{'load':>6} | " + " | ".join(f"{name:>10}" for name in algorithms)
    print("average latency (cycles) under worst-case traffic; '-' = saturated")
    print(header)
    print("-" * len(header))
    for load in loads:
        config = SimulationConfig(
            load=load,
            warmup_cycles=1000,
            measure_cycles=1000,
            drain_max_cycles=15_000,
        )
        cells = []
        for name in algorithms:
            result = run_point(topology, make_routing(name), "worst_case", config)
            cells.append(
                f"{'-':>10}" if result.saturated else f"{result.avg_latency:>10.2f}"
            )
        print(f"{load:>6.2f} | " + " | ".join(cells))


    print()
    print("Reading the table (paper Figure 8b / 16a): MIN saturates at")
    print(f"1/(a*h) = {1 / (params.a * params.h):.3f}; UGAL-L sustains the load but its")
    print("latency at 0.2-0.4 is several times UGAL-G's; UGAL-L_CR closes")
    print("most of that gap with purely local information.")


if __name__ == "__main__":
    main()
