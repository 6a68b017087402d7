#!/usr/bin/env python
"""Operator dashboard: the questions a streaming operator actually asks.

Built on the paper's reliability machinery:

1. *"What bit-rate can I promise at 99%?"* — the full PMF of the
   surviving max-flow (``flow_value_distribution``).
2. *"Do BOTH premium subscribers get the stream at once?"* — broadcast
   reliability with capacity contention (``broadcast_reliability``).
3. *"My network is too big to enumerate — now what?"* — ``auto``
   picks an exact engine while one fits; past that, permutation
   Monte-Carlo (``method="rare"``).
4. *"Where does the computation spend its time?"* — a traced run and
   the per-phase accounting from ``result.details["obs"]``.

Run:  python examples/operator_dashboard.py
"""

from repro import FlowDemand, FlowNetwork, compute_reliability, obs
from repro.bench.reporting import PHASE_HEADERS, phase_rows, print_table
from repro.core import (
    coverage_curve,
    flow_value_distribution,
    montecarlo_reliability,
    rare_reliability,
)


def build_cdn() -> FlowNetwork:
    """A small content-delivery topology: origin, two POPs, three edges."""
    net = FlowNetwork(name="cdn")
    net.add_link("origin", "pop1", 3, 0.02)
    net.add_link("origin", "pop2", 3, 0.02)
    net.add_link("pop1", "edge_a", 2, 0.05)
    net.add_link("pop1", "edge_b", 1, 0.05)
    net.add_link("pop2", "edge_b", 1, 0.05)
    net.add_link("pop2", "edge_c", 2, 0.05)
    net.add_link("pop1", "pop2", 1, 0.03)
    net.add_link("edge_a", "sub1", 2, 0.08)
    net.add_link("edge_b", "sub1", 1, 0.08)
    net.add_link("edge_b", "sub2", 1, 0.08)
    net.add_link("edge_c", "sub2", 2, 0.08)
    return net


def main() -> None:
    net = build_cdn()
    print(net.describe())

    # 1. rate promise
    dist = flow_value_distribution(net, "origin", "sub1")
    rows = [[v, dist.pmf[v], dist.reliability(v)] for v in range(len(dist.pmf))]
    print_table(
        ["rate", "P(= rate)", "P(>= rate)"],
        rows,
        title="Deliverable rate to sub1",
    )
    for confidence in (0.99, 0.95, 0.90):
        print(f"  promise at {confidence:.0%}: {dist.quantile_rate(confidence)} sub-streams")
    print(f"  expected deliverable rate: {dist.expected_value:.4f}")

    # 2. simultaneous delivery to both subscribers
    report = coverage_curve(net, "origin", ["sub1", "sub2"], 2)
    print_table(
        ["quantity", "probability"],
        [
            ["sub1 alone (d=2)", report.individual[0]],
            ["sub2 alone (d=2)", report.individual[1]],
            ["both simultaneously", report.broadcast],
            ["expected coverage", report.expected_coverage],
        ],
        title="Premium tier: two subscribers at 2 sub-streams each",
    )
    weakest, value = report.weakest
    print(f"  weakest subscriber: {weakest} at {value:.4f}")

    # 3. exact-then-estimate for a single subscriber at unit rate
    demand = FlowDemand("origin", "sub2", 1)
    auto = compute_reliability(net, demand=demand)
    exact = auto.value
    plain = montecarlo_reliability(net, demand, num_samples=2000, seed=0)
    perm = rare_reliability(net, demand, num_samples=2000, seed=0)
    print_table(
        ["approach", "value", "abs error"],
        [
            [f"auto ({auto.method}, exact)", exact, 0.0],
            ["plain Monte-Carlo (2k)", plain.value, abs(plain.value - exact)],
            ["permutation Monte-Carlo (2k)", perm.value, abs(perm.value - exact)],
        ],
        title="Unit-rate reliability to sub2, three ways",
    )

    # 4. where a run spends its time: trace the premium-tier computation
    with obs.record():
        traced = compute_reliability(net, "origin", "sub1", 2)
    summary = traced.details["obs"]
    print_table(
        PHASE_HEADERS,
        phase_rows(summary),
        title=f"Phase breakdown ({traced.method}, {summary['seconds'] * 1e3:.1f} ms total)",
    )
    print(f"  max-flow solves: {summary['counters'].get('flow_solves', 0)}"
          f" (== result.flow_calls = {traced.flow_calls})")


if __name__ == "__main__":
    main()
