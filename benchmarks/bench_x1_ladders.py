"""X1 — extension: exact d = 1 reliability on ladders past enumeration.

The directed frontier sweep (``frontier-directed``) answers a series of
parallel pairs in time linear in its length.  The table checks it
against naive enumeration on small series-parallel nets; the 40-link
ladder (``2^40`` configurations for naive) matches the closed form
``(1 - p^2)^20``."""

import pytest

from repro.bench.harness import time_call
from repro.core import FlowDemand, directed_frontier_reliability, naive_reliability
from repro.graph import diamond, parallel_links, series_chain
from repro.graph.network import FlowNetwork


def ladder(sections: int, p: float = 0.1) -> FlowNetwork:
    """A long series of parallel pairs, with the closed form (1-p^2)^sections."""
    net = FlowNetwork(name=f"ladder-{sections}")
    nodes = ["s"] + [f"m{i}" for i in range(sections - 1)] + ["t"]
    for a, b in zip(nodes, nodes[1:]):
        net.add_link(a, b, 1, p)
        net.add_link(a, b, 1, p)
    return net


def test_x1_frontier_vs_naive(benchmark, show):
    def sweep():
        rows = []
        for name, net in (
            ("chain-6", series_chain(6, 1, 0.1)),
            ("parallel-6", parallel_links(6, 1, 0.1)),
            ("diamond", diamond()),
            ("ladder-8", ladder(8)),
        ):
            demand = FlowDemand("s", "t", 1)
            frontier = time_call(directed_frontier_reliability, net, demand)
            naive = time_call(naive_reliability, net, demand, repeats=1)
            assert frontier.value.value == pytest.approx(naive.value.value, abs=1e-12)
            rows.append(
                [
                    name,
                    net.num_links,
                    frontier.value.value,
                    f"{frontier.seconds * 1e3:.3f}",
                    f"{naive.seconds * 1e3:.3f}",
                    naive.value.flow_calls,
                ]
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(
        ["network", "|E|", "R", "frontier ms", "naive ms", "naive calls"],
        rows,
        title="X1: directed frontier vs exponential naive (d=1)",
    )


def test_x1_ladder_beyond_naive_budget(benchmark, show):
    """A 40-link ladder: hopeless for enumeration (2^40), linear for the frontier."""
    net = ladder(20)
    demand = FlowDemand("s", "t", 1)
    result = benchmark(directed_frontier_reliability, net, demand)
    pair = 1 - 0.1**2
    show(
        ["|E|", "R (frontier)", "closed form (1-p^2)^20"],
        [[net.num_links, result.value, pair**20]],
        title="X1: the frontier solves sizes enumeration cannot touch",
    )
    assert result.value == pytest.approx(pair**20, abs=1e-12)
