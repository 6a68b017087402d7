"""E4 — Fig. 4 / Fig. 5 / Example 3: the two-bottleneck graph end to end.

Regenerates: the realized assignment sets of the three Fig. 5 failure
configurations and the full bottleneck-vs-naive agreement on Fig. 4."""

from repro.bench.harness import time_call
from repro.core import (
    FlowDemand,
    bottleneck_reliability,
    build_side_cover,
    enumerate_assignments,
    naive_reliability,
)
from repro.graph import fujita_fig4, split_on_cut


def test_e4_fig5_realized_sets(benchmark, show):
    net = fujita_fig4()
    split = split_on_cut(net, "s", "t", [0, 1])
    assignments = enumerate_assignments([2, 2], 2)

    def build():
        return build_side_cover(
            split.source_side,
            role="source",
            terminal="s",
            ports=split.source_ports,
            assignments=assignments,
            demand=2,
        )

    masks = benchmark(build).expand()
    cases = [
        ("Fig 5(a)  e4 down", 0b1101, {(1, 1), (0, 2)}),
        ("Fig 5(b)  e4,e6 down", 0b0101, {(1, 1)}),
        ("Fig 5(c)  all alive", 0b1111, {(1, 1), (2, 0), (0, 2)}),
    ]
    rows = []
    for name, mask, expected in cases:
        realized = {a for i, a in enumerate(assignments) if (int(masks[mask]) >> i) & 1}
        rows.append([name, sorted(realized), sorted(expected), realized == expected])
        assert realized == expected
    show(["configuration", "realized", "paper", "match"], rows, title="E4: Fig. 5")


def test_e4_bottleneck_vs_naive(benchmark, show):
    net = fujita_fig4()
    demand = FlowDemand("s", "t", 2)
    bneck = benchmark(bottleneck_reliability, net, demand, cut=[0, 1])
    naive = time_call(naive_reliability, net, demand).value
    show(
        ["method", "R", "flow calls", "configs"],
        [
            ["bottleneck", bneck.value, bneck.flow_calls, bneck.configurations],
            ["naive", naive.value, naive.flow_calls, naive.configurations],
        ],
        title="E4: Fig. 4 graph, d = 2",
    )
    assert abs(bneck.value - naive.value) < 1e-12
    assert bneck.configurations < naive.configurations
