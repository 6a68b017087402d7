"""X3 — extensions: flow-value distribution, broadcast reliability,
the reliability polynomial.

The operator-facing quantities built on the paper's machinery: the PMF
of the deliverable rate (reliability at every demand at once), the
multi-subscriber simultaneous-delivery probability, and the whole
reliability-vs-p curve.  The estimators are compared by time to a
stated accuracy in X9 (``bench_x9_estimators.py``)."""

import pytest

from repro.core import (
    FlowDemand,
    broadcast_reliability,
    coverage_curve,
    flow_value_distribution,
    naive_reliability,
)
from repro.graph import fujita_fig4
from repro.p2p import ChildChurnModel, MEDIA_SERVER, make_peers, multi_tree, to_flow_network


def test_x3_flow_value_distribution(benchmark, show):
    net = fujita_fig4()
    dist = benchmark(flow_value_distribution, net, "s", "t")
    rows = [
        [v, dist.pmf[v], dist.reliability(v)] for v in range(len(dist.pmf))
    ]
    show(
        ["rate", "P(maxflow = rate)", "P(maxflow >= rate)"],
        rows,
        title=f"X3: deliverable-rate PMF on Fig. 4 (E[rate] = {dist.expected_value:.4f})",
    )
    for rate in (1, 2, 3):
        expected = naive_reliability(net, FlowDemand("s", "t", rate)).value
        assert dist.reliability(rate) == pytest.approx(expected, abs=1e-12)


def test_x3_broadcast_coverage(benchmark, show):
    peers = make_peers(6, mean_session=300, mean_offline=60, upload_capacity=6)
    overlay = multi_tree(peers, num_stripes=2)
    net = to_flow_network(overlay, ChildChurnModel())
    subscribers = ["p4", "p5"]

    report = benchmark.pedantic(
        coverage_curve, args=(net, MEDIA_SERVER, subscribers, 1), rounds=1, iterations=1
    )
    rows = [
        [sub, value] for sub, value in zip(report.subscribers, report.individual)
    ]
    rows.append(["broadcast (simultaneous)", report.broadcast])
    rows.append(["expected coverage", report.expected_coverage])
    show(["quantity", "probability"], rows, title="X3: multi-subscriber delivery")
    assert report.broadcast <= min(report.individual) + 1e-12


def test_x3_reliability_polynomial(benchmark, show):
    """The reliability-vs-p curve of the Fig. 4 graph — the classic
    figure, exactly, from one enumeration."""
    from repro.core import reliability_polynomial

    net = fujita_fig4()
    demand = FlowDemand("s", "t", 2)
    poly = benchmark(reliability_polynomial, net, demand)
    grid = [0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
    rows = [[p, poly(p)] for p in grid]
    show(
        ["p (all links)", "R(p)"],
        rows,
        title=f"X3: reliability polynomial of Fig. 4, d = 2 "
        f"(N = {poly.counts}, min feasible links = {poly.min_feasible_links})",
    )
    assert poly(0.1) == pytest.approx(0.842635791, abs=1e-9)
    values = [poly(p) for p in grid]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
