"""Unit tests for the broadcast (multi-sink) extension."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.core.demand import FlowDemand
from repro.core.multisink import broadcast_reliability, coverage_curve
from repro.core.naive import naive_reliability
from repro.exceptions import DemandError
from repro.graph.builders import fujita_fig4, two_paths
from repro.graph.network import FlowNetwork


def _suite_inputs():
    """The end-to-end benchmark suite's input builders (``inputs.py``)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "suite" / "inputs.py"
    spec = importlib.util.spec_from_file_location("suite_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBroadcastReliability:
    def build(self):
        """s feeds two subscribers through a shared capacity-2 trunk."""
        net = FlowNetwork()
        net.add_link("s", "hub", 2, 0.1)  # the shared trunk
        net.add_link("hub", "u", 1, 0.1)
        net.add_link("hub", "v", 1, 0.1)
        return net

    def test_simultaneity_constraint(self):
        """Both subscribers need their unit at once: the trunk carries 2,
        so broadcast is possible, but a capacity-1 trunk would kill it."""
        net = self.build()
        both = broadcast_reliability(net, "s", ["u", "v"], 1)
        expected = 0.9**3  # trunk + both legs must be up
        assert both.value == pytest.approx(expected, abs=1e-12)

    def test_capacity_contention(self):
        net = self.build().with_failure_probabilities([0.1, 0.1, 0.1])
        thin = FlowNetwork()
        thin.add_link("s", "hub", 1, 0.1)  # trunk too thin for two copies
        thin.add_link("hub", "u", 1, 0.1)
        thin.add_link("hub", "v", 1, 0.1)
        assert broadcast_reliability(thin, "s", ["u", "v"], 1).value == 0.0

    def test_unservable_target_costs_one_solve(self):
        """The all-alive net cannot carry 9 units to both subscribers, so
        no configuration can: one solve answers 0 instead of a walk."""
        rng = np.random.default_rng([0, 1])
        net = _suite_inputs().bottlenecked(rng, 6, 6, "broadcast")
        result = broadcast_reliability(net, "s", ["t", "y0"], 9)
        assert result.value == 0.0
        assert result.flow_calls == 1
        assert result.configurations == 1 << net.num_links

    def test_single_subscriber_equals_paper_quantity(self):
        net = fujita_fig4()
        single = broadcast_reliability(net, "s", ["t"], 2)
        expected = naive_reliability(net, FlowDemand("s", "t", 2)).value
        assert single.value == pytest.approx(expected, abs=1e-12)

    def test_never_above_weakest_individual(self):
        net = self.build()
        report = coverage_curve(net, "s", ["u", "v"], 1)
        assert report.broadcast <= min(report.individual) + 1e-12

    def test_validation(self):
        net = self.build()
        with pytest.raises(DemandError):
            broadcast_reliability(net, "s", [], 1)
        with pytest.raises(DemandError):
            broadcast_reliability(net, "s", ["u", "u"], 1)
        with pytest.raises(DemandError):
            broadcast_reliability(net, "s", ["u", "s"], 1)
        with pytest.raises(DemandError):
            broadcast_reliability(net, "s", ["nope"], 1)
        with pytest.raises(DemandError):
            broadcast_reliability(net, "s", ["u"], 0)


class TestCoverageCurve:
    def test_report_fields(self):
        net = two_paths(2, 1, 0.1)
        net.add_link("a", "u", 1, 0.2)
        report = coverage_curve(net, "s", ["t", "u"], 1)
        assert len(report.individual) == 2
        assert report.subscribers == ("t", "u")
        assert 0 <= report.expected_coverage <= 1
        weakest, value = report.weakest
        assert value == min(report.individual)

    def test_expected_coverage_is_mean(self):
        net = two_paths(2, 1, 0.1)
        net.add_link("a", "u", 1, 0.2)
        report = coverage_curve(net, "s", ["t", "u"], 1)
        assert report.expected_coverage == pytest.approx(
            sum(report.individual) / 2
        )

    def test_individual_values_match_compute(self):
        net = self_net = fujita_fig4()
        report = coverage_curve(net, "s", ["t"], 2)
        expected = naive_reliability(net, FlowDemand("s", "t", 2)).value
        assert report.individual[0] == pytest.approx(expected, abs=1e-10)


class TestCoverageDistribution:
    def build(self):
        from repro.graph.builders import two_paths

        net = two_paths(2, 1, 0.1)
        net.add_link("a", "u", 1, 0.2)
        return net

    def test_is_a_distribution(self):
        from repro.core.multisink import coverage_distribution

        pmf = coverage_distribution(self.build(), "s", ["t", "u"], 1)
        assert len(pmf) == 3
        assert sum(pmf) == pytest.approx(1.0)
        assert all(p >= 0 for p in pmf)

    def test_mean_matches_individual_sum(self):
        from repro.core.multisink import coverage_curve, coverage_distribution

        net = self.build()
        pmf = coverage_distribution(net, "s", ["t", "u"], 1)
        report = coverage_curve(net, "s", ["t", "u"], 1)
        mean = sum(k * p for k, p in enumerate(pmf))
        assert mean == pytest.approx(sum(report.individual), abs=1e-10)

    def test_single_subscriber_reduces_to_reliability(self):
        from repro.core.multisink import coverage_distribution

        net = fujita_fig4()
        pmf = coverage_distribution(net, "s", ["t"], 2)
        expected = naive_reliability(net, FlowDemand("s", "t", 2)).value
        assert pmf[1] == pytest.approx(expected, abs=1e-12)
        assert pmf[0] == pytest.approx(1 - expected, abs=1e-12)

    def test_all_or_nothing_when_subscribers_share_everything(self):
        from repro.core.multisink import coverage_distribution
        from repro.graph.network import FlowNetwork

        net = FlowNetwork()
        net.add_link("s", "hub", 1, 0.3)
        net.add_link("hub", "u", 1, 0.0)
        net.add_link("hub", "v", 1, 0.0)
        pmf = coverage_distribution(net, "s", ["u", "v"], 1)
        # both served iff the trunk survives; exactly-one is impossible
        assert pmf[1] == pytest.approx(0.0, abs=1e-12)
        assert pmf[2] == pytest.approx(0.7, abs=1e-12)

    def test_validation(self):
        from repro.core.multisink import coverage_distribution
        from repro.exceptions import DemandError

        with pytest.raises(DemandError):
            coverage_distribution(self.build(), "s", [], 1)
        with pytest.raises(DemandError):
            coverage_distribution(self.build(), "s", ["t"], 0)

    @pytest.mark.parametrize(
        "sinks, message",
        [
            (["t", "t"], "duplicate subscribers"),
            (["s"], "cannot subscribe"),
            (["t", "s"], "cannot subscribe"),
            (["nope"], "not in the network"),
        ],
    )
    def test_rejects_what_broadcast_rejects(self, sinks, message):
        """One subscriber validation for both functions: a PMF has one
        entry per distinct subscriber, and a source subscribing to
        itself must fail at the boundary, not inside the solver."""
        from repro.core.multisink import coverage_distribution
        from repro.graph.builders import diamond

        with pytest.raises(DemandError, match=message):
            coverage_distribution(diamond(), "s", sinks, 1)
        with pytest.raises(DemandError, match=message):
            broadcast_reliability(diamond(), "s", sinks, 1)


def _pinned_instances():
    from repro.graph.generators import bottlenecked_network

    return {
        "fig4": (fujita_fig4(), ["t", "y1"]),
        "b54s1": (
            bottlenecked_network(source_side_links=5, sink_side_links=4, seed=1),
            ["t", "y0"],
        ),
        "b66s2": (
            bottlenecked_network(source_side_links=6, sink_side_links=6, seed=2),
            ["t", "tv0"],
        ),
    }


#: Pinned to the last bit (rate 1).
_PINNED_BROADCAST = {
    "fig4": "0x1.b3a983243fd91p-1",
    "b54s1": "0x1.93d5051327476p-1",
    "b66s2": "0x0.0p+0",
}
_PINNED_COVERAGE = {
    "fig4": ("0x1.61c72fd4d9e20p-6", "0x1.8e18544e7aa66p-4", "0x1.c32ebbf789dc6p-1"),
    "b54s1": ("0x1.c1bdd94ce626cp-4", "0x1.9f99fe19df9e8p-4", "0x1.93d5051327474p-1"),
    "b66s2": ("0x1.4c0be8c1f76d2p-3", "0x1.acfd05cf8224ap-1", "0x0.0p+0"),
}


def _sinks_in(order, sinks):
    return list(sinks) if order == "given" else list(reversed(sinks))


@pytest.fixture(params=["warm", "cold"])
def walk(request, monkeypatch):
    """``warm``: the engines' own repairing oracles.  ``cold``: every
    oracle built with ``incremental=False``, one cold solve per query.
    Repair changes the solver work, never a table bit."""
    if request.param == "cold":
        from repro.core import multisink
        from repro.core.feasibility import FeasibilityOracle

        def cold(*args, incremental=False, **kwargs):
            return FeasibilityOracle(*args, incremental=False, **kwargs)

        monkeypatch.setattr(multisink, "FeasibilityOracle", cold)
    return request.param


@pytest.mark.parametrize("order", ["given", "reversed"])
@pytest.mark.parametrize("name", sorted(_PINNED_BROADCAST))
class TestPinnedValues:
    """The pins hold warm or cold and whatever the subscriber order."""

    def test_broadcast(self, name, order, walk):
        net, sinks = _pinned_instances()[name]
        value = broadcast_reliability(net, "s", _sinks_in(order, sinks), 1).value
        assert value.hex() == _PINNED_BROADCAST[name]

    def test_coverage_distribution(self, name, order, walk):
        from repro.core.multisink import coverage_distribution

        net, sinks = _pinned_instances()[name]
        pmf = coverage_distribution(net, "s", _sinks_in(order, sinks), 1)
        assert tuple(p.hex() for p in pmf) == _PINNED_COVERAGE[name]
