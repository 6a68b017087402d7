"""Unit tests for the flow-value distribution."""

import pytest

from repro.core.demand import FlowDemand
from repro.core.distribution import (
    flow_value_distribution,
    sampled_flow_value_distribution,
)
from repro.core.naive import naive_reliability
from repro.exceptions import EstimationError, IntractableError, SolverError
from repro.graph.builders import diamond, fujita_fig4, parallel_links, series_chain
from repro.graph.network import FlowNetwork


class TestExactDistribution:
    def test_pmf_sums_to_one(self):
        dist = flow_value_distribution(fujita_fig4(), "s", "t")
        assert sum(dist.pmf) == pytest.approx(1.0)

    def test_tail_equals_naive_reliability(self):
        net = fujita_fig4()
        dist = flow_value_distribution(net, "s", "t")
        for rate in (1, 2, 3):
            expected = naive_reliability(net, FlowDemand("s", "t", rate)).value
            assert dist.reliability(rate) == pytest.approx(expected, abs=1e-12)

    def test_source_equals_sink_rejected(self):
        with pytest.raises(SolverError, match="source and sink must differ"):
            flow_value_distribution(diamond(), "s", "s")

    def test_zero_demand_reliability_is_one(self):
        dist = flow_value_distribution(diamond(), "s", "t")
        assert dist.reliability(0) == 1.0
        assert dist.reliability(-1) == 1.0

    def test_beyond_max_value_is_zero(self):
        dist = flow_value_distribution(diamond(capacity=1), "s", "t")
        assert dist.reliability(10) == 0.0

    def test_parallel_links_closed_form(self):
        # 3 unit links, p = 0.1: maxflow ~ Binomial(3, 0.9)
        dist = flow_value_distribution(parallel_links(3, 1, 0.1), "s", "t")
        assert dist.pmf[0] == pytest.approx(0.1**3)
        assert dist.pmf[1] == pytest.approx(3 * 0.9 * 0.01)
        assert dist.pmf[2] == pytest.approx(3 * 0.81 * 0.1)
        assert dist.pmf[3] == pytest.approx(0.9**3)

    def test_expected_value(self):
        dist = flow_value_distribution(parallel_links(2, 1, 0.5), "s", "t")
        assert dist.expected_value == pytest.approx(1.0)

    def test_series_chain(self):
        dist = flow_value_distribution(series_chain(2, 3, 0.2), "s", "t")
        assert dist.pmf[3] == pytest.approx(0.64)
        assert dist.pmf[0] == pytest.approx(0.36)
        assert dist.expected_value == pytest.approx(3 * 0.64)

    def test_quantile_rate(self):
        dist = flow_value_distribution(parallel_links(3, 1, 0.1), "s", "t")
        # R(1) = 0.999, R(2) = 0.972, R(3) = 0.729
        assert dist.quantile_rate(0.99) == 1
        assert dist.quantile_rate(0.97) == 2
        assert dist.quantile_rate(0.70) == 3
        assert dist.quantile_rate(1.0) == 0

    def test_quantile_validation(self):
        dist = flow_value_distribution(diamond(), "s", "t")
        with pytest.raises(EstimationError):
            dist.quantile_rate(0.0)

    def test_disconnected_all_mass_at_zero(self):
        net = FlowNetwork()
        net.add_link("t", "s", 1, 0.1)
        dist = flow_value_distribution(net, "s", "t")
        assert dist.pmf == (1.0,)

    def test_size_guard(self):
        with pytest.raises(IntractableError):
            flow_value_distribution(parallel_links(23), "s", "t")

    def test_flow_calls_reported(self):
        dist = flow_value_distribution(diamond(), "s", "t")
        assert 0 < dist.flow_calls <= 16


class TestSampledDistribution:
    def test_converges_to_exact(self):
        net = fujita_fig4()
        exact = flow_value_distribution(net, "s", "t")
        sampled = sampled_flow_value_distribution(net, "s", "t", num_samples=30_000, seed=0)
        for v in range(min(len(exact.pmf), len(sampled.pmf))):
            assert sampled.pmf[v] == pytest.approx(exact.pmf[v], abs=0.02)

    def test_deterministic(self):
        a = sampled_flow_value_distribution(diamond(), "s", "t", num_samples=500, seed=3)
        b = sampled_flow_value_distribution(diamond(), "s", "t", num_samples=500, seed=3)
        assert a.pmf == b.pmf

    def test_not_exact_flag(self):
        dist = sampled_flow_value_distribution(diamond(), "s", "t", num_samples=10, seed=0)
        assert not dist.exact

    def test_cache_bounds_calls(self):
        dist = sampled_flow_value_distribution(diamond(), "s", "t", num_samples=5000, seed=0)
        assert dist.flow_calls <= 16

    def test_validation(self):
        with pytest.raises(EstimationError):
            sampled_flow_value_distribution(diamond(), "s", "t", num_samples=0)
