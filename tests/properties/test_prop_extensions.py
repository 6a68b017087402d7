"""Property-based tests for the extension modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.demand import FlowDemand
from repro.core.distribution import flow_value_distribution
from repro.core.multisink import broadcast_reliability
from repro.core.naive import naive_reliability
from repro.core.rare import poisson_binomial
from repro.probability.bitset import popcount
from repro.probability.enumeration import configuration_probabilities
from tests.conftest import probability_vectors, small_networks


class TestDistributionProperties:
    @settings(max_examples=30, deadline=None)
    @given(small_networks())
    def test_pmf_is_a_distribution(self, net):
        dist = flow_value_distribution(net, "s", "t")
        assert all(p >= -1e-12 for p in dist.pmf)
        assert sum(dist.pmf) == pytest.approx(1.0)

    @settings(max_examples=25, deadline=None)
    @given(small_networks(), st.integers(1, 3))
    def test_tail_matches_naive(self, net, rate):
        dist = flow_value_distribution(net, "s", "t")
        expected = naive_reliability(net, FlowDemand("s", "t", rate)).value
        assert dist.reliability(rate) == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(small_networks())
    def test_reliability_is_nonincreasing_in_rate(self, net):
        dist = flow_value_distribution(net, "s", "t")
        values = [dist.reliability(v) for v in range(len(dist.pmf) + 2)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12


class TestPoissonBinomialProperties:
    @settings(max_examples=50)
    @given(probability_vectors(max_size=8))
    def test_poisson_binomial_matches_enumeration(self, probs):
        dist = poisson_binomial(probs)
        table = configuration_probabilities(probs)
        m = len(probs)
        for j in range(m + 1):
            expected = sum(table[mask] for mask in range(1 << m) if popcount(mask) == j)
            assert dist[j] == pytest.approx(expected, abs=1e-9)


class TestBroadcastProperties:
    @settings(max_examples=20, deadline=None)
    @given(small_networks())
    def test_single_subscriber_equals_reliability(self, net):
        value = broadcast_reliability(net, "s", ["t"], 1).value
        expected = naive_reliability(net, FlowDemand("s", "t", 1)).value
        assert value == pytest.approx(expected, abs=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(small_networks())
    def test_broadcast_below_individual(self, net):
        nodes = [n for n in net.nodes() if n not in ("s",)]
        if len(nodes) < 2:
            return
        subscribers = nodes[:2]
        both = broadcast_reliability(net, "s", subscribers, 1).value
        for sub in subscribers:
            single = broadcast_reliability(net, "s", [sub], 1).value
            assert both <= single + 1e-10


class TestFrontierProperties:
    @settings(max_examples=30, deadline=None)
    @given(small_networks())
    def test_directed_frontier_matches_naive(self, net):
        from repro.core.frontier import directed_frontier_reliability

        demand = FlowDemand("s", "t", 1)
        expected = naive_reliability(net, demand).value
        value = directed_frontier_reliability(net, demand).value
        assert value == pytest.approx(expected, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(small_networks(), st.integers(0, 2**31 - 1))
    def test_directed_frontier_order_invariant(self, net, seed):
        from repro.core.frontier import directed_frontier_reliability

        demand = FlowDemand("s", "t", 1)
        base = directed_frontier_reliability(net, demand).value
        rng = np.random.default_rng(seed)
        order = [int(x) for x in rng.permutation(net.num_links)]
        shuffled = directed_frontier_reliability(net, demand, order=order).value
        assert shuffled == pytest.approx(base, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(small_networks())
    def test_undirected_frontier_matches_naive(self, net):
        from repro.core.frontier import frontier_reliability
        from repro.graph.network import FlowNetwork

        undirected = FlowNetwork()
        undirected.add_nodes(net.nodes())
        for link in net.links():
            undirected.add_link(
                link.tail,
                link.head,
                link.capacity,
                link.failure_probability,
                directed=False,
            )
        demand = FlowDemand("s", "t", 1)
        expected = naive_reliability(undirected, demand).value
        value = frontier_reliability(undirected, demand).value
        assert value == pytest.approx(expected, abs=1e-9)


class TestImportanceProperties:
    @settings(max_examples=20, deadline=None)
    @given(small_networks())
    def test_conditional_decomposition_holds(self, net):
        from repro.core.importance import link_importances

        demand = FlowDemand("s", "t", 1)
        base = naive_reliability(net, demand).value
        for imp in link_importances(net, demand, method="naive"):
            p = net.link(imp.link_index).failure_probability
            reconstructed = (1 - p) * imp.reliability_if_up + p * imp.reliability_if_down
            assert reconstructed == pytest.approx(base, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(small_networks())
    def test_birnbaum_nonnegative(self, net):
        """Flow feasibility is monotone, so no link can hurt by existing."""
        from repro.core.importance import link_importances

        demand = FlowDemand("s", "t", 1)
        for imp in link_importances(net, demand, method="naive"):
            assert imp.birnbaum >= -1e-12
