"""Unit tests for the chain-decomposition extension."""

import numpy as np
import pytest

from repro.core import certificate
from repro.core.arrays import build_relation_cover
from repro.core.bottleneck import bottleneck_reliability
from repro.core.assignments import enumerate_assignments, support_mask
from repro.core.chain import _cross_cut, analyze_chain, chain_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.exceptions import DecompositionError, SolverError
from repro.graph.builders import fujita_fig2_bridge, fujita_fig4, series_chain
from repro.graph.generators import chained_network
from repro.graph.network import FlowNetwork


class TestAnalyzeChain:
    def test_single_cut(self):
        structure = analyze_chain(fujita_fig4(), "s", "t", [[0, 1]])
        assert structure.num_segments == 2
        assert structure.out_ports == [("x1", "x2")]
        assert structure.in_ports == [("y1", "y2")]

    def test_series_chain_cuts(self):
        net = series_chain(3)
        structure = analyze_chain(net, "s", "t", [[0], [1], [2]])
        assert structure.num_segments == 4
        assert structure.largest_segment_links == 0

    def test_generated_chain(self):
        net = chained_network([4, 4, 4], cut_sizes=2, demand=1, seed=0)
        structure = analyze_chain(net, "s", "t", net._chain_cut_indices)
        assert structure.num_segments == 3

    def test_overlapping_cuts_rejected(self):
        with pytest.raises(DecompositionError):
            analyze_chain(series_chain(3), "s", "t", [[0], [0]])

    def test_wrong_order_rejected(self):
        net = series_chain(3)
        with pytest.raises(DecompositionError):
            analyze_chain(net, "s", "t", [[1], [0]])

    def test_non_separating_rejected(self):
        net = fujita_fig4()
        with pytest.raises(DecompositionError):
            analyze_chain(net, "s", "t", [[0]])

    def test_backwards_cut_link_rejected(self):
        net = FlowNetwork()
        net.add_link("s", "a", 1)
        net.add_link("b", "a", 1)  # backwards across the cut
        net.add_link("b", "t", 1)
        with pytest.raises(DecompositionError):
            analyze_chain(net, "s", "t", [[1]])

    def test_empty_cut_list_rejected(self):
        with pytest.raises(DecompositionError):
            analyze_chain(series_chain(2), "s", "t", [])


class TestChainReliability:
    def test_single_cut_equals_bottleneck(self):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        chain = chain_reliability(net, demand, [[0, 1]])
        bneck = bottleneck_reliability(net, demand, cut=[0, 1])
        assert chain.value == pytest.approx(bneck.value, abs=1e-12)

    def test_bridge_chain(self):
        net = fujita_fig2_bridge()
        demand = FlowDemand("s", "t", 2)
        assert chain_reliability(net, demand, [[8]]).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-12
        )

    def test_series_chain_full_decomposition(self):
        net = series_chain(4, capacity=1, failure_probability=0.2)
        demand = FlowDemand("s", "t", 1)
        result = chain_reliability(net, demand, [[0], [1], [2], [3]])
        assert result.value == pytest.approx(0.8**4)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_cut_chain_matches_naive(self, seed):
        net = chained_network([4, 4, 4], cut_sizes=2, demand=1, seed=seed)
        demand = FlowDemand("s", "t", 1)
        assert chain_reliability(net, demand, net._chain_cut_indices).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-10
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_demand_two_chain(self, seed):
        net = chained_network([4, 5, 4], cut_sizes=2, demand=2, seed=seed)
        demand = FlowDemand("s", "t", 2)
        assert chain_reliability(net, demand, net._chain_cut_indices).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-10
        )

    def test_three_cuts(self):
        net = chained_network([3, 4, 4, 3], cut_sizes=[1, 2, 1], demand=1, seed=5)
        demand = FlowDemand("s", "t", 1)
        assert chain_reliability(net, demand, net._chain_cut_indices).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-10
        )

    def test_three_link_cuts_at_demand_three(self):
        """Ten assignments an interface: 100 (in, out) loads a middle,
        more than one mask word holds."""
        net = chained_network([3, 9, 3], cut_sizes=3, demand=3, seed=0)
        demand = FlowDemand("s", "t", 3)
        chain = chain_reliability(net, demand, net._chain_cut_indices)
        assert chain.details["interface_sizes"] == [10, 10]
        assert chain.value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-12
        )

    def test_undersized_cut_gives_zero(self):
        net = series_chain(2, capacity=1)
        result = chain_reliability(net, FlowDemand("s", "t", 2), [[0], [1]])
        assert result.value == 0.0
        assert "cut" in result.details["reason"]

    def test_flow_calls_far_below_naive(self):
        net = chained_network([4, 5, 4], cut_sizes=2, demand=2, seed=7)
        demand = FlowDemand("s", "t", 2)
        chain = chain_reliability(net, demand, net._chain_cut_indices)
        naive = naive_reliability(net, demand, prune=False)
        assert chain.flow_calls < naive.flow_calls / 10

    def test_middle_segment_builds_without_solves(self):
        net = chained_network([4, 5, 4], cut_sizes=2, demand=2, seed=7)
        demand = FlowDemand("s", "t", 2)
        chain = chain_reliability(net, demand, net._chain_cut_indices)
        assert chain.flow_calls == 0
        assert chain.value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-10
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_walk_fallback_matches_naive(self, seed, monkeypatch):
        net = chained_network([4, 5, 4], cut_sizes=2, demand=2, seed=seed)
        demand = FlowDemand("s", "t", 2)
        default = chain_reliability(net, demand, net._chain_cut_indices)
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        walked = chain_reliability(net, demand, net._chain_cut_indices)
        assert walked.flow_calls > 0
        assert walked.value == pytest.approx(default.value, abs=1e-12)
        assert walked.value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-10
        )

    def test_details(self):
        net = chained_network([4, 4, 4], cut_sizes=2, demand=1, seed=0)
        result = chain_reliability(net, FlowDemand("s", "t", 1), net._chain_cut_indices)
        assert result.details["num_cuts"] == 2
        assert len(result.details["interface_sizes"]) == 2


class TestChainGuards:
    def test_interface_assignment_budget(self):
        from repro.exceptions import DecompositionError, SolverError
        from repro.graph.generators import chained_network

        # d=4 over 4-link cuts: |A| = C(7,3) = 35 > the DP budget of 16
        net = chained_network([8, 8], cut_sizes=4, demand=4, seed=0)
        demand = FlowDemand("s", "t", 4)
        with pytest.raises(DecompositionError):
            chain_reliability(net, demand, net._chain_cut_indices)


class TestRelationCover:
    def _request(self):
        net = chained_network([4, 5, 4], cut_sizes=2, demand=2, seed=7)
        structure = analyze_chain(net, "s", "t", net._chain_cut_indices)
        return structure.segments[1], dict(
            in_ports=structure.in_ports[0],
            out_ports=structure.out_ports[1],
            in_assignments=[(2, 0), (1, 1), (0, 2)],
            out_assignments=[(2, 0), (1, 1), (0, 2)],
            demand=2,
        )

    def test_all_alive_realizes_every_pair(self):
        segment, request = self._request()
        relation = build_relation_cover(segment, **request)
        assert relation.flow_calls == 0
        assert relation.words == 3 and relation.num_assignments == 3
        masks = relation.expand()
        assert masks.shape == (1 << segment.network.num_links, 3)
        assert (masks[-1] == 0b111).all()
        assert (masks[0] == 0).all()

    def test_distinct_relations_weigh_to_one(self):
        segment, request = self._request()
        relation = build_relation_cover(segment, **request)
        row = np.asarray([segment.network.failure_probabilities()])
        weights = relation.weights(row)
        assert relation.distinct.shape == (weights.shape[1], 3)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("side", ["in_assignments", "out_assignments"])
    def test_loads_must_sum_to_demand(self, side):
        segment, request = self._request()
        with pytest.raises(SolverError, match="does not sum to demand"):
            build_relation_cover(segment, **{**request, side: [(1, 0)]})

    def test_no_in_assignments_is_rejected(self):
        segment, request = self._request()
        with pytest.raises(SolverError, match="at least one in-assignment"):
            build_relation_cover(segment, **{**request, "in_assignments": []})

    def test_unknown_port_is_rejected(self):
        segment, request = self._request()
        with pytest.raises(SolverError, match="not inside this side"):
            build_relation_cover(segment, **{**request, "out_ports": ("nowhere", "o1_1")})


class TestCrossCut:
    """The per-pattern bincount mixes the subset distribution exactly as
    the per-state redistribution ``new[R & allowed] += dist[R] · p``."""

    @staticmethod
    def _reference(dist, patterns, assignments):
        supports = [support_mask(a) for a in assignments]
        new = np.zeros_like(dist)
        for pattern, p in enumerate(patterns):
            allowed = sum(
                1 << j for j, support in enumerate(supports) if support & ~pattern == 0
            )
            for state, value in enumerate(dist):
                new[state & allowed] += value * p
        return new

    @staticmethod
    def _inputs(seed, capacities, demand):
        rng = np.random.default_rng(seed)
        assignments = enumerate_assignments(capacities, demand)
        dist = rng.random(1 << len(assignments))
        dist[rng.random(len(dist)) < 0.3] = 0.0
        dist /= dist.sum()
        patterns = rng.random(1 << len(capacities))
        patterns[0] = 0.0
        return dist, patterns / patterns.sum(), assignments

    @pytest.mark.parametrize(
        "seed, capacities, demand",
        [(0, [1, 1], 1), (1, [2, 2], 2), (2, [2, 1, 1], 2), (3, [3, 2, 2], 3)],
    )
    def test_matches_per_state_redistribution(self, seed, capacities, demand):
        dist, patterns, assignments = self._inputs(seed, capacities, demand)
        got = _cross_cut(dist, patterns, assignments)
        expected = self._reference(dist, patterns, assignments)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_mass_is_conserved(self):
        dist, patterns, assignments = self._inputs(5, [2, 2, 1], 2)
        assert _cross_cut(dist, patterns, assignments).sum() == pytest.approx(1.0)
