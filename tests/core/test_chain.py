"""Unit tests for the chain-decomposition extension."""

import numpy as np
import pytest

from repro.core import certificate
from repro.core.arrays import build_relation_cover
from repro.core.bottleneck import bottleneck_reliability
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.exceptions import DecompositionError, SolverError
from repro.graph.builders import fujita_fig2_bridge, fujita_fig4, series_chain
from repro.graph.generators import bottlenecked_network, chained_network
from repro.graph.transforms import split_on_cuts


def _one_cut_fixtures():
    yield pytest.param(fujita_fig4(), [0, 1], id="fig4")
    yield pytest.param(fujita_fig2_bridge(), [8], id="fig2")
    for seed in range(4):
        net = bottlenecked_network(
            source_side_links=12, sink_side_links=12, demand=2, seed=seed
        )
        yield pytest.param(net, [0, 1], id=f"bottlenecked-{seed}")


class TestChainReliability:
    @pytest.mark.parametrize("net, cut", list(_one_cut_fixtures()))
    def test_single_cut_equals_bottleneck(self, net, cut):
        """A one-cut chain is the paper's split: the same pipeline, so
        the same bits."""
        demand = FlowDemand("s", "t", 2)
        chain = chain_reliability(net, demand, [cut])
        bneck = bottleneck_reliability(net, demand, cut=cut)
        assert chain.value.hex() == bneck.value.hex()
        assert chain.flow_calls == bneck.flow_calls
        assert chain.details["num_cuts"] == 1

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
    def test_max_flow_fallback_matches_naive(self, seed, monkeypatch):
        net = chained_network([4, 5, 4], cut_sizes=2, demand=2, seed=seed)
        demand = FlowDemand("s", "t", 2)
        default = chain_reliability(net, demand, net._chain_cut_indices)
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        solved = chain_reliability(net, demand, net._chain_cut_indices)
        assert solved.flow_calls > 0
        assert solved.value == pytest.approx(default.value, abs=1e-12)
        assert solved.value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-10
        )

    def test_details(self):
        net = chained_network([4, 4, 4], cut_sizes=2, demand=1, seed=0)
        result = chain_reliability(net, FlowDemand("s", "t", 1), net._chain_cut_indices)
        assert result.details["num_cuts"] == 2
        assert len(result.details["interface_sizes"]) == 2


class TestChainGuards:
    def test_interface_assignment_budget(self):
        # d=4 over 4-link cuts: |A| = C(7,3) = 35 > the DP budget of 16
        net = chained_network([8, 16, 8], cut_sizes=4, demand=4, seed=0)
        demand = FlowDemand("s", "t", 4)
        with pytest.raises(DecompositionError, match="35 assignments"):
            chain_reliability(net, demand, net._chain_cut_indices)

    def test_one_cut_has_no_subset_vector_to_bound(self):
        """One cut is closed by per-class pair sums, never a dense subset
        vector, so 35 assignments run as the paper's split does."""
        net = chained_network([8, 8], cut_sizes=4, demand=4, seed=0)
        demand = FlowDemand("s", "t", 4)
        chain = chain_reliability(net, demand, net._chain_cut_indices)
        bneck = bottleneck_reliability(net, demand, cut=net._chain_cut_indices[0])
        assert chain.details["interface_sizes"] == [35]
        assert chain.value.hex() == bneck.value.hex()


class TestRelationCover:
    def _request(self):
        net = chained_network([4, 5, 4], cut_sizes=2, demand=2, seed=7)
        split = split_on_cuts(net, "s", "t", net._chain_cut_indices)
        return split.segments[1], dict(
            in_ports=split.in_ports[0],
            out_ports=split.out_ports[1],
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
