"""Unit tests for repro.graph.cuts."""

import pytest

from repro.exceptions import DecompositionError
from repro.graph.builders import (
    diamond,
    fujita_fig2_bridge,
    fujita_fig4,
    parallel_links,
    series_chain,
)
from repro.graph.cuts import (
    bridges_between,
    find_bottleneck,
    is_disconnecting,
    is_minimal_cut,
    minimal_st_cuts,
    minimum_cardinality_cut,
    verify_bottleneck,
)
from repro.graph.generators import bottlenecked_network, random_network
from repro.graph.network import FlowNetwork
from tests.reference_cuts import reference_find_bottleneck


class TestIsDisconnecting:
    def test_chain_single_link(self):
        net = series_chain(3)
        assert is_disconnecting(net, "s", "t", [1])

    def test_diamond_needs_two(self):
        net = diamond()
        assert not is_disconnecting(net, "s", "t", [0])
        assert is_disconnecting(net, "s", "t", [0, 1])
        assert is_disconnecting(net, "s", "t", [2, 3])

    def test_mixed_pair(self):
        # one link per path also separates
        assert is_disconnecting(diamond(), "s", "t", [0, 3])

    def test_undirected_semantics(self):
        net = FlowNetwork()
        net.add_link("t", "s", 1)  # wrong direction but still connects
        assert not is_disconnecting(net, "s", "t", [])
        assert is_disconnecting(net, "s", "t", [0])


class TestIsMinimalCut:
    def test_minimal(self):
        assert is_minimal_cut(diamond(), "s", "t", [0, 1])

    def test_superset_not_minimal(self):
        assert not is_minimal_cut(diamond(), "s", "t", [0, 1, 2])

    def test_non_disconnecting_not_minimal(self):
        assert not is_minimal_cut(diamond(), "s", "t", [0])

    def test_duplicates_rejected(self):
        assert not is_minimal_cut(series_chain(2), "s", "t", [0, 0])


class TestBridgesBetween:
    def test_chain(self):
        assert bridges_between(series_chain(3), "s", "t") == [0, 1, 2]

    def test_bridge_not_separating_terminals(self):
        net = FlowNetwork()
        net.add_link("s", "t", 1)
        net.add_link("s", "t", 1)
        net.add_link("t", "appendix", 1)  # bridge, but s-t unaffected
        assert bridges_between(net, "s", "t") == []

    def test_fig2(self):
        assert bridges_between(fujita_fig2_bridge(), "s", "t") == [8]


class TestMinimumCardinalityCut:
    def test_parallel_links(self):
        cut = minimum_cardinality_cut(parallel_links(3), "s", "t")
        assert sorted(cut) == [0, 1, 2]

    def test_bridge_graph(self):
        assert minimum_cardinality_cut(fujita_fig2_bridge(), "s", "t") == [8]

    def test_fig4(self):
        assert minimum_cardinality_cut(fujita_fig4(), "s", "t") == [0, 1]

    def test_disconnected_returns_none(self):
        net = FlowNetwork()
        net.add_node("s")
        net.add_node("t")
        assert minimum_cardinality_cut(net, "s", "t") is None

    def test_result_is_minimal(self):
        net = bottlenecked_network(
            source_side_links=6, sink_side_links=6, num_bottlenecks=2, seed=9
        )
        cut = minimum_cardinality_cut(net, "s", "t")
        assert is_minimal_cut(net, "s", "t", cut)


class TestMinimalStCuts:
    def test_diamond_size_two(self):
        cuts = {frozenset(c) for c in minimal_st_cuts(diamond(), "s", "t", 2)}
        assert cuts == {
            frozenset({0, 1}),
            frozenset({2, 3}),
            frozenset({0, 3}),
            frozenset({1, 2}),
        }

    def test_size_bound_respected(self):
        assert minimal_st_cuts(diamond(), "s", "t", 1) == []

    def test_chain_bridges(self):
        cuts = minimal_st_cuts(series_chain(3), "s", "t", 1)
        assert sorted(cuts) == [(0,), (1,), (2,)]

    def test_no_superset_of_smaller_cut(self):
        cuts = minimal_st_cuts(series_chain(3), "s", "t", 2)
        assert all(len(c) == 1 for c in cuts)

    def test_limit(self):
        cuts = minimal_st_cuts(diamond(), "s", "t", 2, limit=2)
        assert len(cuts) == 2

    def test_every_returned_cut_is_minimal(self):
        net = fujita_fig4()
        for cut in minimal_st_cuts(net, "s", "t", 3):
            assert is_minimal_cut(net, "s", "t", list(cut))


class TestVerifyBottleneck:
    def test_accepts_fig4_cut(self):
        split = verify_bottleneck(fujita_fig4(), "s", "t", [0, 1])
        assert split.cut == (0, 1)

    def test_rejects_non_minimal(self):
        with pytest.raises(DecompositionError):
            verify_bottleneck(fujita_fig4(), "s", "t", [0, 1, 2])

    def test_rejects_non_separating(self):
        with pytest.raises(DecompositionError):
            verify_bottleneck(fujita_fig4(), "s", "t", [0])


class TestFindBottleneck:
    def test_fig2_finds_bridge(self):
        split = find_bottleneck(fujita_fig2_bridge(), "s", "t")
        assert split.cut == (8,)

    def test_fig4_finds_pair(self):
        split = find_bottleneck(fujita_fig4(), "s", "t")
        assert split.cut == (0, 1)

    def test_minimizes_alpha(self):
        # an unbalanced graph: the best cut is the one near the middle
        net = bottlenecked_network(
            source_side_links=8, sink_side_links=8, num_bottlenecks=2, seed=4
        )
        split = find_bottleneck(net, "s", "t")
        assert split is not None
        assert split.alpha <= 0.75

    def test_none_when_no_small_cut(self):
        assert find_bottleneck(parallel_links(5), "s", "t", max_size=3) is None

    @pytest.mark.parametrize("max_candidates", [0, 1, 3, 256])
    def test_same_split_as_the_reference_search(self, max_candidates):
        """Generated nets, every cut size bound and enumeration cap: the
        scored search picks the reference's split (which splits every
        candidate); a cap that cuts the enumeration off brings in the
        bridges and the minimum-cardinality cut."""
        nets = [fujita_fig4(), fujita_fig2_bridge()]
        for seed in range(12):
            nets.append(random_network(8 + seed % 6, 12 + seed % 10, seed=seed))
            nets.append(
                bottlenecked_network(
                    source_side_links=4 + seed % 5,
                    sink_side_links=3 + seed % 6,
                    num_bottlenecks=1 + seed % 3,
                    seed=seed,
                )
            )
        for net in nets:
            for max_size in (1, 2, 3):
                options = {"max_size": max_size, "max_candidates": max_candidates}
                got = find_bottleneck(net, "s", "t", **options)
                want = reference_find_bottleneck(net, "s", "t", **options)
                assert (got is None) == (want is None)
                assert got is None or got.cut == want.cut

    def test_capped_enumeration_falls_back_to_bridges_and_menger(self):
        assert find_bottleneck(fujita_fig2_bridge(), "s", "t", max_candidates=0).cut == (8,)
        assert find_bottleneck(fujita_fig4(), "s", "t", max_candidates=0).cut == (0, 1)

    def test_designed_bottleneck_recovered(self):
        for seed in range(3):
            net = bottlenecked_network(
                source_side_links=6,
                sink_side_links=6,
                num_bottlenecks=2,
                demand=2,
                seed=seed,
            )
            split = find_bottleneck(net, "s", "t")
            assert split is not None
            assert set(split.cut) == {0, 1}
