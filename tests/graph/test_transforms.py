"""Unit tests for repro.graph.transforms."""

import pytest

from repro.exceptions import DecompositionError
from repro.graph.builders import diamond, fujita_fig2_bridge, fujita_fig4, series_chain
from repro.graph.generators import chained_network
from repro.graph.network import FlowNetwork
from repro.graph.transforms import (
    alive_subnetwork,
    induced_subnetwork,
    split_on_cut,
    split_on_cuts,
)


class TestAliveSubnetwork:
    def test_keeps_all_nodes(self):
        view = alive_subnetwork(diamond(), [0])
        assert view.network.num_nodes == 4

    def test_keeps_only_selected_links(self):
        view = alive_subnetwork(diamond(), [1, 3])
        assert view.network.num_links == 2
        assert view.link_map == (1, 3)

    def test_link_map_translates(self):
        view = alive_subnetwork(diamond(), [2])
        assert view.parent_index(0) == 2

    def test_duplicates_collapsed(self):
        view = alive_subnetwork(diamond(), [1, 1, 0])
        assert view.link_map == (0, 1)

    def test_attributes_preserved(self):
        net = FlowNetwork()
        net.add_link("a", "b", 5, 0.25, directed=False)
        view = alive_subnetwork(net, [0])
        link = view.network.link(0)
        assert link.capacity == 5
        assert link.failure_probability == pytest.approx(0.25)
        assert not link.directed


class TestInducedSubnetwork:
    def test_induced_links(self):
        view = induced_subnetwork(diamond(), ["s", "a", "t"])
        # keeps s->a and a->t only
        assert sorted(view.link_map) == [0, 2]

    def test_nodes_restricted(self):
        view = induced_subnetwork(diamond(), ["s", "a"])
        assert set(view.network.nodes()) == {"s", "a"}

    def test_empty_selection(self):
        view = induced_subnetwork(diamond(), [])
        assert view.network.num_nodes == 0
        assert view.network.num_links == 0


class TestSplitOnCut:
    def test_fig2_bridge_split(self):
        net = fujita_fig2_bridge()
        split = split_on_cut(net, "s", "t", [8])
        assert len(split.source_side.link_map) == 4
        assert len(split.sink_side.link_map) == 4
        assert split.source_ports == ("x",)
        assert split.sink_ports == ("y",)

    def test_fig4_split(self):
        net = fujita_fig4()
        split = split_on_cut(net, "s", "t", [0, 1])
        assert split.source_ports == ("x1", "x2")
        assert split.sink_ports == ("y1", "y2")
        assert sorted(split.source_side.link_map) == [2, 3, 4, 5]
        assert sorted(split.sink_side.link_map) == [6, 7, 8]

    def test_alpha(self):
        split = split_on_cut(fujita_fig4(), "s", "t", [0, 1])
        assert split.alpha == pytest.approx(4 / 9)

    def test_non_separating_cut_rejected(self):
        with pytest.raises(DecompositionError):
            split_on_cut(diamond(), "s", "t", [0])

    def test_duplicate_cut_rejected(self):
        with pytest.raises(DecompositionError):
            split_on_cut(fujita_fig2_bridge(), "s", "t", [8, 8])

    def test_backwards_directed_cut_link_rejected(self):
        net = FlowNetwork()
        net.add_link("s", "a", 1)
        net.add_link("t", "a", 1)  # points from sink side into source side
        net.add_link("b", "t", 1)
        net.add_link("a", "b", 1)
        # cut {1, 3} separates {s,a} from {b,t}; link 1 points backwards
        with pytest.raises(DecompositionError):
            split_on_cut(net, "s", "t", [1, 3])

    def test_undirected_backwards_cut_link_allowed(self):
        net = FlowNetwork()
        net.add_link("s", "a", 1)
        net.add_link("t", "a", 1, directed=False)
        net.add_link("b", "t", 1)
        net.add_link("a", "b", 1)
        split = split_on_cut(net, "s", "t", [1, 3])
        assert split.source_ports == ("a", "a")
        assert split.sink_ports == ("t", "b")

    def test_extra_component_rejected(self):
        net = FlowNetwork()
        net.add_link("s", "a", 1)  # 0
        net.add_link("a", "m", 1)  # 1 (cut)
        net.add_link("m", "b", 1)  # 2 (cut) -- removing 1,2 isolates m
        net.add_link("b", "t", 1)  # 3
        with pytest.raises(DecompositionError):
            split_on_cut(net, "s", "t", [1, 2])

    def test_cut_inside_one_side_rejected(self):
        net = fujita_fig2_bridge()
        # link 0 lives inside G_s; adding it to the cut leaves it not
        # joining the two sides
        with pytest.raises(DecompositionError):
            split_on_cut(net, "s", "t", [8, 0])


class TestSplitOnCuts:
    """The one validator on ordered cut sequences: a chain of ``r`` cuts
    is a split of ``r + 1`` segments."""

    def test_single_cut(self):
        split = split_on_cuts(fujita_fig4(), "s", "t", [[0, 1]])
        assert len(split.segments) == 2
        assert split.out_ports == (("x1", "x2"),)
        assert split.in_ports == (("y1", "y2"),)
        assert split == split_on_cut(fujita_fig4(), "s", "t", [0, 1])

    def test_series_chain_cuts(self):
        net = series_chain(3)
        split = split_on_cuts(net, "s", "t", [[0], [1], [2]])
        assert len(split.segments) == 4
        assert max(len(seg.link_map) for seg in split.segments) == 0

    def test_generated_chain(self):
        net = chained_network([4, 4, 4], cut_sizes=2, demand=1, seed=0)
        split = split_on_cuts(net, "s", "t", net._chain_cut_indices)
        assert len(split.segments) == 3
        assert split.cuts == tuple(map(tuple, net._chain_cut_indices))
        assert split.cut == split.cuts[-1]
        assert split.source_ports == split.out_ports[0]
        assert split.sink_ports == split.in_ports[-1]
        assert split.num_links == net.num_links
        assert split.alpha == 4 / net.num_links

    def test_overlapping_cuts_rejected(self):
        with pytest.raises(DecompositionError):
            split_on_cuts(series_chain(3), "s", "t", [[0], [0]])

    def test_wrong_order_rejected(self):
        net = series_chain(3)
        with pytest.raises(DecompositionError):
            split_on_cuts(net, "s", "t", [[1], [0]])

    def test_non_separating_rejected(self):
        net = fujita_fig4()
        with pytest.raises(DecompositionError):
            split_on_cuts(net, "s", "t", [[0]])

    def test_backwards_cut_link_rejected(self):
        net = FlowNetwork()
        net.add_link("s", "a", 1)
        net.add_link("b", "a", 1)  # backwards across the cut
        net.add_link("b", "t", 1)
        with pytest.raises(DecompositionError):
            split_on_cuts(net, "s", "t", [[1]])

    def test_empty_cut_list_rejected(self):
        with pytest.raises(DecompositionError):
            split_on_cuts(series_chain(2), "s", "t", [])

    def test_empty_cut_rejected(self):
        with pytest.raises(DecompositionError, match="at least one link"):
            split_on_cuts(series_chain(2), "s", "t", [[0], []])
