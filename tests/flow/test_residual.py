"""Unit tests for repro.flow.residual."""

import pytest

from repro.exceptions import SolverError
from repro.flow.dinic import DinicSolver
from repro.flow.residual import ResidualGraph, build_template
from repro.graph.network import FlowNetwork


class TestResidualGraph:
    def test_arc_pairing(self):
        g = ResidualGraph(2)
        arc = g.add_arc_pair(0, 1, 5)
        assert arc == 0
        assert g.head[arc] == 1
        assert g.head[arc ^ 1] == 0
        assert g.cap[arc] == 5
        assert g.cap[arc ^ 1] == 0

    def test_adjacency(self):
        g = ResidualGraph(3)
        g.add_arc_pair(0, 1, 1)
        g.add_arc_pair(0, 2, 1)
        assert g.adj[0] == [0, 2]
        assert g.adj[1] == [1]

    def test_out_of_range(self):
        g = ResidualGraph(2)
        with pytest.raises(SolverError):
            g.add_arc_pair(0, 5, 1)

    def test_residual_reachable(self):
        g = ResidualGraph(3)
        g.add_arc_pair(0, 1, 1)
        g.add_arc_pair(1, 2, 0)  # no residual capacity
        seen = g.residual_reachable(0)
        assert seen == [True, True, False]


class TestTemplate:
    def build(self):
        net = FlowNetwork()
        net.add_link("s", "m", 2, 0.1)
        net.add_link("m", "t", 3, 0.1)
        net.add_link("s", "t", 1, 0.1, directed=False)
        return net, build_template(net)

    def test_node_index_covers_all(self):
        net, tpl = self.build()
        assert set(tpl.node_index) == {"s", "m", "t"}

    def test_configure_all_alive(self):
        net, tpl = self.build()
        g = tpl.configure()
        # directed links: cap forward, 0 back; undirected: cap both ways
        assert g.cap[0] == 2 and g.cap[1] == 0
        assert g.cap[4] == 1 and g.cap[5] == 1

    def test_configure_mask(self):
        net, tpl = self.build()
        g = tpl.configure(alive=0b001)
        assert g.cap[0] == 2
        assert g.cap[2] == 0 and g.cap[3] == 0

    def test_configure_iterable(self):
        net, tpl = self.build()
        g = tpl.configure(alive=[1])
        assert g.cap[0] == 0 and g.cap[2] == 3

    def test_configure_resets_previous_state(self):
        net, tpl = self.build()
        g = tpl.configure()
        g.cap[0] = 0  # simulate a solve
        g = tpl.configure()
        assert g.cap[0] == 2

    def test_virtual_arc(self):
        net, tpl = self.build()
        arc = tpl.add_virtual_arc(tpl.node_index["s"], tpl.node_index["t"], 7)
        g = tpl.configure()
        g.cap[arc] = 4  # simulate a solve
        g = tpl.configure(alive=0)
        assert g.cap[arc] == 7  # design capacity restored, dead links or not

    def test_virtual_node_collision(self):
        net = FlowNetwork()
        net.add_link("a", "b", 1)
        with pytest.raises(SolverError):
            build_template(net, extra_nodes=["a"])

    def test_self_loops_skipped(self):
        net = FlowNetwork()
        net.add_link("a", "a", 5)
        net.add_link("a", "b", 1)
        tpl = build_template(net)
        assert tpl.graph.num_arcs == 2  # only the a->b pair

    def test_link_flow_directed(self):
        net, tpl = self.build()
        g = tpl.configure(alive=0b011)  # only the s->m->t path
        DinicSolver().solve_residual(g, tpl.node_index["s"], tpl.node_index["t"])
        assert tpl.link_flow(0) == 2
        assert tpl.link_flow(1) == 2
        assert tpl.link_flow(2) == 0

    def test_link_flow_undirected(self):
        net, tpl = self.build()
        g = tpl.configure(alive=0b100)  # only the undirected s-t link
        DinicSolver().solve_residual(g, tpl.node_index["s"], tpl.node_index["t"])
        assert tpl.link_flow(2) == 1
