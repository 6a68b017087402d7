"""Additional tests for repro.flow.base and the Dinic solver: template
reuse and infinite-capacity arcs."""

from repro.flow.base import max_flow
from repro.flow.dinic import DinicSolver
from repro.flow.residual import INFINITE_CAPACITY, build_template
from repro.graph.builders import diamond, two_paths
from repro.graph.network import FlowNetwork


class TestTemplateReuse:
    def test_repeated_solves_on_one_template(self):
        net = two_paths(2, 1)
        template = build_template(net)
        solver = DinicSolver()
        values = []
        for alive in (None, 0b0011, 0b1100, 0b0000):
            values.append(
                solver.max_flow(net, "s", "t", alive=alive, template=template).value
            )
        assert values == [3, 2, 1, 0]

    def test_template_state_does_not_leak(self):
        net = diamond()
        template = build_template(net)
        solver = DinicSolver()
        first = solver.max_flow(net, "s", "t", template=template).value
        second = solver.max_flow(net, "s", "t", template=template).value
        assert first == second == 2

    def test_interleaved_limits(self):
        net = two_paths(2, 1)
        template = build_template(net)
        solver = DinicSolver()
        limited = solver.max_flow(net, "s", "t", limit=1, template=template).value
        full = solver.max_flow(net, "s", "t", template=template).value
        assert (limited, full) == (1, 3)


class TestInfiniteCapacity:
    def test_virtual_arc_never_bottlenecks(self):
        net = FlowNetwork()
        net.add_link("s", "m", 1000, 0.0)
        net.add_link("m", "t", 1000, 0.0)
        template = build_template(net, extra_nodes=["virt"])
        arc = template.add_virtual_arc(
            template.node_index["s"], template.node_index["virt"], INFINITE_CAPACITY
        )
        graph = template.configure()
        assert graph.cap[arc] == INFINITE_CAPACITY

    def test_infinite_capacity_magnitude(self):
        # large enough to never bind, small enough to sum safely
        assert INFINITE_CAPACITY > 10**9
        assert INFINITE_CAPACITY * 1000 < 2**63


class TestMaxFlowEdgeCases:
    def test_zero_capacity_network(self):
        net = FlowNetwork()
        net.add_link("s", "t", 0)
        assert max_flow(net, "s", "t").value == 0

    def test_self_loop_contributes_nothing(self):
        net = FlowNetwork()
        net.add_link("s", "s", 5)
        net.add_link("s", "t", 1)
        assert max_flow(net, "s", "t").value == 1

    def test_isolated_terminals(self):
        net = FlowNetwork()
        net.add_node("s")
        net.add_node("t")
        result = max_flow(net, "s", "t")
        assert result.value == 0
        assert result.link_flows == {}

    def test_limit_zero(self):
        assert max_flow(diamond(), "s", "t", limit=0).value == 0
