"""Solver stress cases: the structures augmenting-path algorithms find
hardest, along every route to the solver (``tests/flow/routes.py``)."""

import pytest

from repro.flow.base import max_flow
from repro.graph.generators import layered_network
from repro.graph.network import FlowNetwork
from tests.flow.routes import ROUTES, route_max_flow
from tests.flow.test_solvers import networkx_max_flow


def big_capacity_trap() -> FlowNetwork:
    """The classic 2-path network where naive augmenting paths zig-zag
    through the cross edge C times (C large)."""
    net = FlowNetwork()
    c = 10_000
    net.add_link("s", "a", c)
    net.add_link("s", "b", c)
    net.add_link("a", "b", 1)
    net.add_link("a", "t", c)
    net.add_link("b", "t", c)
    return net


def gap_trigger() -> FlowNetwork:
    """A dead-end chamber the level graph must prune."""
    net = FlowNetwork()
    net.add_link("s", "a", 5)
    net.add_link("a", "dead1", 5)
    net.add_link("dead1", "dead2", 5)
    net.add_link("a", "t", 1)
    return net


def long_zigzag(depth: int) -> FlowNetwork:
    net = FlowNetwork()
    prev = "s"
    for i in range(depth):
        net.add_link(prev, f"u{i}", 2)
        net.add_link(f"u{i}", f"v{i}", 2)
        prev = f"v{i}"
    net.add_link(prev, "t", 2)
    return net


@pytest.mark.parametrize("route", ROUTES)
class TestStressShapes:
    def test_big_capacity_trap(self, route):
        assert route_max_flow(route, big_capacity_trap(), "s", "t") == 20_000

    def test_gap_trigger(self, route):
        assert route_max_flow(route, gap_trigger(), "s", "t") == 1

    def test_long_chain(self, route):
        assert route_max_flow(route, long_zigzag(40), "s", "t") == 2

    def test_dense_layered(self, route):
        net = layered_network([5, 6, 5], seed=3, max_capacity=7)
        assert route_max_flow(route, net, "s", "t") == networkx_max_flow(net, "s", "t")

    def test_zero_probability_structures_are_irrelevant(self, route):
        # failure probabilities never affect max flow
        net = big_capacity_trap().with_failure_probabilities(
            [0.9, 0.1, 0.5, 0.3, 0.7]
        )
        assert route_max_flow(route, net, "s", "t") == 20_000


class TestLimitsOnStressShapes:
    @pytest.mark.parametrize("route", ROUTES)
    def test_limit_caps_work_on_trap(self, route):
        assert route_max_flow(route, big_capacity_trap(), "s", "t", limit=5) == 5

    def test_limited_result_on_trap_is_flagged(self):
        result = max_flow(big_capacity_trap(), "s", "t", limit=5)
        assert result.value == 5
        assert result.limited
