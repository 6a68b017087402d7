"""Unit tests for the Dinic max-flow solver, cross-checked on shared
instances and against networkx as an independent oracle, along every
route the library reaches the solver by (``tests/flow/routes.py``)."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.flow.base import is_feasible, max_flow, max_flow_value
from repro.flow.dinic import DinicSolver
from repro.flow.residual import build_template
from repro.graph.builders import diamond, grid_network, parallel_links, series_chain, two_paths
from repro.graph.generators import layered_network, random_network
from repro.graph.network import FlowNetwork
from repro.obs import record
from tests.flow.routes import ROUTES, route_max_flow


def networkx_max_flow(net: FlowNetwork, source, sink, alive=None) -> int:
    """Independent oracle via networkx (never used by the library)."""
    g = nx.DiGraph()
    g.add_nodes_from(net.nodes())
    for link in net.links():
        if alive is not None and link.index not in alive:
            continue
        if link.tail == link.head:
            continue
        pairs = [(link.tail, link.head)]
        if not link.directed:
            pairs.append((link.head, link.tail))
        for u, v in pairs:
            if g.has_edge(u, v):
                g[u][v]["capacity"] += link.capacity
            else:
                g.add_edge(u, v, capacity=link.capacity)
    return nx.maximum_flow_value(g, source, sink)


@pytest.mark.parametrize("route", ROUTES)
class TestKnownValues:
    def test_chain(self, route):
        assert route_max_flow(route, series_chain(4, capacity=3), "s", "t") == 3

    def test_parallel(self, route):
        assert route_max_flow(route, parallel_links(4, capacity=2), "s", "t") == 8

    def test_diamond(self, route):
        assert route_max_flow(route, diamond(capacity=2), "s", "t") == 4

    def test_two_paths(self, route):
        assert route_max_flow(route, two_paths(2, 1), "s", "t") == 3

    def test_grid(self, route):
        assert route_max_flow(route, grid_network(3, 3), "s", "t") == 3

    def test_disconnected(self, route):
        net = FlowNetwork()
        net.add_node("s")
        net.add_node("t")
        net.add_link("s", "m", 5)
        assert route_max_flow(route, net, "s", "t") == 0

    def test_wrong_direction_is_zero(self, route):
        net = FlowNetwork()
        net.add_link("t", "s", 5)
        assert route_max_flow(route, net, "s", "t") == 0

    def test_undirected_counts_both_ways(self, route):
        net = FlowNetwork()
        net.add_link("t", "s", 5, directed=False)
        assert route_max_flow(route, net, "s", "t") == 5

    def test_alive_mask(self, route):
        net = diamond(capacity=1)
        assert route_max_flow(route, net, "s", "t", alive=0b0101) == 1

    def test_classic_antiparallel_augmentation(self, route):
        # the textbook case requiring flow cancellation along a reverse arc
        net = FlowNetwork()
        net.add_link("s", "a", 1)
        net.add_link("s", "b", 1)
        net.add_link("a", "b", 1)
        net.add_link("a", "t", 1)
        net.add_link("b", "t", 1)
        assert route_max_flow(route, net, "s", "t") == 2


@pytest.mark.parametrize("route", ROUTES)
class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_networks(self, seed, route):
        net = random_network(7, 14, seed=seed, max_capacity=4)
        expected = networkx_max_flow(net, "s", "t")
        assert route_max_flow(route, net, "s", "t") == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_layered(self, seed, route):
        net = layered_network([3, 4, 3], seed=seed)
        expected = networkx_max_flow(net, "s", "t")
        assert route_max_flow(route, net, "s", "t") == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_random_alive_subsets(self, seed, route):
        rng = np.random.default_rng(seed)
        net = random_network(6, 12, seed=seed)
        for _ in range(5):
            alive = {i for i in range(net.num_links) if rng.random() < 0.6}
            expected = networkx_max_flow(net, "s", "t", alive=alive)
            assert route_max_flow(route, net, "s", "t", alive=alive) == expected


class TestLimits:
    @pytest.mark.parametrize("route", ROUTES)
    def test_limit_truncates(self, route):
        assert route_max_flow(route, parallel_links(4, capacity=2), "s", "t", limit=3) == 3

    @pytest.mark.parametrize("route", ROUTES)
    def test_limit_above_max_flow(self, route):
        assert route_max_flow(route, diamond(capacity=1), "s", "t", limit=10) == 2

    def test_limited_result_is_flagged(self):
        result = max_flow(parallel_links(4, capacity=2), "s", "t", limit=3)
        assert result.value == 3
        assert result.limited
        assert not max_flow(parallel_links(4, capacity=2), "s", "t").limited

    def test_is_feasible(self):
        net = two_paths(2, 1)
        assert is_feasible(net, "s", "t", 3)
        assert not is_feasible(net, "s", "t", 4)

    def test_is_feasible_zero_demand(self):
        assert is_feasible(diamond(), "s", "t", 0)


def _packaged(net, source, sink, template):
    """``DinicSolver.max_flow`` on a fresh template, or on one a full
    solve and a one-link-dead solve have already used (the reliability
    loops' fast path): the package must not depend on the template's
    history."""
    solver = DinicSolver()
    if template == "reused":
        used = build_template(net)
        solver.max_flow(net, "s", "t", template=used)
        solver.max_flow(net, "s", "t", alive=(1 << net.num_links) - 2, template=used)
        return solver.max_flow(net, source, sink, template=used)
    return solver.max_flow(net, source, sink)


@pytest.mark.parametrize("template", ["fresh", "reused"])
class TestResultObject:
    def test_link_flows_conserve(self, template):
        net = diamond(capacity=1)
        result = _packaged(net, "s", "t", template)
        # both branches saturated
        assert result.link_flows == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_min_cut_side_contains_source(self, template):
        result = _packaged(series_chain(3), "s", "t", template)
        assert "s" in result.min_cut_source_side
        assert "t" not in result.min_cut_source_side

    def test_source_equals_sink_rejected(self, template):
        with pytest.raises(SolverError):
            _packaged(diamond(), "s", "s", template)

    def test_unknown_terminal_rejected(self, template):
        with pytest.raises(SolverError):
            _packaged(diamond(), "s", "zzz", template)


def _count_through_oracle():
    from repro.core.feasibility import FeasibilityOracle

    return FeasibilityOracle(diamond(), "s", "t", 2).flow_value(None)


#: The recorder-accounted entry points: each is one ``DinicSolver.solve``.
_COUNTED = {
    "solver": lambda: DinicSolver().max_flow(diamond(), "s", "t").value,
    "helper": lambda: max_flow(diamond(), "s", "t").value,
    "value": lambda: max_flow_value(diamond(), "s", "t"),
    "oracle": _count_through_oracle,
}


@pytest.mark.parametrize("entry", sorted(_COUNTED))
def test_solves_are_counted_under_the_dinic_names(entry):
    with record() as recorder:
        value = _COUNTED[entry]()
    totals = recorder.counter_totals()
    assert value == 2
    assert totals["solver.dinic.solves"] == 1
    assert totals["solver.dinic.paths"] == 2
    assert "solver.dinic.seconds" in totals
