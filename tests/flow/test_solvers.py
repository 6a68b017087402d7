"""Unit tests for the four max-flow solvers, cross-checked on shared
instances and against networkx as an independent oracle."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import SolverError
from repro.flow.base import (
    available_solvers,
    get_solver,
    is_feasible,
    max_flow,
    max_flow_value,
)
from repro.graph.builders import diamond, grid_network, parallel_links, series_chain, two_paths
from repro.graph.generators import layered_network, random_network
from repro.graph.network import FlowNetwork
from repro.obs import record

SOLVERS = ["dinic", "edmonds_karp", "push_relabel", "capacity_scaling"]


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


class TestRegistry:
    def test_all_registered(self):
        assert set(SOLVERS) <= set(available_solvers())

    def test_default_is_dinic(self):
        assert get_solver().name == "dinic"

    def test_instance_passthrough(self):
        solver = get_solver("dinic")
        assert get_solver(solver) is solver

    def test_unknown_name(self):
        with pytest.raises(SolverError):
            get_solver("simplex")


@pytest.mark.parametrize("solver", SOLVERS)
class TestKnownValues:
    def test_chain(self, solver):
        assert max_flow_value(series_chain(4, capacity=3), "s", "t", solver=solver) == 3

    def test_parallel(self, solver):
        assert max_flow_value(parallel_links(4, capacity=2), "s", "t", solver=solver) == 8

    def test_diamond(self, solver):
        assert max_flow_value(diamond(capacity=2), "s", "t", solver=solver) == 4

    def test_two_paths(self, solver):
        assert max_flow_value(two_paths(2, 1), "s", "t", solver=solver) == 3

    def test_grid(self, solver):
        assert max_flow_value(grid_network(3, 3), "s", "t", solver=solver) == 3

    def test_disconnected(self, solver):
        net = FlowNetwork()
        net.add_node("s")
        net.add_node("t")
        net.add_link("s", "m", 5)
        assert max_flow_value(net, "s", "t", solver=solver) == 0

    def test_wrong_direction_is_zero(self, solver):
        net = FlowNetwork()
        net.add_link("t", "s", 5)
        assert max_flow_value(net, "s", "t", solver=solver) == 0

    def test_undirected_counts_both_ways(self, solver):
        net = FlowNetwork()
        net.add_link("t", "s", 5, directed=False)
        assert max_flow_value(net, "s", "t", solver=solver) == 5

    def test_alive_mask(self, solver):
        net = diamond(capacity=1)
        assert max_flow_value(net, "s", "t", alive=0b0101, solver=solver) == 1

    def test_classic_antiparallel_augmentation(self, solver):
        # the textbook case requiring flow cancellation along a reverse arc
        net = FlowNetwork()
        net.add_link("s", "a", 1)
        net.add_link("s", "b", 1)
        net.add_link("a", "b", 1)
        net.add_link("a", "t", 1)
        net.add_link("b", "t", 1)
        assert max_flow_value(net, "s", "t", solver=solver) == 2


@pytest.mark.parametrize("solver", SOLVERS)
class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_networks(self, solver, seed):
        net = random_network(7, 14, seed=seed, max_capacity=4)
        expected = networkx_max_flow(net, "s", "t")
        assert max_flow_value(net, "s", "t", solver=solver) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_layered(self, solver, seed):
        net = layered_network([3, 4, 3], seed=seed)
        expected = networkx_max_flow(net, "s", "t")
        assert max_flow_value(net, "s", "t", solver=solver) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_random_alive_subsets(self, solver, seed):
        rng = np.random.default_rng(seed)
        net = random_network(6, 12, seed=seed)
        for _ in range(5):
            alive = {i for i in range(net.num_links) if rng.random() < 0.6}
            expected = networkx_max_flow(net, "s", "t", alive=alive)
            assert max_flow_value(net, "s", "t", alive=alive, solver=solver) == expected


class TestLimits:
    @pytest.mark.parametrize("solver", ["dinic", "edmonds_karp", "capacity_scaling"])
    def test_limit_truncates(self, solver):
        net = parallel_links(4, capacity=2)
        result = max_flow(net, "s", "t", limit=3, solver=solver)
        assert result.value == 3
        assert result.limited

    def test_push_relabel_limit_caps_value(self):
        net = parallel_links(4, capacity=2)
        result = max_flow(net, "s", "t", limit=3, solver="push_relabel")
        assert result.value == 3

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_limit_above_max_flow(self, solver):
        net = diamond(capacity=1)
        assert max_flow(net, "s", "t", limit=10, solver=solver).value == 2

    def test_is_feasible(self):
        net = two_paths(2, 1)
        assert is_feasible(net, "s", "t", 3)
        assert not is_feasible(net, "s", "t", 4)

    def test_is_feasible_zero_demand(self):
        assert is_feasible(diamond(), "s", "t", 0)


class TestResultObject:
    def test_link_flows_conserve(self):
        net = diamond(capacity=1)
        result = max_flow(net, "s", "t")
        # both branches saturated
        assert result.link_flows == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_min_cut_side_contains_source(self):
        result = max_flow(series_chain(3), "s", "t")
        assert "s" in result.min_cut_source_side
        assert "t" not in result.min_cut_source_side

    def test_source_equals_sink_rejected(self):
        with pytest.raises(SolverError):
            max_flow(diamond(), "s", "s")

    def test_unknown_terminal_rejected(self):
        with pytest.raises(SolverError):
            max_flow(diamond(), "s", "zzz")


@pytest.mark.parametrize("name", available_solvers())
def test_solves_are_counted_under_the_registered_name(name):
    with record() as recorder:
        value = get_solver(name).max_flow(diamond(), "s", "t").value
    totals = recorder.counter_totals()
    assert value > 0
    assert totals[f"solver.{name}.solves"] == 1
    assert f"solver.{name}.seconds" in totals
    assert not [key for key in totals if key.startswith("solver.unnamed.")]
