"""Integration: structural graph algorithms vs networkx oracles.

networkx never appears in library code; here it independently verifies
bridges, connectivity, minimum cuts and unit-demand reliability on
randomized instances.
"""

import itertools

import networkx as nx
import pytest

from repro.core.demand import FlowDemand
from repro.core.frontier import directed_frontier_reliability, frontier_reliability
from repro.flow.base import max_flow
from repro.flow.mincut import min_cut_capacity
from repro.graph.connectivity import bridges, connected_components, is_connected
from repro.graph.cuts import minimum_cardinality_cut
from repro.graph.generators import random_network
from repro.graph.network import FlowNetwork
from tests.conftest import random_small_network


def to_multigraph(net: FlowNetwork) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(net.nodes())
    for link in net.links():
        if link.tail != link.head:
            g.add_edge(link.tail, link.head, index=link.index)
    return g


def to_digraph(net: FlowNetwork) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(net.nodes())
    for link in net.links():
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
    return g


class TestConnectivityOracles:
    @pytest.mark.parametrize("seed", range(8))
    def test_components_match(self, seed):
        net = random_small_network(seed)
        ours = {frozenset(map(str, c)) for c in connected_components(net)}
        theirs = {
            frozenset(map(str, c)) for c in nx.connected_components(to_multigraph(net))
        }
        assert ours == theirs

    @pytest.mark.parametrize("seed", range(8))
    def test_is_connected_matches(self, seed):
        net = random_small_network(seed)
        assert is_connected(net) == nx.is_connected(to_multigraph(net))

    @pytest.mark.parametrize("seed", range(8))
    def test_bridges_match(self, seed):
        net = random_small_network(seed)
        g = to_multigraph(net)
        # networkx bridges() works on simple graphs; identify multigraph
        # bridge *edges* by endpoint pair with multiplicity 1.
        simple = nx.Graph(g)
        nx_bridge_pairs = set(map(frozenset, nx.bridges(simple)))
        our_pairs = set()
        for index in bridges(net):
            link = net.link(index)
            our_pairs.add(frozenset((link.tail, link.head)))
        # a pair detected by networkx with parallel links is not a bridge
        expected = {
            pair
            for pair in nx_bridge_pairs
            if g.number_of_edges(*tuple(pair)) == 1
        }
        assert our_pairs == expected


class TestCutOracles:
    @pytest.mark.parametrize("seed", range(6))
    def test_minimum_cardinality_cut_size(self, seed):
        net = random_small_network(seed)
        cut = minimum_cardinality_cut(net, "s", "t")
        g = to_multigraph(net)
        if not nx.has_path(g, "s", "t"):
            assert cut is None
            return
        # networkx's minimum_edge_cut ignores multigraph multiplicity
        # (parallel links must ALL be cut); the honest oracle is unit
        # max-flow with capacity = multiplicity.
        weighted = nx.Graph()
        weighted.add_nodes_from(g.nodes())
        for u, v in g.edges():
            if weighted.has_edge(u, v):
                weighted[u][v]["capacity"] += 1
            else:
                weighted.add_edge(u, v, capacity=1)
        expected = nx.maximum_flow_value(weighted.to_directed(), "s", "t")
        assert len(cut) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_max_flow_min_cut_duality_on_random(self, seed):
        net = random_network(7, 13, seed=seed, max_capacity=4)
        result = max_flow(net, "s", "t")
        assert min_cut_capacity(net, result) == result.value
        assert result.value == nx.maximum_flow_value(to_digraph(net), "s", "t")


def _networkx_unit_reliability(net: FlowNetwork) -> float:
    """P(t reachable from s) by enumerating every link state and asking
    networkx for a path in the surviving subgraph."""
    total = 0.0
    links = list(net.links())
    for states in itertools.product((False, True), repeat=len(links)):
        g = nx.DiGraph()
        g.add_nodes_from(net.nodes())
        probability = 1.0
        for link, alive in zip(links, states):
            p = link.failure_probability
            probability *= (1.0 - p) if alive else p
            if not alive or link.capacity <= 0 or link.tail == link.head:
                continue
            g.add_edge(link.tail, link.head)
            if not link.directed:
                g.add_edge(link.head, link.tail)
        if nx.has_path(g, "s", "t"):
            total += probability
    return total


def _undirected_copy(net: FlowNetwork) -> FlowNetwork:
    copy = FlowNetwork(name=f"{net.name}-undirected")
    copy.add_nodes(net.nodes())
    for link in net.links():
        copy.add_link(
            link.tail, link.head, link.capacity, link.failure_probability, directed=False
        )
    return copy


class TestReliabilityOracles:
    @pytest.mark.parametrize("seed", range(8))
    def test_directed_unit_reliability_matches(self, seed):
        net = random_small_network(seed)
        value = directed_frontier_reliability(net, FlowDemand("s", "t", 1)).value
        assert value == pytest.approx(_networkx_unit_reliability(net), abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_undirected_unit_reliability_matches(self, seed):
        net = _undirected_copy(random_small_network(seed))
        value = frontier_reliability(net, FlowDemand("s", "t", 1)).value
        assert value == pytest.approx(_networkx_unit_reliability(net), abs=1e-12)
