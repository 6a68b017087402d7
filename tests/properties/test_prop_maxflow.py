"""Property-based tests for the max-flow substrate."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.base import max_flow, max_flow_value
from repro.flow.decomposition import decompose
from repro.flow.mincut import min_cut_capacity
from tests.conftest import small_networks
from tests.flow.routes import ROUTES, route_max_flow


def networkx_value(net, source="s", sink="t"):
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
    return nx.maximum_flow_value(g, source, sink)


class TestSolverProperties:
    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=60, deadline=None)
    @given(small_networks())
    def test_dinic_agrees_with_networkx(self, route, net):
        assert route_max_flow(route, net, "s", "t") == networkx_value(net)

    @pytest.mark.parametrize("route", ROUTES)
    @settings(max_examples=40, deadline=None)
    @given(small_networks(), st.integers(0, 6))
    def test_limit_is_min_of_limit_and_flow(self, route, net, limit):
        true_value = networkx_value(net)
        limited = route_max_flow(route, net, "s", "t", limit=limit)
        assert limited == min(limit, true_value)

    @settings(max_examples=40, deadline=None)
    @given(small_networks())
    def test_duality(self, net):
        result = max_flow(net, "s", "t")
        assert min_cut_capacity(net, result) == result.value

    @settings(max_examples=40, deadline=None)
    @given(small_networks())
    def test_flow_conservation(self, net):
        result = max_flow(net, "s", "t")
        balance = {node: 0 for node in net.nodes()}
        for index, flow in result.link_flows.items():
            link = net.link(index)
            balance[link.tail] -= flow
            balance[link.head] += flow
        for node, value in balance.items():
            if node == "s":
                assert value == -result.value
            elif node == "t":
                assert value == result.value
            else:
                assert value == 0

    @settings(max_examples=40, deadline=None)
    @given(small_networks())
    def test_capacity_respected(self, net):
        result = max_flow(net, "s", "t")
        for index, flow in result.link_flows.items():
            link = net.link(index)
            assert abs(flow) <= link.capacity
            if link.directed:
                assert flow >= 0

    @settings(max_examples=40, deadline=None)
    @given(small_networks())
    def test_decomposition_counts_match(self, net):
        result = max_flow(net, "s", "t")
        streams = decompose(net, result)
        assert len(streams) == result.value

    @settings(max_examples=30, deadline=None)
    @given(small_networks())
    def test_monotone_in_alive_set(self, net):
        """Dropping a link can never increase the max flow."""
        full = max_flow_value(net, "s", "t")
        for drop in range(min(net.num_links, 4)):
            alive = [i for i in range(net.num_links) if i != drop]
            assert max_flow_value(net, "s", "t", alive=alive) <= full
