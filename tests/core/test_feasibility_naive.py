"""Unit tests for the feasibility oracle and the naive algorithm."""

import random

import numpy as np
import pytest

from repro.core import feasibility
from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.naive import _lattice_table, feasibility_table, naive_reliability
from repro.exceptions import IntractableError, SolverError
from repro.graph.builders import diamond, parallel_links, series_chain, two_paths
from repro.graph.network import FlowNetwork
from repro.probability.bitset import gray_lattice, popcount


class TestFeasibilityOracle:
    def test_feasible_all_alive(self):
        oracle = FeasibilityOracle(diamond(), "s", "t", 2)
        assert oracle.feasible(None)

    def test_infeasible_subset(self):
        oracle = FeasibilityOracle(diamond(), "s", "t", 2)
        assert not oracle.feasible(0b0111)  # one branch broken

    def test_mask_and_iterable_agree(self):
        oracle = FeasibilityOracle(diamond(), "s", "t", 1)
        assert oracle.feasible(0b0101) == oracle.feasible([0, 2])

    def test_call_counter(self):
        oracle = FeasibilityOracle(diamond(), "s", "t", 1)
        oracle.feasible(0)
        oracle.feasible(1)
        assert oracle.calls == 2

    def test_zero_demand_always_feasible(self):
        oracle = FeasibilityOracle(diamond(), "s", "t", 0)
        assert oracle.feasible(0)
        assert oracle.calls == 0

    def test_flow_value(self):
        oracle = FeasibilityOracle(two_paths(2, 1), "s", "t", 1)
        assert oracle.flow_value(None) == 3

    def test_used_links(self):
        oracle = FeasibilityOracle(series_chain(2), "s", "t", 1)
        assert oracle.used_links(None) == [0, 1]

    def test_negative_demand_rejected(self):
        with pytest.raises(SolverError):
            FeasibilityOracle(diamond(), "s", "t", -1)

    def test_unknown_terminal(self):
        with pytest.raises(SolverError):
            FeasibilityOracle(diamond(), "s", "zzz", 1)

    @pytest.mark.parametrize("demand", [0, 1])
    def test_source_equals_sink_rejected(self, demand):
        with pytest.raises(SolverError, match="source and sink must differ"):
            FeasibilityOracle(diamond(), "s", "s", demand)


def _mixed_net():
    """Directed and undirected links, a parallel pair and a self-loop."""
    net = FlowNetwork()
    net.add_link("s", "a", 2, 0.1)
    net.add_link("s", "b", 1, 0.1, directed=False)
    net.add_link("a", "b", 1, 0.1, directed=False)
    net.add_link("a", "t", 1, 0.1)
    net.add_link("a", "t", 1, 0.1)
    net.add_link("b", "t", 2, 0.1, directed=False)
    net.add_link("b", "b", 3, 0.1)
    return net


def _source_shore_cut(oracle):
    """The links crossing out of the residual-reachable source shore of
    the oracle's repair-engine state."""
    graph = oracle.engine.graph
    index = oracle.template.node_index
    shore = graph.residual_reachable(index[oracle.source])
    return [
        link.index
        for link in oracle.net.links()
        if (shore[index[link.tail]] and not shore[index[link.head]])
        or (shore[index[link.head]] and not shore[index[link.tail]] and not link.directed)
    ]


def _query_order(order, m):
    """Every alive set of ``m`` links, in the order the repair engine
    meets them: each order leaves it a different carried flow."""
    masks = list(range(1 << m))
    if order == "descending":
        masks.reverse()
    elif order == "gray":
        masks = list(gray_lattice(m))
    elif order == "shuffled":
        random.Random(m).shuffle(masks)
    return masks


class TestCertify:
    @pytest.mark.parametrize("order", ["ascending", "descending", "gray", "shuffled"])
    @pytest.mark.parametrize("demand", [1, 2, 3])
    def test_certificates_hold_on_every_alive_set(self, demand, order):
        net = _mixed_net()
        full = (1 << net.num_links) - 1
        oracle = FeasibilityOracle(net, "s", "t", demand, incremental=True)
        reference = FeasibilityOracle(net, "s", "t", demand, incremental=False)
        for alive in _query_order(order, net.num_links):
            feasible, links = oracle.certify(alive)
            assert feasible == reference.feasible(alive)
            mask = sum(1 << i for i in links)
            if feasible:
                assert mask & ~alive == 0
                assert reference.feasible(mask)
            else:
                alive_capacity = sum(net.link(i).capacity for i in links if (alive >> i) & 1)
                assert alive_capacity < demand
                assert not reference.feasible(full & ~mask)
                assert len(links) <= len(_source_shore_cut(oracle))

    @pytest.mark.parametrize("previous", [None, *range(16)])
    def test_sink_shore_cut_when_smaller(self, previous):
        """Dead links out of ``s`` into dead ends cross the source
        shore's cut but not the cut around the nodes that reach ``t``,
        whatever alive set the engine answered before."""
        net = FlowNetwork()
        net.add_link("s", "a", 1, 0.1)
        net.add_link("a", "t", 1, 0.1)
        net.add_link("s", "b", 1, 0.1)
        net.add_link("s", "c", 1, 0.1, directed=False)
        oracle = FeasibilityOracle(net, "s", "t", 1, incremental=True)
        if previous is not None:
            oracle.certify(previous)
        assert oracle.certify(0b0001) == (False, (1,))
        assert _source_shore_cut(oracle) == [1, 2, 3]

    @pytest.mark.parametrize("previous", [None, *range(4)])
    def test_equal_cuts_keep_the_source_shore(self, previous):
        # Both links dead: the cut around {s} and the cut around {t}
        # are the two links each way; the source shore's is returned,
        # whatever alive set the engine answered before.
        net = series_chain(2)
        oracle = FeasibilityOracle(net, "s", "t", 1, incremental=True)
        if previous is not None:
            oracle.certify(previous)
        assert oracle.certify(0b00) == (False, (0,))

    def test_cold_oracle_cannot_certify(self):
        oracle = FeasibilityOracle(diamond(), "s", "t", 2)
        with pytest.raises(SolverError, match="incremental=True"):
            oracle.certify(0b1111)
        assert oracle.calls == 0

    def test_zero_demand_certified_by_empty_support(self):
        oracle = FeasibilityOracle(diamond(), "s", "t", 0, incremental=True)
        assert oracle.certify(0) == (True, ())
        assert oracle.calls == 0

    def test_support_on_dead_link_rejected(self, monkeypatch):
        oracle = FeasibilityOracle(diamond(), "s", "t", 1, incremental=True)
        monkeypatch.setattr(oracle.engine, "link_flow", lambda index: 1)
        with pytest.raises(SolverError, match="dead link"):
            oracle.certify(0b0101)

    def test_cut_at_or_above_demand_rejected(self, monkeypatch):
        from repro.flow.residual import ResidualGraph

        oracle = FeasibilityOracle(diamond(), "s", "t", 2, incremental=True)

        def source_only(graph, source):
            return [node == source for node in range(graph.num_nodes)]

        monkeypatch.setattr(ResidualGraph, "residual_reachable", source_only)
        # Both source links alive, both sink links dead: the source-only
        # shore's alive capacity is 2, which certifies nothing.
        with pytest.raises(SolverError, match="does not certify"):
            oracle.certify(0b0011)

    def test_sink_cut_at_or_above_demand_rejected(self, monkeypatch):
        oracle = FeasibilityOracle(diamond(), "s", "t", 2, incremental=True)

        def sink_only(graph, sink):
            return [node == sink for node in range(graph.num_nodes)]

        monkeypatch.setattr(feasibility, "_reaching", sink_only)
        # Both source links dead, both sink links alive: the sink-only
        # shore's alive capacity is 2, which certifies nothing.
        with pytest.raises(SolverError, match="does not certify"):
            oracle.certify(0b1100)

    def test_sink_shore_holding_the_source_rejected(self, monkeypatch):
        oracle = FeasibilityOracle(diamond(), "s", "t", 2, incremental=True)
        monkeypatch.setattr(
            feasibility, "_reaching", lambda graph, sink: [True] * graph.num_nodes
        )
        with pytest.raises(SolverError, match="residual source-sink path"):
            oracle.certify(0b1100)


class TestFeasibilityTable:
    def test_monotone(self):
        table, _ = feasibility_table(diamond(), FlowDemand("s", "t", 1))
        m = 4
        for mask in range(1 << m):
            if table[mask]:
                for j in range(m):
                    assert table[mask | (1 << j)]

    def test_pruned_equals_unpruned(self):
        demand = FlowDemand("s", "t", 2)
        for net in (diamond(), two_paths(2, 1), parallel_links(3)):
            pruned, _ = feasibility_table(net, demand, prune=True)
            plain, _ = feasibility_table(net, demand, prune=False)
            assert np.array_equal(pruned, plain)

    def test_pruning_saves_calls(self):
        # A cold oracle solves once per undecided configuration.
        net = diamond()
        calls = {}
        for prune in (True, False):
            oracle = FeasibilityOracle(net, "s", "t", 2)
            _lattice_table(oracle, net.num_links, prune=prune)
            calls[prune] = oracle.calls
        assert calls[True] < calls[False] == 16

    def test_known_table_parallel(self):
        # parallel 3 links, d=2: feasible iff >= 2 links alive
        table, _ = feasibility_table(parallel_links(3), FlowDemand("s", "t", 2))
        for mask in range(8):
            assert table[mask] == (popcount(mask) >= 2)


class TestNaiveReliability:
    def test_series_is_product(self):
        net = series_chain(3, capacity=1, failure_probability=0.1)
        result = naive_reliability(net, FlowDemand("s", "t", 1))
        assert result.value == pytest.approx(0.9**3)

    def test_parallel_closed_form(self):
        net = parallel_links(3, 1, 0.1)
        result = naive_reliability(net, FlowDemand("s", "t", 2))
        expected = 3 * 0.9**2 * 0.1 + 0.9**3
        assert result.value == pytest.approx(expected)

    def test_diamond_closed_form(self):
        # two independent 2-hop paths, each up with prob 0.81
        result = naive_reliability(diamond(), FlowDemand("s", "t", 1))
        assert result.value == pytest.approx(1 - (1 - 0.81) ** 2)

    def test_impossible_demand_is_zero(self):
        result = naive_reliability(diamond(capacity=1), FlowDemand("s", "t", 3))
        assert result.value == 0.0

    def test_sure_network(self):
        net = series_chain(2, capacity=2, failure_probability=0.0)
        assert naive_reliability(net, FlowDemand("s", "t", 1)).value == pytest.approx(1.0)

    def test_metadata(self):
        result = naive_reliability(diamond(), FlowDemand("s", "t", 1))
        assert result.method == "naive"
        assert result.configurations == 16
        assert result.flow_calls > 0
        assert 0 < result.details["feasible_configurations"] < 16

    def test_unpruned_method_name(self):
        result = naive_reliability(diamond(), FlowDemand("s", "t", 1), prune=False)
        assert result.method == "naive-unpruned"

    def test_size_guard(self):
        net = parallel_links(25)
        with pytest.raises(IntractableError):
            naive_reliability(net, FlowDemand("s", "t", 1))

    def test_demand_terminal_validation(self):
        from repro.exceptions import DemandError

        with pytest.raises(DemandError):
            naive_reliability(diamond(), FlowDemand("s", "zzz", 1))


@pytest.mark.parametrize(
    "entry_point",
    [
        "feasibility_table",
        "naive_reliability",
        "destruction_spectrum",
        "rare_reliability",
    ],
)
def test_no_engine_takes_incremental(entry_point):
    """The engine decides flow repair; no enumeration engine takes a toggle."""
    from repro.core import rare

    engines = {
        "feasibility_table": feasibility_table,
        "naive_reliability": naive_reliability,
        "destruction_spectrum": rare.destruction_spectrum,
        "rare_reliability": rare.rare_reliability,
    }
    with pytest.raises(TypeError, match="incremental"):
        engines[entry_point](diamond(), FlowDemand("s", "t", 1), incremental=False)
