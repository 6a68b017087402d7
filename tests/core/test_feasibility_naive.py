"""Unit tests for the feasibility oracle and the naive algorithm."""

import numpy as np
import pytest

from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.naive import feasibility_table, naive_reliability
from repro.exceptions import IntractableError, SolverError
from repro.graph.builders import diamond, parallel_links, series_chain, two_paths
from repro.graph.network import FlowNetwork
from repro.probability.bitset import popcount


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


SOLVERS = ["dinic", "edmonds_karp", "capacity_scaling", "push_relabel"]


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


class TestCertify:
    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("demand", [1, 2, 3])
    def test_certificates_hold_on_every_alive_set(self, solver, demand):
        net = _mixed_net()
        full = (1 << net.num_links) - 1
        oracle = FeasibilityOracle(net, "s", "t", demand, solver=solver, incremental=True)
        reference = FeasibilityOracle(net, "s", "t", demand, solver="push_relabel")
        for alive in range(full + 1):
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

    @pytest.mark.parametrize("solver", ["dinic", "push_relabel"])
    def test_one_solve_per_query_when_cold(self, solver):
        oracle = FeasibilityOracle(diamond(), "s", "t", 2, solver=solver)
        oracle.certify(0b1111)
        oracle.certify(0b0111)
        assert oracle.calls == 2

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
        # push_relabel has no warm starts, so the walk solves cold: one
        # solve per undecided configuration.
        demand = FlowDemand("s", "t", 2)
        net = diamond()
        _, oracle_pruned = feasibility_table(
            net, demand, solver="push_relabel", prune=True
        )
        _, oracle_plain = feasibility_table(
            net, demand, solver="push_relabel", prune=False
        )
        assert not oracle_pruned.incremental
        assert oracle_pruned.calls < oracle_plain.calls
        assert oracle_plain.calls == 16

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

    def test_solver_choice_does_not_change_value(self):
        demand = FlowDemand("s", "t", 2)
        values = {
            solver: naive_reliability(two_paths(2, 1), demand, solver=solver).value
            for solver in ("dinic", "edmonds_karp", "push_relabel", "capacity_scaling")
        }
        assert len({round(v, 12) for v in values.values()}) == 1


@pytest.mark.parametrize(
    "entry_point",
    [
        "feasibility_table",
        "naive_reliability",
        "destruction_spectrum",
        "permutation_montecarlo_reliability",
        "splitting_reliability",
        "rare_reliability",
    ],
)
def test_no_engine_takes_incremental(entry_point):
    """The solver decides flow repair; no enumeration engine takes a toggle."""
    from repro.core import rare

    engines = {
        "feasibility_table": feasibility_table,
        "naive_reliability": naive_reliability,
        "destruction_spectrum": rare.destruction_spectrum,
        "permutation_montecarlo_reliability": rare.permutation_montecarlo_reliability,
        "splitting_reliability": rare.splitting_reliability,
        "rare_reliability": rare.rare_reliability,
    }
    with pytest.raises(TypeError, match="incremental"):
        engines[entry_point](diamond(), FlowDemand("s", "t", 1), incremental=False)
