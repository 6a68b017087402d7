"""Unit tests for the incremental (Gray-walk) max-flow engine.

Ground truth throughout is the cold solve: for any alive mask the
engine's :meth:`goto` must report exactly the value a fresh
``template.configure`` + ``DinicSolver.solve`` reports.  The walks exercise
both the one-bit Gray steps the kernels use and arbitrary multi-bit
jumps (worst case for the repair logic).
"""

import random

import pytest

from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.exceptions import SolverError
from repro.flow.dinic import DinicSolver
from repro.flow.incremental import IncrementalMaxFlow, plan_gray_order
from repro.flow.residual import build_template
from repro.graph.builders import diamond, fujita_fig2_bridge, fujita_fig4
from repro.graph.generators import bottlenecked_network
from repro.probability.bitset import gray_lattice


def _cold_value(template, mask, s, t, limit, caps=None):
    graph = template.configure(alive=mask, virtual_capacities=caps)
    return DinicSolver().solve(graph, s, t, limit=limit)


def _template_for(net):
    template = build_template(net)
    return template, template.node_index["s"], template.node_index["t"]


NETWORKS = [
    ("fig4", fujita_fig4(), 2),
    ("fig2", fujita_fig2_bridge(), 1),
    ("diamond", diamond(), 1),
]


class TestGotoAgainstColdSolves:
    @pytest.mark.parametrize("name,net,demand", NETWORKS)
    @pytest.mark.parametrize("limit", ["demand", None])
    def test_full_gray_walk(self, name, net, demand, limit):
        limit = demand if limit == "demand" else None
        template, s, t = _template_for(net)
        engine = IncrementalMaxFlow(template, s, t, limit=limit)
        m = net.num_links
        for mask in gray_lattice(m):
            got = engine.goto(mask)
            want = _cold_value(template, mask, s, t, limit)
            assert got == want, f"{name}: mask {mask:b}"
            assert engine.alive == mask

    @pytest.mark.parametrize("name,net,demand", NETWORKS)
    def test_random_jumps(self, name, net, demand):
        template, s, t = _template_for(net)
        engine = IncrementalMaxFlow(template, s, t, limit=demand)
        rng = random.Random(17)
        m = net.num_links
        for _ in range(200):
            mask = rng.randrange(1 << m)
            assert engine.goto(mask) == _cold_value(template, mask, s, t, demand)

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_random_networks(self, seed):
        net = bottlenecked_network(
            source_side_links=4, sink_side_links=3, num_bottlenecks=2, demand=2, seed=seed
        )
        template, s, t = _template_for(net)
        engine = IncrementalMaxFlow(template, s, t, limit=2)
        rng = random.Random(seed)
        for _ in range(150):
            mask = rng.randrange(1 << net.num_links)
            assert engine.goto(mask) == _cold_value(template, mask, s, t, 2)


class TestDeltaOperations:
    def test_kill_and_revive_are_idempotent(self):
        net = fujita_fig4()
        template, s, t = _template_for(net)
        full = (1 << net.num_links) - 1
        engine = IncrementalMaxFlow(template, s, t, limit=2, alive=full)
        value = engine.flow_value()
        calls = engine.solver_calls
        engine.kill(0)
        engine.kill(0)  # second kill of a dead link: no-op
        after_kill = engine.solver_calls
        engine.revive(0)
        engine.revive(0)  # second revive of an alive link: no-op
        assert engine.flow_value() == value
        assert engine.solver_calls >= calls
        assert after_kill == engine.solver_calls - (1 if engine.solver_calls > after_kill else 0)

    def test_zero_flow_kill_costs_no_solve(self):
        net = fujita_fig4()
        template, s, t = _template_for(net)
        full = (1 << net.num_links) - 1
        engine = IncrementalMaxFlow(template, s, t, limit=2, alive=full)
        engine.flow_value()
        idle = [i for i in range(net.num_links) if engine.link_flow(i) == 0]
        assert idle, "fixture should leave some link unused at demand 2"
        calls = engine.solver_calls
        engine.kill(idle[0])
        assert engine.flow_value() == 2
        assert engine.solver_calls == calls

    def test_counters_accrue(self):
        net = fujita_fig4()
        template, s, t = _template_for(net)
        engine = IncrementalMaxFlow(template, s, t, limit=2)
        for mask in gray_lattice(net.num_links):
            engine.goto(mask)
        assert engine.solver_calls > 0
        assert engine.repairs > 0
        assert engine.paths_saved > 0

    def test_retarget_matches_cold(self):
        net = fujita_fig4()
        template = build_template(net, extra_nodes=["__virt__"])
        s = template.node_index["s"]
        virt = template.node_index["__virt__"]
        # Two virtual drain arcs mimic the §III-C port arcs.
        template.add_virtual_arc("p0", template.node_index["t"], virt, 2)
        template.add_virtual_arc("p1", template.node_index["y1"], virt, 2)
        full = (1 << net.num_links) - 1
        engine = IncrementalMaxFlow(
            template, s, virt, limit=2,
            alive=full, virtual_capacities={"p0": 0, "p1": 0},
        )
        rng = random.Random(5)
        for _ in range(60):
            caps = {"p0": rng.randrange(3), "p1": rng.randrange(3)}
            mask = rng.randrange(1 << net.num_links)
            engine.retarget(caps)
            got = engine.goto(mask)
            assert got == _cold_value(template, mask, s, virt, 2, caps=caps)

    def test_retarget_rejects_bad_input(self):
        net = diamond()
        template = build_template(net, extra_nodes=["__virt__"])
        template.add_virtual_arc("p0", template.node_index["t"], template.node_index["__virt__"], 1)
        engine = IncrementalMaxFlow(
            template, template.node_index["s"], template.node_index["__virt__"],
            limit=1,
        )
        with pytest.raises(SolverError):
            engine.retarget({"nope": 1})
        with pytest.raises(SolverError):
            engine.retarget({"p0": -1})


class TestValidation:
    def test_source_equals_sink_rejected(self):
        template, s, _ = _template_for(diamond())
        with pytest.raises(SolverError):
            IncrementalMaxFlow(template, s, s)

    def test_negative_limit_rejected(self):
        template, s, t = _template_for(diamond())
        with pytest.raises(SolverError):
            IncrementalMaxFlow(template, s, t, limit=-1)

    def test_oracle_repairs_only_when_incremental(self):
        net = diamond()
        oracle = FeasibilityOracle(net, "s", "t", 1, incremental=True)
        assert oracle.incremental is True and oracle.engine is not None
        cold = FeasibilityOracle(net, "s", "t", 1)
        assert cold.incremental is False and cold.engine is None


class TestPlanGrayOrder:
    def test_returns_a_permutation(self):
        net = fujita_fig4()
        template, s, t = _template_for(net)
        order = plan_gray_order(template, s, t, net.num_links, limit=2)
        assert sorted(order) == list(range(net.num_links))

    def test_flow_carrying_links_parked_high(self):
        net = fujita_fig4()
        template, s, t = _template_for(net)
        order = plan_gray_order(template, s, t, net.num_links, limit=None)
        # A true max flow on fig4 uses some links; the walk must place at
        # least one zero-flow link before every flow-carrying one.
        graph = template.configure(alive=None, graph=template.graph.copy())
        DinicSolver().solve_residual(graph, s, t, limit=None)
        flows = {}
        for link in template.link_indices():
            total = 0
            for record in template.link_arcs(link):
                a = record.arc
                if record.directed:
                    total += graph.cap[a ^ 1]
                else:
                    total += abs(graph.cap[a ^ 1] - graph.cap[a]) // 2
            flows[link] = abs(total)
        carrying = [b for b in order if flows[b] > 0]
        idle = [b for b in order if flows[b] == 0]
        assert carrying and idle
        assert max(order.index(b) for b in idle) < min(order.index(b) for b in carrying) + len(idle) + len(carrying)
        # The strongest invariant: all idle bits come first.
        assert order[: len(idle)] == sorted(order[: len(idle)], key=order.index)
        assert set(order[: len(idle)]) == set(idle)

    def test_zero_bits(self):
        template, s, t = _template_for(diamond())
        assert plan_gray_order(template, s, t, 0) == []
