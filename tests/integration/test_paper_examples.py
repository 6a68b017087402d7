"""Integration: every worked example of the paper, end to end.

One test class per paper artifact, mirroring the experiment index in
DESIGN.md (E1-E6).  These are the "does the reproduction actually
reproduce the paper" tests.
"""

import pytest

from repro.core.accumulate import joint_rows
from repro.core.arrays import build_side_cover
from repro.core.assignments import classify_by_support, enumerate_assignments
from repro.core.bottleneck import bottleneck_reliability, pattern_probability
from repro.core.bridge import bridge_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.graph.builders import diamond, fujita_fig2_bridge, fujita_fig4
from repro.graph.cuts import find_bottleneck
from repro.graph.transforms import split_on_cut
from repro.probability.bitset import mask_from_indices
from repro.probability.enumeration import configuration_probabilities
from tests.reference_accumulate import group_side

import numpy as np


class TestFig1NaiveCalculation:
    """E1 / Fig. 1: the naive method is the definition — sum the
    probabilities of the feasible configurations."""

    def test_manual_expansion_matches(self):
        net = diamond(capacity=1, failure_probability=0.2)
        demand = FlowDemand("s", "t", 1)
        probs = configuration_probabilities(net)
        # manual: feasible iff links {0,2} alive or links {1,3} alive
        manual = sum(
            probs[mask]
            for mask in range(16)
            if ((mask >> 0) & (mask >> 2) & 1) or ((mask >> 1) & (mask >> 3) & 1)
        )
        assert naive_reliability(net, demand).value == pytest.approx(manual)

    def test_probability_table_is_the_papers_product_formula(self):
        net = diamond(capacity=1, failure_probability=0.2)
        probs = configuration_probabilities(net)
        # the expression below Fig. 1: prod p(e) over dead * prod (1-p) over alive
        mask = 0b0110
        expected = 0.2 * 0.8 * 0.8 * 0.2
        assert probs[mask] == pytest.approx(expected)


class TestFig2EquationOne:
    """E2 / Fig. 2 + Eq. (1): bridge decomposition."""

    def test_equation_one(self):
        net = fujita_fig2_bridge()
        demand = FlowDemand("s", "t", 2)
        result = bridge_reliability(net, demand)
        naive = naive_reliability(net, demand)
        assert result.value == pytest.approx(naive.value, abs=1e-12)

    def test_bridge_capacity_below_demand_is_trivially_zero(self):
        """'If c(e') < d, the reliability ... is trivially zero.'"""
        net = fujita_fig2_bridge(bridge_capacity=1)
        assert bridge_reliability(net, FlowDemand("s", "t", 2)).value == 0.0

    def test_fewer_configurations_than_naive(self):
        net = fujita_fig2_bridge()
        demand = FlowDemand("s", "t", 2)
        assert (
            bridge_reliability(net, demand).configurations
            < naive_reliability(net, demand).configurations
        )


class TestExample1Assignments:
    """E3 / Example 1: the twelve assignments for d=5, c=(3,3,3)."""

    def test_verbatim(self):
        expected = [
            (0, 2, 3), (0, 3, 2), (1, 1, 3), (1, 2, 2), (1, 3, 1), (2, 0, 3),
            (2, 1, 2), (2, 2, 1), (2, 3, 0), (3, 0, 2), (3, 1, 1), (3, 2, 0),
        ]
        assert enumerate_assignments([3, 3, 3], 5) == expected


class TestExample5Classification:
    """E5 / Example 5: support classification."""

    def test_verbatim(self):
        assignments = [(1, 2, 0), (2, 1, 0), (1, 1, 1), (0, 2, 1), (2, 0, 1)]
        table = classify_by_support(assignments, 3)
        assert [assignments[i] for i in table[0b111]] == assignments
        assert [assignments[i] for i in table[0b011]] == [(1, 2, 0), (2, 1, 0)]
        assert [assignments[i] for i in table[0b110]] == [(0, 2, 1)]
        assert [assignments[i] for i in table[0b101]] == [(2, 0, 1)]
        for small in (0b000, 0b001, 0b010, 0b100):
            assert table[small] == ()


class TestFig4Fig5Example3:
    """E4: the two-bottleneck graph and its Fig. 5 configurations."""

    def setup_method(self):
        self.net = fujita_fig4()
        self.demand = FlowDemand("s", "t", 2)
        self.split = split_on_cut(self.net, "s", "t", [0, 1])
        self.assignments = enumerate_assignments([2, 2], 2)

    def test_example3_assignment_set(self):
        """D = {(2,0), (1,1), (0,2)} for d=2, two bottleneck links."""
        assert set(self.assignments) == {(2, 0), (1, 1), (0, 2)}

    def test_fig5_realized_sets(self):
        masks = build_side_cover(
            self.split.source_side,
            role="source",
            terminal="s",
            ports=self.split.source_ports,
            assignments=self.assignments,
            demand=2,
        ).expand()

        def realized(configuration):
            mask = int(masks[configuration])
            return {a for i, a in enumerate(self.assignments) if (mask >> i) & 1}

        # Fig. 5(a): realizes (1,1) and (0,2)
        assert realized(0b1101) == {(1, 1), (0, 2)}
        # Fig. 5(b): realizes only (1,1)
        assert realized(0b0101) == {(1, 1)}
        # Fig. 5(c): realizes all three
        assert realized(0b1111) == {(1, 1), (2, 0), (0, 2)}

    def test_example3_simple_product_would_be_wrong(self):
        """§IV's point: the Eq. (1)-style product of side reliabilities
        over-counts for k >= 2, because a configuration pair only
        delivers when both sides realize a *common* assignment."""
        def p_any(role, terminal, ports, side):
            cover = build_side_cover(
                side, role=role, terminal=terminal, ports=ports,
                assignments=self.assignments, demand=2,
            )
            weights = cover.weights(np.asarray([side.network.failure_probabilities()]))[0]
            return float(weights[cover.distinct != 0].sum())

        p_s_any = p_any("source", "s", self.split.source_ports, self.split.source_side)
        p_t_any = p_any("sink", "t", self.split.sink_ports, self.split.sink_side)
        cut_alive = pattern_probability(self.net, (0, 1), 0b11)
        naive_product = p_s_any * cut_alive * p_t_any
        exact = naive_reliability(self.net, self.demand).value
        accumulated = bottleneck_reliability(self.net, self.demand, cut=[0, 1]).value
        assert accumulated == pytest.approx(exact, abs=1e-12)
        # and the simple product genuinely disagrees: it over-counts
        # configuration pairs realizing only disjoint assignment sets,
        # while ignoring patterns where a bottleneck link is down
        assert naive_product != pytest.approx(exact, abs=1e-6)

    def test_fig4_discovery_finds_the_two_bottlenecks(self):
        split = find_bottleneck(self.net, "s", "t")
        assert split.cut == (0, 1)


class TestExample6TableIEndToEnd:
    """E6: the worked accumulation reproduced through the library's
    public machinery (not hand-rolled arithmetic)."""

    def test_inclusion_exclusion_identity(self):
        # Table I with uniform configuration probabilities 1/4 per side.
        s_masks = np.array([0b01, 0b10, 0b11, 0b10], dtype=np.uint64)
        t_masks = np.array([0b11, 0b10, 0b01, 0b00], dtype=np.uint64)
        quarter = np.full(4, 0.25)
        p_b1 = (0.25 + 0.25) * (0.25 + 0.25)
        p_b2 = (0.25 * 3) * (0.25 * 2)
        p_b1b2 = 0.25 * 0.25
        expected = p_b1 + p_b2 - p_b1b2
        value = joint_rows(*group_side(s_masks, quarter), *group_side(t_masks, quarter), 0b11)
        assert value[0] == pytest.approx(expected)


class TestEquation2And3:
    """Eq. (2) pattern probabilities and the Eq. (3) mixture."""

    def test_pattern_probabilities_partition(self):
        net = fujita_fig4(failure_probability=0.2)
        total = sum(pattern_probability(net, (0, 1), w) for w in range(4))
        assert total == pytest.approx(1.0)

    def test_equation_3_mixture_reproduces_reliability(self):
        """Summing p_{E'} r_{E'} over patterns = the naive value."""
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        split = split_on_cut(net, "s", "t", [0, 1])
        assignments = enumerate_assignments([2, 2], 2)
        sides = []
        for role, terminal, ports, side in (
            ("source", "s", split.source_ports, split.source_side),
            ("sink", "t", split.sink_ports, split.sink_side),
        ):
            cover = build_side_cover(
                side, role=role, terminal=terminal, ports=ports,
                assignments=assignments, demand=2,
            )
            row = np.asarray([side.network.failure_probabilities()])
            sides += [cover.distinct, cover.weights(row)]
        classes = classify_by_support(assignments, 2)
        total = sum(
            pattern_probability(net, (0, 1), w)
            * joint_rows(*sides, mask_from_indices(classes[w]))[0]
            for w in range(4)
            if classes[w]
        )
        assert total == pytest.approx(naive_reliability(net, demand).value, abs=1e-12)
