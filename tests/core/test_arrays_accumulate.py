"""Unit tests for the §III-C side covers and §IV ACCUMULATION —
including Example 2 (realization semantics), Example 6 / Table I (the
worked accumulation) and the Fig. 5 configurations."""

import sys

import numpy as np
import pytest

from repro.core import certificate
from repro.core.accumulate import joint_rows
from repro.core.arrays import build_relation_cover, build_side_cover
from repro.core.assignments import enumerate_assignments
from repro.exceptions import SolverError
from repro.graph.builders import fujita_fig4
from repro.graph.transforms import split_on_cut
from repro.probability.bitset import mask_from_indices
from tests.reference_accumulate import group_side, inclusion_exclusion
from tests.reference_arrays import reference_side_masks


def fig4_split():
    net = fujita_fig4()
    return net, split_on_cut(net, "s", "t", [0, 1])


def fig4_source_request():
    _net, split = fig4_split()
    return split.source_side, dict(
        role="source",
        terminal="s",
        ports=split.source_ports,
        assignments=enumerate_assignments([2, 2], 2),  # [(0,2), (1,1), (2,0)]
        demand=2,
    )


def fig4_source_masks():
    side, request = fig4_source_request()
    return request["assignments"], build_side_cover(side, **request).expand()


def realized(masks, configuration):
    """Assignment indices one configuration realizes."""
    mask = int(masks[configuration])
    return {j for j in range(mask.bit_length()) if (mask >> j) & 1}


class TestBuildSideCover:
    def test_dimensions(self):
        side, request = fig4_source_request()
        cover = build_side_cover(side, **request)
        assert cover.num_links == 4 and cover.words == 1
        assert cover.num_assignments == 3
        assert len(cover.expand()) == 2**4
        row = np.asarray([side.network.failure_probabilities()])
        assert cover.weights(row).sum() == pytest.approx(1.0)

    def test_fig5_configurations(self):
        """The three Fig. 5 failure configurations of G_s.

        Source side links (side-local order): e3, e4, e5, e6.
        Assignment order: [(0,2), (1,1), (2,0)].
        """
        assignments, masks = fig4_source_masks()
        j = {a: i for i, a in enumerate(assignments)}
        all_alive = 0b1111
        assert realized(masks, all_alive) == {j[(0, 2)], j[(1, 1)], j[(2, 0)]}
        no_e4 = 0b1101  # kill side link 1 (= e4)
        assert realized(masks, no_e4) == {j[(0, 2)], j[(1, 1)]}
        no_e4_e6 = 0b0101  # kill e4 and e6
        assert realized(masks, no_e4_e6) == {j[(1, 1)]}

    def test_empty_configuration_realizes_nothing(self):
        _, masks = fig4_source_masks()
        assert realized(masks, 0) == set()

    def test_monotone_in_alive_set(self):
        _, masks = fig4_source_masks()
        for mask in range(16):
            for b in range(4):
                sup = mask | (1 << b)
                assert int(masks[mask]) & ~int(masks[sup]) == 0

    @pytest.mark.parametrize("max_flow", [False, True])
    def test_matches_reference(self, max_flow, monkeypatch):
        """Both kernels — the certificate and, past the cut guard,
        segment max-flows — give the reference oracle's masks."""
        if max_flow:
            monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        side, request = fig4_source_request()
        built = build_side_cover(side, **request)
        assert (built.flow_calls > 0) is max_flow
        assert np.array_equal(built.expand(), reference_side_masks(side, **request))

    def test_sink_side(self):
        net, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        cover = build_side_cover(
            split.sink_side,
            role="sink",
            terminal="t",
            ports=split.sink_ports,
            assignments=assignments,
            demand=2,
        )
        # all alive: every assignment deliverable (Fig. 4 design)
        assert realized(cover.expand(), (1 << 3) - 1) == {0, 1, 2}

    @pytest.mark.parametrize("role", ["source", "sink"])
    @pytest.mark.parametrize("max_flow", [False, True])
    def test_assignment_subset_matches_full_build(self, role, max_flow, monkeypatch):
        """Columns are independent: building any subset of the
        assignments yields exactly those columns of a full build, on the
        certificate kernel and on the max-flow fallback alike (the
        cache's miss-only builds rely on it)."""
        if max_flow:
            monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        _net, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        side = split.source_side if role == "source" else split.sink_side
        kwargs = dict(
            role=role,
            terminal="s" if role == "source" else "t",
            ports=split.source_ports if role == "source" else split.sink_ports,
            demand=2,
        )
        full = build_side_cover(side, assignments=assignments, **kwargs).expand()
        for subset in ([0], [2], [2, 0], [1, 2]):
            part = build_side_cover(
                side, assignments=[assignments[j] for j in subset], **kwargs
            ).expand()
            for local, j in enumerate(subset):
                np.testing.assert_array_equal(
                    (part >> np.uint64(local)) & np.uint64(1),
                    (full >> np.uint64(j)) & np.uint64(1),
                )

    def test_role_validation(self):
        net, split = fig4_split()
        with pytest.raises(SolverError):
            build_side_cover(
                split.source_side,
                role="middle",
                terminal="s",
                ports=split.source_ports,
                assignments=[(2, 0)],
                demand=2,
            )

    def test_arity_validation(self):
        net, split = fig4_split()
        with pytest.raises(SolverError):
            build_side_cover(
                split.source_side,
                role="source",
                terminal="s",
                ports=split.source_ports,
                assignments=[(2,)],
                demand=2,
            )

    def test_sum_validation(self):
        net, split = fig4_split()
        with pytest.raises(SolverError):
            build_side_cover(
                split.source_side,
                role="source",
                terminal="s",
                ports=split.source_ports,
                assignments=[(1, 0)],
                demand=2,
            )

    def test_unknown_port(self):
        net, split = fig4_split()
        with pytest.raises(SolverError):
            build_side_cover(
                split.source_side,
                role="source",
                terminal="s",
                ports=("x1", "nope"),
                assignments=[(1, 1)],
                demand=2,
            )


class TestSingleBuildPath:
    """Every §III-C caller reaches the arrays through one dispatch."""

    def test_pinned_max_flow_calls(self, monkeypatch):
        """Past the cut guard segment max-flows spend 56 solves on fig4
        (the certificate kernel 0), and report no engine block."""
        from repro.core.bottleneck import bottleneck_reliability
        from repro.core.demand import FlowDemand

        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        result = bottleneck_reliability(fujita_fig4(), FlowDemand("s", "t", 2))
        assert result.flow_calls == 56
        assert "engine" not in result.details
        assert f"{result.value:.10f}" == "0.8426357910"

    def test_default_build_counts_cuts_not_solves(self):
        from repro import obs
        from repro.core.bottleneck import bottleneck_reliability
        from repro.core.demand import FlowDemand
        from repro.obs.recorder import CERTIFICATE_CUTS, COVER_CUBES_BUILT

        with obs.record() as rec:
            result = bottleneck_reliability(fujita_fig4(), FlowDemand("s", "t", 2))
        assert result.flow_calls == 0
        assert rec.counter_total(obs.FLOW_SOLVES) == 0
        assert rec.counter_total(CERTIFICATE_CUTS) > 0
        # The split builds two side covers, fewer cubes than configurations.
        assert 2 <= rec.counter_total(COVER_CUBES_BUILT) < 2**4 + 2**3

    def test_flow_calls_partition_exactly_through_obs(self, monkeypatch):
        from repro import obs
        from repro.core.bottleneck import bottleneck_reliability
        from repro.core.demand import FlowDemand

        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        with obs.record() as rec:
            result = bottleneck_reliability(fujita_fig4(), FlowDemand("s", "t", 2))
        assert result.flow_calls > 0
        assert rec.counter_total(obs.FLOW_SOLVES) == result.flow_calls
        summary = obs.phase_summary(rec)
        per_phase = sum(
            p["counters"].get("flow_solves", 0) for p in summary["phases"]
        )
        assert per_phase == result.flow_calls

    @pytest.mark.parametrize(
        "option",
        ["workers", "screen", "block_bits", "solver", "prune", "incremental", "strategy"],
    )
    @pytest.mark.parametrize(
        "entry_point",
        [
            "build_side_cover",
            "build_relation_cover",
            "cached_side_cover",
            "bottleneck_reliability",
            "compute_reliability_sweep",
            "chain_reliability",
            "compute_reliability-bottleneck",
        ],
    )
    def test_no_entry_point_takes_removed_options(self, entry_point, option):
        from repro.core.api import compute_reliability
        from repro.core.bottleneck import bottleneck_reliability
        from repro.core.chain import chain_reliability
        from repro.core.demand import FlowDemand
        from repro.core.sweep import (
            SweepSpec,
            cached_side_cover,
            compute_reliability_sweep,
        )

        net, split = fig4_split()
        side_kwargs = dict(
            role="source",
            terminal="s",
            ports=split.source_ports,
            assignments=enumerate_assignments([2, 2], 2),
            demand=2,
        )
        demand = FlowDemand("s", "t", 2)
        calls = {
            "build_side_cover": lambda **kw: build_side_cover(
                split.source_side, **side_kwargs, **kw
            ),
            "build_relation_cover": lambda **kw: build_relation_cover(
                split.source_side,
                in_ports=split.source_ports,
                out_ports=split.source_ports,
                in_assignments=side_kwargs["assignments"],
                out_assignments=side_kwargs["assignments"],
                demand=2,
                **kw,
            ),
            "cached_side_cover": lambda **kw: cached_side_cover(
                split.source_side, **side_kwargs, **kw
            ),
            "bottleneck_reliability": lambda **kw: bottleneck_reliability(
                net, demand, **kw
            ),
            "compute_reliability_sweep": lambda **kw: compute_reliability_sweep(
                net, demand, sweep=SweepSpec.availability([0.9]), **kw
            ),
            "chain_reliability": lambda **kw: chain_reliability(
                net, demand, [[0, 1]], **kw
            ),
            "compute_reliability-bottleneck": lambda **kw: compute_reliability(
                net, demand=demand, method="bottleneck", **kw
            ),
        }
        with pytest.raises(TypeError, match=option):
            calls[entry_point](**{option: 2})


def _pair_sum(s_masks, ps, t_masks, pt, within):
    """Brute-force Eq. 3 over configuration pairs."""
    return sum(
        ps[i] * pt[j]
        for i in range(len(s_masks))
        for j in range(len(t_masks))
        if int(s_masks[i]) & int(t_masks[j]) & within
    )


def _joint(s_masks, s_rows, t_masks, t_rows, within):
    return joint_rows(*group_side(s_masks, s_rows), *group_side(t_masks, t_rows), within)


def toy_side(masks, probs):
    """A side given configuration by configuration: masks and probabilities."""
    return np.asarray(masks, dtype=np.uint64), np.asarray(probs, dtype=np.float64)


def accumulate(source, sink, indices):
    """``r_{E'}`` of the class ``indices`` between two toy sides."""
    return float(_joint(*source, *sink, mask_from_indices(indices))[0])


def _random_side(rng, configurations, q, rows=1):
    masks = rng.integers(0, 1 << q, configurations, dtype=np.uint64)
    table = rng.random((rows, configurations))
    return masks, table / table.sum(axis=1, keepdims=True)


class TestJointRows:
    @pytest.mark.parametrize("q", [1, 2, 3, 5, 8, 63])
    def test_matches_bruteforce_pair_sum(self, q):
        rng = np.random.default_rng(q)
        s_masks, s_rows = _random_side(rng, 12, q, rows=3)
        t_masks, t_rows = _random_side(rng, 10, q, rows=3)
        within = (1 << q) - 1
        got = _joint(s_masks, s_rows, t_masks, t_rows, within)
        for s in range(3):
            expected = _pair_sum(s_masks, s_rows[s], t_masks, t_rows[s], within)
            assert got[s] == pytest.approx(expected, abs=1e-15)

    def test_empty_class_is_zero(self):
        rng = np.random.default_rng(1)
        s_masks, s_rows = _random_side(rng, 8, 4, rows=2)
        t_masks, t_rows = _random_side(rng, 8, 4, rows=2)
        assert _joint(s_masks, s_rows, t_masks, t_rows, 0).tolist() == [0.0, 0.0]

    def test_disjoint_sides_are_zero(self):
        # The source only ever realizes b1, the sink only b2.
        got = _joint([0b01, 0b00], [0.6, 0.4], [0b10, 0b00], [0.7, 0.3], 0b11)
        assert got.tolist() == [0.0]

    def test_always_realized_class_is_total_mass(self):
        # Every configuration of both sides realizes b1: r = 1 per row.
        rng = np.random.default_rng(2)
        s_masks, s_rows = _random_side(rng, 9, 3, rows=4)
        t_masks, t_rows = _random_side(rng, 7, 3, rows=4)
        got = _joint(s_masks | np.uint64(1), s_rows, t_masks | np.uint64(1), t_rows, 0b1)
        assert got == pytest.approx(np.ones(4), abs=1e-15)

    def test_bits_outside_the_class_are_ignored(self):
        rng = np.random.default_rng(4)
        s_masks, s_rows = _random_side(rng, 10, 3, rows=2)
        t_masks, t_rows = _random_side(rng, 10, 3, rows=2)
        noise = np.uint64(0b111000)
        within = 0b101
        plain = _joint(s_masks, s_rows, t_masks, t_rows, within)
        noisy = _joint(s_masks | noise, s_rows, t_masks | noise, t_rows, within)
        assert noisy == pytest.approx(plain, abs=1e-15)

    def test_monotone_and_subadditive_in_the_class(self):
        # Eq. 3 is the probability of a union over the class's
        # assignments: it grows with the class and obeys the union bound.
        rng = np.random.default_rng(5)
        s_masks, s_rows = _random_side(rng, 16, 4, rows=3)
        t_masks, t_rows = _random_side(rng, 16, 4, rows=3)
        low = _joint(s_masks, s_rows, t_masks, t_rows, 0b0011)
        high = _joint(s_masks, s_rows, t_masks, t_rows, 0b1100)
        both = _joint(s_masks, s_rows, t_masks, t_rows, 0b1111)
        assert np.all(both >= np.maximum(low, high) - 1e-15)
        assert np.all(both <= low + high + 1e-15)

    def test_a_row_alone_equals_the_row_in_a_batch(self):
        rng = np.random.default_rng(6)
        s_masks, s_rows = _random_side(rng, 32, 5, rows=5)
        t_masks, t_rows = _random_side(rng, 32, 5, rows=5)
        batch = _joint(s_masks, s_rows, t_masks, t_rows, 0b10110)
        for s in range(5):
            alone = _joint(s_masks, s_rows[s], t_masks, t_rows[s], 0b10110)
            assert alone[0] == batch[s]

    def test_blocked_hit_matrix(self, monkeypatch):
        # A cap of 8 entries splits the hit matrix into many blocks; the
        # value stays the pair sum and a row stays batch-independent.
        rng = np.random.default_rng(7)
        s_masks, s_rows = _random_side(rng, 40, 6, rows=3)
        t_masks, t_rows = _random_side(rng, 40, 6, rows=3)
        whole = _joint(s_masks, s_rows, t_masks, t_rows, 0b111111)
        # The package re-exports the function under the module's name.
        monkeypatch.setattr(sys.modules["repro.core.accumulate"], "_HIT_ENTRIES", 8)
        batch = _joint(s_masks, s_rows, t_masks, t_rows, 0b111111)
        assert batch == pytest.approx(whole, abs=1e-15)
        for s in range(3):
            alone = _joint(s_masks, s_rows[s], t_masks, t_rows[s], 0b111111)
            assert alone[0] == batch[s]

    def test_small_class_over_many_full_masks(self):
        # 400 distinct full masks a side, a class of two assignments:
        # the sides regroup onto at most four masks each.
        rng = np.random.default_rng(8)
        s_masks, s_rows = _random_side(rng, 400, 40, rows=2)
        t_masks, t_rows = _random_side(rng, 400, 40, rows=2)
        got = _joint(s_masks, s_rows, t_masks, t_rows, 0b11 << 20)
        for s in range(2):
            expected = inclusion_exclusion(
                s_masks, s_rows[s], t_masks, t_rows[s], [20, 21]
            )
            assert got[s] == pytest.approx(expected, abs=1e-15)


class TestExample6TableI:
    """Paper Example 6 / Table I, with symbolic configuration weights.

    G_s configurations c1..c4 realize {b1}, {b2}, {b1,b2}, {b2};
    G_t configurations c5..c8 realize {b1,b2}, {b2}, {b1}, {}.
    """

    S_MASKS = [0b01, 0b10, 0b11, 0b10]
    T_MASKS = [0b11, 0b10, 0b01, 0b00]

    def sides(self, ps, pt):
        return (
            toy_side(self.S_MASKS, ps),
            toy_side(self.T_MASKS, pt),
        )

    def expected(self, ps, pt):
        p_b1 = (ps[0] + ps[2]) * (pt[0] + pt[2])
        p_b2 = (ps[1] + ps[2] + ps[3]) * (pt[0] + pt[1])
        p_b12 = ps[2] * pt[0]
        return p_b1 + p_b2 - p_b12

    def test_uniform_weights(self):
        ps = [0.25] * 4
        pt = [0.25] * 4
        source, sink = self.sides(ps, pt)
        value = accumulate(source, sink, [0, 1])
        assert value == pytest.approx(self.expected(ps, pt))

    def test_skewed_weights(self):
        ps = [0.1, 0.2, 0.3, 0.4]
        pt = [0.4, 0.3, 0.2, 0.1]
        source, sink = self.sides(ps, pt)
        value = accumulate(source, sink, [0, 1])
        assert value == pytest.approx(self.expected(ps, pt))

    def test_two_points_in_one_batch(self):
        # Uniform and skewed weights as two rows of one kernel call.
        rows_s = np.array([[0.25] * 4, [0.1, 0.2, 0.3, 0.4]])
        rows_t = np.array([[0.25] * 4, [0.4, 0.3, 0.2, 0.1]])
        got = _joint(self.S_MASKS, rows_s, self.T_MASKS, rows_t, 0b11)
        for s in range(2):
            assert got[s] == pytest.approx(self.expected(rows_s[s], rows_t[s]))

    @pytest.mark.parametrize(
        "indices, p_class",
        [
            ([0], lambda ps, pt: (ps[0] + ps[2]) * (pt[0] + pt[2])),
            ([1], lambda ps, pt: (ps[1] + ps[2] + ps[3]) * (pt[0] + pt[1])),
            ([1, 0], lambda ps, pt: TestExample6TableI().expected(ps, pt)),
        ],
        ids=["b1", "b2", "b2-b1"],
    )
    def test_every_class_of_table_i(self, indices, p_class):
        ps = [0.1, 0.2, 0.3, 0.4]
        pt = [0.4, 0.3, 0.2, 0.1]
        source, sink = self.sides(ps, pt)
        assert accumulate(source, sink, indices) == pytest.approx(p_class(ps, pt))

    def test_single_assignment_class(self):
        ps = [0.1, 0.2, 0.3, 0.4]
        pt = [0.4, 0.3, 0.2, 0.1]
        source, sink = self.sides(ps, pt)
        # class {b1}: P_s(b1) * P_t(b1)
        value = accumulate(source, sink, [0])
        assert value == pytest.approx((0.1 + 0.3) * (0.4 + 0.2))


class TestAccumulateGeneral:
    def test_matches_inclusion_exclusion_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_s, n_t, q = 8, 8, 4
            ps = rng.random(n_s)
            ps /= ps.sum()
            pt = rng.random(n_t)
            pt /= pt.sum()
            s_masks = rng.integers(0, 1 << q, n_s)
            t_masks = rng.integers(0, 1 << q, n_t)
            source = toy_side(s_masks, ps)
            sink = toy_side(t_masks, pt)
            expected = inclusion_exclusion(s_masks, ps, t_masks, pt, range(q))
            assert accumulate(source, sink, [0, 1, 2, 3]) == pytest.approx(expected)

    def test_empty_class_is_zero(self):
        source = toy_side([0b1], [1.0])
        sink = toy_side([0b1], [1.0])
        assert accumulate(source, sink, []) == 0.0

    def test_bruteforce_cross_check(self):
        rng = np.random.default_rng(7)
        n_s, n_t, q = 6, 5, 3
        ps = rng.random(n_s)
        ps /= ps.sum()
        pt = rng.random(n_t)
        pt /= pt.sum()
        s_masks = rng.integers(0, 1 << q, n_s)
        t_masks = rng.integers(0, 1 << q, n_t)
        source = toy_side(s_masks, ps)
        sink = toy_side(t_masks, pt)
        expected = sum(
            ps[i] * pt[j]
            for i in range(n_s)
            for j in range(n_t)
            if int(s_masks[i]) & int(t_masks[j])
        )
        assert accumulate(source, sink, [0, 1, 2]) == pytest.approx(expected)


class TestLargeClasses:
    def test_large_class_value(self):
        # no 2^q table is built, so q = 25 is a plain pair sum
        source = toy_side([0b1, 0b10], [0.5, 0.5])
        sink = toy_side([0b1, 0b11], [0.5, 0.5])
        assert accumulate(source, sink, list(range(25))) == pytest.approx(0.75)

    def test_top_assignment_bit(self):
        top = 1 << 62
        source = toy_side([top, 0b1], [0.5, 0.5])
        sink = toy_side([top | 0b10, 0b10], [0.25, 0.75])
        assert accumulate(source, sink, range(63)) == pytest.approx(0.125)
        assert accumulate(source, sink, range(62)) == 0.0

    def test_classes_past_twelve_assignments(self):
        source = toy_side([0b1], [1.0])
        sink = toy_side([0b1], [1.0])
        assert accumulate(source, sink, list(range(15))) == pytest.approx(1.0)
