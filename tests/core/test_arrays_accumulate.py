"""Unit tests for the §III-C realization arrays and §IV ACCUMULATION —
including Example 2 (array semantics), Example 6 / Table I (the worked
accumulation) and the Fig. 5 configurations."""

import numpy as np
import pytest

from repro.core import certificate
from repro.core.accumulate import (
    _pairs_rows,
    _zeta_rows,
    accumulate,
    accumulate_rows,
    restrict_masks,
    side_class_probabilities,
)
from repro.core.arrays import RealizationArray, build_side_array
from repro.core.assignments import enumerate_assignments
from repro.exceptions import SolverError
from repro.graph.builders import fujita_fig4
from repro.graph.transforms import split_on_cut
from repro.probability.bitset import mask_from_indices
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


def fig4_source_array():
    side, request = fig4_source_request()
    return request["assignments"], build_side_array(side, **request)


class TestBuildSideArray:
    def test_dimensions(self):
        assignments, array = fig4_source_array()
        assert len(array.masks) == 2**4
        assert array.num_assignments == 3
        assert array.probabilities.sum() == pytest.approx(1.0)

    def test_fig5_configurations(self):
        """The three Fig. 5 failure configurations of G_s.

        Source side links (side-local order): e3, e4, e5, e6.
        Assignment order: [(0,2), (1,1), (2,0)].
        """
        assignments, array = fig4_source_array()
        j = {a: i for i, a in enumerate(assignments)}
        all_alive = 0b1111
        assert set(array.realized_indices(all_alive)) == {j[(0, 2)], j[(1, 1)], j[(2, 0)]}
        no_e4 = 0b1101  # kill side link 1 (= e4)
        assert set(array.realized_indices(no_e4)) == {j[(0, 2)], j[(1, 1)]}
        no_e4_e6 = 0b0101  # kill e4 and e6
        assert set(array.realized_indices(no_e4_e6)) == {j[(1, 1)]}

    def test_empty_configuration_realizes_nothing(self):
        _, array = fig4_source_array()
        assert array.realized_indices(0) == []

    def test_monotone_in_alive_set(self):
        _, array = fig4_source_array()
        for mask in range(16):
            for b in range(4):
                sup = mask | (1 << b)
                assert int(array.masks[mask]) & ~int(array.masks[sup]) == 0

    @pytest.mark.parametrize("walk", [False, True])
    def test_matches_reference(self, walk, monkeypatch):
        """Both kernels — the certificate and, past the cut guard, the
        pruned Gray walk — give the reference oracle's masks."""
        if walk:
            monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        side, request = fig4_source_request()
        built = build_side_array(side, **request)
        assert (built.flow_calls > 0) is walk
        assert np.array_equal(built.masks, reference_side_masks(side, **request))

    def test_sink_side(self):
        net, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        array = build_side_array(
            split.sink_side,
            role="sink",
            terminal="t",
            ports=split.sink_ports,
            assignments=assignments,
            demand=2,
        )
        # all alive: every assignment deliverable (Fig. 4 design)
        assert set(array.realized_indices((1 << 3) - 1)) == {0, 1, 2}

    @pytest.mark.parametrize("role", ["source", "sink"])
    @pytest.mark.parametrize("walk", [False, True])
    def test_assignment_subset_matches_full_build(self, role, walk, monkeypatch):
        """Columns are independent: building any subset of the
        assignments yields exactly those columns of a full build, on the
        certificate kernel and on the Gray-walk fallback alike (the
        cache's miss-only builds rely on it)."""
        if walk:
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
        full = build_side_array(side, assignments=assignments, **kwargs)
        for subset in ([0], [2], [2, 0], [1, 2]):
            part = build_side_array(
                side, assignments=[assignments[j] for j in subset], **kwargs
            )
            for local, j in enumerate(subset):
                np.testing.assert_array_equal(
                    (part.masks >> np.uint64(local)) & np.uint64(1),
                    (full.masks >> np.uint64(j)) & np.uint64(1),
                )

    def test_realizes_accessor(self):
        _, array = fig4_source_array()
        assert array.realizes(0b1111, 0)
        assert not array.realizes(0, 0)

    def test_role_validation(self):
        net, split = fig4_split()
        with pytest.raises(SolverError):
            build_side_array(
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
            build_side_array(
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
            build_side_array(
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
            build_side_array(
                split.source_side,
                role="source",
                terminal="s",
                ports=("x1", "nope"),
                assignments=[(1, 1)],
                demand=2,
            )


class TestSingleBuildPath:
    """Every §III-C caller reaches the arrays through one dispatch."""

    def test_pinned_walk_flow_calls(self, monkeypatch):
        """Past the cut guard the pruned Gray walk spends 69 solves on
        fig4 (the certificate kernel 0), and reports no engine block."""
        from repro.core.bottleneck import bottleneck_reliability
        from repro.core.demand import FlowDemand

        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        result = bottleneck_reliability(fujita_fig4(), FlowDemand("s", "t", 2))
        assert result.flow_calls == 69
        assert "engine" not in result.details
        assert f"{result.value:.10f}" == "0.8426357910"

    def test_default_build_counts_cuts_not_solves(self):
        from repro import obs
        from repro.core.bottleneck import bottleneck_reliability
        from repro.core.demand import FlowDemand
        from repro.obs.recorder import CERTIFICATE_CUTS

        with obs.record() as rec:
            result = bottleneck_reliability(fujita_fig4(), FlowDemand("s", "t", 2))
        assert result.flow_calls == 0
        assert rec.counter_total(obs.FLOW_SOLVES) == 0
        assert rec.counter_total(CERTIFICATE_CUTS) > 0
        assert rec.counter_total(obs.ARRAY_ENTRIES_BUILT) == 3 * (2**4 + 2**3)

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
            "build_side_array",
            "cached_side_array",
            "bottleneck_reliability",
            "compute_reliability_sweep",
            "evaluate_batch",
            "chain_reliability",
            "compute_reliability-bottleneck",
            "accumulate",
            "accumulate_rows",
        ],
    )
    def test_no_entry_point_takes_removed_options(self, entry_point, option):
        from repro.core.api import compute_reliability
        from repro.core.bottleneck import bottleneck_reliability
        from repro.core.chain import chain_reliability
        from repro.core.demand import FlowDemand
        from repro.core.sweep import (
            SweepSpec,
            cached_side_array,
            compute_reliability_sweep,
            evaluate_batch,
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
        array = toy_array([0b1], [1.0], 1)
        calls = {
            "build_side_array": lambda **kw: build_side_array(
                split.source_side, **side_kwargs, **kw
            ),
            "cached_side_array": lambda **kw: cached_side_array(
                split.source_side, **side_kwargs, **kw
            ),
            "bottleneck_reliability": lambda **kw: bottleneck_reliability(
                net, demand, **kw
            ),
            "compute_reliability_sweep": lambda **kw: compute_reliability_sweep(
                net, demand, sweep=SweepSpec.availability([0.9]), **kw
            ),
            "evaluate_batch": lambda **kw: evaluate_batch([(net, demand)], **kw),
            "chain_reliability": lambda **kw: chain_reliability(
                net, demand, [[0, 1]], **kw
            ),
            "compute_reliability-bottleneck": lambda **kw: compute_reliability(
                net, demand=demand, method="bottleneck", **kw
            ),
            "accumulate": lambda **kw: accumulate(array, array, [0], **kw),
            "accumulate_rows": lambda **kw: accumulate_rows(
                array.masks,
                array.masks,
                array.probabilities[None, :],
                array.probabilities[None, :],
                [0],
                **kw,
            ),
        }
        with pytest.raises(TypeError, match=option):
            calls[entry_point](**{option: 2})


def kernel_value(kernel, source, sink, assignment_indices):
    """One ACCUMULATION kernel on two arrays' own probabilities."""
    return float(
        kernel(
            source.masks,
            sink.masks,
            source.probabilities[None, :],
            sink.probabilities[None, :],
            assignment_indices,
        )[0]
    )


def toy_array(masks, probs, num_assignments):
    return RealizationArray(
        masks=np.asarray(masks, dtype=np.uint64),
        probabilities=np.asarray(probs, dtype=np.float64),
        num_assignments=num_assignments,
        flow_calls=0,
    )


class TestRestrictMasks:
    def test_projection(self):
        masks = np.array([0b101, 0b011, 0b110], dtype=np.uint64)
        out = restrict_masks(masks, [0, 2])
        assert out.tolist() == [0b11, 0b01, 0b10]

    def test_reordering(self):
        masks = np.array([0b01], dtype=np.uint64)
        assert restrict_masks(masks, [1, 0]).tolist() == [0b10]

    def test_empty_selection(self):
        masks = np.array([0b111], dtype=np.uint64)
        assert restrict_masks(masks, []).tolist() == [0]


class TestExample6TableI:
    """Paper Example 6 / Table I, with symbolic configuration weights.

    G_s configurations c1..c4 realize {b1}, {b2}, {b1,b2}, {b2};
    G_t configurations c5..c8 realize {b1,b2}, {b2}, {b1}, {}.
    """

    S_MASKS = [0b01, 0b10, 0b11, 0b10]
    T_MASKS = [0b11, 0b10, 0b01, 0b00]

    def arrays(self, ps, pt):
        return (
            toy_array(self.S_MASKS, ps, 2),
            toy_array(self.T_MASKS, pt, 2),
        )

    def expected(self, ps, pt):
        p_b1 = (ps[0] + ps[2]) * (pt[0] + pt[2])
        p_b2 = (ps[1] + ps[2] + ps[3]) * (pt[0] + pt[1])
        p_b12 = ps[2] * pt[0]
        return p_b1 + p_b2 - p_b12

    @pytest.mark.parametrize("kernel", [_zeta_rows, _pairs_rows])
    def test_uniform_weights(self, kernel):
        ps = [0.25] * 4
        pt = [0.25] * 4
        source, sink = self.arrays(ps, pt)
        value = kernel_value(kernel, source, sink, [0, 1])
        assert value == pytest.approx(self.expected(ps, pt))
        assert accumulate(source, sink, [0, 1]) == pytest.approx(value)

    @pytest.mark.parametrize("kernel", [_zeta_rows, _pairs_rows])
    def test_skewed_weights(self, kernel):
        ps = [0.1, 0.2, 0.3, 0.4]
        pt = [0.4, 0.3, 0.2, 0.1]
        source, sink = self.arrays(ps, pt)
        value = kernel_value(kernel, source, sink, [0, 1])
        assert value == pytest.approx(self.expected(ps, pt))
        assert accumulate(source, sink, [0, 1]) == pytest.approx(value)

    def test_single_assignment_class(self):
        ps = [0.1, 0.2, 0.3, 0.4]
        pt = [0.4, 0.3, 0.2, 0.1]
        source, sink = self.arrays(ps, pt)
        # class {b1}: P_s(b1) * P_t(b1)
        value = accumulate(source, sink, [0])
        assert value == pytest.approx((0.1 + 0.3) * (0.4 + 0.2))


class TestAccumulateGeneral:
    def test_kernels_agree_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n_s, n_t, q = 8, 8, 4
            ps = rng.random(n_s)
            ps /= ps.sum()
            pt = rng.random(n_t)
            pt /= pt.sum()
            source = toy_array(rng.integers(0, 1 << q, n_s), ps, q)
            sink = toy_array(rng.integers(0, 1 << q, n_t), pt, q)
            idx = [0, 1, 2, 3]
            a = kernel_value(_zeta_rows, source, sink, idx)
            b = kernel_value(_pairs_rows, source, sink, idx)
            assert a == pytest.approx(b)

    def test_empty_class_is_zero(self):
        source = toy_array([0b1], [1.0], 1)
        sink = toy_array([0b1], [1.0], 1)
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
        source = toy_array(s_masks, ps, q)
        sink = toy_array(t_masks, pt, q)
        expected = sum(
            ps[i] * pt[j]
            for i in range(n_s)
            for j in range(n_t)
            if int(s_masks[i]) & int(t_masks[j])
        )
        assert accumulate(source, sink, [0, 1, 2]) == pytest.approx(expected)

    def test_mismatched_arrays_rejected(self):
        source = toy_array([0], [1.0], 1)
        sink = toy_array([0], [1.0], 2)
        with pytest.raises(ValueError):
            accumulate(source, sink, [0])

    def test_out_of_range_index_rejected(self):
        source = toy_array([0], [1.0], 1)
        sink = toy_array([0], [1.0], 1)
        with pytest.raises(ValueError):
            accumulate(source, sink, [3])

    def test_side_class_probabilities_sum(self):
        source = toy_array([0b01, 0b10, 0b11], [0.2, 0.3, 0.5], 2)
        table = side_class_probabilities(source, [0, 1])
        assert table.sum() == pytest.approx(1.0)
        assert table[0b01] == pytest.approx(0.2)


class TestBudgetGuards:
    def test_zeta_refuses_huge_assignment_classes(self):
        from repro.exceptions import IntractableError

        source = toy_array([0], [1.0], 40)
        with pytest.raises(IntractableError):
            side_class_probabilities(source, list(range(25)))

    def test_pairs_kernel_handles_large_classes(self):
        # the pairs kernel has no 2^q table, so q = 25 is fine
        source = toy_array([0b1, 0b10], [0.5, 0.5], 40)
        sink = toy_array([0b1, 0b11], [0.5, 0.5], 40)
        value = kernel_value(_pairs_rows, source, sink, list(range(25)))
        assert value == pytest.approx(0.75)
        assert accumulate(source, sink, list(range(25))) == value

    def test_large_classes_run_the_pairs_kernel(self):
        source = toy_array([0b1], [1.0], 40)
        sink = toy_array([0b1], [1.0], 40)
        # must not raise (zeta would): 15 assignments > the 12 cutoff
        value = accumulate(source, sink, list(range(15)))
        assert value == pytest.approx(1.0)
