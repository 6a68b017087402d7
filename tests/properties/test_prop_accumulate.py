"""Property: the one Eq. 3 kernel equals the paper's signed sum.

:mod:`repro.core.accumulate` evaluates ``r_{E'}`` as a pair sum over
the two sides' distinct realization masks.  The paper writes the same
quantity as inclusion–exclusion over assignment subsets,
``Σ_{∅≠X⊆D_{E'}} (−1)^{|X|+1} P_s(X) P_t(X)``.  These properties pin the
kernel to that formula for small classes, to a brute-force pair sum over
configurations for any class the uint64 packing holds (up to 63
assignments), and pin each row's value to be the same bits whether it
is evaluated alone or inside a batch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accumulate import joint_rows
from tests.reference_accumulate import group_side, inclusion_exclusion


def _probability_rows(rng, rows, size):
    table = rng.random((rows, size))
    return table / table.sum(axis=1, keepdims=True)


def _side(rng, configurations, q, rows):
    masks = rng.integers(0, 1 << q, configurations, dtype=np.uint64)
    return masks, _probability_rows(rng, rows, configurations)


def _kernel(source_masks, source_rows, sink_masks, sink_rows, within):
    return joint_rows(
        *group_side(source_masks, source_rows), *group_side(sink_masks, sink_rows), within
    )


def _class_bits(within):
    return [j for j in range(64) if (within >> j) & 1]


seeds = st.integers(0, 2**32 - 1)


class TestMatchesInclusionExclusion:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        q=st.integers(1, 10),
        rows=st.integers(1, 4),
        n_s=st.integers(1, 24),
        n_t=st.integers(1, 24),
    )
    def test_small_classes(self, seed, q, rows, n_s, n_t):
        rng = np.random.default_rng(seed)
        source_masks, source_rows = _side(rng, n_s, q, rows)
        sink_masks, sink_rows = _side(rng, n_t, q, rows)
        within = int(rng.integers(0, 1 << q))
        bits = _class_bits(within)
        got = _kernel(source_masks, source_rows, sink_masks, sink_rows, within)
        for s in range(rows):
            expected = inclusion_exclusion(
                source_masks, source_rows[s], sink_masks, sink_rows[s], bits
            )
            assert got[s] == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestMatchesBruteForcePairs:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=seeds,
        q=st.integers(1, 63),
        rows=st.integers(1, 3),
        n_s=st.integers(1, 20),
        n_t=st.integers(1, 20),
        sparse=st.booleans(),
    )
    def test_any_packable_class(self, seed, q, rows, n_s, n_t, sparse):
        rng = np.random.default_rng(seed)
        # Sparse masks (a few bits each) make the pairs actually miss.
        shape_s, shape_t = (n_s, q), (n_t, q)
        density = 0.1 if sparse else 0.5
        source_bits = rng.random(shape_s) < density
        sink_bits = rng.random(shape_t) < density
        weights = [1 << j for j in range(q)]
        source_masks = np.array(
            [sum(w for w, b in zip(weights, row) if b) for row in source_bits],
            dtype=np.uint64,
        )
        sink_masks = np.array(
            [sum(w for w, b in zip(weights, row) if b) for row in sink_bits],
            dtype=np.uint64,
        )
        source_rows = _probability_rows(rng, rows, n_s)
        sink_rows = _probability_rows(rng, rows, n_t)
        within = int(rng.integers(0, 1 << q, dtype=np.uint64)) | (1 << (q - 1))
        got = _kernel(source_masks, source_rows, sink_masks, sink_rows, within)
        for s in range(rows):
            expected = sum(
                source_rows[s][i] * sink_rows[s][j]
                for i in range(n_s)
                for j in range(n_t)
                if int(source_masks[i]) & int(sink_masks[j]) & within
            )
            assert got[s] == pytest.approx(expected, rel=1e-9, abs=1e-12)


class TestRowIndependence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=seeds,
        q=st.integers(1, 63),
        rows=st.integers(2, 8),
        n_s=st.integers(1, 64),
        n_t=st.integers(1, 64),
    )
    def test_a_row_alone_equals_the_row_in_a_batch(self, seed, q, rows, n_s, n_t):
        rng = np.random.default_rng(seed)
        source_masks, source_rows = _side(rng, n_s, min(q, 16), rows)
        sink_masks = rng.integers(0, 1 << q, n_t, dtype=np.uint64)
        sink_rows = _probability_rows(rng, rows, n_t)
        within = (1 << q) - 1
        batch = _kernel(source_masks, source_rows, sink_masks, sink_rows, within)
        for s in range(rows):
            alone = _kernel(
                source_masks, source_rows[s : s + 1], sink_masks, sink_rows[s : s + 1], within
            )
            assert alone[0] == batch[s]
