"""Property-based tests for the probability substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.probability.bitset import (
    indices_from_mask,
    iter_submasks,
    mask_from_indices,
    popcount,
    popcount_array,
)
from repro.probability.enumeration import (
    configuration_probabilities,
    configuration_probability,
)
from repro.probability.inclusion_exclusion import (
    union_probability,
    union_probability_from_intersections,
)

from tests.conftest import probability_vectors

masks = st.integers(min_value=0, max_value=(1 << 20) - 1)


class TestBitsetProperties:
    @given(masks)
    def test_mask_round_trip(self, mask):
        assert mask_from_indices(indices_from_mask(mask)) == mask

    @given(masks)
    def test_popcount_equals_index_count(self, mask):
        assert popcount(mask) == len(indices_from_mask(mask))

    @given(st.integers(min_value=0, max_value=(1 << 10) - 1))
    def test_submask_count_is_power_of_two(self, mask):
        subs = list(iter_submasks(mask))
        assert len(subs) == 1 << popcount(mask)
        assert len(set(subs)) == len(subs)

    @given(st.integers(min_value=0, max_value=(1 << 10) - 1))
    def test_every_submask_is_contained(self, mask):
        for sub in iter_submasks(mask):
            assert sub & ~mask == 0


class TestEnumerationProperties:
    @given(probability_vectors(max_size=10))
    def test_table_sums_to_one(self, probs):
        table = configuration_probabilities(probs)
        assert table.sum() == pytest.approx(1.0)

    @given(probability_vectors(max_size=8))
    def test_table_nonnegative(self, probs):
        assert (configuration_probabilities(probs) >= 0).all()

    @given(probability_vectors(max_size=6), st.integers(0, 63))
    def test_table_matches_scalar(self, probs, raw_mask):
        mask = raw_mask & ((1 << len(probs)) - 1)
        table = configuration_probabilities(probs)
        assert table[mask] == pytest.approx(configuration_probability(probs, mask))

    @given(probability_vectors(max_size=8))
    def test_marginal_recovery(self, probs):
        """Summing the table over configurations where link i is alive
        recovers 1 - p_i."""
        table = configuration_probabilities(probs)
        m = len(probs)
        for i in range(m):
            alive_mass = sum(table[c] for c in range(1 << m) if (c >> i) & 1)
            assert alive_mass == pytest.approx(1.0 - probs[i], abs=1e-9)


class TestInclusionExclusionProperties:
    @settings(max_examples=50)
    @given(
        st.integers(1, 4),
        st.lists(st.tuples(st.integers(0, 15), st.floats(0.001, 1.0)), min_size=1, max_size=30),
    )
    def test_ie_matches_direct_union(self, n_events, raw_outcomes):
        """For any finite outcome space, the signed intersection sum
        equals the direct union probability."""
        universe = (1 << n_events) - 1
        outcome_masks = [m & universe for m, _ in raw_outcomes]
        weights = np.array([w for _, w in raw_outcomes])
        weights /= weights.sum()
        table = np.zeros(1 << n_events)
        for x in range(1 << n_events):
            table[x] = sum(
                w for m, w in zip(outcome_masks, weights) if (m & x) == x
            )
        direct = union_probability(outcome_masks, weights.tolist())
        assert union_probability_from_intersections(table) == pytest.approx(direct)
