"""Probability substrate: configuration enumeration, bit tricks,
inclusion–exclusion and sampling."""

from repro.probability.bitset import (
    bitplanes,
    gray_code,
    gray_flip_position,
    gray_lattice,
    indices_from_mask,
    iter_submasks,
    iter_supermasks,
    mask_from_indices,
    mask_weights,
    pack_bitplanes,
    parity_array,
    popcount,
    popcount_array,
)
from repro.probability.enumeration import (
    MAX_ENUM_BITS,
    check_enumerable,
    conditional_configuration_probabilities,
    configuration_probabilities,
    configuration_probability,
)
from repro.probability.inclusion_exclusion import (
    union_probability,
    union_probability_from_intersections,
)
from repro.probability.sampling import sample_alive_masks, sample_alive_matrix

__all__ = [
    "bitplanes",
    "gray_code",
    "gray_flip_position",
    "gray_lattice",
    "indices_from_mask",
    "iter_submasks",
    "iter_supermasks",
    "mask_from_indices",
    "mask_weights",
    "pack_bitplanes",
    "parity_array",
    "popcount",
    "popcount_array",
    "MAX_ENUM_BITS",
    "check_enumerable",
    "conditional_configuration_probabilities",
    "configuration_probabilities",
    "configuration_probability",
    "union_probability",
    "union_probability_from_intersections",
    "sample_alive_masks",
    "sample_alive_matrix",
]
