"""Reference Eq. 3: the paper's inclusion–exclusion, the test oracle.

For a class ``D_{E'}`` (``indices``) the paper writes the ACCUMULATION
as the signed sum over nonempty assignment subsets ``X ⊆ D_{E'}``,

    r_{E'} = Σ_{∅≠X} (−1)^{|X|+1} P_s(X) · P_t(X),

where ``P_side(X)`` is the probability that the side's realized set
contains ``X``.  This evaluates it directly, one subset at a time, so it
is only usable for small classes; the kernel of
``repro.core.accumulate`` must agree with it.

:func:`group_side` turns one side given configuration by configuration
(a mask and a probability per configuration) into the distinct masks
and their weights the kernel takes, as a side cover does for real sides.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.probability.inclusion_exclusion import union_probability_from_intersections


def inclusion_exclusion(
    source_masks: np.ndarray,
    source_probabilities: np.ndarray,
    sink_masks: np.ndarray,
    sink_probabilities: np.ndarray,
    indices: Sequence[int],
) -> float:
    """``r_{E'}`` by the signed sum over the subsets of ``indices``."""
    source_masks = np.asarray(source_masks, dtype=np.uint64)
    sink_masks = np.asarray(sink_masks, dtype=np.uint64)
    indices = list(indices)
    table = np.zeros(1 << len(indices))
    for local in range(1, len(table)):
        subset = np.uint64(
            sum(1 << j for i, j in enumerate(indices) if (local >> i) & 1)
        )
        p_s = source_probabilities[(source_masks & subset) == subset].sum()
        p_t = sink_probabilities[(sink_masks & subset) == subset].sum()
        table[local] = p_s * p_t
    return union_probability_from_intersections(table)


def group_side(masks: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct masks of one side (ascending) and their ``(rows, k)``
    weights: ``rows`` holds one probability per configuration, a row per
    point (a single row may be 1-D)."""
    distinct, inverse = np.unique(np.asarray(masks, dtype=np.uint64), return_inverse=True)
    table = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    weights = np.stack(
        [np.bincount(inverse.reshape(-1), weights=row, minlength=len(distinct)) for row in table]
    )
    return distinct, weights
