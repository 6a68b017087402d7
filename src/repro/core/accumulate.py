"""The ACCUMULATION procedure (paper §IV-B).

Given the two sides' realization masks and a class ``D_{E'}`` of
assignments supported by the surviving bottleneck pattern, compute

    r_{E'} = P( the G_s configuration and the G_t configuration jointly
               realize at least one assignment in D_{E'} ).

Example 3 explains why a plain product of side reliabilities is wrong:
the per-assignment events overlap in complicated ways.  The paper's fix
is inclusion–exclusion over assignment subsets ``X ⊆ D_{E'}`` using the
factorization ``p_X = P_s(X) · P_t(X)`` (the sides are independent
given the bottleneck pattern):

    r_{E'} = Σ_{∅≠X}  (−1)^{|X|+1} P_s(X) P_t(X).

The sides are independent, so the same quantity is a pair sum over the
two sides' realized masks:

    r_{E'} = Σ_{i,j} w_s[i] · w_t[j] · [m_s[i] ∩ m_t[j] ∩ D_{E'} ≠ ∅],

where ``m[i]`` runs over a side's *distinct* full realization masks and
``w[i]`` is the probability that the side realizes exactly ``m[i]``.
The sum has no ``2^q`` table, so any class the uint64 packing can hold
(up to 63 assignments) runs the same kernel.  A property suite pins it
to the signed sum (:func:`repro.probability.union_probability_from_intersections`).

Every caller reads the two sides' distinct masks and their weights
from the sides' cube covers (:class:`repro.core.cover.SideCover`:
``distinct`` and ``weights``), so no caller holds a ``2^m`` array.  The
one Eq. 3 pipeline, :func:`repro.core.sweep.split_reliability` (behind
the pointwise :func:`repro.core.bottleneck.bottleneck_reliability`, the
sweep, batch and serve paths and chain's last cut), regroups each
side's masks by a class's bits (:func:`regroup`) once per class and
call, then sums the pairs (:func:`grouped_joint_rows`);
:func:`joint_rows` is both steps for one class (``within``).  Each row's
pair products are summed on their own over a hit matrix built once per
call (in blocks under a fixed entry cap), so a row's value does not
depend on which batch it rides in.
"""

from __future__ import annotations


import numpy as np

__all__ = ["grouped_joint_rows", "joint_rows", "regroup"]

#: Largest hit matrix :func:`joint_rows` holds at once (entries).
_HIT_ENTRIES = 1 << 18


def regroup(masks: np.ndarray, within: int) -> tuple[np.ndarray, np.ndarray]:
    """Group distinct masks by their part inside ``within``.

    Returns the distinct restricted masks (ascending) and each input
    mask's group.  It reads masks only, never weights, so a caller that
    meets the same masks under many weight rows (a chain's sink side,
    row after row) regroups them once per class.
    """
    restricted, inverse = np.unique(masks & np.uint64(within), return_inverse=True)
    return restricted, inverse.reshape(-1)


def _fold(grouping: tuple[np.ndarray, np.ndarray], weights: np.ndarray) -> np.ndarray:
    """The ``(rows, groups)`` weights folded onto a :func:`regroup`.

    One weighted ``np.bincount`` whose bins are disjoint per row and
    filled in mask order, so a row's folded weights do not depend on
    the other rows.
    """
    restricted, inverse = grouping
    rows, size = weights.shape[0], len(restricted)
    bins = np.arange(rows)[:, None] * size + inverse
    folded = np.bincount(bins.ravel(), weights=weights.ravel(), minlength=rows * size)
    return folded.reshape(rows, size)


def grouped_joint_rows(
    source: tuple[np.ndarray, np.ndarray],
    source_weights: np.ndarray,
    sink: tuple[np.ndarray, np.ndarray],
    sink_weights: np.ndarray,
) -> np.ndarray:
    """:func:`joint_rows` on both sides' masks already regrouped by the
    class (:func:`regroup`).

    The hit matrix is built in blocks of source masks of at most
    :data:`_HIT_ENTRIES` entries; the blocks depend only on the masks,
    never on the rows.  Within a block every row's pair products are
    summed on their own (a per-row reduction over one contiguous row,
    the rows taken a bounded slab at a time), so a row's value is the
    same in any batch.
    """
    ms, ws = source[0], _fold(source, source_weights)
    mt, wt = sink[0], _fold(sink, sink_weights)
    rows = ws.shape[0]
    out = np.zeros(rows, dtype=np.float64)
    block = max(1, _HIT_ENTRIES // len(mt))
    for start in range(0, len(ms), block):
        stop = start + block
        hit = (ms[start:stop, None] & mt[None, :]) != 0
        row_block = max(1, _HIT_ENTRIES // hit.size)
        for first in range(0, rows, row_block):
            last = first + row_block
            pairs = ws[first:last, start:stop, None] * wt[first:last, None, :]
            pairs *= hit
            out[first:last] += pairs.reshape(len(pairs), -1).sum(axis=1)
    return out


def joint_rows(
    source_masks: np.ndarray,
    source_weights: np.ndarray,
    sink_masks: np.ndarray,
    sink_weights: np.ndarray,
    within: int,
) -> np.ndarray:
    """``r[s] = Σ_ij ws[s,i] · wt[s,j] · [ms_i & mt_j & within ≠ 0]``.

    Both sides are first regrouped by their masks' part inside the
    class (:func:`regroup`), so a small class costs at most
    ``2^|class|`` masks a side however many full masks there are; then
    :func:`grouped_joint_rows` sums the pairs.
    """
    return grouped_joint_rows(
        regroup(source_masks, within),
        source_weights,
        regroup(sink_masks, within),
        sink_weights,
    )
