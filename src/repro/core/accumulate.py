"""The ACCUMULATION procedure (paper §IV-B).

Given the two realization arrays and a class ``D_{E'}`` of assignments
supported by the surviving bottleneck pattern, compute

    r_{E'} = P( the G_s configuration and the G_t configuration jointly
               realize at least one assignment in D_{E'} ).

Example 3 explains why a plain product of side reliabilities is wrong:
the per-assignment events overlap in complicated ways.  The paper's fix
is inclusion–exclusion over assignment subsets ``X ⊆ D_{E'}`` using the
factorization ``p_X = P_s(X) · P_t(X)`` (the sides are independent
given the bottleneck pattern):

    r_{E'} = Σ_{∅≠X}  (−1)^{|X|+1} P_s(X) P_t(X).

Two exact implementations are provided and ablated in benchmark A1:

``zeta``
    Aggregate each side's configuration probabilities by realized mask
    restricted to ``D_{E'}``, superset-zeta transform to obtain every
    ``P_side(X)`` simultaneously, then the signed dot product.  Cost
    ``O(2^{m_side} + q 2^q)`` for ``q = |D_{E'}|`` — the paper's
    ``2^{d^k}``-flavoured constant.

``pairs``
    Aggregate each side to its *distinct* realized masks (there are at
    most ``min(2^{m_side}, 2^q)`` of them, usually a handful) and sum
    ``q_s(m) q_t(m')`` over pairs with ``m ∩ m' ≠ ∅`` — equivalently
    ``1 − P(no side realizes a common assignment)`` computed densely.
    Cost ``O(S · T)`` on distinct-mask counts; immune to large ``q``.

Both return identical values (a property test enforces it); ``auto``
picks ``zeta`` while ``2^q`` stays small and ``pairs`` otherwise.
``pairs`` is the only strategy past :data:`MAX_ZETA_ASSIGNMENTS`.

The kernels are row-wise: one call evaluates ``r_{E'}`` for a whole
``(points x 2^{m_side})`` grid of configuration probabilities over the
same realization masks (:func:`accumulate_rows`).  The pointwise
:func:`bottleneck_reliability` and the sweep both run them;
:func:`accumulate` and :func:`side_class_probabilities` are their
one-row calls on a :class:`RealizationArray`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.arrays import RealizationArray
from repro.exceptions import IntractableError, ReproValueError
from repro.probability.bitset import bitplanes, pack_bitplanes, parity_array
from repro.probability.zeta import superset_zeta_rows

__all__ = [
    "accumulate",
    "accumulate_rows",
    "check_strategy",
    "class_probability_rows",
    "restrict_masks",
    "side_class_probabilities",
]

#: ``zeta`` strategy refuses classes bigger than this many assignments.
MAX_ZETA_ASSIGNMENTS = 20

#: ``auto`` picks ``zeta`` for classes of at most this many assignments.
_AUTO_ZETA_ASSIGNMENTS = 12


def check_strategy(strategy: str) -> None:
    """Reject an unknown ACCUMULATION strategy name."""
    if strategy not in ("auto", "zeta", "pairs"):
        raise ReproValueError(f"unknown accumulation strategy {strategy!r}")


def restrict_masks(masks: np.ndarray, assignment_indices: Sequence[int]) -> np.ndarray:
    """Project realization masks onto a subset of assignment bits.

    Bit ``j`` of the output is bit ``assignment_indices[j]`` of the
    input — the mask over ``D_{E'}`` in class-local numbering.  One
    bit-plane transpose plus one packing matmul; no per-bit Python loop.
    """
    return pack_bitplanes(bitplanes(masks, list(assignment_indices)))


def class_probability_rows(
    masks: np.ndarray,
    probability_rows: np.ndarray,
    assignment_indices: Sequence[int],
) -> np.ndarray:
    """Aggregate one side by restricted realized mask, one row per point.

    Row ``s`` is ``q[mask] = P_s(realized class-set == mask)`` under the
    configuration probabilities ``probability_rows[s]``: length ``2^q``,
    summing to 1.  Each row is one weighted ``np.bincount``, which adds
    in configuration order, so every row is reproducible bit for bit.
    """
    q = len(assignment_indices)
    if q > MAX_ZETA_ASSIGNMENTS:
        raise IntractableError(
            f"zeta accumulation over {q} assignments needs 2^{q} table entries",
            required=q,
            limit=MAX_ZETA_ASSIGNMENTS,
        )
    restricted = restrict_masks(masks, assignment_indices).astype(np.int64)
    table = np.empty((probability_rows.shape[0], 1 << q), dtype=np.float64)
    for s, row in enumerate(probability_rows):
        table[s] = np.bincount(restricted, weights=row, minlength=1 << q)
    return table


def side_class_probabilities(
    array: RealizationArray, assignment_indices: Sequence[int]
) -> np.ndarray:
    """Aggregate one side into ``q[mask] = P(realized class-set == mask)``.

    The output is indexed by masks over the restricted class (length
    ``2^q``) and sums to 1.
    """
    return class_probability_rows(
        array.masks, array.probabilities[None, :], assignment_indices
    )[0]


def _zeta_rows(
    source_masks: np.ndarray,
    sink_masks: np.ndarray,
    source_rows: np.ndarray,
    sink_rows: np.ndarray,
    assignment_indices: Sequence[int],
) -> np.ndarray:
    q = len(assignment_indices)
    qs = class_probability_rows(source_masks, source_rows, assignment_indices)
    qt = class_probability_rows(sink_masks, sink_rows, assignment_indices)
    # P_side(X) = P(realized ⊇ X): superset sums of the aggregates.
    prod = superset_zeta_rows(qs, inplace=True) * superset_zeta_rows(qt, inplace=True)
    signs = -parity_array(q).astype(np.float64)  # (−1)^{|X|+1}
    signs[0] = 0.0
    return np.array([float(np.dot(signs, row)) for row in prod], dtype=np.float64)


def _pairs_rows(
    source_masks: np.ndarray,
    sink_masks: np.ndarray,
    source_rows: np.ndarray,
    sink_rows: np.ndarray,
    assignment_indices: Sequence[int],
) -> np.ndarray:
    # Distinct restricted masks per side; the rows only re-weight them.
    ms, inverse_s = np.unique(
        restrict_masks(source_masks, assignment_indices), return_inverse=True
    )
    mt, inverse_t = np.unique(
        restrict_masks(sink_masks, assignment_indices), return_inverse=True
    )
    # hit[i, j] = the two realized sets share an assignment.
    hit = ((ms[:, None] & mt[None, :]) != 0).astype(np.float64)
    out = np.empty(source_rows.shape[0], dtype=np.float64)
    for s in range(len(out)):
        qs = np.bincount(inverse_s, weights=source_rows[s], minlength=len(ms))
        qt = np.bincount(inverse_t, weights=sink_rows[s], minlength=len(mt))
        out[s] = float(qs @ hit @ qt)
    return out


def accumulate_rows(
    source_masks: np.ndarray,
    sink_masks: np.ndarray,
    source_rows: np.ndarray,
    sink_rows: np.ndarray,
    assignment_indices: Sequence[int],
    *,
    strategy: str = "auto",
) -> np.ndarray:
    """``r_{E'}`` for the class ``assignment_indices``, one value per row.

    ``source_rows[s]`` / ``sink_rows[s]`` are the configuration
    probabilities of the two sides at point ``s``; the masks are shared
    by every point.  ``strategy`` is ``"zeta"``, ``"pairs"`` or
    ``"auto"``.
    """
    check_strategy(strategy)
    q = len(assignment_indices)
    if q == 0:
        return np.zeros(source_rows.shape[0], dtype=np.float64)
    if strategy == "auto":
        strategy = "zeta" if q <= _AUTO_ZETA_ASSIGNMENTS else "pairs"
    kernel = _zeta_rows if strategy == "zeta" else _pairs_rows
    return kernel(source_masks, sink_masks, source_rows, sink_rows, assignment_indices)


def accumulate(
    source: RealizationArray,
    sink: RealizationArray,
    assignment_indices: Sequence[int],
    *,
    strategy: str = "auto",
) -> float:
    """``r_{E'}`` for the class given by ``assignment_indices``.

    ``strategy`` is ``"zeta"``, ``"pairs"`` or ``"auto"``.
    """
    if source.num_assignments != sink.num_assignments:
        raise ReproValueError("side arrays disagree on the assignment count")
    for j in assignment_indices:
        if not (0 <= j < source.num_assignments):
            raise ReproValueError(f"assignment index {j} out of range")
    return float(
        accumulate_rows(
            source.masks,
            sink.masks,
            source.probabilities[None, :],
            sink.probabilities[None, :],
            assignment_indices,
            strategy=strategy,
        )[0]
    )
