"""The shared Gray-code lattice walk with two-sided monotone pruning.

Every max-flow enumeration answers the same shape of question: a
monotone boolean per mask of a ``2^m`` lattice, where evaluating a mask
costs a max-flow solve.  The :mod:`repro.core.arrays` fallback builder
walks here, and so does every boolean feasibility table (naive,
broadcast, coverage) through :mod:`repro.core.naive`'s one filler.  Walking the lattice in Gray-code order
(:func:`repro.probability.gray_lattice`) makes consecutive masks differ
in one link, which is what lets an incremental engine repair the
previous flow instead of cold-solving — and it unlocks a *two-sided*
prune that a most-alive-first scan cannot use:

* a **visited** infeasible one-bit superset dooms the mask
  (monotonicity downward), and
* a **visited** feasible one-bit subset blesses it (monotonicity
  upward — a most-alive-first scan only ever exploits the doom half).

Only visited neighbours are consulted, so the filled table is exact for
any visiting order; the walk order changes nothing but the solve count.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.probability.bitset import gray_lattice
from repro.probability.enumeration import check_enumerable

__all__ = ["gray_walk_table"]


def gray_walk_table(
    column: np.ndarray,
    m: int,
    decide: Callable[[int], bool],
    *,
    order: Sequence[int] | None = None,
    prune: bool = True,
    tick: Callable[[], None] | None = None,
) -> None:
    """Fill a monotone boolean ``column`` over the ``2^m`` lattice in place.

    ``decide(mask)`` is called for every mask the pruning cannot settle
    (in Gray order, so consecutive calls differ in one link — feed them
    to an incremental engine).  ``order`` permutes walk positions to
    bits as in :func:`repro.probability.gray_lattice`; ``tick`` is an
    optional per-mask progress callback.
    """
    check_enumerable(m)
    size = 1 << m
    visited = np.zeros(size, dtype=bool) if prune else None
    for mask in gray_lattice(m, order):
        if tick is not None:
            tick()
        decided = False
        if prune:
            bits = ~mask & (size - 1)
            while bits:
                low = bits & -bits
                sup = mask | low
                if visited[sup] and not column[sup]:
                    decided = True  # infeasible superset -> infeasible
                    break
                bits ^= low
            if not decided:
                bits = mask
                while bits:
                    low = bits & -bits
                    sub = mask ^ low
                    if visited[sub] and column[sub]:
                        column[mask] = True  # feasible subset -> feasible
                        decided = True
                        break
                    bits ^= low
        if not decided:
            column[mask] = decide(mask)
        if prune:
            visited[mask] = True
