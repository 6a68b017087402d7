"""Subset-lattice transforms (zeta / Möbius) over numpy arrays.

Given ``f`` indexed by bitmasks over ``n`` bits:

* subset zeta:      ``F[S] = sum_{T subseteq S} f[T]``
* superset zeta:    ``F[S] = sum_{T supseteq S} f[T]``

and their Möbius inverses.  All four run in ``O(n 2^n)`` with the
standard in-place butterfly, vectorized through reshaped views (no
copies, per the HPC guide's views-not-copies rule).

The ACCUMULATION step uses the superset zeta: aggregating side
probabilities by realized-assignment mask and superset-summing yields
``P_side(X) = P(realized set contains X)`` for every assignment subset
``X`` simultaneously.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ReproValueError

__all__ = [
    "subset_zeta",
    "subset_moebius",
    "superset_zeta",
    "superset_moebius",
    "superset_zeta_rows",
]


def _check(values: np.ndarray) -> int:
    if values.ndim != 1:
        raise ReproValueError("transform input must be one-dimensional")
    size = values.shape[0]
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ReproValueError(f"length must be a power of two, got {size}")
    return n


def subset_zeta(values: np.ndarray, *, inplace: bool = False) -> np.ndarray:
    """``F[S] = sum over subsets T of S of f[T]``."""
    out = values if inplace else values.copy()
    n = _check(out)
    for i in range(n):
        step = 1 << i
        view = out.reshape(-1, 2, step)
        view[:, 1, :] += view[:, 0, :]
    return out


def subset_moebius(values: np.ndarray, *, inplace: bool = False) -> np.ndarray:
    """Inverse of :func:`subset_zeta`."""
    out = values if inplace else values.copy()
    n = _check(out)
    for i in range(n):
        step = 1 << i
        view = out.reshape(-1, 2, step)
        view[:, 1, :] -= view[:, 0, :]
    return out


def superset_zeta(values: np.ndarray, *, inplace: bool = False) -> np.ndarray:
    """``F[S] = sum over supersets T of S of f[T]``."""
    out = values if inplace else values.copy()
    n = _check(out)
    for i in range(n):
        step = 1 << i
        view = out.reshape(-1, 2, step)
        view[:, 0, :] += view[:, 1, :]
    return out


def superset_zeta_rows(values: np.ndarray, *, inplace: bool = False) -> np.ndarray:
    """Row-wise :func:`superset_zeta` over a 2-D batch.

    Each row is transformed independently with exactly the scalar
    butterfly schedule — the per-row additions pair the same operands
    in the same order — so every output row is bit-identical to
    ``superset_zeta(values[i])``.  Used by the row-wise ACCUMULATION
    kernels (:mod:`repro.core.accumulate`) to evaluate a whole grid of
    availability points in one pass.
    """
    out = values if inplace else values.copy()
    if out.ndim != 2:
        raise ReproValueError("row transform input must be two-dimensional")
    size = out.shape[1]
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ReproValueError(f"row length must be a power of two, got {size}")
    rows = out.shape[0]
    for i in range(n):
        step = 1 << i
        view = out.reshape(rows, -1, 2, step)
        view[:, :, 0, :] += view[:, :, 1, :]
    return out


def superset_moebius(values: np.ndarray, *, inplace: bool = False) -> np.ndarray:
    """Inverse of :func:`superset_zeta`."""
    out = values if inplace else values.copy()
    n = _check(out)
    for i in range(n):
        step = 1 << i
        view = out.reshape(-1, 2, step)
        view[:, 0, :] -= view[:, 1, :]
    return out
