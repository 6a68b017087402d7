"""Vectorized enumeration of failure configurations.

A failure configuration over ``m`` links is the bitmask of *alive*
links (bit ``i`` set means link ``i`` is up).  The probability of
configuration ``c`` is ``prod_{i alive} (1 - p_i) * prod_{i dead} p_i``
(the paper's expression below Fig. 1, with ``E'`` the alive set).

:func:`probability_grid` materialises all ``2^m`` probabilities of one
or many failure vectors with a numpy doubling construction — no Python
loop over configurations — which is the single hottest primitive of the
exact algorithms; :func:`configuration_probabilities` is its counted
one-row case.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.exceptions import IntractableError, ReproValueError
from repro.graph.network import FlowNetwork
from repro.obs.recorder import CONFIGURATIONS_ENUMERATED, count, span

__all__ = [
    "MAX_ENUM_BITS",
    "check_enumerable",
    "configuration_probabilities",
    "configuration_probability",
    "conditional_configuration_probabilities",
    "probability_grid",
]

#: Refuse to materialise more than ``2**MAX_ENUM_BITS`` configurations
#: (8 bytes each => 2 GiB of float64 at 28 bits).
MAX_ENUM_BITS = 28

#: Tables up to this width are memoised by failure-probability vector
#: (32 MiB of float64 at 22 bits; the cache holds at most 8 tables).
#: Wider tables are rebuilt per call — at that size the build cost is
#: dwarfed by whatever enumeration asked for it.
_PROB_TABLE_CACHE_BITS = 22


def check_enumerable(n_bits: int, *, limit: int = MAX_ENUM_BITS) -> None:
    """Raise :class:`IntractableError` when ``2**n_bits`` is over budget."""
    if n_bits > limit:
        raise IntractableError(
            f"enumerating 2^{n_bits} configurations exceeds the budget of 2^{limit}",
            required=n_bits,
            limit=limit,
        )


def _as_failure_probs(source: FlowNetwork | Sequence[float]) -> np.ndarray:
    if isinstance(source, FlowNetwork):
        probs = np.asarray(source.failure_probabilities(), dtype=np.float64)
    else:
        probs = np.asarray(source, dtype=np.float64)
    if probs.ndim != 1:
        raise ReproValueError("failure probabilities must be one-dimensional")
    if np.any((probs < 0.0) | (probs >= 1.0)):
        raise ReproValueError("failure probabilities must lie in [0, 1)")
    return probs


def probability_grid(failure_grid: np.ndarray) -> np.ndarray:
    """2-D doubling table: row ``s`` is the configuration-probability
    table of failure vector ``failure_grid[s]``.

    Start from ``[1.0]`` and, for each link, append the alive-scaled copy
    after the dead-scaled copy, so that link ``i`` occupies bit ``i``:
    ``P[s, c] = prod_i (bit_i(c) ? 1 - p_si : p_si)``, multiplied left
    to right in link order.  ``O(points * 2^m)`` time and memory.  This
    is the one doubling loop of the library: configuration tables, the
    Eq. 2 pattern tables of :mod:`repro.core.bottleneck` and the sweep
    grids all index it.

    A single row of at most ``_PROB_TABLE_CACHE_BITS`` links is served
    as a ``(1, 2^m)`` view of the memoised **read-only** table, so a
    pointwise caller never rebuilds a table the array builder already
    made.  Wider or multi-row grids are built fresh.
    """
    grid = np.ascontiguousarray(np.asarray(failure_grid, dtype=np.float64))
    if grid.ndim != 2:
        raise ReproValueError("failure grid must be two-dimensional (points x links)")
    if grid.size and (np.any(grid < 0.0) or np.any(grid >= 1.0)):
        raise ReproValueError("failure probabilities must lie in [0, 1)")
    check_enumerable(grid.shape[1])
    return _table_rows(grid)


def _table_rows(grid: np.ndarray) -> np.ndarray:
    """:func:`probability_grid` on a validated grid: the memo policy."""
    points, m = grid.shape
    if points == 1 and m <= _PROB_TABLE_CACHE_BITS:
        return _probability_table(tuple(grid[0].tolist()))[None, :]
    return _doubling(grid)


def _doubling(grid: np.ndarray) -> np.ndarray:
    """The doubling construction over ``(points, m)`` factors (unvalidated).

    A factor of exactly 1.0 (used by the conditional tables) makes the
    dead half an exact copy and the alive half exact zeros.
    """
    table = np.ones((grid.shape[0], 1), dtype=np.float64)
    for i in range(grid.shape[1]):
        p = grid[:, i : i + 1]
        table = np.concatenate([table * p, table * (1.0 - p)], axis=1)
    return table


@lru_cache(maxsize=8)
def _probability_table(probs: tuple[float, ...]) -> np.ndarray:
    """Memoised, **read-only** probability table for one prob vector.

    Each explicit side array and each repeat caller ask for the same
    table; building it once per process and
    sharing a read-only view removes an ``O(2^m)`` rebuild from every
    repeat caller.
    """
    table = _doubling(np.array(probs, dtype=np.float64)[None, :])[0]
    table.setflags(write=False)
    return table


def configuration_probabilities(
    source: FlowNetwork | Sequence[float],
) -> np.ndarray:
    """Probability of every alive-bitmask configuration.

    Returns a float64 array ``P`` of length ``2**m`` with
    ``P[c] = prod_i (bit_i(c) ? 1 - p_i : p_i)``.  The array sums to 1.
    The counted one-row case of :func:`probability_grid` (read-only when
    memoised).
    """
    probs = _as_failure_probs(source)
    m = len(probs)
    check_enumerable(m)
    with span("probability.table", links=m):
        # The counter reports configurations *requested*, cache hit or
        # not — the paper's cost accounting is about the enumeration the
        # algorithm asked for, not this process's memoisation luck.
        count(CONFIGURATIONS_ENUMERATED, 1 << m)
        return _table_rows(probs[None, :])[0]


def configuration_probability(
    source: FlowNetwork | Sequence[float], mask: int
) -> float:
    """Probability of one configuration, without the full table."""
    probs = _as_failure_probs(source)
    value = 1.0
    for i, p in enumerate(probs):
        value *= (1.0 - p) if (mask >> i) & 1 else p
    return float(value)


def conditional_configuration_probabilities(
    source: FlowNetwork | Sequence[float],
    *,
    forced_alive: Iterable[int] = (),
    forced_dead: Iterable[int] = (),
) -> np.ndarray:
    """Configuration probabilities with some links conditioned.

    Links in ``forced_alive`` are treated as up with probability 1 and
    links in ``forced_dead`` as down with probability 1 — the
    conditioning used by Eq. (3), where the bottleneck pattern ``E'`` is
    fixed and the side configurations keep their own probabilities.
    Configurations contradicting the conditioning get probability 0; the
    table sums to 1.
    """
    probs = _as_failure_probs(source).copy()
    alive_set = set(forced_alive)
    dead_set = set(forced_dead)
    overlap = alive_set & dead_set
    if overlap:
        raise ReproValueError(f"links {sorted(overlap)} forced both alive and dead")
    # Failure probability 0 / 1 pins a link up / down; 1 is outside the
    # validated range, so the doubling loop is called directly.
    probs[list(alive_set)] = 0.0
    probs[list(dead_set)] = 1.0
    check_enumerable(len(probs))
    return _doubling(probs[None, :])[0]
