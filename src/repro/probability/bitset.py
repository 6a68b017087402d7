"""Bitmask utilities.

Failure configurations, realized-assignment sets and supporting subsets
are all represented as integer bitmasks; this module collects the bit
tricks everything else uses.  Functions come in scalar (Python int) and
vectorized (numpy ``uint64``) flavours.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.exceptions import IntractableError, ReproValueError

#: Largest ``n_bits`` for which :func:`popcount_array` / :func:`parity_array`
#: agree to materialise a ``2**n_bits``-entry table (uint8, so 256 MiB at 28).
MAX_TABLE_BITS = 28

#: Widest uint64 bit vocabulary :func:`mask_weights` can address.
MAX_MASK_BITS = 64

__all__ = [
    "MAX_MASK_BITS",
    "MAX_TABLE_BITS",
    "mask_from_indices",
    "indices_from_mask",
    "popcount",
    "popcount_array",
    "mask_weights",
    "bitplanes",
    "pack_bitplanes",
    "iter_submasks",
    "iter_supermasks",
    "gray_code",
    "gray_flip_position",
    "gray_lattice",
    "parity_array",
]


def mask_from_indices(indices: Iterable[int]) -> int:
    """Bitmask with the given bit positions set."""
    mask = 0
    for i in indices:
        if i < 0:
            raise ReproValueError(f"bit position must be non-negative, got {i}")
        mask |= 1 << i
    return mask


def indices_from_mask(mask: int) -> list[int]:
    """Ascending bit positions set in ``mask``."""
    if mask < 0:
        raise ReproValueError("mask must be non-negative")
    result = []
    position = 0
    while mask:
        if mask & 1:
            result.append(position)
        mask >>= 1
        position += 1
    return result


def popcount(mask: int) -> int:
    """Number of set bits (arbitrary-precision ints supported)."""
    return bin(mask).count("1") if mask >= 0 else _raise_negative(mask)


def _raise_negative(mask: int) -> int:
    raise ReproValueError(f"mask must be non-negative, got {mask}")


@lru_cache(maxsize=None)
def _popcount_table(n_bits: int) -> np.ndarray:
    """The memoised, **read-only** table behind :func:`popcount_array`.

    Every side array and every pruned scan asks for the same few
    widths, so the table is built once per width per process and
    shared.  It is marked read-only because it is shared:
    a caller mutating its copy would poison every later caller.
    """
    if n_bits > MAX_TABLE_BITS:
        raise IntractableError(
            f"a 2^{n_bits}-entry popcount table exceeds the budget of 2^{MAX_TABLE_BITS}",
            required=n_bits,
            limit=MAX_TABLE_BITS,
        )
    counts = np.zeros(1 << n_bits, dtype=np.uint8)
    size = 1
    for _ in range(n_bits):
        counts[size : 2 * size] = counts[:size] + 1
        size *= 2
    counts.setflags(write=False)
    return counts


def popcount_array(n_bits: int) -> np.ndarray:
    """``uint8`` array ``a`` of length ``2**n_bits`` with ``a[m] = popcount(m)``.

    Built by doubling: the second half of each prefix is the first half
    plus one.  ``n_bits`` up to ~26 is practical.  The returned array is
    cached per width and **read-only**; copy before mutating.
    """
    if n_bits < 0:
        raise ReproValueError("n_bits must be non-negative")
    return _popcount_table(n_bits)


@lru_cache(maxsize=None)
def _mask_weight_table(n_bits: int) -> np.ndarray:
    """Memoised, **read-only** ``uint64`` powers of two behind :func:`mask_weights`."""
    weights = np.uint64(1) << np.arange(n_bits, dtype=np.uint64)
    weights.setflags(write=False)
    return weights


def mask_weights(n_bits: int) -> np.ndarray:
    """``uint64`` weight vector ``[1, 2, 4, ...]`` of length ``n_bits``.

    The shared packing vocabulary: every site that turns a boolean
    bit-plane matrix into uint64 masks (realization arrays, Monte-Carlo
    samples, class restrictions, the block kernel) multiplies by this
    vector instead of rebuilding ``1 << arange`` per call.  Cached per
    width and **read-only**; copy before mutating.
    """
    if n_bits < 0:
        raise ReproValueError("n_bits must be non-negative")
    if n_bits > MAX_MASK_BITS:
        raise ReproValueError(
            f"uint64 masks hold at most {MAX_MASK_BITS} bits, got {n_bits}"
        )
    return _mask_weight_table(n_bits)


def bitplanes(masks: np.ndarray, bits: Sequence[int]) -> np.ndarray:
    """Transpose uint64 masks into boolean bit-plane columns.

    Column ``j`` of the output is bit ``bits[j]`` of every mask — the
    array-at-a-time inverse of :func:`pack_bitplanes`.  ``bits`` may be
    any subset (or reordering) of positions below :data:`MAX_MASK_BITS`.
    """
    positions = np.asarray(bits, dtype=np.int64).reshape(-1)
    if positions.size and (positions.min() < 0 or positions.max() >= MAX_MASK_BITS):
        raise ReproValueError(
            f"bit positions must lie in [0, {MAX_MASK_BITS}), got {bits!r}"
        )
    columns = np.asarray(masks, dtype=np.uint64)
    planes = (columns[:, None] >> positions.astype(np.uint64)[None, :]) & np.uint64(1)
    return planes.astype(bool)


def pack_bitplanes(planes: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n, q)`` bit-plane matrix into ``q``-bit uint64 masks.

    One matmul against :func:`mask_weights` — no per-bit Python loop.
    """
    matrix = np.asarray(planes)
    if matrix.ndim != 2:
        raise ReproValueError(f"planes must be 2-D, got shape {matrix.shape}")
    weights = mask_weights(matrix.shape[1])
    return (matrix.astype(np.uint64) @ weights).astype(np.uint64)


def parity_array(n_bits: int) -> np.ndarray:
    """``int8`` array of ``(-1)**popcount(m)`` for every mask ``m``."""
    counts = popcount_array(n_bits)
    signs = np.where(counts & 1, -1, 1).astype(np.int8)
    return signs


def iter_submasks(mask: int, *, include_empty: bool = True) -> Iterator[int]:
    """All submasks of ``mask``, in decreasing numeric order.

    The classic ``sub = (sub - 1) & mask`` walk: 2^popcount(mask) values.
    """
    if mask < 0:
        _raise_negative(mask)
    sub = mask
    while sub:
        yield sub
        sub = (sub - 1) & mask
    if include_empty:
        yield 0


def iter_supermasks(mask: int, universe: int) -> Iterator[int]:
    """All supermasks of ``mask`` within ``universe`` (ascending)."""
    if mask & ~universe:
        raise ReproValueError("mask must be a subset of the universe")
    free = universe & ~mask
    sub = 0
    while True:
        yield mask | sub
        if sub == free:
            return
        sub = (sub - free) & free


def gray_code(i: int) -> int:
    """The ``i``-th reflected Gray code."""
    return i ^ (i >> 1)


def gray_flip_position(i: int) -> int:
    """Bit flipped between Gray codes ``i-1`` and ``i`` (``i >= 1``).

    Equals the number of trailing zeros of ``i``.
    """
    if i <= 0:
        raise ReproValueError("gray_flip_position is defined for i >= 1")
    return (i & -i).bit_length() - 1


def gray_lattice(n_bits: int, order: "Sequence[int] | None" = None) -> Iterator[int]:
    """Every mask in ``[0, 2**n_bits)`` exactly once, in Gray-code order.

    Consecutive masks differ in exactly one bit
    (:func:`gray_flip_position`), which is what lets the incremental
    max-flow engine repair one link per lattice step instead of
    cold-solving each configuration.

    ``order`` relabels walk positions to bits: position ``p`` of the
    walk flips bit ``order[p]`` instead of bit ``p``.  Any permutation
    of ``range(n_bits)`` still visits every mask exactly once with
    one-bit steps.  Walk position ``p`` flips ``2**(n_bits - 1 - p)``
    times, so callers park expensive-to-flip bits at high positions.
    """
    if n_bits < 0:
        raise ReproValueError("n_bits must be non-negative")
    if n_bits > MAX_TABLE_BITS:
        raise IntractableError(
            f"a 2^{n_bits}-step Gray walk exceeds the budget of 2^{MAX_TABLE_BITS}",
            required=n_bits,
            limit=MAX_TABLE_BITS,
        )
    if order is not None:
        shifts = [1 << b for b in order]
        if len(shifts) != n_bits or sorted(order) != list(range(n_bits)):
            raise ReproValueError("order must be a permutation of range(n_bits)")
    else:
        shifts = [1 << p for p in range(n_bits)]
    code = 0
    yield code
    for i in range(1, 1 << n_bits):
        code ^= shifts[gray_flip_position(i)]
        yield code
