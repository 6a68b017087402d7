"""Fast reference §III-C masks: the certificate table over the lattice.

The cut-certificate test of a side (``repro.core.certificate``) evaluated
at every configuration instead of per factoring node: the alive
capacity of every (configuration, cut) pair, clipped at ``d``, is built
with the dead-half-first doubling of
``repro.probability.configuration_probabilities`` (bit ``i`` is link
``i``), blocked over the lattice so a 20-link side stays within a fixed
memory budget, then read through the kernel's threshold lookup.  It is
pinned bit for bit to the max-flow oracle of ``tests/reference_arrays.py``
(``tests/properties/test_prop_certificate.py``) and is the oracle for
covers of sides too large for one max-flow per configuration.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.certificate import CutFamily, _pattern_groups, _realized
from repro.probability.enumeration import check_enumerable

#: Table entries per lattice block (``configurations x cuts``).
_BLOCK_ENTRIES = 1 << 18


def _table_dtype(demand: int) -> type[np.unsignedinteger]:
    """Narrowest unsigned dtype holding ``2 * demand`` (a clipped sum plus
    one clipped weight, before the next clip)."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if 2 * demand <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


def _doubling_table(weights: np.ndarray, cap: np.unsignedinteger) -> np.ndarray:
    """Clipped alive capacity per (cut, configuration) of ``len(weights)`` links.

    Column ``c`` is ``min(cap, Σ_{i alive in c} weights[i])``, built dead
    half first exactly like the configuration-probability table.  Cuts
    are rows, so the per-pattern ``min`` reduces across rows.
    """
    table = np.zeros((weights.shape[1], 1 << len(weights)), dtype=weights.dtype)
    for i, row in enumerate(weights):
        dead = table[:, : 1 << i]
        alive = table[:, 1 << i : 2 << i]
        np.add(dead, row[:, None], out=alive)
        np.minimum(alive, cap, out=alive)
    return table


def certificate_masks(
    family: CutFamily, assignments: Sequence[Sequence[int]], demand: int
) -> np.ndarray:
    """Realization masks of one side from its cut family.

    Returns the ``uint64`` array of length ``2^{num_links}`` whose entry
    ``c`` has bit ``j`` set iff configuration ``c`` realizes
    ``assignments[j]``.
    """
    num_links = family.link_weights.shape[0]
    check_enumerable(num_links)
    size = 1 << num_links
    full = np.uint64((1 << len(assignments)) - 1)
    masks = np.full(size, full, dtype=np.uint64)
    if not len(assignments):
        return masks

    dtype = _table_dtype(demand)
    cap = dtype(demand)
    order, bounds, lookup = _pattern_groups(family, assignments, demand, 1)
    if lookup is None:
        return masks

    weights = np.minimum(family.link_weights[:, order], demand).astype(dtype)
    low_bits = num_links
    while low_bits > 0 and (len(order) << low_bits) > _BLOCK_ENTRIES:
        low_bits -= 1
    low = _doubling_table(weights[:low_bits], cap)
    high = _doubling_table(weights[low_bits:], cap)
    block = 1 << low_bits
    for start in range(0, size, block):
        h = start >> low_bits
        alive = np.add(low, high[:, h : h + 1])
        np.minimum(alive, cap, out=alive)
        cheapest = np.minimum.reduceat(alive, bounds[:-1], axis=0)
        masks[start : start + block] = _realized(cheapest, lookup)
    return masks
