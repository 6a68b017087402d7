"""Solver-free §III-C realization columns via cut certificates.

A side configuration realizes assignment ``a`` iff the side-local flow
network (the alive links plus one virtual port arc of capacity ``a_l``
per bottleneck link, see :mod:`repro.core.arrays`) carries ``d`` units
between its two terminals.  By max-flow/min-cut duality that holds iff
**every** cut ``S`` (source terminal inside, sink terminal outside)
has

    ``alive_cap(S → V∖S) + Σ_{l : port arc l leaves S} a_l ≥ d``.

The left-hand side splits into a configuration part that does not
depend on the assignment and a port *offset* that does not depend on
the configuration, so the whole column family of one side is two
vectorized steps over a small cut family instead of ``|D| · 2^m``
max-flow solves:

1. **The cut family** (:func:`side_cut_family`).  Every cut ``S`` can be
   shrunk to a *bond* — both shores connected in the undirected side
   graph plus the virtual terminal — without gaining a crossing arc:
   keep the source terminal's component inside ``S``, then give every
   node outside the sink terminal's component of the remainder back to
   the source shore.  Each step only drops forward arcs, so a bond's
   crossing set is contained in the crossing set of the cut it came
   from and its capacity is no larger under every configuration and
   assignment.  Only the inclusion-minimal crossing sets are kept.
   This is the minimal-cut family of the capacity-factor theory of a
   point-to-point network (Li, Zhao & Kan).
2. **The certificate table** (:func:`certificate_masks`).  The alive
   capacity of every (configuration, cut) pair, clipped at ``d``, is
   built with the dead-half-first doubling of
   :func:`repro.probability.configuration_probabilities` (bit ``i`` is
   link ``i``), blocked over the lattice so a 20-link side stays within
   a fixed memory budget.  Cuts sharing one port-crossing pattern share
   one offset per assignment, so they are folded by a row-wise ``min``
   first; assignment ``j``'s column is then
   ``min_S(table + offset_j) ≥ d``.

The masks are bit-identical to the max-flow kernels' (the property
suite ``tests/properties/test_prop_certificate.py`` pins this);
``flow_calls`` is 0.  :func:`repro.core.arrays.build_side_array` uses
this kernel by default and keeps the max-flow Gray walk as the fallback
when the cut family is over its guard or the caller names a solver or
forces ``incremental=``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.exceptions import SolverError
from repro.graph.network import FlowNetwork, Node
from repro.probability.bitset import pack_bitplanes
from repro.probability.enumeration import check_enumerable

__all__ = [
    "MAX_CERTIFICATE_CUTS",
    "MAX_CERTIFICATE_FREE_NODES",
    "CutFamily",
    "certificate_masks",
    "side_cut_family",
]

#: Guard on the bond enumeration: a side with more non-terminal nodes
#: than this (nodes no arc touches excluded) falls back to the max-flow
#: kernel.  Enumeration walks all ``2^free`` node subsets; at 16 free
#: nodes that is ~13 ms and 0.5 MiB per array (docs/PERFORMANCE.md).
MAX_CERTIFICATE_FREE_NODES = 16

#: Guard on the family itself: the certificate table costs about a
#: nanosecond per (configuration, cut), so past this many
#: inclusion-minimal crossing sets the max-flow kernel is used instead.
#: At 1024 cuts the table is still ~10x faster than the Gray walk on
#: 14- and 20-link sides (docs/PERFORMANCE.md, "Cut certificates").
MAX_CERTIFICATE_CUTS = 1024

#: Canonical cuts the inclusion-minimal filter compares pairwise at most
#: (an ``F x F`` boolean matrix); more distinct bonds than this count as
#: over the :data:`MAX_CERTIFICATE_CUTS` guard.
_MAX_CANDIDATE_CUTS = 2048

#: Table entries per lattice block (``configurations x cuts``): a few
#: hundred KiB of ``uint8`` per live table, so peak memory stays flat.
_BLOCK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class CutFamily:
    """The inclusion-minimal bond family of one side.

    Attributes
    ----------
    link_weights:
        ``int64`` matrix ``(num_links, num_cuts)``: the capacity link
        ``i`` adds to cut ``f`` when alive (0 when it does not cross).
    port_crossing:
        ``bool`` matrix ``(num_ports, num_cuts)``: whether the virtual
        arc of port ``l`` leaves cut ``f``'s source shore.
    """

    link_weights: np.ndarray
    port_crossing: np.ndarray

    @property
    def size(self) -> int:
        """Number of cuts in the family."""
        return int(self.link_weights.shape[1])


def _neighbour_tables(neighbours: list[int]) -> list[np.ndarray]:
    """Per byte of a node mask: the union of the neighbour masks of the
    nodes set in that byte, for every byte value."""
    tables = []
    for start in range(0, len(neighbours), 8):
        table = [0]
        for mask in neighbours[start : start + 8]:
            table += [t | mask for t in table]
        tables.append(np.array(table, dtype=np.uint64))
    return tables


def _grow(seed: np.ndarray, allowed: np.ndarray, tables: list[np.ndarray]) -> np.ndarray:
    """Element-wise connected component of ``seed`` inside ``allowed``.

    Node sets are ``uint64`` bitmasks; ``tables`` come from
    :func:`_neighbour_tables`.  One breadth-first layer per pass, all
    sets at once: a table lookup per byte of the mask.
    """
    reach = seed
    while True:
        grown = reach.copy()
        for byte, table in enumerate(tables):
            grown |= table[((reach >> np.uint64(8 * byte)) & np.uint64(0xFF)).astype(np.intp)]
        grown &= allowed
        if np.array_equal(grown, reach):
            return reach
        reach = grown


def _distinct_rows(matrix: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D boolean matrix (lexicographic order)."""
    if matrix.shape[1] == 0:
        return matrix[:1]
    ranked = matrix[np.lexsort(matrix.T[::-1])]
    keep = np.ones(len(ranked), dtype=bool)
    keep[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return ranked[keep]


def side_cut_family(
    net: FlowNetwork,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
) -> CutFamily | None:
    """The bond family of one side, or ``None`` when it is over a guard.

    The flow network is the one :mod:`repro.core.arrays` solves: the
    side's links (self-loops and zero-capacity links never cross a cut
    with positive capacity, so they are left out) plus a virtual node
    joined to every port — port to virtual for ``role="source"`` (flow
    runs ``terminal -> ports``), virtual to port for ``role="sink"``.
    Every subset of the free nodes is shrunk to its bond (module
    docstring); the distinct crossing sets are reduced to the
    inclusion-minimal ones.  The guards are
    :data:`MAX_CERTIFICATE_FREE_NODES` and :data:`MAX_CERTIFICATE_CUTS`.
    """
    nodes = net.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    if terminal not in index:
        raise SolverError(f"terminal {terminal!r} is not inside this side")
    for port in ports:
        if port not in index:
            raise SolverError(f"port {port!r} is not inside this side")
    virtual = len(nodes)

    # Arc table: the link arcs first, then one arc per port.
    arc_links: list[int] = []
    tails: list[int] = []
    heads: list[int] = []
    undirected: list[bool] = []
    for link in net.links():
        if link.tail == link.head or link.capacity <= 0:
            continue
        arc_links.append(link.index)
        tails.append(index[link.tail])
        heads.append(index[link.head])
        undirected.append(not link.directed)
    for port in ports:
        if role == "source":
            tails.append(index[port])
            heads.append(virtual)
        else:
            tails.append(virtual)
            heads.append(index[port])
        undirected.append(False)
    if role == "source":
        src, snk = index[terminal], virtual
    else:
        src, snk = virtual, index[terminal]

    # Bit positions: the source terminal is bit 0, the sink terminal bit
    # 1, the free nodes (every other node some arc touches) bits 2, 3, ...
    free = sorted({*tails, *heads} - {src, snk})
    if len(free) > MAX_CERTIFICATE_FREE_NODES:
        return None
    position = {src: 0, snk: 1, **{v: b + 2 for b, v in enumerate(free)}}
    tail_bits = np.array([position[v] for v in tails], dtype=np.uint64)
    head_bits = np.array([position[v] for v in heads], dtype=np.uint64)
    neighbours = [0] * (len(free) + 2)
    for u, v in zip(tail_bits.tolist(), head_bits.tolist()):
        neighbours[u] |= 1 << v
        neighbours[v] |= 1 << u

    # Row r of the enumeration is the cut {source} ∪ (free nodes of r).
    everything = np.uint64((1 << len(neighbours)) - 1)
    member = (np.arange(1 << len(free), dtype=np.uint64) << np.uint64(2)) | np.uint64(1)
    tables = _neighbour_tables(neighbours)
    source_shore = _grow(np.ones_like(member), member, tables)
    sink_shore = _grow(np.full_like(member, 2), everything & ~source_shore, tables)
    inside = np.sort(everything & ~sink_shore)
    inside = inside[np.r_[True, inside[1:] != inside[:-1]]][:, None]

    tail_in = ((inside >> tail_bits) & np.uint64(1)).astype(bool)
    head_in = ((inside >> head_bits) & np.uint64(1)).astype(bool)
    crossing = (tail_in & ~head_in) | (np.asarray(undirected) & head_in & ~tail_in)
    candidates = _distinct_rows(crossing)
    if len(candidates) > _MAX_CANDIDATE_CUTS:
        return None
    # missing[j, i]: candidate j has an arc candidate i lacks.  Rows are
    # distinct, so i is inclusion-minimal iff that holds for every j != i.
    missing = candidates @ ~candidates.T
    np.fill_diagonal(missing, True)
    family = candidates[missing.all(axis=0)]
    if len(family) > MAX_CERTIFICATE_CUTS:
        return None

    num_link_arcs = len(arc_links)
    link_weights = np.zeros((net.num_links, len(family)), dtype=np.int64)
    capacities = np.array(
        [net.link(i).capacity for i in arc_links], dtype=np.int64
    ).reshape(-1, 1)
    link_weights[arc_links] = family[:, :num_link_arcs].T * capacities
    return CutFamily(
        link_weights=link_weights,
        port_crossing=np.ascontiguousarray(family[:, num_link_arcs:].T),
    )


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


def _threshold_lookup(need: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pattern ``(thresholds, bits)`` for one column of ``need``.

    ``thresholds`` are the distinct needs, ascending; ``bits[i]`` is the
    mask of assignments whose need is at most ``thresholds[i - 1]``
    (``bits[0] = 0``), so ``bits[searchsorted(thresholds, v, "right")]``
    is the set of assignments a cheapest capacity ``v`` satisfies.
    """
    thresholds = np.array(sorted(set(need.tolist())), dtype=need.dtype)
    bits = np.zeros(len(thresholds) + 1, dtype=np.uint64)
    for i, t in enumerate(thresholds):
        bits[i + 1] = pack_bitplanes((need <= t)[None, :])[0]
    return thresholds, bits


def certificate_masks(
    family: CutFamily, assignments: Sequence[Sequence[int]], demand: int
) -> np.ndarray:
    """Realization masks of one side from its cut family.

    Returns the ``uint64`` array of length ``2^{num_links}`` whose entry
    ``c`` has bit ``j`` set iff configuration ``c`` realizes
    ``assignments[j]`` — the same array the max-flow kernels pack.
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
    # Fold the cuts by port-crossing pattern: one offset per pattern.
    by_pattern: dict[tuple[bool, ...], list[int]] = {}
    for cut, pattern in enumerate(family.port_crossing.T.tolist()):
        by_pattern.setdefault(tuple(pattern), []).append(cut)
    loads = np.asarray(assignments, dtype=np.int64)
    groups: list[list[int]] = []
    lookups: list[tuple[np.ndarray, np.ndarray]] = []
    for pattern, cuts in by_pattern.items():
        need = np.clip(demand - loads @ np.asarray(pattern, dtype=np.int64), 0, demand)
        # A pattern no assignment needs anything from (e.g. every port
        # crosses) is satisfied by every configuration.
        if need.any():
            groups.append(cuts)
            lookups.append(_threshold_lookup(need.astype(dtype)))
    if not groups:
        return masks
    order = np.concatenate(groups)
    bounds = np.cumsum([0] + [len(g) for g in groups])

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
        out = masks[start : start + block]
        for (thresholds, bits), lo, hi in zip(lookups, bounds[:-1], bounds[1:]):
            cheapest = alive[lo:hi].min(axis=0)
            out &= bits[np.searchsorted(thresholds, cheapest, side="right")]
    return masks
