"""Solver-free §III-C realization masks via cut certificates.

A segment configuration realizes load ``a`` iff the segment-local flow
network (the alive links plus one virtual port arc of capacity ``a_l``
per port, see :mod:`repro.core.arrays`; a side or a chain middle)
carries ``d`` units between its two terminals.  By max-flow/min-cut
duality that holds iff **every** cut ``S`` (source terminal inside,
sink terminal outside) has

    ``alive_cap(S → V∖S) + Σ_{l : port arc l leaves S} a_l ≥ d``.

The left-hand side splits into a configuration part that does not
depend on the assignment and a port *offset* that does not depend on
the configuration, so every mask of one segment is a lookup over a
small cut family instead of ``|D|`` max-flow solves:

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
2. **The threshold lookup** (:func:`_pattern_groups`).  Cuts sharing
   one port-crossing pattern share one offset per assignment, so they
   are folded by a ``min`` over their clipped alive capacities first;
   assignment ``j`` is then realized iff ``min_S(capacity + offset_j)
   ≥ d``, one ``searchsorted`` per pattern group.

:func:`certificate_cover` asks that question per factoring node of a
segment's cube cover (:mod:`repro.core.cover`): a node carries its
bonds' clipped capacities, so no ``2^m`` table is ever built.  A chain
middle's loads are ``(a, b)`` pairs, packed one word per in-assignment
``a``.

The covers expand bit for bit to one cold max-flow per configuration
and load (``tests/properties/test_prop_certificate.py`` and
``test_prop_segment_relation.py`` pin this against the reference
oracle); ``flow_calls`` is 0.  :mod:`repro.core.arrays` covers every
segment — both sides of the split and every chain middle — with this
kernel unless its bond family is over one of the two guards below; only
then does it factor on segment max-flows.  No caller option chooses
between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.cover import factor_cover
from repro.exceptions import SolverError
from repro.graph.network import FlowNetwork, Node

__all__ = [
    "MAX_CERTIFICATE_CUTS",
    "MAX_CERTIFICATE_FREE_NODES",
    "CutFamily",
    "certificate_cover",
    "side_cut_family",
]

#: Guard on the bond enumeration: a side with more non-terminal nodes
#: than this (nodes no arc touches excluded) is factored on segment
#: max-flows instead.  Enumeration walks all ``2^free`` node subsets; at
#: 16 free nodes that is ~13 ms and 0.5 MiB per segment, and the
#: certificate still beat the max-flow fallback on 11 of 12 measured
#: sides (docs/PERFORMANCE.md, "Kernel choice").
MAX_CERTIFICATE_FREE_NODES = 16

#: Guard on the family itself: past this many inclusion-minimal crossing
#: sets the segment is factored on max-flows instead.  Every factoring
#: node scans the whole family, so its cost grows with the cut count
#: while a solve's does not; set for the retired ``2^m`` capacity table
#: and not re-measured since (docs/PERFORMANCE.md, "Kernel choice").
MAX_CERTIFICATE_CUTS = 1024

#: Canonical cuts the inclusion-minimal filter compares pairwise at most
#: (an ``F x F`` boolean matrix); more distinct bonds than this count as
#: over the :data:`MAX_CERTIFICATE_CUTS` guard.
_MAX_CANDIDATE_CUTS = 2048

#: Capacity entries per evaluation block (``nodes x bounds x cuts``), so
#: peak memory stays flat however wide the frontier grows.
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
    source: Node | None,
    sink: Node | None,
    in_ports: Sequence[Node],
    out_ports: Sequence[Node],
) -> CutFamily | None:
    """The bond family of one segment, or ``None`` when it is over a guard.

    The flow network is the one :mod:`repro.core.arrays` solves: the
    segment's links (self-loops and zero-capacity links never cross a
    cut with positive capacity, so they are left out) plus one arc from
    the source terminal to each in-port and one from each out-port to
    the sink terminal; a ``None`` terminal is a virtual node.  ``G_s``
    is ``(s, None, (), x-ports)``, ``G_t`` is ``(None, t, y-ports, ())``.
    ``port_crossing`` rows follow ``in_ports`` then ``out_ports``.
    Every subset of the free nodes is shrunk to its bond (module
    docstring); the distinct crossing sets are reduced to the
    inclusion-minimal ones.  The guards are
    :data:`MAX_CERTIFICATE_FREE_NODES` and :data:`MAX_CERTIFICATE_CUTS`.
    """
    nodes = net.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    for terminal in (source, sink):
        if terminal is not None and terminal not in index:
            raise SolverError(f"terminal {terminal!r} is not inside this side")
    for port in (*in_ports, *out_ports):
        if port not in index:
            raise SolverError(f"port {port!r} is not inside this side")
    src = index[source] if source is not None else len(nodes)
    snk = index[sink] if sink is not None else len(nodes) + 1

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
    for port in in_ports:
        tails.append(src)
        heads.append(index[port])
    for port in out_ports:
        tails.append(index[port])
        heads.append(snk)
    undirected += [False] * (len(in_ports) + len(out_ports))

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


def _threshold_lookup(need: Sequence[int]) -> tuple[list[int], list[int]]:
    """Per-pattern ``(thresholds, bits)`` for one column of ``need``.

    ``thresholds`` are the distinct needs, ascending; ``bits[i]`` is the
    mask of assignments whose need is at most ``thresholds[i - 1]``
    (``bits[0] = 0``), so ``bits[searchsorted(thresholds, v, "right")]``
    is the set of assignments a cheapest capacity ``v`` satisfies.
    """
    thresholds = sorted(set(need))
    bits = [0]
    for t in thresholds:
        bits.append(sum(1 << j for j, n in enumerate(need) if n <= t))
    return thresholds, bits


@dataclass(frozen=True)
class _Lookup:
    """Every pattern group's :func:`_threshold_lookup`, searched at once.

    Group ``g``'s thresholds and capacities are shifted up by
    ``g * (demand + 1)`` (``shift``), so one ``searchsorted`` over the
    concatenated thresholds lands inside group ``g``'s run; ``skip``
    (``g``) accounts for the extra ``bits`` entry of every earlier group.
    """

    thresholds: np.ndarray
    bits: np.ndarray
    shift: np.ndarray
    skip: np.ndarray


def _pattern_groups(
    family: CutFamily, assignments: Sequence[Sequence[int]], demand: int, words: int
) -> tuple[np.ndarray, np.ndarray, _Lookup | None]:
    """The cuts some assignment needs capacity from, grouped by pattern.

    Returns ``(order, bounds, lookup)``: ``order`` lists the cuts group
    after group and group ``g`` is ``order[bounds[g]:bounds[g + 1]]``.
    Cuts sharing one port-crossing pattern share one offset per
    assignment.  A pattern no assignment needs anything from (e.g. every
    port crosses) is satisfied by every configuration and left out;
    ``lookup`` is ``None`` when every pattern is.  The assignments fill
    ``words`` mask words of ``len(assignments) // words`` bits in turn:
    ``lookup.bits`` is ``(thresholds, words)``, or flat for one word.
    """
    by_pattern: dict[tuple[bool, ...], list[int]] = {}
    for cut, pattern in enumerate(family.port_crossing.T.tolist()):
        by_pattern.setdefault(tuple(pattern), []).append(cut)
    loads = [list(map(int, load)) for load in assignments]
    groups: list[list[int]] = []
    thresholds: list[int] = []
    bits: list[int] = []
    for pattern, cuts in by_pattern.items():
        need = [
            min(max(demand - sum(a for a, crosses in zip(load, pattern) if crosses), 0), demand)
            for load in loads
        ]
        if any(need):
            group_thresholds, group_bits = _threshold_lookup(need)
            thresholds += [t + len(groups) * (demand + 1) for t in group_thresholds]
            bits += group_bits
            groups.append(cuts)
    order = np.array([cut for cuts in groups for cut in cuts], dtype=np.intp)
    bounds = np.cumsum([0] + [len(g) for g in groups])
    if not groups:
        return order, bounds, None
    if words > 1:
        width = len(loads) // words
        low = (1 << width) - 1
        bits = [[(b >> (width * w)) & low for w in range(words)] for b in bits]
    index = np.arange(len(groups), dtype=np.int64)[:, None]
    lookup = _Lookup(
        thresholds=np.array(thresholds, dtype=np.int64),
        bits=np.array(bits, dtype=np.uint64),
        shift=index * (demand + 1),
        skip=index,
    )
    return order, bounds, lookup


def _realized(cheapest: np.ndarray, lookup: _Lookup) -> np.ndarray:
    """Masks from each group's cheapest clipped capacity (one row a group)."""
    shifted = cheapest.astype(np.int64, copy=False) + lookup.shift
    index = np.searchsorted(lookup.thresholds, shifted, side="right") + lookup.skip
    return np.bitwise_and.reduce(lookup.bits[index], axis=0)


def certificate_cover(
    family: CutFamily,
    assignments: Sequence[Sequence[int]],
    demand: int,
    capacities: Sequence[int],
    words: int,
) -> np.ndarray:
    """The cube cover (:mod:`repro.core.cover`) of one segment from its cut family.

    Every mask :func:`~repro.core.cover.factor_cover` asks for is a
    threshold lookup on clipped cut capacities: a node's own ``lo`` and
    ``hi``, and the same with one link's weights added to ``lo`` or
    taken off ``hi`` for each link.  ``capacities`` are the segment's
    link capacities (the tie-break of the branching rule).  The
    assignments fill ``words`` mask words in turn (a relation cover's
    in-assignment rows; a side has one word).
    """
    num_links = family.link_weights.shape[0]
    full = (1 << (len(assignments) // words)) - 1
    order, bounds, lookup = _pattern_groups(family, assignments, demand, words)
    if lookup is None:
        return np.array([[0, 0, *[full] * words]], dtype=np.uint64)
    weights = np.minimum(family.link_weights[:, order], demand)
    starts = bounds[:-1]
    block = max(1, _BLOCK_ENTRIES // ((2 + 2 * num_links) * len(order)))

    def evaluate(links: np.ndarray, caps: np.ndarray) -> np.ndarray:
        parts = []
        for first in range(0, len(caps), block):
            node = caps[first : first + block]
            every = np.concatenate(
                [node, node[:, :1] + weights, node[:, 1:] - weights], axis=1
            )
            np.minimum(every, demand, out=every)
            cheapest = np.minimum.reduceat(every.reshape(-1, len(order)), starts, axis=1)
            parts.append(_realized(cheapest.T, lookup).reshape(len(node), -1, words))
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    return factor_cover(num_links, capacities, evaluate, weights, demand)
