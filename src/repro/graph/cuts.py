"""Minimal s-t cut enumeration and α-bottleneck discovery.

The paper assumes a set of *α-bottleneck links* is known: a minimal s-t
disconnecting link set of constant size whose removal leaves exactly two
connected components, each holding at most ``α|E|`` links.  This module
finds such sets:

* :func:`bridges_between` — the ``k = 1`` fast path via Tarjan bridges;
* :func:`minimal_st_cuts` — every minimal cut up to a size bound, by
  branching on the links of one s-t path at a time (at most
  ``sum(C(|E|, i) for i <= k)`` connectivity probes, and about ``L^k``
  for shortest-path length ``L``: a few dozen for the constant ``k`` the
  paper assumes);
* :func:`minimum_cardinality_cut` — one smallest cut via unit-capacity
  max-flow (Menger), used to seed / lower-bound the search;
* :func:`find_bottleneck` — picks the admissible cut minimising the
  achieved α.

Separation is *undirected*: the paper's components are connected
components of the link-removal graph, independent of link direction.
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Iterable, Sequence

from repro.exceptions import DecompositionError, NodeNotFoundError, ReproValueError
from repro.graph.connectivity import _undirected_adjacency, bridges, has_path
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SideSplit, split_on_cut
from repro.obs.recorder import CUT_PROBES, count

__all__ = [
    "is_disconnecting",
    "is_minimal_cut",
    "bridges_between",
    "minimum_cardinality_cut",
    "minimal_st_cuts",
    "find_bottleneck",
    "verify_bottleneck",
]


def _shortest_path(
    adj: dict[Node, list[tuple[Node, int]]],
    source: Node,
    sink: Node,
    removed: AbstractSet[int],
) -> tuple[list[int] | None, set[Node]]:
    """BFS in ``G - removed``: the links of a shortest s-t path, or
    ``None`` and the whole source component when no path exists."""
    if source == sink:
        return [], set()
    via: dict[Node, tuple[Node, int] | None] = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor, index in adj[node]:
            if neighbor in via or index in removed:
                continue
            via[neighbor] = (node, index)
            if neighbor == sink:
                path = []
                step = via[neighbor]
                while step is not None:
                    path.append(step[1])
                    step = via[step[0]]
                return path, set()
            queue.append(neighbor)
    return None, set(via)


def _component(
    adj: dict[Node, list[tuple[Node, int]]],
    start: Node,
    removed: AbstractSet[int],
) -> set[Node]:
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for neighbor, index in adj[node]:
            if neighbor not in seen and index not in removed:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen


def _joins_both_sides(
    net: FlowNetwork,
    adj: dict[Node, list[tuple[Node, int]]],
    s_comp: set[Node],
    sink: Node,
    cut: AbstractSet[int],
) -> bool:
    """Minimality of a disconnecting ``cut``: every cut link has one end
    in the source component and the other in the sink component of
    ``G - cut`` — restoring any one link reconnects the terminals."""
    t_comp = _component(adj, sink, cut)
    for index in cut:
        if not 0 <= index < net.num_links:
            return False
        tail, head = net.link(index).endpoints
        if not (
            (tail in s_comp and head in t_comp) or (tail in t_comp and head in s_comp)
        ):
            return False
    return True


def _check_terminals(net: FlowNetwork, source: Node, sink: Node) -> None:
    for node in (source, sink):
        if not net.has_node(node):
            raise NodeNotFoundError(node)


def is_disconnecting(
    net: FlowNetwork, source: Node, sink: Node, cut: Iterable[int]
) -> bool:
    """Whether removing ``cut`` separates the terminals (undirected)."""
    _check_terminals(net, source, sink)
    path, _ = _shortest_path(_undirected_adjacency(net, None), source, sink, set(cut))
    return path is None


def is_minimal_cut(
    net: FlowNetwork, source: Node, sink: Node, cut: Sequence[int]
) -> bool:
    """Whether ``cut`` disconnects s and t and no proper subset does.

    Two searches on one adjacency: ``G - cut`` must separate the
    terminals, and every cut link must join the two terminal components
    (so no single link can be dropped from the cut).
    """
    _check_terminals(net, source, sink)
    cut_set = set(cut)
    if len(cut_set) != len(cut):
        return False
    adj = _undirected_adjacency(net, None)
    path, s_comp = _shortest_path(adj, source, sink, cut_set)
    return path is None and _joins_both_sides(net, adj, s_comp, sink, cut_set)


def bridges_between(net: FlowNetwork, source: Node, sink: Node) -> list[int]:
    """Bridge links that actually separate ``source`` from ``sink``.

    A bridge separates its component into two; only bridges whose two
    sides contain one terminal each are s-t cuts of size one.
    """
    result = []
    for index in bridges(net):
        if is_disconnecting(net, source, sink, [index]):
            result.append(index)
    return result


def minimum_cardinality_cut(
    net: FlowNetwork, source: Node, sink: Node
) -> list[int] | None:
    """One minimum-cardinality s-t *undirected* cut, via Menger/max-flow.

    Every link is given unit capacity and made traversable both ways
    (undirected separation); the min cut of that auxiliary problem is a
    smallest link set whose removal disconnects the terminals.  Returns
    ``None`` when the terminals are already disconnected, and the empty
    impossibility is reported the same way.
    """
    # Local import: repro.flow depends on repro.graph, not vice versa.
    from repro.flow.dinic import DinicSolver

    if not has_path(net, source, sink):
        return None
    aux = FlowNetwork(name="unit-aux")
    aux.add_nodes(net.nodes())
    for link in net.links():
        aux.add_link(link.tail, link.head, 1, 0.0, directed=False)
    solver = DinicSolver()
    result = solver.max_flow(aux, source, sink)
    reachable = result.min_cut_source_side
    cut = [
        link.index
        for link in net.links()
        if (link.tail in reachable) != (link.head in reachable)
    ]
    # The crossing set of the max-flow bipartition is disconnecting; prune
    # it down to a minimal subset (it usually already is minimal).
    return _prune_to_minimal(net, source, sink, cut)


def _prune_to_minimal(
    net: FlowNetwork, source: Node, sink: Node, cut: Sequence[int]
) -> list[int]:
    current = list(cut)
    changed = True
    while changed:
        changed = False
        for index in list(current):
            reduced = [c for c in current if c != index]
            if is_disconnecting(net, source, sink, reduced):
                current = reduced
                changed = True
    return sorted(current)


def minimal_st_cuts(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    max_size: int,
    *,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    """All minimal s-t cuts of size at most ``max_size``.

    Path branching: a cut must meet every s-t path, so from a removed
    set ``R`` (starting empty) whose graph ``G - R`` still joins the
    terminals, the search branches only on ``R + {e}`` for the links
    ``e`` of one shortest remaining path.  Every minimal cut ``C`` is
    reached, since some link of that path lies in ``C - R``.  A
    disconnecting ``R`` is a leaf: it is kept iff every link of it
    joins the two terminal components.  Each distinct ``R`` is probed
    once (one breadth-first search), so a call costs at most
    ``sum(C(|E|, i) for i <= max_size)`` probes and about ``L^k`` for
    shortest-path length ``L`` — ``O(|V| + |E|)`` each.  The probe
    total is counted in ``cut_probes``.

    Cuts come sorted by size, then by link indices; ``limit`` keeps the
    first ``limit`` of them.
    """
    if limit is not None and limit < 0:
        raise ReproValueError(f"limit must be non-negative, got {limit}")
    if max_size < 1 or limit == 0:
        return []
    _check_terminals(net, source, sink)
    adj = _undirected_adjacency(net, None)
    found: list[tuple[int, ...]] = []
    empty: frozenset[int] = frozenset()
    visited = {empty}
    stack = [empty]
    while stack:
        removed = stack.pop()
        path, s_comp = _shortest_path(adj, source, sink, removed)
        if path is None:
            if removed and _joins_both_sides(net, adj, s_comp, sink, removed):
                found.append(tuple(sorted(removed)))
        elif len(removed) < max_size:
            for index in path:
                grown = removed | {index}
                if grown not in visited:
                    visited.add(grown)
                    stack.append(grown)
    count(CUT_PROBES, len(visited))
    found.sort(key=lambda cut: (len(cut), cut))
    return found if limit is None else found[:limit]


def verify_bottleneck(
    net: FlowNetwork, source: Node, sink: Node, cut: Sequence[int]
) -> SideSplit:
    """Validate ``cut`` as an α-bottleneck link set and split on it.

    Checks minimality (the paper's condition 1) and the exactly-two-
    components condition (via :func:`split_on_cut`).  Returns the
    :class:`~repro.graph.transforms.SideSplit`.
    """
    if not is_minimal_cut(net, source, sink, cut):
        raise DecompositionError(
            f"links {tuple(cut)} are not a minimal s-t disconnecting set"
        )
    return split_on_cut(net, source, sink, cut)


def find_bottleneck(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    max_size: int = 3,
    max_candidates: int = 256,
) -> SideSplit | None:
    """Find the admissible bottleneck cut with the best (smallest) α.

    Strategy: collect bridge cuts (size 1), the minimum-cardinality cut,
    and every minimal cut up to ``max_size`` (capped at
    ``max_candidates``); keep the candidates whose split satisfies the
    two-component condition and the forward assignment model
    (:func:`~repro.graph.transforms.check_forward_cut`); return the one
    minimising ``max(|E_s|, |E_t|)``, breaking ties towards fewer cut
    links.
    Returns ``None`` when no admissible cut of size <= ``max_size``
    exists (e.g. the terminals are adjacent through many parallel
    links).
    """
    if max_candidates < 0:
        raise ReproValueError(
            f"max_candidates must be non-negative, got {max_candidates}"
        )
    candidates: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()

    def push(cut: Sequence[int]) -> None:
        key = frozenset(cut)
        if key and key not in seen and len(key) <= max_size:
            seen.add(key)
            candidates.append(tuple(sorted(key)))

    for index in bridges_between(net, source, sink):
        push([index])
    smallest = minimum_cardinality_cut(net, source, sink)
    if smallest is not None:
        push(smallest)
    for cut in minimal_st_cuts(net, source, sink, max_size, limit=max_candidates):
        push(cut)

    best: SideSplit | None = None
    best_key: tuple[int, int] | None = None
    for cut in candidates:
        try:
            split = split_on_cut(net, source, sink, cut)
        except (DecompositionError, ReproValueError):
            # Not a two-component split, or a cut the assignment model
            # cannot count exactly (k >= 3 with an undirected link).
            continue
        side = max(len(split.source_side.link_map), len(split.sink_side.link_map))
        key = (side, len(cut))
        if best_key is None or key < best_key:
            best, best_key = split, key
    return best
