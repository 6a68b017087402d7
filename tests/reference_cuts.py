"""Reference exhaustive minimal-cut enumerator and bottleneck search:
the test oracles.

:func:`reference_minimal_st_cuts` is the subset-by-subset loop
``repro.graph.cuts.minimal_st_cuts`` used before it branched on s-t
paths.  It tests every link subset of size <= ``max_size`` with its own
``has_path`` checks, so it shares no code with the enumerator it
checks.  The only change from the old loop is the ``limit`` fix:
``limit=0`` returns no cut, a negative ``limit`` is rejected.

:func:`reference_find_bottleneck` is the cut search by its rule, on
that enumerator: it splits every candidate and keeps the best split,
where ``repro.graph.cuts.find_bottleneck`` scores candidates from their
terminal components and splits only in score order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from repro.exceptions import DecompositionError, ReproValueError
from repro.graph.connectivity import has_path
from repro.graph.cuts import bridges_between, minimum_cardinality_cut
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SideSplit, split_on_cut


def reference_is_disconnecting(
    net: FlowNetwork, source: Node, sink: Node, cut: Iterable[int]
) -> bool:
    cut_set = set(cut)
    alive = [link.index for link in net.links() if link.index not in cut_set]
    return not has_path(net, source, sink, alive)


def reference_is_minimal_cut(
    net: FlowNetwork, source: Node, sink: Node, cut: Sequence[int]
) -> bool:
    cut_list = list(dict.fromkeys(cut))
    if len(cut_list) != len(cut):
        return False
    if not reference_is_disconnecting(net, source, sink, cut_list):
        return False
    for index in cut_list:
        reduced = [c for c in cut_list if c != index]
        if reference_is_disconnecting(net, source, sink, reduced):
            return False
    return True


def reference_minimal_st_cuts(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    max_size: int,
    *,
    limit: int | None = None,
) -> list[tuple[int, ...]]:
    if limit is not None and limit < 0:
        raise ReproValueError(f"limit must be non-negative, got {limit}")
    if max_size < 1 or limit == 0:
        return []
    found: list[tuple[int, ...]] = []
    found_sets: list[frozenset[int]] = []
    indices = [link.index for link in net.links()]
    for size in range(1, max_size + 1):
        for candidate in combinations(indices, size):
            cand_set = frozenset(candidate)
            if any(smaller <= cand_set for smaller in found_sets if len(smaller) < size):
                continue
            if not reference_is_disconnecting(net, source, sink, candidate):
                continue
            if reference_is_minimal_cut(net, source, sink, candidate):
                found.append(candidate)
                found_sets.append(cand_set)
                if limit is not None and len(found) >= limit:
                    return found
    return found


def reference_find_bottleneck(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    max_size: int = 3,
    max_candidates: int = 256,
) -> SideSplit | None:
    """The admissible cut with the smallest ``(max(|E_s|, |E_t|), |cut|)``.

    Candidates are the first ``max_candidates`` minimal cuts of size at
    most ``max_size``; when more exist, the bridge cuts and the
    minimum-cardinality cut go first.  Every candidate is split, and
    ties go to the earlier candidate.
    """
    if max_candidates < 0:
        raise ReproValueError(f"max_candidates must be non-negative, got {max_candidates}")
    every = reference_minimal_st_cuts(net, source, sink, max_size)
    candidates = every[:max_candidates]
    if len(every) > max_candidates:
        front = [(index,) for index in bridges_between(net, source, sink)]
        smallest = minimum_cardinality_cut(net, source, sink)
        if smallest is not None:
            front.append(tuple(sorted(smallest)))
        front = [cut for cut in dict.fromkeys(front) if len(cut) <= max_size]
        candidates = front + [cut for cut in candidates if cut not in front]
    best: SideSplit | None = None
    best_key: tuple[int, int] | None = None
    for cut in candidates:
        try:
            split = split_on_cut(net, source, sink, cut)
        except (DecompositionError, ReproValueError):
            continue
        key = (max(len(split.source_side.link_map), len(split.sink_side.link_map)), len(cut))
        if best_key is None or key < best_key:
            best, best_key = split, key
    return best
