"""Reference exhaustive minimal-cut enumerator: the test oracle.

This is the subset-by-subset loop ``repro.graph.cuts.minimal_st_cuts``
used before it branched on s-t paths.  It tests every link subset of
size <= ``max_size`` with its own ``has_path`` checks, so it shares no
code with the enumerator it checks.  The only change from the old loop
is the ``limit`` fix: ``limit=0`` returns no cut, a negative ``limit``
is rejected.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from repro.exceptions import ReproValueError
from repro.graph.connectivity import has_path
from repro.graph.network import FlowNetwork, Node


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
