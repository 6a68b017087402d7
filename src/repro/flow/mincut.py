"""Minimum-cut extraction from max-flow results.

By max-flow/min-cut duality the nodes residual-reachable from the
source after a max-flow run form the source side of a minimum cut.
:class:`~repro.flow.dinic.MaxFlowResult` records that node set; the
functions here turn it into link sets and capacities against the
original network.
"""

from __future__ import annotations

from typing import Iterable

from repro.flow.base import max_flow
from repro.flow.dinic import MaxFlowResult
from repro.graph.network import FlowNetwork, Node

__all__ = ["min_cut_links", "min_cut_capacity", "minimum_cut"]


def min_cut_links(net: FlowNetwork, result: MaxFlowResult) -> tuple[int, ...]:
    """Link indices crossing the minimum cut recorded in ``result``.

    A link crosses the cut when it can carry flow from the source side
    to the sink side: directed links leaving the source side, and
    undirected links with exactly one endpoint on each side.
    """
    side = result.min_cut_source_side
    crossing = []
    for link in net.links():
        tail_in = link.tail in side
        head_in = link.head in side
        if link.directed:
            if tail_in and not head_in:
                crossing.append(link.index)
        else:
            if tail_in != head_in:
                crossing.append(link.index)
    return tuple(crossing)


def min_cut_capacity(net: FlowNetwork, result: MaxFlowResult) -> int:
    """Total capacity of the recorded minimum cut."""
    return sum(net.link(i).capacity for i in min_cut_links(net, result))


def minimum_cut(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    alive: int | Iterable[int] | None = None,
) -> tuple[int, tuple[int, ...]]:
    """Compute ``(capacity, crossing link indices)`` of a minimum s-t cut.

    Runs a full (unlimited) max flow; by duality the returned capacity
    equals the max-flow value.
    """
    result = max_flow(net, source, sink, alive=alive)
    links = min_cut_links(net, result)
    if alive is not None:
        if isinstance(alive, int):
            links = tuple(i for i in links if (alive >> i) & 1)
        else:
            alive_set = set(alive)
            links = tuple(i for i in links if i in alive_set)
    return result.value, links
