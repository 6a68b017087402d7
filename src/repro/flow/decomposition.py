"""Flow decomposition into unit-rate sub-streams.

The paper models a bit-rate-``d`` video stream as ``d`` unit-rate
sub-streams that may travel different delivery paths.  Given a feasible
flow this module recovers such a set of paths: :func:`decompose` splits
the recorded link flows into exactly ``value`` unit-rate s-t paths
(flow-decomposition theorem; any flow cycles are cancelled rather than
reported, since a cycle delivers nothing).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SolverError
from repro.flow.dinic import MaxFlowResult
from repro.graph.network import FlowNetwork, Node

__all__ = ["SubStream", "decompose"]


@dataclass(frozen=True)
class SubStream:
    """One unit-rate delivery path.

    ``links`` are the traversed link indices in order; ``nodes`` is the
    corresponding node sequence (``len(nodes) == len(links) + 1``).
    """

    links: tuple[int, ...]
    nodes: tuple[Node, ...]

    @property
    def hops(self) -> int:
        """Number of links traversed."""
        return len(self.links)


def decompose(net: FlowNetwork, result: MaxFlowResult) -> list[SubStream]:
    """Split ``result``'s flow into ``result.value`` unit-rate paths.

    The flow on each link is consumed one unit at a time by walking from
    the source following links with remaining flow.  Revisiting a node
    means the walk closed a flow cycle; the cycle's flow is cancelled in
    place and the walk resumes, so termination is guaranteed.

    Raises :class:`SolverError` if the recorded flows are inconsistent
    (cannot happen for results produced by the library's solver).
    """
    # remaining[link] = units of flow still to route; orientation[link]
    # tells which direction an undirected link was used.
    remaining: dict[int, int] = {}
    forward: dict[int, bool] = {}
    for index, f in result.link_flows.items():
        if f == 0:
            continue
        link = net.link(index)
        if f < 0:
            if link.directed:
                raise SolverError(f"negative flow {f} on directed link {index}")
            remaining[index] = -f
            forward[index] = False
        else:
            remaining[index] = f
            forward[index] = True

    def out_edges(node: Node) -> list[tuple[int, Node]]:
        """Links at ``node`` with remaining flow leaving it."""
        edges = []
        for link in net.incident_links(node):
            units = remaining.get(link.index, 0)
            if units <= 0:
                continue
            tail, head = link.tail, link.head
            if not forward[link.index]:
                tail, head = head, tail
            if tail == node:
                edges.append((link.index, head))
        return edges

    streams: list[SubStream] = []
    total_units = sum(remaining.values())
    for _ in range(result.value):
        path_links: list[int] = []
        path_nodes: list[Node] = [result.source]
        position: dict[Node, int] = {result.source: 0}
        node = result.source
        guard = 0
        while node != result.sink:
            guard += 1
            if guard > 2 * total_units + net.num_links + 2:
                raise SolverError("flow decomposition failed to reach the sink")
            edges = out_edges(node)
            if not edges:
                raise SolverError(
                    f"flow conservation violated at {node!r} during decomposition"
                )
            link_index, nxt = edges[0]
            # Reserve the unit immediately; a cancelled cycle's units
            # then stay consumed, which *is* the cancellation.
            remaining[link_index] -= 1
            if nxt in position:
                start = position[nxt]
                for dropped in path_nodes[start + 1 :]:
                    position.pop(dropped, None)
                del path_links[start:]
                del path_nodes[start + 1 :]
                node = nxt
                continue
            path_links.append(link_index)
            path_nodes.append(nxt)
            position[nxt] = len(path_nodes) - 1
            node = nxt
        streams.append(SubStream(links=tuple(path_links), nodes=tuple(path_nodes)))
    return streams
