"""The routes by which the library reaches one max-flow value.

Dinic is the library's one solver, but its callers reach it four ways,
and each route has its own code between the network and the value:

``helper``
    the module-level :func:`repro.flow.base.max_flow` helper;
``solver``
    :meth:`DinicSolver.max_flow` (template build, configure, package);
``residual``
    :meth:`DinicSolver.solve_residual` on a configured template graph,
    the raw call the reliability loops make;
``repair``
    an :class:`~repro.flow.incremental.IncrementalMaxFlow` that arrives
    at the alive set warm, after a detour through each of its
    one-link-dead neighbours (every kill repairs the flow the link
    carried, every revive leaves an augment to the next query).

The shared known-value and networkx tests run every route.
"""

from __future__ import annotations

from typing import Iterable

from repro.flow.base import max_flow
from repro.flow.dinic import DinicSolver
from repro.flow.incremental import IncrementalMaxFlow
from repro.flow.residual import build_template
from repro.graph.network import FlowNetwork, Node
from repro.probability.bitset import mask_from_indices

ROUTES = ["helper", "solver", "residual", "repair"]


def route_max_flow(
    route: str,
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    alive: int | Iterable[int] | None = None,
    limit: int | None = None,
) -> int:
    """The (possibly limited) max-flow value of ``net`` along ``route``."""
    if route == "helper":
        return max_flow(net, source, sink, alive=alive, limit=limit).value
    if route == "solver":
        return DinicSolver().max_flow(net, source, sink, alive=alive, limit=limit).value
    template = build_template(net)
    s = template.node_index[source]
    t = template.node_index[sink]
    if route == "residual":
        graph = template.configure(alive=alive)
        return DinicSolver().solve_residual(graph, s, t, limit=limit)
    if route != "repair":
        raise ValueError(f"unknown route {route!r}")
    if alive is None:
        target = (1 << net.num_links) - 1
    elif isinstance(alive, int):
        target = alive
    else:
        target = mask_from_indices(alive)
    engine = IncrementalMaxFlow(template, s, t, limit=limit, alive=target)
    first = value = engine.flow_value()
    for link in range(net.num_links):
        bit = 1 << link
        if target & bit:
            engine.goto(target & ~bit)
            value = engine.goto(target)
            assert value == first, f"repair after killing link {link} moved the value"
    return value
