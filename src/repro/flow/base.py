"""Module-level max-flow helpers on a :class:`~repro.graph.FlowNetwork`.

Each helper runs one :class:`~repro.flow.dinic.DinicSolver` solve; the
reliability loops build a template once and call the solver directly
instead.
"""

from __future__ import annotations

from typing import Iterable

from repro.flow.dinic import DinicSolver, MaxFlowResult
from repro.graph.network import FlowNetwork, Node

__all__ = ["max_flow", "max_flow_value", "is_feasible"]


def max_flow(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    alive: int | Iterable[int] | None = None,
    limit: int | None = None,
) -> MaxFlowResult:
    """One max-flow solve, packaged as a :class:`MaxFlowResult`."""
    return DinicSolver().max_flow(net, source, sink, alive=alive, limit=limit)


def max_flow_value(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    alive: int | Iterable[int] | None = None,
) -> int:
    """Just the max-flow value."""
    return max_flow(net, source, sink, alive=alive).value


def is_feasible(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    demand: int,
    *,
    alive: int | Iterable[int] | None = None,
) -> bool:
    """Whether the (alive sub)network admits an s-t flow of ``demand``.

    Uses the ``limit`` short-circuit, so the cost is bounded by the
    demand rather than the total network capacity.
    """
    if demand <= 0:
        return True
    return max_flow(net, source, sink, alive=alive, limit=demand).value >= demand
