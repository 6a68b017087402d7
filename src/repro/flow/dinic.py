"""Dinic's max-flow algorithm: BFS level graph + DFS blocking flow.

The library's one max-flow solver.  ``O(V^2 E)`` in general and
``O(E sqrt(V))`` on unit networks.  Edmonds–Karp, push–relabel and
capacity scaling were measured against it inside the reliability loops
and removed: none won a row by more than run-to-run spread, and
push–relabel lost every row because it cannot repair a flow warm
(docs/PERFORMANCE.md "Removed solvers").

The ``limit`` parameter implements *feasibility short-circuiting*: the
reliability algorithms only ever need to know whether the max flow
reaches the demand ``d``, so the solver stops augmenting once ``limit``
units have been pushed.  This turns the per-configuration check into a
bounded amount of work independent of how much extra capacity the
network has.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.exceptions import SolverError
from repro.flow.residual import ResidualGraph, ResidualTemplate, build_template
from repro.graph.network import FlowNetwork, Node
from repro.obs.recorder import (
    SOLVER_DINIC_PATHS,
    SOLVER_DINIC_SECONDS,
    SOLVER_DINIC_SOLVES,
    current_recorder,
    wallclock,
)

__all__ = ["DinicSolver", "MaxFlowResult"]


@dataclass(frozen=True)
class MaxFlowResult:
    """Outcome of a max-flow computation on a :class:`FlowNetwork`.

    Attributes
    ----------
    value:
        The computed flow value.  When a ``limit`` was supplied this is
        ``min(limit, true max flow)``.
    limited:
        Whether a limit was supplied (if so, ``value == limit`` does not
        certify that the true max flow equals ``value``).
    link_flows:
        Net flow per original link index.  Only links carrying nonzero
        flow appear.
    min_cut_source_side:
        Source side of a minimum cut (residual-reachable nodes).  Only
        meaningful when ``limited`` is ``False`` or the flow value is
        below the limit.
    """

    value: int
    source: Node
    sink: Node
    limited: bool
    link_flows: dict[int, int]
    min_cut_source_side: frozenset[Node]


class DinicSolver:
    """Blocking-flow max flow (Dinic, 1970)."""

    #: Augmenting paths found by the most recent :meth:`solve_residual`
    #: call (one per push).  Surfaced as the ``solver.dinic.paths``
    #: counter — the "augmenting-path work" measure the incremental
    #: benches compare.
    last_paths: int = 0

    def solve_residual(
        self, graph: ResidualGraph, source: int, sink: int, limit: int | None = None
    ) -> int:
        """Compute (possibly limited) max flow on a residual graph.

        Mutates ``graph.cap`` to the residual state and returns the flow
        value *pushed by this call*, never more than ``limit``.

        Warm-start contract: the input graph may already be a residual
        state carrying flow (the incremental engine's repair loop calls
        the solver on warm graphs, with arbitrary node pairs as
        terminals).  Whatever capacities it finds are the ground truth,
        only the delta pushed is reported, and augmenting stops *in
        state* the moment ``limit`` is reached.
        """
        cap = graph.cap
        head = graph.head
        adj = graph.adj
        n = graph.num_nodes
        total = 0
        self.last_paths = 0

        while limit is None or total < limit:
            # Phase 1: BFS levels on the residual graph.
            level = [-1] * n
            level[source] = 0
            queue = deque([source])
            while queue:
                v = queue.popleft()
                for a in adj[v]:
                    w = head[a]
                    if cap[a] > 0 and level[w] < 0:
                        level[w] = level[v] + 1
                        queue.append(w)
            if level[sink] < 0:
                break

            # Phase 2: blocking flow by iterative DFS with arc cursors.
            cursor = [0] * n
            while limit is None or total < limit:
                # Find one augmenting path within the level graph.
                path: list[int] = []
                v = source
                while True:
                    if v == sink:
                        break
                    advanced = False
                    while cursor[v] < len(adj[v]):
                        a = adj[v][cursor[v]]
                        w = head[a]
                        if cap[a] > 0 and level[w] == level[v] + 1:
                            path.append(a)
                            v = w
                            advanced = True
                            break
                        cursor[v] += 1
                    if advanced:
                        continue
                    # Dead end: retreat.
                    if v == source:
                        path = []
                        break
                    level[v] = -1  # prune the node for this phase
                    a = path.pop()
                    v = head[a ^ 1]
                    cursor[v] += 1
                if not path:
                    break
                push = min(cap[a] for a in path)
                if limit is not None:
                    remaining = limit - total
                    if push > remaining:
                        push = remaining
                for a in path:
                    cap[a] -= push
                    cap[a ^ 1] += push
                total += push
                self.last_paths += 1
                if limit is not None and total >= limit:
                    return total
        return total

    def solve(
        self, graph: ResidualGraph, source: int, sink: int, limit: int | None = None
    ) -> int:
        """:meth:`solve_residual` plus solver accounting.

        The preferred entry point for the reliability loops: with a
        :class:`repro.obs.Recorder` installed it adds the solve to the
        ``solver.dinic.solves`` / ``.seconds`` / ``.paths`` counters on
        the current span; without one it is a direct passthrough.
        """
        recorder = current_recorder()
        if recorder is None:
            return self.solve_residual(graph, source, sink, limit=limit)
        start = wallclock()
        try:
            return self.solve_residual(graph, source, sink, limit=limit)
        finally:
            recorder.count(SOLVER_DINIC_SOLVES)
            recorder.count(SOLVER_DINIC_SECONDS, wallclock() - start)
            if self.last_paths:
                recorder.count(SOLVER_DINIC_PATHS, self.last_paths)

    def max_flow(
        self,
        net: FlowNetwork,
        source: Node,
        sink: Node,
        *,
        alive: int | Iterable[int] | None = None,
        limit: int | None = None,
        template: ResidualTemplate | None = None,
    ) -> MaxFlowResult:
        """Solve on a :class:`FlowNetwork` and package the result.

        ``alive`` masks failed links (bitmask or iterable of indices).
        Supplying a pre-built ``template`` (from
        :func:`repro.flow.residual.build_template`) skips per-call
        construction — the fast path used by the reliability loops.
        """
        if source == sink:
            raise SolverError("source and sink must differ")
        if template is None:
            template = build_template(net)
        try:
            s = template.node_index[source]
            t = template.node_index[sink]
        except KeyError as exc:
            raise SolverError(f"terminal {exc.args[0]!r} is not in the network") from exc
        graph = template.configure(alive=alive)
        value = self.solve(graph, s, t, limit=limit)
        flows: dict[int, int] = {}
        for link in net.links():
            f = template.link_flow(link.index)
            if f != 0:
                flows[link.index] = f
        reachable_flags = graph.residual_reachable(s)
        reverse_index = {idx: node for node, idx in template.node_index.items()}
        reachable = frozenset(
            reverse_index[i] for i, flag in enumerate(reachable_flags) if flag
        )
        return MaxFlowResult(
            value=value,
            source=source,
            sink=sink,
            limited=limit is not None,
            link_flows=flows,
            min_cut_source_side=reachable,
        )
