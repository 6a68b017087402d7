"""The per-configuration feasibility oracle.

Every exact algorithm reduces to the same primitive: *does the subgraph
of alive links admit an s-t flow of value d?*  The oracle pre-builds one
:class:`~repro.flow.residual.ResidualTemplate` and answers each query
with a capacity reset plus a limited max-flow solve — no per-query graph
construction, which is what makes millions of queries affordable.  It
also counts its calls, which is the cost metric reported in results and
benchmarks.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import SolverError
from repro.flow.dinic import DinicSolver
from repro.flow.incremental import IncrementalMaxFlow
from repro.flow.residual import ResidualGraph, build_template
from repro.graph.network import FlowNetwork, Node
from repro.obs.recorder import FLOW_SOLVES, count
from repro.probability.bitset import mask_from_indices

__all__ = ["FeasibilityOracle"]


class FeasibilityOracle:
    """Answers "alive-set admits demand?" queries against one network.

    Parameters
    ----------
    net, source, sink, demand:
        The fixed problem; only the alive set varies per query.
    incremental:
        Repair flow: route :meth:`feasible` queries through a long-lived
        :class:`~repro.flow.incremental.IncrementalMaxFlow` that repairs
        the previous flow instead of cold-solving; exact for any query
        sequence, cheapest when consecutive alive sets are Gray-adjacent.
        The enumeration walks (naive, rare, multisink) pass ``True``;
        the cold default serves callers whose queries jump around.

    Attributes
    ----------
    calls:
        Number of max-flow solves performed so far (in incremental mode,
        solver invocations by the repair engine — augments and repairs).
    incremental:
        Whether queries repair flow (``False`` when cold).
    """

    def __init__(
        self,
        net: FlowNetwork,
        source: Node,
        sink: Node,
        demand: int,
        *,
        incremental: bool = False,
    ) -> None:
        if demand < 0:
            raise SolverError("demand must be non-negative")
        if source == sink:
            raise SolverError("source and sink must differ")
        self.net = net
        self.source = source
        self.sink = sink
        self.demand = int(demand)
        self.solver = DinicSolver()
        self.template = build_template(net)
        try:
            self._s = self.template.node_index[source]
            self._t = self.template.node_index[sink]
        except KeyError as exc:
            raise SolverError(f"terminal {exc.args[0]!r} is not in the network") from exc
        index = self.template.node_index
        # Per link: index, template tail and head, directedness; capacity.
        self._ends = [
            (link.index, index[link.tail], index[link.head], link.directed)
            for link in net.links()
        ]
        self._capacity = [link.capacity for link in net.links()]
        self.calls = 0
        self.incremental = bool(incremental)
        self._engine: IncrementalMaxFlow | None = None
        if self.incremental and self.demand > 0:
            self._engine = IncrementalMaxFlow(
                self.template, self._s, self._t, limit=self.demand, alive=0
            )

    @property
    def engine(self) -> IncrementalMaxFlow | None:
        """The repair engine behind incremental queries (``None`` when cold)."""
        return self._engine

    def _alive_mask(self, alive: int | Iterable[int] | None) -> int:
        if alive is None:
            return (1 << self.net.num_links) - 1
        if isinstance(alive, int):
            return alive
        return mask_from_indices(alive)

    def flow_value(self, alive: int | Iterable[int] | None, *, limit: int | None = None) -> int:
        """The (possibly limited) max-flow value for an alive set."""
        graph = self.template.configure(alive=alive)
        self.calls += 1
        count(FLOW_SOLVES)
        return self.solver.solve(graph, self._s, self._t, limit=limit)

    def feasible(self, alive: int | Iterable[int] | None) -> bool:
        """Whether the alive subgraph admits the demand.

        In incremental mode the long-lived engine repairs its previous
        flow toward the queried alive set instead of cold-solving; the
        answer is identical, only the amount of solver work differs.
        """
        if self.demand == 0:
            return True
        if self._engine is not None:
            engine = self._engine
            before = engine.solver_calls
            value = engine.goto(self._alive_mask(alive))
            delta = engine.solver_calls - before
            if delta:
                self.calls += delta
                count(FLOW_SOLVES, delta)
            return value >= self.demand
        return self.flow_value(alive, limit=self.demand) >= self.demand

    def certify(self, alive: int) -> tuple[bool, tuple[int, ...]]:
        """Answer one feasibility query together with its certificate.

        * Feasible: the *support* of a flow of value ``>= demand``, the
          links carrying flow.  Every alive set containing it is
          feasible.
        * Infeasible: the *cut*, every link (alive or dead) crossing out
          of a shore that holds the source but not the sink; undirected
          links cross in either direction.  Every alive set whose alive
          part of the cut has capacity below the demand is infeasible.
          Two shores are tried, the nodes the source reaches in the
          residual graph and the nodes that do not reach the sink, and
          the cut with fewer links is returned (the source shore's on a
          tie): each carries every dead link leaving its shore, and the
          fewer links a cut has, the more failure orders it settles.

        Needs an incremental oracle (a cold one raises
        :class:`~repro.exceptions.SolverError`).  Costs exactly what
        :meth:`feasible` costs plus a scan of the repair engine's
        residual state.  Each certificate is checked against the queried
        alive set before it is returned: a support must be alive, each
        shore must keep source and sink apart, each cut's alive capacity
        must fall short of the demand.  A solver state that fails a
        check raises :class:`~repro.exceptions.SolverError`.
        """
        if self.demand == 0:
            return True, ()
        engine = self._engine
        if engine is None:
            raise SolverError("certify needs an oracle built with incremental=True")
        feasible = self.feasible(alive)
        graph = engine.graph
        links = self.net.links()
        if feasible:
            support = tuple(
                link.index for link in links if engine.link_flow(link.index) != 0
            )
            if any(not (alive >> i) & 1 for i in support):
                raise SolverError("flow support uses a dead link")
            return True, support
        shore = graph.residual_reachable(self._s)
        if shore[self._t]:
            raise SolverError("infeasible query left a residual source-sink path")
        cut = self._shore_cut(alive, shore)
        reaching = _reaching(graph, self._t)
        if reaching[self._s]:
            raise SolverError("infeasible query left a residual source-sink path")
        sink_cut = self._shore_cut(alive, [not reaches for reaches in reaching])
        return False, tuple(sink_cut if len(sink_cut) < len(cut) else cut)

    def _shore_cut(self, alive: int, shore: list[bool]) -> list[int]:
        """The links crossing out of ``shore`` (flags per template node),
        checked to leave less than the demand alive at ``alive``."""
        cut = [
            i
            for i, tail, head, directed in self._ends
            if (shore[tail] and not shore[head])
            or (shore[head] and not shore[tail] and not directed)
        ]
        capacity = self._capacity
        alive_capacity = sum(capacity[i] for i in cut if (alive >> i) & 1)
        if alive_capacity >= self.demand:
            raise SolverError(
                f"cut capacity {alive_capacity} does not certify demand {self.demand}"
            )
        return cut

    def used_links(
        self, alive: int | Iterable[int] | None, *, limit: int | None = None
    ) -> list[int]:
        """Links carrying flow in one max-flow solution.

        With ``limit`` set (typically the demand) the returned set is
        the support of a flow of exactly that value — a demand-feasible
        route family rather than a maximal one.  Used by the factoring
        branching heuristic and the route lower bound.  Runs a fresh
        solve; the returned indices are sorted.
        """
        graph = self.template.configure(alive=alive)
        self.calls += 1
        count(FLOW_SOLVES)
        self.solver.solve(graph, self._s, self._t, limit=limit)
        used = []
        for link in self.net.links():
            if self.template.link_flow(link.index) != 0:
                used.append(link.index)
        return used


def _reaching(graph: ResidualGraph, sink: int) -> list[bool]:
    """Nodes with a positive-residual path to ``sink``: arc ``a ^ 1``
    runs from ``head[a]`` back into the node ``a`` leaves."""
    seen = [False] * graph.num_nodes
    seen[sink] = True
    stack = [sink]
    cap = graph.cap
    head = graph.head
    adj = graph.adj
    while stack:
        v = stack.pop()
        for a in adj[v]:
            if cap[a ^ 1] > 0 and not seen[head[a]]:
                seen[head[a]] = True
                stack.append(head[a])
    return seen
