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
from repro.flow.base import MaxFlowSolver, get_solver
from repro.flow.incremental import IncrementalMaxFlow
from repro.flow.residual import build_template
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
    solver:
        Registry name or instance; default Dinic.
    incremental:
        Repair flow when the solver can: route :meth:`feasible` queries
        through a long-lived
        :class:`~repro.flow.incremental.IncrementalMaxFlow` that repairs
        the previous flow instead of cold-solving; exact for any query
        sequence, cheapest when consecutive alive sets are Gray-adjacent.
        A solver without the warm-start contract (push–relabel) solves
        cold instead.

    Attributes
    ----------
    calls:
        Number of max-flow solves performed so far (in incremental mode,
        solver invocations by the repair engine — augments and repairs).
    incremental:
        Whether queries actually repair flow (``False`` when cold).
    """

    def __init__(
        self,
        net: FlowNetwork,
        source: Node,
        sink: Node,
        demand: int,
        *,
        solver: str | MaxFlowSolver | None = None,
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
        self.solver = get_solver(solver)
        self.template = build_template(net)
        try:
            self._s = self.template.node_index[source]
            self._t = self.template.node_index[sink]
        except KeyError as exc:
            raise SolverError(f"terminal {exc.args[0]!r} is not in the network") from exc
        self.calls = 0
        self.incremental = bool(incremental) and self.solver.supports_incremental
        self._engine: IncrementalMaxFlow | None = None
        if self.incremental and self.demand > 0:
            self._engine = IncrementalMaxFlow(
                self.template,
                self._s,
                self._t,
                solver=self.solver,
                limit=self.demand,
                alive=0,
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
