"""Incremental max-flow with flow repair (the Gray-walk engine).

The enumeration kernels ask the same residual network the same question
``2^m`` times, with consecutive configurations differing in exactly one
link once the lattice is walked in Gray-code order
(:func:`repro.probability.gray_lattice`).  Cold solving throws the
previous flow away at every step; :class:`IncrementalMaxFlow` keeps it
and *repairs* it instead:

* :meth:`revive` — restoring a link can only grow the max flow
  (monotonicity), so the carried flow stays valid and at most the
  missing ``limit - value`` units need augmenting;
* :meth:`kill` — the flow crossing the dead link is cancelled by
  rerouting it around the gap in the residual graph, with any
  unrouteable remainder pushed back to the terminals (the cancellation
  half of the path/cycle decomposition that
  :func:`repro.flow.decomposition.decompose` materialises in full);
* :meth:`retarget` — switching the assignment ``a ∈ D`` on the same
  alive set only moves virtual port-arc capacities, so only the flow
  those arcs carry is touched.

Why the repair is exact.  After a kill the remaining arcs form a valid
flow except at the dead link's endpoints: ``u`` absorbs ``x`` units it
no longer forwards, ``v`` emits ``x`` units it no longer receives.
First reroute up to ``x`` units ``u -> v`` through the residual graph.
Once no residual ``u -> v`` path remains, decompose the leftover
imbalance ``d``: the flow into ``u`` cannot originate at ``v`` (its
reversal would be a residual ``u -> v`` path), so it traces to the
source and ``d`` units can always be cancelled ``u -> s``; symmetrically
``t -> v`` cancels the sink side.  Each step leaves a maximum-or-limited
flow whose value is *measured*, never inferred: the engine snapshots the
configured "design" capacity of every arc and reads the value as the net
design-minus-residual outflow at the source, which stays correct under
arbitrary repair traffic through the terminals.

The engine leans on the warm-start contract of
:meth:`repro.flow.dinic.DinicSolver.solve_residual` (return only the
delta pushed; stop *in-state* at ``limit``).  The oracle
(:class:`repro.core.feasibility.FeasibilityOracle`) repairs flow
through it when built with ``incremental=True`` and solves cold
otherwise.
"""

from __future__ import annotations

from typing import Mapping

from repro.exceptions import SolverError
from repro.flow.dinic import DinicSolver
from repro.flow.residual import ResidualGraph, ResidualTemplate

__all__ = ["IncrementalMaxFlow", "plan_gray_order"]


def plan_gray_order(
    template: ResidualTemplate,
    source: int,
    sink: int,
    n_bits: int,
    *,
    limit: int | None = None,
    virtual_capacities: Mapping[str, int] | None = None,
) -> list[int]:
    """Choose the bit order for a Gray walk driven by flow repair.

    Walk position ``p`` of :func:`repro.probability.gray_lattice` flips
    ``2**(n_bits - 1 - p)`` times, and a flip is only expensive when the
    flipped link carries flow.  One throwaway full-alive solve on a
    scratch capacity copy identifies the links the flow likes to use;
    they are parked at the high (rarely flipped) positions.  A pure
    heuristic: any permutation keeps the walk exact, this one just makes
    repairs rare.  Walk bit ``i`` is template link ``i``.  The planning
    solve bypasses the solver accounting — it is not part of any
    kernel's cost model.
    """
    if n_bits == 0:
        return []
    scratch = template.configure(
        alive=None, virtual_capacities=virtual_capacities, graph=template.graph.copy()
    )
    DinicSolver().solve_residual(scratch, source, sink, limit=limit)
    cap = scratch.cap
    used = []
    for bit in range(n_bits):
        flow = 0
        for record in template.link_arcs(bit):
            a = record.arc
            if record.directed:
                flow += cap[a ^ 1]
            else:
                flow += abs(cap[a ^ 1] - cap[a]) // 2
        used.append((abs(flow), bit))
    # Stable: zero-flow bits keep their relative order at the front,
    # flow-carrying bits move to the back (highest flow last).
    used.sort(key=lambda item: item[0])
    return [bit for _, bit in used]


class IncrementalMaxFlow:
    """A long-lived, repairable (possibly limited) max flow.

    Parameters
    ----------
    template:
        The :class:`~repro.flow.residual.ResidualTemplate` describing
        the network (plus any virtual arcs).  The engine configures a
        **private** capacity copy, so the template keeps serving cold
        solves unchanged.
    source, sink:
        Integer node ids (``template.node_index`` values).
    limit:
        The feasibility short-circuit: the flow is never grown past this
        value (``None`` = true max flow).  The engines pass the demand.
    alive:
        Initial alive-link bitmask (default: everything dead).
    virtual_capacities:
        Initial named virtual-arc capacities (as for
        :meth:`ResidualTemplate.configure`).

    The constructor performs **no** solve; augmentation is lazy, so a
    batch of deltas (one :meth:`goto`) costs at most one augmenting
    solve on top of its repairs.

    Attributes
    ----------
    solver_calls:
        Max-flow solver invocations so far (augments + repairs) — the
        quantity the kernels fold into ``ReliabilityResult.flow_calls``.
    repairs:
        Flow-crossing repairs performed (one per killed/shrunk arc that
        carried flow).
    paths_saved:
        Flow units already in place when a configuration was evaluated —
        augmenting work a cold solver would have re-done from scratch.
    """

    def __init__(
        self,
        template: ResidualTemplate,
        source: int,
        sink: int,
        *,
        limit: int | None = None,
        alive: int = 0,
        virtual_capacities: Mapping[str, int] | None = None,
    ) -> None:
        if source == sink:
            raise SolverError("source and sink must differ")
        if limit is not None and limit < 0:
            raise SolverError("limit must be non-negative")
        self.template = template
        self.solver = DinicSolver()
        self.source = source
        self.sink = sink
        self.limit = limit
        self.graph: ResidualGraph = template.configure(
            alive=alive, virtual_capacities=virtual_capacities, graph=template.graph.copy()
        )
        # Snapshot of the configured capacities = the zero-flow state;
        # the flow on any arc is design - cap, and the flow *value* is
        # the net design-minus-residual outflow at the source.
        self._design: list[int] = list(self.graph.cap)
        # Per-link arc records, resolved once (template.link_arcs scans
        # the record list; kills/revives are the hot path).
        self._link_records = {
            index: tuple(template.link_arcs(index))
            for index in template.link_indices()
        }
        self._alive = int(alive)
        self._dirty = True
        self.solver_calls = 0
        self.repairs = 0
        self.paths_saved = 0

    # -- measurement ------------------------------------------------------

    def measured_value(self) -> int:
        """Net flow out of the source, read off the residual state.

        Exact whatever repair traffic has passed *through* the terminals
        (a path entering and leaving the source cancels in the sum).
        Does not trigger augmentation — see :meth:`flow_value`.
        """
        cap = self.graph.cap
        design = self._design
        return sum(design[a] - cap[a] for a in self.graph.adj[self.source])

    def link_flow(self, link_index: int) -> int:
        """Net flow the engine currently routes over one original link."""
        cap = self.graph.cap
        total = 0
        for record in self._link_records.get(link_index, ()):
            a = record.arc
            if record.directed:
                total += cap[a ^ 1]
            else:
                total += (cap[a ^ 1] - cap[a]) // 2
        return total

    @property
    def alive(self) -> int:
        """The current alive-link bitmask."""
        return self._alive

    # -- the delta operations ---------------------------------------------

    def kill(self, link_index: int) -> None:
        """Remove one link, cancelling and rerouting the flow it carried.

        A link carrying zero flow costs nothing; otherwise each of its
        arcs triggers one repair.  Augmentation back up to ``limit`` is
        deferred to the next :meth:`flow_value` / :meth:`goto`.
        """
        bit = 1 << link_index
        if not self._alive & bit:
            return
        self._alive &= ~bit
        cap = self.graph.cap
        crossings: list[tuple[int, int, int]] = []
        for record in self._link_records.get(link_index, ()):
            a = record.arc
            if record.directed:
                flow = cap[a ^ 1]
            else:
                flow = (cap[a ^ 1] - cap[a]) // 2
            if flow > 0:
                crossings.append((self.graph.head[a ^ 1], self.graph.head[a], flow))
            elif flow < 0:
                crossings.append((self.graph.head[a], self.graph.head[a ^ 1], -flow))
            cap[a] = 0
            cap[a ^ 1] = 0
            self._design[a] = 0
            self._design[a ^ 1] = 0
        for u, v, flow in crossings:
            self._repair(u, v, flow)
        if crossings:
            self._dirty = True

    def revive(self, link_index: int) -> None:
        """Restore one link at its design capacity.

        The carried flow stays valid (feasibility is monotone in the
        alive set), so nothing is repaired; the deferred augment will
        pick up any newly-available paths.
        """
        bit = 1 << link_index
        if self._alive & bit:
            return
        self._alive |= bit
        cap = self.graph.cap
        for record in self._link_records.get(link_index, ()):
            a = record.arc
            cap[a] = record.capacity
            cap[a ^ 1] = 0 if record.directed else record.capacity
            self._design[a] = record.capacity
            self._design[a ^ 1] = 0 if record.directed else record.capacity
        self._dirty = True

    def retarget(self, virtual_capacities: Mapping[str, int]) -> None:
        """Move named virtual-arc capacities (assignment switch).

        Growing an arc frees residual capacity in place; shrinking one
        below the flow it carries repairs exactly the overflow, like a
        partial kill.  Only the named arcs are touched.
        """
        cap = self.graph.cap
        head = self.graph.head
        for name, raw in virtual_capacities.items():
            new_cap = int(raw)
            if new_cap < 0:
                raise SolverError(f"virtual capacity for {name!r} must be >= 0")
            try:
                a = self.template.virtual_arcs[name]
            except KeyError as exc:
                raise SolverError(f"unknown virtual arc {name!r}") from exc
            if new_cap == self._design[a]:
                continue
            flow = cap[a ^ 1]  # virtual arcs are directed with 0 reverse design
            if new_cap >= flow:
                cap[a] = new_cap - flow
                self._design[a] = new_cap
            else:
                overflow = flow - new_cap
                cap[a] = 0
                cap[a ^ 1] = new_cap
                self._design[a] = new_cap
                self._repair(head[a ^ 1], head[a], overflow)
            self._dirty = True

    def goto(self, alive: int) -> int:
        """Jump to an arbitrary alive bitmask and return the flow value.

        Applies all revives, then all kills, then (at most) one deferred
        augment — the whole point of walking the lattice in Gray order,
        where this loop body runs exactly once per step.  Revives go
        first so a kill's reroute can already use the newly restored
        capacity instead of falling back to terminal cancellation.
        """
        diff = alive ^ self._alive
        kills = diff & self._alive
        bits = diff & alive
        while bits:
            low = bits & -bits
            self.revive(low.bit_length() - 1)
            bits ^= low
        bits = kills
        while bits:
            low = bits & -bits
            self.kill(low.bit_length() - 1)
            bits ^= low
        self._alive = alive  # include any bits without residual arcs (self-loops)
        return self.flow_value()

    def flow_value(self) -> int:
        """The current (limited) max-flow value, augmenting if needed.

        Runs the deferred augment: nothing at all when the carried flow
        already sits at ``limit``, otherwise one warm solve for the
        missing ``limit - value`` units (unbounded when ``limit`` is
        ``None``).  Also the point where ``paths_saved`` accrues — the
        measured carry is exactly the work a cold solve would repeat.
        """
        value = self.measured_value()
        if not self._dirty:
            return value
        self.paths_saved += value
        if self.limit is not None and value >= self.limit:
            self._dirty = False
            return value
        remaining = None if self.limit is None else self.limit - value
        pushed = self._solve(self.source, self.sink, remaining)
        self._dirty = False
        return value + pushed

    # -- internals --------------------------------------------------------

    def _solve(self, s: int, t: int, limit: int | None) -> int:
        self.solver_calls += 1
        return self.solver.solve(self.graph, s, t, limit=limit)

    def _repair(self, u: int, v: int, amount: int) -> None:
        """Cancel ``amount`` units that used to cross ``u -> v``.

        Reroute as much as possible through the residual graph; the
        unrouteable remainder is pushed back ``u -> source`` and pulled
        back ``sink -> v`` (both guaranteed exact by the decomposition
        argument in the module docstring).  Imbalance landing *on* a
        terminal simply changes the measured value and needs no push.
        """
        if amount <= 0 or u == v:
            return
        self.repairs += 1
        rerouted = self._solve(u, v, amount)
        remainder = amount - rerouted
        if remainder <= 0:
            return
        if u != self.source:
            drained = self._solve(u, self.source, remainder)
            if drained != remainder:
                raise SolverError(
                    f"flow repair failed: drained {drained}/{remainder} units "
                    f"of excess from node {u}"
                )
        if v != self.sink:
            pulled = self._solve(self.sink, v, remainder)
            if pulled != remainder:
                raise SolverError(
                    f"flow repair failed: pulled {pulled}/{remainder} units "
                    f"of deficit back from node {v}"
                )
