"""Residual-graph core of the max-flow solver and the repair engine.

A :class:`ResidualGraph` is a compact integer-indexed arc structure:
arcs are stored in pairs (arc ``2i`` and its reverse ``2i + 1``), so a
solver augments along arc ``a`` by decreasing ``cap[a]`` and increasing
``cap[a ^ 1]``.  Node identities are integers; the mapping from
:class:`~repro.graph.FlowNetwork` nodes is handled by
:class:`ResidualTemplate`.

The reliability algorithms solve *many thousands* of max-flow instances
that differ only in which links are alive and what the virtual terminal
capacities are.  :class:`ResidualTemplate` therefore builds the arc
structure **once** and lets each instance be configured by a cheap
capacity reset (:meth:`ResidualTemplate.configure`), avoiding any
per-instance graph construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.exceptions import SolverError
from repro.graph.network import FlowNetwork, Node

__all__ = ["ResidualGraph", "ResidualTemplate", "INFINITE_CAPACITY"]

# Effectively-infinite integer capacity for virtual arcs.  Kept well
# below 2**63 so sums of many such arcs cannot overflow C-level ints if
# a numpy array ever holds them.
INFINITE_CAPACITY = 1 << 40


class ResidualGraph:
    """Mutable residual network over integer node ids.

    Attributes
    ----------
    num_nodes:
        Node count; node ids are ``0 .. num_nodes - 1``.
    head:
        ``head[a]`` is the node arc ``a`` points to.
    cap:
        Current residual capacity per arc (mutated by the solver).
    adj:
        ``adj[v]`` lists the arc ids leaving ``v``.
    """

    __slots__ = ("num_nodes", "head", "cap", "adj")

    def __init__(self, num_nodes: int) -> None:
        self.num_nodes = num_nodes
        self.head: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(num_nodes)]

    def add_arc_pair(self, u: int, v: int, cap: int, rev_cap: int = 0) -> int:
        """Add arc ``u -> v`` with capacity ``cap`` and its reverse with
        ``rev_cap``; returns the forward arc id (reverse is ``id + 1``,
        i.e. ``id ^ 1``)."""
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise SolverError(f"arc endpoints ({u}, {v}) out of range")
        arc = len(self.head)
        self.head.append(v)
        self.cap.append(cap)
        self.adj[u].append(arc)
        self.head.append(u)
        self.cap.append(rev_cap)
        self.adj[v].append(arc + 1)
        return arc

    @property
    def num_arcs(self) -> int:
        """Total directed arc count (forward + reverse)."""
        return len(self.head)

    def copy(self) -> "ResidualGraph":
        """A capacity-private clone sharing the immutable arc structure.

        ``head`` and ``adj`` never change after construction, so clones
        alias them; only ``cap`` (the per-instance mutable state) is
        copied.  This is what lets a long-lived incremental engine own
        its residual state while the template keeps serving cold solves
        from the original graph.
        """
        clone = ResidualGraph.__new__(ResidualGraph)
        clone.num_nodes = self.num_nodes
        clone.head = self.head
        clone.adj = self.adj
        clone.cap = list(self.cap)
        return clone

    def residual_reachable(self, source: int) -> list[bool]:
        """Nodes reachable from ``source`` along positive-residual arcs.

        After a max-flow run this is the source side of a minimum cut.
        """
        seen = [False] * self.num_nodes
        seen[source] = True
        stack = [source]
        cap = self.cap
        head = self.head
        adj = self.adj
        while stack:
            v = stack.pop()
            for a in adj[v]:
                if cap[a] > 0 and not seen[head[a]]:
                    seen[head[a]] = True
                    stack.append(head[a])
        return seen


@dataclass
class _ArcRecord:
    """Bookkeeping for one template arc pair."""

    arc: int  # forward arc id
    link_index: int | None  # original FlowNetwork link, None for virtual arcs
    capacity: int  # design capacity
    directed: bool


@dataclass
class ResidualTemplate:
    """A reusable residual structure for one network (plus virtual arcs).

    Build once with :func:`build_template`; then for every failure
    configuration / assignment call :meth:`configure` and hand
    :attr:`graph` to a solver.  ``configure`` rewrites every arc
    capacity in one pass, so no state leaks between instances.

    Undirected links are modelled as an arc pair with capacity ``c`` on
    *both* sides, which is the standard correct encoding for undirected
    max-flow.
    """

    graph: ResidualGraph
    node_index: dict[Node, int]
    records: list[_ArcRecord] = field(default_factory=list)
    virtual_arcs: dict[str, int] = field(default_factory=dict)
    _arcs_by_link: dict[int, list[int]] = field(default_factory=dict)

    def add_network_links(self, net: FlowNetwork) -> None:
        """Add one arc pair per network link."""
        for link in net.links():
            if link.tail == link.head:
                continue  # self-loops never carry s-t flow
            u = self.node_index[link.tail]
            v = self.node_index[link.head]
            rev = link.capacity if not link.directed else 0
            arc = self.graph.add_arc_pair(u, v, link.capacity, rev)
            self.records.append(
                _ArcRecord(arc=arc, link_index=link.index, capacity=link.capacity, directed=link.directed)
            )
            self._arcs_by_link.setdefault(link.index, []).append(arc)

    def add_virtual_arc(self, name: str, u: int, v: int, capacity: int) -> int:
        """Add a named virtual arc (e.g. super-source feeders)."""
        arc = self.graph.add_arc_pair(u, v, capacity, 0)
        self.records.append(_ArcRecord(arc=arc, link_index=None, capacity=capacity, directed=True))
        self.virtual_arcs[name] = arc
        return arc

    def configure(
        self,
        alive: int | Iterable[int] | None = None,
        virtual_capacities: Mapping[str, int] | None = None,
        *,
        graph: ResidualGraph | None = None,
    ) -> ResidualGraph:
        """Reset all arc capacities for a fresh solve.

        Parameters
        ----------
        alive:
            Which original links are up.  ``None`` means all; an ``int``
            is a bitmask over link indices (bit ``i`` set = link ``i``
            alive); any other iterable is a collection of alive link
            indices.  Dead links get capacity 0 in both directions.
        virtual_capacities:
            New capacities for named virtual arcs; unnamed virtual arcs
            keep their design capacity.
        graph:
            Write the capacities into this graph instead of the shared
            :attr:`graph` — must be a :meth:`ResidualGraph.copy` of it
            (same arc structure).  Lets an incremental engine get a
            configured private residual without disturbing the
            template's own state.
        """
        target = self.graph if graph is None else graph
        if target.num_arcs != self.graph.num_arcs:
            raise SolverError("graph is not a copy of this template's graph")
        if alive is None:
            alive_test = None
        elif isinstance(alive, int):
            mask = alive
            alive_test = lambda i: (mask >> i) & 1  # noqa: E731
        else:
            alive_set = set(alive)
            alive_test = lambda i: i in alive_set  # noqa: E731
        cap = target.cap
        for record in self.records:
            a = record.arc
            if record.link_index is not None and alive_test is not None and not alive_test(record.link_index):
                cap[a] = 0
                cap[a ^ 1] = 0
                continue
            cap[a] = record.capacity
            cap[a ^ 1] = record.capacity if (record.link_index is not None and not record.directed) else 0
        if virtual_capacities:
            for name, value in virtual_capacities.items():
                try:
                    arc = self.virtual_arcs[name]
                except KeyError as exc:
                    raise SolverError(f"unknown virtual arc {name!r}") from exc
                cap[arc] = value
                cap[arc ^ 1] = 0
        return target

    def link_arcs(self, link_index: int) -> list[_ArcRecord]:
        """The arc records modelling one original link (usually one).

        Empty for self-loops (never added to the residual structure) and
        unknown indices.  This is the delta hook the incremental engine
        uses to kill / revive exactly one link's capacities.
        """
        arcs = self._arcs_by_link.get(link_index, [])
        by_arc = {record.arc: record for record in self.records}
        return [by_arc[a] for a in arcs]

    def link_indices(self) -> list[int]:
        """Sorted indices of the original links present in the template."""
        return sorted(self._arcs_by_link)

    def link_flow(self, link_index: int) -> int:
        """Net flow currently on an original link (after a solve).

        For a directed link the reverse arc starts at 0 residual and
        gains exactly the pushed flow, so the flow is ``cap[arc ^ 1]``
        — correct whether or not the link was masked dead or its
        capacity overridden for this solve.  For an undirected link both
        sides start at the same value ``c`` (or 0 when dead) and a net
        forward flow ``f`` leaves them at ``c - f`` / ``c + f``, so the
        flow is half their difference (sign = direction along the
        stored orientation).
        """
        arcs = self._arcs_by_link.get(link_index)
        if not arcs:
            return 0
        total = 0
        cap = self.graph.cap
        for arc in arcs:
            record = next(r for r in self.records if r.arc == arc)
            if record.directed:
                total += cap[arc ^ 1]
            else:
                total += (cap[arc ^ 1] - cap[arc]) // 2
        return total


def build_template(
    net: FlowNetwork,
    *,
    extra_nodes: Sequence[str] = (),
) -> ResidualTemplate:
    """Create a :class:`ResidualTemplate` for ``net``.

    ``extra_nodes`` creates additional virtual nodes (e.g. a super
    source) addressable through the returned ``node_index`` by their
    given names; names must not collide with existing node labels.
    """
    node_index: dict[Node, int] = {}
    for node in net.nodes():
        node_index[node] = len(node_index)
    for name in extra_nodes:
        if name in node_index:
            raise SolverError(f"virtual node name {name!r} collides with a network node")
        node_index[name] = len(node_index)
    template = ResidualTemplate(graph=ResidualGraph(len(node_index)), node_index=node_index)
    template.add_network_links(net)
    return template
