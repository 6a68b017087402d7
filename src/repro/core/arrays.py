"""Realization covers (paper §III-C).

For one side of the split (``G_s`` or ``G_t``), the paper's data
structure is an array of length ``2^{|E_side|}``: the entry for failure
configuration ``i`` is a ``|D|``-bit value whose ``j``-th bit says
whether that configuration *realizes* assignment ``j`` — i.e. the alive
subgraph of the side can route exactly ``a_l`` sub-streams to/from the
``l``-th bottleneck port for every ``l`` (Example 2's binary sequences).

Realization of one assignment is a side-local max-flow question: attach
a virtual terminal, give the port arc for bottleneck link ``l`` capacity
``a_l``, and ask for a flow of value ``d``.  Since the port arcs sum to
``d``, the flow reaches ``d`` iff every port arc is saturated — exactly
"assignment realized".  A chain middle segment (:mod:`repro.core.chain`)
asks the same question with two virtual terminals and a load ``(a, b)``
over its in- and out-ports.

Eq. 3 never needs the ``2^m`` array itself, only its distinct masks and
their weights, so every segment is built as a disjoint cube cover
(:mod:`repro.core.cover`): :func:`build_side_cover` for ``G_s`` and
``G_t``, :func:`build_relation_cover` for a chain middle, whose cubes
carry one mask word per in-assignment.  Both go through one builder:
max-flow/min-cut duality turns every mask into a ``min`` over the
segment's bond family (:mod:`repro.core.certificate`), which needs no
solver; a segment whose bond family is over the certificate guards is
factored on max-flow solves instead, one per configuration and load the
factoring asks about (:func:`_flow_cover`), never on a ``2^m`` table.
The branching reads masks only, so both kernels give the same cubes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.certificate import certificate_cover, side_cut_family
from repro.core.cover import SideCover, factor_cover
from repro.exceptions import SolverError
from repro.flow.dinic import DinicSolver
from repro.flow.incremental import IncrementalMaxFlow
from repro.flow.residual import ResidualTemplate, build_template
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SubnetworkView
from repro.obs.recorder import (
    AUGMENTING_PATHS_SAVED,
    CERTIFICATE_CUTS,
    COVER_CUBES_BUILT,
    FLOW_SOLVES,
    count,
)
from repro.probability.enumeration import check_enumerable

__all__ = ["build_relation_cover", "build_side_cover"]

_VIRTUAL_IN = "__terminal_in__"
_VIRTUAL_OUT = "__terminal_out__"


def _validate_assignments(
    assignments: Sequence[Sequence[int]], ports: Sequence[Node], demand: int
) -> None:
    """Each load covers every port and sums to ``demand``; ``uint64`` packing."""
    if len(assignments) > 63:
        raise SolverError(
            f"realization masks are uint64-packed; got {len(assignments)} assignments"
        )
    for a in assignments:
        if len(a) != len(ports):
            raise SolverError("assignment arity does not match the port count")
        if sum(a) != demand:
            raise SolverError(f"assignment {tuple(a)} does not sum to demand {demand}")


def _validate_side_request(
    net: FlowNetwork,
    *,
    role: str,
    assignments: Sequence[Sequence[int]],
    ports: Sequence[Node],
    demand: int,
) -> None:
    """Shared §III-C input validation (the builders and the cover cache)."""
    if role not in ("source", "sink"):
        raise SolverError(f"role must be 'source' or 'sink', got {role!r}")
    check_enumerable(net.num_links)
    _validate_assignments(assignments, ports, demand)


def _segment_template(
    net: FlowNetwork,
    source: Node | None,
    sink: Node | None,
    in_ports: Sequence[Node],
    out_ports: Sequence[Node],
    load: Sequence[int],
) -> tuple[ResidualTemplate, int, int]:
    """Residual template with one virtual port arc per port, capped at
    ``load``.

    Returns ``(template, source_index, sink_index)``; the arcs follow
    ``in_ports`` (from the source terminal) then ``out_ports`` (into the
    sink terminal), arc ``l`` at capacity ``load[l]``.  Terminals and
    ports are already checked by
    :func:`~repro.core.certificate.side_cut_family`.
    """
    extra = [v for v, real in ((_VIRTUAL_IN, source), (_VIRTUAL_OUT, sink)) if real is None]
    template = build_template(net, extra_nodes=extra)
    index = template.node_index
    s_idx = index[_VIRTUAL_IN if source is None else source]
    t_idx = index[_VIRTUAL_OUT if sink is None else sink]
    arcs = [(s_idx, index[p]) for p in in_ports] + [(index[p], t_idx) for p in out_ports]
    for arc, capacity in zip(arcs, load):
        template.add_virtual_arc(*arc, int(capacity))
    return template, s_idx, t_idx


def build_side_cover(
    side: SubnetworkView,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    assignments: Sequence[Sequence[int]],
    demand: int,
) -> SideCover:
    """The realization masks of one side as a disjoint cube cover.

    Parameters
    ----------
    side:
        ``G_s`` or ``G_t`` as produced by
        :func:`repro.graph.transforms.split_on_cut`.
    role:
        ``"source"`` — flow runs ``terminal -> ports`` (the ``G_s``
        case, terminal is ``s``, ports are the ``x_l``); or ``"sink"``
        — flow runs ``ports -> terminal`` (``G_t``, ports are ``y_l``).
    terminal:
        The real terminal inside this side.
    ports:
        Side endpoint of each bottleneck link, aligned with assignment
        components (repeats allowed when cut links share an endpoint).
    assignments:
        The assignment tuples; each must have ``len(ports)`` components
        summing to ``demand``.
    demand:
        The paper's ``d``.
    """
    net = side.network
    _validate_side_request(
        net, role=role, assignments=assignments, ports=ports, demand=demand
    )
    segment = (terminal, None, (), ports) if role == "source" else (None, terminal, ports, ())
    return _segment_cover(net, segment, assignments, 1, demand)


def build_relation_cover(
    segment: SubnetworkView,
    *,
    in_ports: Sequence[Node],
    out_ports: Sequence[Node],
    in_assignments: Sequence[Sequence[int]],
    out_assignments: Sequence[Sequence[int]],
    demand: int,
) -> SideCover:
    """The realization relation of a chain middle segment as a cube cover.

    Each cube has one mask word per in-assignment: bit ``b`` of word
    ``a`` is set iff the cube's configurations absorb exactly
    ``in_assignments[a]`` at the in-ports while emitting exactly
    ``out_assignments[b]`` at the out-ports, the load ``(a, b)`` between
    two virtual terminals.
    """
    net = segment.network
    check_enumerable(net.num_links)
    if not in_assignments:
        raise SolverError("a relation needs at least one in-assignment")
    _validate_assignments(in_assignments, in_ports, demand)
    _validate_assignments(out_assignments, out_ports, demand)
    loads = [(*a, *b) for a in in_assignments for b in out_assignments]
    return _segment_cover(
        net, (None, None, in_ports, out_ports), loads, len(in_assignments), demand
    )


def _segment_cover(
    net: FlowNetwork,
    segment: tuple[Node | None, Node | None, Sequence[Node], Sequence[Node]],
    loads: Sequence[Sequence[int]],
    words: int,
    demand: int,
) -> SideCover:
    """One segment ``(source, sink, in_ports, out_ports)`` as a cover whose
    masks pack ``loads`` into ``words`` words.

    Inside the certificate guards the cover is factored on the segment's
    cut family (:func:`~repro.core.certificate.certificate_cover`, no
    solve); past them on segment max-flows (:func:`_flow_cover`).
    """
    capacities = [link.capacity for link in net.links()]
    family = side_cut_family(net, *segment)
    if family is not None:
        count(CERTIFICATE_CUTS, family.size)
        cubes = certificate_cover(family, loads, demand, capacities, words)
        flow_calls = 0
    else:
        cubes, flow_calls = _flow_cover(net, segment, loads, demand, words, capacities)
    count(COVER_CUBES_BUILT, len(cubes))
    return SideCover(
        cubes=cubes,
        num_links=net.num_links,
        num_assignments=len(loads) // words,
        flow_calls=flow_calls,
    )


def _flow_cover(
    net: FlowNetwork,
    segment: tuple[Node | None, Node | None, Sequence[Node], Sequence[Node]],
    loads: Sequence[Sequence[int]],
    demand: int,
    words: int,
    capacities: Sequence[int],
) -> tuple[np.ndarray, int]:
    """The cube array of a segment past the certificate guards, and the
    solves spent.

    Bit ``j`` of a configuration's mask (word ``j // width``, bit
    ``j % width`` with ``width = len(loads) // words``) is set iff the
    alive links carry ``demand`` units with port arc ``l`` capped at
    component ``l`` of ``loads[j]`` (the in-ports, then the out-ports).
    :func:`~repro.core.cover.factor_cover` names the configurations;
    each mask is solved once per build.  Masks are monotone in the alive
    set, so a node's lowest mask solves only the bits of its highest,
    and a link's move only the bits between the two.

    Each load keeps one flow
    (:class:`~repro.flow.incremental.IncrementalMaxFlow`) and carries it
    to the next configuration when the jump kills no link it uses: the
    jump then costs at most one augmenting solve.  Any other jump is one
    cold solve, since repairing it could cost several.  So a bit costs
    at most one solve, and a build never spends more than the
    ``|D| * 2^m`` of the paper's table.
    """
    engines = [
        IncrementalMaxFlow(*_segment_template(net, *segment, load), limit=demand)
        for load in loads
    ]
    solver = DinicSolver()
    cold = 0
    m = net.num_links
    every, full = (1 << m) - 1, (1 << len(loads)) - 1
    width = len(loads) // words
    low = (1 << width) - 1
    shifts = range(0, len(loads), width)
    memo: dict[int, int] = {}

    def carries(engine: IncrementalMaxFlow, alive: int) -> bool:
        nonlocal cold
        gone = engine.alive & ~alive
        if not any(engine.link_flow(i) for i in range(m) if gone >> i & 1):
            return engine.goto(alive) >= demand
        cold += 1
        graph = engine.template.configure(alive=alive)
        return solver.solve(graph, engine.source, engine.sink, limit=demand) >= demand

    def realized(alive: int, lowest: int, highest: int) -> int:
        """The mask of ``alive``, known to lie between ``lowest`` and ``highest``."""
        mask = memo.get(alive)
        if mask is None:
            mask, bits = lowest, highest & ~lowest
            while bits:
                bit = bits & -bits
                if carries(engines[bit.bit_length() - 1], alive):
                    mask |= bit
                bits ^= bit
            memo[alive] = mask
        return mask

    def evaluate(links: np.ndarray, caps: np.ndarray) -> np.ndarray:
        rows = []
        for alive, dead in links.tolist():
            up = every & ~dead
            hi = realized(up, 0, full)
            lo = realized(alive, 0, hi)
            row = [lo, hi] + [lo] * m + [hi] * m
            for i in range(m):
                if not (alive | dead) >> i & 1:
                    row[2 + i] = realized(alive | 1 << i, lo, hi)
                    row[2 + m + i] = realized(up & ~(1 << i), lo, hi)
            rows.append([[mask >> shift & low for shift in shifts] for mask in row])
        return np.array(rows, dtype=np.uint64)

    cubes = factor_cover(m, capacities, evaluate, np.zeros((m, 0), dtype=np.int64), 0)
    solves = cold + sum(engine.solver_calls for engine in engines)
    count(FLOW_SOLVES, solves)
    saved = sum(engine.paths_saved for engine in engines)
    if saved:
        count(AUGMENTING_PATHS_SAVED, saved)
    return cubes, solves
