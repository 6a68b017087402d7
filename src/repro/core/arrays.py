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
solver; a segment whose bond family is over the certificate guards
falls back to a max-flow walk of each load's lattice in Gray-code order,
repairing one flow across consecutive entries and pruned by
monotonicity in the alive set, and the cover is factored on that table.
The branching reads masks only, so both kernels give the same cubes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.certificate import certificate_cover, side_cut_family
from repro.core.cover import SideCover, table_cover
from repro.core.latticewalk import gray_walk_table
from repro.exceptions import SolverError
from repro.flow.incremental import IncrementalMaxFlow, plan_gray_order
from repro.flow.residual import ResidualTemplate, build_template
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SubnetworkView
from repro.obs.progress import progress_ticker
from repro.obs.recorder import (
    AUGMENTING_PATHS_SAVED,
    CERTIFICATE_CUTS,
    COVER_CUBES_BUILT,
    FLOW_REPAIRS,
    FLOW_SOLVES,
    count,
    span,
)
from repro.probability.bitset import pack_bitplanes
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
    demand: int,
) -> tuple[ResidualTemplate, list[str], int, int]:
    """Residual template with one virtual port arc per port.

    Returns ``(template, port_arc_names, source_index, sink_index)``;
    the arcs follow ``in_ports`` (from the source terminal) then
    ``out_ports`` (into the sink terminal).  Terminals and ports are
    already checked by :func:`~repro.core.certificate.side_cut_family`.
    """
    extra = [v for v, real in ((_VIRTUAL_IN, source), (_VIRTUAL_OUT, sink)) if real is None]
    template = build_template(net, extra_nodes=extra)
    index = template.node_index
    s_idx = index[_VIRTUAL_IN if source is None else source]
    t_idx = index[_VIRTUAL_OUT if sink is None else sink]
    arcs = [(s_idx, index[p]) for p in in_ports] + [(index[p], t_idx) for p in out_ports]
    port_names = [f"port{l}" for l in range(len(arcs))]
    for name, arc in zip(port_names, arcs):
        template.add_virtual_arc(name, *arc, demand)
    return template, port_names, s_idx, t_idx


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
    solve); past them on the table the pruned Gray walk fills.
    """
    capacities = [link.capacity for link in net.links()]
    family = side_cut_family(net, *segment)
    if family is not None:
        count(CERTIFICATE_CUTS, family.size)
        cubes = certificate_cover(family, loads, demand, capacities, words)
        flow_calls = 0
    else:
        masks, flow_calls = _gray_walk_masks(net, *segment, loads, demand, words)
        cubes = table_cover(masks, capacities)
    count(COVER_CUBES_BUILT, len(cubes))
    return SideCover(
        cubes=cubes,
        num_links=net.num_links,
        num_assignments=len(loads) // words,
        flow_calls=flow_calls,
    )


def _gray_walk_masks(
    net: FlowNetwork,
    source: Node | None,
    sink: Node | None,
    in_ports: Sequence[Node],
    out_ports: Sequence[Node],
    loads: Sequence[Sequence[int]],
    demand: int,
    words: int,
) -> tuple[np.ndarray, int]:
    """The ``(2^m, words)`` mask table past the certificate guards, and
    the solves spent.

    With ``width = len(loads) // words``, bit ``j`` of word ``w`` of
    entry ``c`` is set iff configuration ``c`` carries ``demand`` units
    with port arc ``l`` capped at component ``l`` of load
    ``w * width + j`` (the in-ports, then the out-ports).  One repairable flow walks every entry: each load switch
    is a :meth:`~repro.flow.incremental.IncrementalMaxFlow.retarget`
    (only the port arcs move) and each column is filled by the shared
    pruned Gray walk, so consecutive solves repair a one-link delta.
    """
    template, port_names, s_idx, t_idx = _segment_template(
        net, source, sink, in_ports, out_ports, demand
    )
    m = net.num_links
    check_enumerable(m)
    size = 1 << m
    realized = np.zeros((size, len(loads)), dtype=bool)
    engine = IncrementalMaxFlow(
        template,
        s_idx,
        t_idx,
        limit=demand,
        alive=0,
        virtual_capacities={name: 0 for name in port_names},
    )
    # A literal ticker label per segment kind (RR111 closes the label vocabulary).
    if source is not None:
        role, ticker_label = "source", "arrays.source"
    elif sink is not None:
        role, ticker_label = "sink", "arrays.sink"
    else:
        role, ticker_label = "middle", "arrays.middle"
    with progress_ticker(ticker_label, total=len(loads) * size) as ticker:
        with span("incremental.walk", kernel="arrays", role=role, links=m):
            for j, load in enumerate(loads):
                caps = {name: int(a) for name, a in zip(port_names, load)}
                engine.retarget(caps)
                order = plan_gray_order(
                    template, s_idx, t_idx, m,
                    limit=demand or None, virtual_capacities=caps,
                )
                gray_walk_table(
                    realized[:, j],
                    m,
                    lambda mask: engine.goto(mask) >= demand,
                    order=order,
                    tick=ticker.tick,
                )
    count(FLOW_SOLVES, engine.solver_calls)
    if engine.repairs:
        count(FLOW_REPAIRS, engine.repairs)
    if engine.paths_saved:
        count(AUGMENTING_PATHS_SAVED, engine.paths_saved)
    width = len(loads) // words
    packed = pack_bitplanes(realized.reshape(size * words, width)).reshape(size, words)
    return packed, engine.solver_calls
