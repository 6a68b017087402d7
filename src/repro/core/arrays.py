"""Realization arrays (paper §III-C).

For one side of the split (``G_s`` or ``G_t``), the data structure is an
array of length ``2^{|E_side|}``: the entry for failure configuration
``i`` is a ``|D|``-bit value whose ``j``-th bit says whether that
configuration *realizes* assignment ``j`` — i.e. the alive subgraph of
the side can route exactly ``a_l`` sub-streams to/from the ``l``-th
bottleneck port for every ``l`` (Example 2's binary sequences).

Realization of one assignment is a side-local max-flow question: attach
a virtual terminal, give the port arc for bottleneck link ``l`` capacity
``a_l``, and ask for a flow of value ``d``.  Since the port arcs sum to
``d``, the flow reaches ``d`` iff every port arc is saturated — exactly
"assignment realized".  A chain middle segment (:mod:`repro.core.chain`)
asks the same question with two virtual terminals and a load ``(a, b)``
over its in- and out-ports.

Every segment is one description — an optional real source terminal
with in-ports, an optional real sink terminal with out-ports, ``None``
being a virtual node — settled by one builder, :func:`_realization_masks`.
Max-flow/min-cut duality turns every column into a ``min`` over the
segment's bond family (:mod:`repro.core.certificate`), which needs no
solver; a segment whose bond family is over the certificate guards
falls back to a max-flow walk of each load's lattice in Gray-code order,
repairing one flow across consecutive entries and pruned by
monotonicity in the alive set.

Eq. 3 never needs the ``2^m`` array itself, only its distinct masks and
their weights, so the bottleneck, sweep, batch and serve paths and
chain's end segments describe a side as a disjoint cube cover instead
(:func:`build_side_cover`, :mod:`repro.core.cover`): a few dozen cubes
factored from the same bond family, or from the same Gray-walk table
past the guards.  :func:`build_side_array` stays as the paper's
explicit array — :func:`repro.core.accumulate.accumulate` and the
worked examples use it, and the covers are tested against it — and
chain's middle segments still build :func:`build_segment_relation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.certificate import certificate_cover, certificate_masks, side_cut_family
from repro.core.cover import SideCover, table_cover
from repro.core.latticewalk import gray_walk_table
from repro.exceptions import SolverError
from repro.flow.base import get_solver
from repro.flow.incremental import IncrementalMaxFlow, plan_gray_order
from repro.flow.residual import ResidualTemplate, build_template
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SubnetworkView
from repro.obs.progress import progress_ticker
from repro.obs.recorder import (
    ARRAY_ENTRIES_BUILT,
    AUGMENTING_PATHS_SAVED,
    CERTIFICATE_CUTS,
    COVER_CUBES_BUILT,
    FLOW_REPAIRS,
    FLOW_SOLVES,
    count,
    span,
)
from repro.probability.bitset import pack_bitplanes
from repro.probability.enumeration import check_enumerable, configuration_probabilities

__all__ = [
    "RealizationArray",
    "build_segment_relation",
    "build_side_array",
    "build_side_cover",
]

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


@dataclass(frozen=True)
class RealizationArray:
    """The §III-C array for one side.

    Attributes
    ----------
    masks:
        ``uint64`` array of length ``2^{m}``; entry ``i`` has bit ``j``
        set iff side configuration ``i`` realizes assignment ``j``.
    probabilities:
        Probability of each side configuration (sums to 1).
    num_assignments:
        ``|D|`` — how many bits of each mask are meaningful.
    flow_calls:
        Max-flow solves spent building the array.
    """

    masks: np.ndarray
    probabilities: np.ndarray
    num_assignments: int
    flow_calls: int

    def realizes(self, configuration: int, assignment_index: int) -> bool:
        """Whether one configuration realizes one assignment."""
        return bool((int(self.masks[configuration]) >> assignment_index) & 1)

    def realized_indices(self, configuration: int) -> list[int]:
        """Assignment indices realized by one configuration."""
        mask = int(self.masks[configuration])
        return [j for j in range(self.num_assignments) if (mask >> j) & 1]


def build_side_array(
    side: SubnetworkView,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    assignments: Sequence[Sequence[int]],
    demand: int,
) -> RealizationArray:
    """Build the realization array for one side of the split.

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

    The side becomes a segment (its terminal plus one virtual terminal)
    settled by :func:`_realization_masks`: the cut-certificate kernel
    (:mod:`repro.core.certificate`, zero max-flow solves) inside its two
    guards, the pruned Gray walk with the default solver past either.
    The masks are bit-identical either way.
    """
    net = side.network
    _validate_side_request(
        net, role=role, assignments=assignments, ports=ports, demand=demand
    )
    segment = (terminal, None, (), ports) if role == "source" else (None, terminal, ports, ())
    masks, flow_calls = _realization_masks(net, *segment, assignments, demand)
    count(ARRAY_ENTRIES_BUILT, len(assignments) << net.num_links)
    return RealizationArray(
        masks=masks,
        probabilities=configuration_probabilities(net),
        num_assignments=len(assignments),
        flow_calls=flow_calls,
    )


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

    Parameters are those of :func:`build_side_array`, and expanding the
    cover gives its ``masks`` bit for bit.  Inside the certificate
    guards the cover is factored on the side's cut family
    (:func:`~repro.core.certificate.certificate_cover`, no solve); past
    them it is factored on the table the pruned Gray walk fills.  The
    branching reads masks only, so both give the same cubes.
    """
    net = side.network
    _validate_side_request(
        net, role=role, assignments=assignments, ports=ports, demand=demand
    )
    segment = (terminal, None, (), ports) if role == "source" else (None, terminal, ports, ())
    capacities = [link.capacity for link in net.links()]
    family = side_cut_family(net, *segment)
    if family is not None:
        count(CERTIFICATE_CUTS, family.size)
        cubes = certificate_cover(family, assignments, demand, capacities)
        flow_calls = 0
    else:
        masks, flow_calls = _gray_walk_masks(net, *segment, assignments, demand)
        cubes = table_cover(masks, capacities)
    count(COVER_CUBES_BUILT, len(cubes))
    return SideCover(
        cubes=cubes,
        num_links=net.num_links,
        num_assignments=len(assignments),
        flow_calls=flow_calls,
    )


def build_segment_relation(
    segment: SubnetworkView,
    *,
    in_ports: Sequence[Node],
    out_ports: Sequence[Node],
    in_assignments: Sequence[Sequence[int]],
    out_assignments: Sequence[Sequence[int]],
    demand: int,
) -> tuple[np.ndarray, int]:
    """The realization relation of a chain middle segment.

    Returns ``(relation, flow_calls)``: bit ``j`` of ``uint64`` entry
    ``relation[i, c]`` is set iff configuration ``c`` absorbs exactly
    ``in_assignments[i]`` at the in-ports while emitting exactly
    ``out_assignments[j]`` at the out-ports.  Row ``i`` is one
    :func:`_realization_masks` call with two virtual terminals and the
    loads ``(in_assignments[i], b)``.
    """
    net = segment.network
    check_enumerable(net.num_links)
    _validate_assignments(in_assignments, in_ports, demand)
    _validate_assignments(out_assignments, out_ports, demand)
    relation = np.empty((len(in_assignments), 1 << net.num_links), dtype=np.uint64)
    count(ARRAY_ENTRIES_BUILT, len(in_assignments) * len(out_assignments) << net.num_links)
    flow_calls = 0
    for i, a in enumerate(in_assignments):
        relation[i], calls = _realization_masks(
            net, None, None, in_ports, out_ports,
            [(*a, *b) for b in out_assignments], demand,
        )
        flow_calls += calls
    return relation, flow_calls


def _realization_masks(
    net: FlowNetwork,
    source: Node | None,
    sink: Node | None,
    in_ports: Sequence[Node],
    out_ports: Sequence[Node],
    loads: Sequence[Sequence[int]],
    demand: int,
) -> tuple[np.ndarray, int]:
    """Every §III-C realization mask of one segment, and the solves spent.

    Bit ``j`` of entry ``c`` is set iff configuration ``c`` carries
    ``demand`` units with port arc ``l`` capped at ``loads[j][l]`` (the
    in-ports, then the out-ports).  Inside the certificate guards the
    bond family answers without a solve.  Past them one repairable flow
    walks every entry: each load switch is a
    :meth:`~repro.flow.incremental.IncrementalMaxFlow.retarget` (only
    the port arcs move) and each column is filled by the shared pruned
    Gray walk, so consecutive solves repair a one-link delta.
    """
    family = side_cut_family(net, source, sink, in_ports, out_ports)
    if family is not None:
        count(CERTIFICATE_CUTS, family.size)
        return certificate_masks(family, loads, demand), 0
    return _gray_walk_masks(net, source, sink, in_ports, out_ports, loads, demand)


def _gray_walk_masks(
    net: FlowNetwork,
    source: Node | None,
    sink: Node | None,
    in_ports: Sequence[Node],
    out_ports: Sequence[Node],
    loads: Sequence[Sequence[int]],
    demand: int,
) -> tuple[np.ndarray, int]:
    """:func:`_realization_masks` past the certificate guards: the walk."""
    template, port_names, s_idx, t_idx = _segment_template(
        net, source, sink, in_ports, out_ports, demand
    )
    solver = get_solver(None)
    m = net.num_links
    check_enumerable(m)
    size = 1 << m
    realized = np.zeros((size, len(loads)), dtype=bool)
    engine = IncrementalMaxFlow(
        template,
        s_idx,
        t_idx,
        solver=solver,
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
                    solver=solver, limit=demand or None, virtual_capacities=caps,
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
    return pack_bitplanes(realized), engine.solver_calls
