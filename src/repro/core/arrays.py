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
"assignment realized".

Cost: ``|D| * 2^{|E_side|}`` max-flow solves per side, as the paper
counts.  Realization is monotone in the alive set for a fixed
assignment, so the same monotone pruning as the naive algorithm applies
per bit (enabled by default, reported in the result).

By default :func:`build_side_array` answers the same question without
a solver: max-flow/min-cut duality turns every column into a ``min``
over the side's bond family (:mod:`repro.core.certificate`).  The
max-flow kernels below stay as the fallback — see
:func:`build_side_array` for the rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.certificate import certificate_masks, side_cut_family
from repro.core.latticewalk import gray_walk_table, popcount_descending_order
from repro.exceptions import SolverError
from repro.flow.base import MaxFlowSolver, get_solver
from repro.flow.incremental import IncrementalMaxFlow, plan_gray_order, resolve_incremental
from repro.flow.residual import ResidualTemplate, build_template
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SubnetworkView
from repro.obs.progress import progress_ticker
from repro.obs.recorder import (
    ARRAY_ENTRIES_BUILT,
    AUGMENTING_PATHS_SAVED,
    CERTIFICATE_CUTS,
    FLOW_REPAIRS,
    FLOW_SOLVES,
    count,
    span,
)
from repro.probability.bitset import pack_bitplanes
from repro.probability.enumeration import check_enumerable, configuration_probabilities

__all__ = ["RealizationArray", "build_side_array"]

_VIRTUAL = "__terminal__"


def _validate_side_request(
    net: FlowNetwork,
    *,
    role: str,
    assignments: Sequence[Sequence[int]],
    ports: Sequence[Node],
    demand: int,
) -> None:
    """Shared §III-C input validation (serial builder and the engine)."""
    if role not in ("source", "sink"):
        raise SolverError(f"role must be 'source' or 'sink', got {role!r}")
    check_enumerable(net.num_links)
    if len(assignments) > 63:
        raise SolverError(
            f"realization masks are uint64-packed; got {len(assignments)} assignments"
        )
    for a in assignments:
        if len(a) != len(ports):
            raise SolverError("assignment arity does not match the port count")
        if sum(a) != demand:
            raise SolverError(f"assignment {tuple(a)} does not sum to demand {demand}")


def _side_template(
    net: FlowNetwork,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    demand: int,
) -> tuple[ResidualTemplate, list[str], int, int]:
    """Residual template with one virtual port arc per cut link.

    Returns ``(template, port_arc_names, source_index, sink_index)`` —
    everything a realization solve needs besides the per-instance alive
    mask and port capacities.
    """
    template = build_template(net, extra_nodes=[_VIRTUAL])
    virtual = template.node_index[_VIRTUAL]
    if terminal not in template.node_index:
        raise SolverError(f"terminal {terminal!r} is not inside this side")
    port_names: list[str] = []
    for l, port in enumerate(ports):
        if port not in template.node_index:
            raise SolverError(f"port {port!r} is not inside this side")
        p = template.node_index[port]
        name = f"port{l}"
        if role == "source":
            template.add_virtual_arc(name, p, virtual, demand)
        else:
            template.add_virtual_arc(name, virtual, p, demand)
        port_names.append(name)

    if role == "source":
        s_idx = template.node_index[terminal]
        t_idx = virtual
    else:
        s_idx = virtual
        t_idx = template.node_index[terminal]
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
    solver: str | MaxFlowSolver | None = None,
    prune: bool = True,
    incremental: bool | None = None,
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
    solver, prune:
        Max-flow solver choice and monotone pruning toggle.
    incremental:
        Walk each assignment's lattice in Gray-code order with flow
        repair — one long-lived engine, retargeted between assignments
        — instead of cold-solving every entry (``None`` = auto: on
        whenever the solver supports the warm-start contract).  The
        masks are bit-identical either way.

    Kernel choice: with ``solver`` and ``incremental`` both left at
    ``None`` the columns come from the cut-certificate kernel
    (:mod:`repro.core.certificate`, zero max-flow solves) unless the
    side's bond family is over its guard (more free nodes than
    :data:`~repro.core.certificate.MAX_CERTIFICATE_FREE_NODES` or more
    cuts than :data:`~repro.core.certificate.MAX_CERTIFICATE_CUTS`).
    Naming a solver or forcing ``incremental`` selects the max-flow
    kernel, whose solve accounting those options describe.  The masks
    are bit-identical on every path.
    """
    net = side.network
    m = net.num_links
    check_enumerable(m)
    _validate_side_request(
        net, role=role, assignments=assignments, ports=ports, demand=demand
    )
    if solver is None and incremental is None:
        family = side_cut_family(net, role=role, terminal=terminal, ports=ports)
        if family is not None:
            masks = certificate_masks(family, assignments, demand)
            count(CERTIFICATE_CUTS, family.size)
            count(ARRAY_ENTRIES_BUILT, len(assignments) << m)
            return RealizationArray(
                masks=masks,
                probabilities=configuration_probabilities(net),
                num_assignments=len(assignments),
                flow_calls=0,
            )
    template, port_names, s_idx, t_idx = _side_template(
        net, role=role, terminal=terminal, ports=ports, demand=demand
    )

    engine = get_solver(solver)
    size = 1 << m
    num_assignments = len(assignments)
    realized = np.zeros((size, num_assignments), dtype=bool)
    flow_calls = 0

    if resolve_incremental(engine, incremental):
        return _build_side_array_gray(
            net,
            template,
            port_names,
            s_idx,
            t_idx,
            realized,
            role=role,
            assignments=assignments,
            demand=demand,
            solver=engine,
            prune=prune,
        )

    if prune and m > 0:
        order = [int(x) for x in popcount_descending_order(m)]
    else:
        order = list(range(size))

    # A literal ticker label per role (RR111 closes the label vocabulary).
    ticker_label = "arrays.source" if role == "source" else "arrays.sink"
    with progress_ticker(ticker_label, total=num_assignments * size) as ticker:
        for j, assignment in enumerate(assignments):
            caps = {name: int(a) for name, a in zip(port_names, assignment)}
            column = realized[:, j]
            for mask in order:
                ticker.tick()
                if prune:
                    doomed = False
                    bits = ~mask & (size - 1)
                    while bits:
                        low = bits & -bits
                        if not column[mask | low]:
                            doomed = True
                            break
                        bits ^= low
                    if doomed:
                        continue
                graph = template.configure(alive=mask, virtual_capacities=caps)
                flow_calls += 1
                value = engine.solve(graph, s_idx, t_idx, limit=demand)
                column[mask] = value >= demand
    count(FLOW_SOLVES, flow_calls)
    count(ARRAY_ENTRIES_BUILT, num_assignments * size)
    return _pack_array(net, realized, num_assignments, flow_calls)


def _pack_array(
    net: FlowNetwork, realized: np.ndarray, num_assignments: int, flow_calls: int
) -> RealizationArray:
    """uint64-pack the realized matrix and attach probabilities."""
    masks = pack_bitplanes(realized)
    probabilities = configuration_probabilities(net)
    return RealizationArray(
        masks=masks,
        probabilities=probabilities,
        num_assignments=num_assignments,
        flow_calls=flow_calls,
    )


def _build_side_array_gray(
    net: FlowNetwork,
    template: ResidualTemplate,
    port_names: list[str],
    s_idx: int,
    t_idx: int,
    realized: np.ndarray,
    *,
    role: str,
    assignments: Sequence[Sequence[int]],
    demand: int,
    solver: MaxFlowSolver,
    prune: bool,
) -> RealizationArray:
    """Incremental §III-C build: one repairable flow across all entries.

    Assignment-outer like the cold path, but each assignment switch is a
    :meth:`~repro.flow.incremental.IncrementalMaxFlow.retarget` (only
    the virtual port arcs move) and each column is filled by the shared
    Gray walk, so consecutive solves repair a one-link delta instead of
    starting cold.  The realized matrix is bit-identical to the cold
    build; ``flow_calls`` counts the engine's solver invocations.
    """
    m = net.num_links
    check_enumerable(m)
    size = 1 << m
    num_assignments = len(assignments)
    engine = IncrementalMaxFlow(
        template,
        s_idx,
        t_idx,
        solver=solver,
        limit=demand,
        alive=0,
        virtual_capacities={name: 0 for name in port_names},
    )
    # A literal ticker label per role (RR111 closes the label vocabulary).
    ticker_label = "arrays.source" if role == "source" else "arrays.sink"
    with progress_ticker(ticker_label, total=num_assignments * size) as ticker:
        with span("incremental.walk", kernel="arrays", role=role, links=m):
            for j, assignment in enumerate(assignments):
                caps = {name: int(a) for name, a in zip(port_names, assignment)}
                engine.retarget(caps)
                order = plan_gray_order(
                    template, s_idx, t_idx, m,
                    solver=solver, limit=demand or None, virtual_capacities=caps,
                )
                column = realized[:, j]
                gray_walk_table(
                    column,
                    m,
                    lambda mask: engine.goto(mask) >= demand,
                    order=order,
                    prune=prune,
                    tick=ticker.tick,
                )
    count(FLOW_SOLVES, engine.solver_calls)
    if engine.repairs:
        count(FLOW_REPAIRS, engine.repairs)
    if engine.paths_saved:
        count(AUGMENTING_PATHS_SAVED, engine.paths_saved)
    count(ARRAY_ENTRIES_BUILT, num_assignments * size)
    return _pack_array(net, realized, num_assignments, engine.solver_calls)
