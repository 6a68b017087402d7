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

The array is defined by the side, its ports and the assignment set
alone, so the input picks how :func:`build_side_array` settles it.
Max-flow/min-cut duality turns every column into a ``min`` over the
side's bond family (:mod:`repro.core.certificate`), which needs no
solver; a side whose bond family is over the certificate guards falls
back to a max-flow walk of each assignment's lattice in Gray-code order,
repairing one flow across consecutive entries and pruned by
monotonicity in the alive set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.certificate import certificate_masks, side_cut_family
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
    """Shared §III-C input validation (the builder and the column cache)."""
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

    The input picks the kernel: the cut-certificate kernel
    (:mod:`repro.core.certificate`, zero max-flow solves) builds every
    side whose bond family is within its two guards
    (:data:`~repro.core.certificate.MAX_CERTIFICATE_FREE_NODES` free
    nodes, :data:`~repro.core.certificate.MAX_CERTIFICATE_CUTS` cuts);
    a side past either guard gets the pruned Gray walk with the default
    solver.  The masks are bit-identical either way.
    """
    net = side.network
    m = net.num_links
    check_enumerable(m)
    _validate_side_request(
        net, role=role, assignments=assignments, ports=ports, demand=demand
    )
    family = side_cut_family(net, role=role, terminal=terminal, ports=ports)
    if family is not None:
        masks = certificate_masks(family, assignments, demand)
        count(CERTIFICATE_CUTS, family.size)
        flow_calls = 0
    else:
        masks, flow_calls = _gray_walk_masks(
            net, role=role, terminal=terminal, ports=ports,
            assignments=assignments, demand=demand,
        )
    count(ARRAY_ENTRIES_BUILT, len(assignments) << m)
    return RealizationArray(
        masks=masks,
        probabilities=configuration_probabilities(net),
        num_assignments=len(assignments),
        flow_calls=flow_calls,
    )


def _gray_walk_masks(
    net: FlowNetwork,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    assignments: Sequence[Sequence[int]],
    demand: int,
) -> tuple[np.ndarray, int]:
    """The max-flow fallback: one repairable flow across all entries.

    Each assignment switch is a
    :meth:`~repro.flow.incremental.IncrementalMaxFlow.retarget` (only
    the virtual port arcs move) and each column is filled by the shared
    pruned Gray walk, so consecutive solves repair a one-link delta
    instead of starting cold.  Returns the packed masks and the
    engine's solver invocations.
    """
    template, port_names, s_idx, t_idx = _side_template(
        net, role=role, terminal=terminal, ports=ports, demand=demand
    )
    solver = get_solver(None)
    m = net.num_links
    check_enumerable(m)
    size = 1 << m
    num_assignments = len(assignments)
    realized = np.zeros((size, num_assignments), dtype=bool)
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
