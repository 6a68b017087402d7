"""Chain decomposition — series composition of bottleneck cuts.

Extension beyond the paper: when the network decomposes along an
*ordered sequence* of bottleneck cuts ``C_1, ..., C_r`` into segments
``S_0 (∋ s), S_1, ..., S_r (∋ t)``, the reliability is computed by a
dynamic program over the distribution of the *set of reachable
assignments* at each interface.  The exponent drops from
``max(|E_s|, |E_t|)`` (single best cut) to the largest **segment**,
which can be arbitrarily smaller.  The paper's algorithm is the
``r = 1`` case — a property test pins ``chain == bottleneck == naive``.

The DP state after interface ``j`` is a probability vector over subsets
``R ⊆ A_j`` ("with what probability is exactly this set of cut-``j``
assignments still completable from ``s``?"):

* segment 0 initialises the vector from its §III-C realization array;
* crossing cut ``j`` mixes over the ``2^{|C_j|}`` survival patterns,
  intersecting ``R`` with the supported class of each pattern (Eq. 2/3
  generalised);
* a middle segment maps ``R`` through its per-configuration relation
  ``M_c ⊆ A_j × A_{j+1}``: the new set is
  ``{b : ∃ a ∈ R, (a, b) ∈ M_c}``;
* the sink segment closes the chain:
  ``R(G) = Σ_R dist[R] · P(realized sink set intersects R)``, evaluated
  with a subset-zeta table (no pairwise loop).

Model requirements are those of the single-cut algorithm, per cut:
every cut link joins consecutive segments (directed ones forward), and
all sub-streams travel source-to-sink.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.accumulate import side_class_probabilities
from repro.core.arrays import build_side_array
from repro.core.assignments import enumerate_assignments, support_mask
from repro.core.bottleneck import pattern_probabilities
from repro.core.demand import FlowDemand
from repro.core.result import ReliabilityResult
from repro.core.summation import prob_fsum
from repro.exceptions import DecompositionError, SolverError
from repro.flow.base import MaxFlowSolver, get_solver
from repro.flow.residual import build_template
from repro.graph.connectivity import connected_components
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SubnetworkView, induced_subnetwork
from repro.obs.recorder import FLOW_SOLVES, count
from repro.probability.bitset import popcount_array
from repro.probability.enumeration import check_enumerable, configuration_probabilities
from repro.probability.zeta import subset_zeta

__all__ = ["chain_reliability", "ChainStructure", "analyze_chain"]

_SRC = "__chain_src__"
_SNK = "__chain_snk__"

#: Assignment sets per interface are packed into subset-indexed vectors.
MAX_CHAIN_ASSIGNMENTS = 16


class ChainStructure:
    """Validated decomposition: segments, cuts and port alignments.

    Attributes
    ----------
    segments:
        ``SubnetworkView`` per segment, source side first.
    cuts:
        The cut link indices, as given.
    out_ports, in_ports:
        ``out_ports[j][i]`` / ``in_ports[j][i]`` are the endpoints of
        cut ``j``'s ``i``-th link in segment ``j`` / ``j + 1``.
    """

    def __init__(
        self,
        segments: list[SubnetworkView],
        cuts: list[tuple[int, ...]],
        out_ports: list[tuple[Node, ...]],
        in_ports: list[tuple[Node, ...]],
    ) -> None:
        self.segments = segments
        self.cuts = cuts
        self.out_ports = out_ports
        self.in_ports = in_ports

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def largest_segment_links(self) -> int:
        return max(len(seg.link_map) for seg in self.segments)


def analyze_chain(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    cuts: Sequence[Sequence[int]],
) -> ChainStructure:
    """Validate an ordered cut sequence and derive the segments.

    Raises :class:`DecompositionError` when the cuts overlap, do not
    yield one extra component per cut, are out of order, point
    backwards, or leave a segment straddling an interface.
    """
    if not cuts:
        raise DecompositionError("need at least one cut")
    flat: list[int] = [i for cut in cuts for i in cut]
    if len(set(flat)) != len(flat):
        raise DecompositionError("cuts share link indices")
    cut_set = set(flat)
    alive = [link.index for link in net.links() if link.index not in cut_set]
    components = connected_components(net, alive)

    def find_component(node: Node) -> set[Node]:
        for comp in components:
            if node in comp:
                return comp
        raise DecompositionError(f"node {node!r} missing from the network")

    segments_nodes: list[set[Node]] = [find_component(source)]
    out_ports: list[tuple[Node, ...]] = []
    in_ports: list[tuple[Node, ...]] = []
    for j, cut in enumerate(cuts):
        previous = segments_nodes[j]
        next_comp: set[Node] | None = None
        outs: list[Node] = []
        ins: list[Node] = []
        for index in cut:
            link = net.link(index)
            tail_in = link.tail in previous
            head_in = link.head in previous
            if tail_in == head_in:
                raise DecompositionError(
                    f"cut {j} link {index} does not leave segment {j}"
                )
            if head_in:  # link enters the previous segment
                if link.directed:
                    raise DecompositionError(
                        f"cut {j} link {index} points backwards (sink to source side)"
                    )
                out_node, in_node = link.head, link.tail
            else:
                out_node, in_node = link.tail, link.head
            comp = find_component(in_node)
            if comp is previous:
                raise DecompositionError(
                    f"cut {j} link {index} does not separate segments"
                )
            if next_comp is None:
                next_comp = comp
            elif comp is not next_comp:
                raise DecompositionError(
                    f"cut {j} links land in different components"
                )
            outs.append(out_node)
            ins.append(in_node)
        assert next_comp is not None
        segments_nodes.append(next_comp)
        out_ports.append(tuple(outs))
        in_ports.append(tuple(ins))

    if sink not in segments_nodes[-1]:
        raise DecompositionError(
            "the sink is not in the last segment; cuts are mis-ordered or not separating"
        )
    seen_ids = {id(c) for c in segments_nodes}
    if len(seen_ids) != len(segments_nodes):
        raise DecompositionError("a segment repeats; cuts are not a series chain")
    # Components not part of the chain may only be isolated leftovers.
    for comp in components:
        if id(comp) not in seen_ids and len(comp) > 1:
            raise DecompositionError(
                "the cut sequence leaves an extra non-trivial component"
            )

    segments = [induced_subnetwork(net, nodes) for nodes in segments_nodes]
    return ChainStructure(
        segments=segments,
        cuts=[tuple(cut) for cut in cuts],
        out_ports=out_ports,
        in_ports=in_ports,
    )


def _build_middle_relation(
    segment: SubnetworkView,
    in_ports: Sequence[Node],
    out_ports: Sequence[Node],
    in_assignments: Sequence[Sequence[int]],
    out_assignments: Sequence[Sequence[int]],
    demand: int,
    solver: str | MaxFlowSolver | None,
    prune: bool,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Per-configuration relation matrices for a middle segment.

    Returns ``(relation, probabilities, flow_calls)`` with ``relation``
    of shape ``(2^m, |A_in|, |A_out|)``: entry true iff the alive
    subgraph can absorb exactly ``a`` at the in-ports and emit exactly
    ``b`` at the out-ports.
    """
    net = segment.network
    m = net.num_links
    check_enumerable(m)
    template = build_template(net, extra_nodes=[_SRC, _SNK])
    src = template.node_index[_SRC]
    snk = template.node_index[_SNK]
    in_names: list[str] = []
    out_names: list[str] = []
    for i, port in enumerate(in_ports):
        if port not in template.node_index:
            raise SolverError(f"in-port {port!r} missing from segment")
        name = f"in{i}"
        template.add_virtual_arc(name, src, template.node_index[port], demand)
        in_names.append(name)
    for i, port in enumerate(out_ports):
        if port not in template.node_index:
            raise SolverError(f"out-port {port!r} missing from segment")
        name = f"out{i}"
        template.add_virtual_arc(name, template.node_index[port], snk, demand)
        out_names.append(name)

    engine = get_solver(solver)
    size = 1 << m
    relation = np.zeros((size, len(in_assignments), len(out_assignments)), dtype=bool)
    flow_calls = 0

    if prune and m > 0:
        counts = popcount_array(m)
        order = [int(x) for x in np.argsort(-counts.astype(np.int16), kind="stable")]
    else:
        order = list(range(size))

    for ai, a in enumerate(in_assignments):
        for bi, b in enumerate(out_assignments):
            caps = {name: int(v) for name, v in zip(in_names, a)}
            caps.update({name: int(v) for name, v in zip(out_names, b)})
            cell = relation[:, ai, bi]
            for mask in order:
                if prune:
                    doomed = False
                    bits = ~mask & (size - 1)
                    while bits:
                        low = bits & -bits
                        if not cell[mask | low]:
                            doomed = True
                            break
                        bits ^= low
                    if doomed:
                        continue
                graph = template.configure(alive=mask, virtual_capacities=caps)
                flow_calls += 1
                value = engine.solve(graph, src, snk, limit=demand)
                cell[mask] = value >= demand
    count(FLOW_SOLVES, flow_calls)
    probabilities = configuration_probabilities(net)
    return relation, probabilities, flow_calls


def _cross_cut(
    dist: np.ndarray,
    patterns: np.ndarray,
    assignments: Sequence[Sequence[int]],
) -> np.ndarray:
    """Mix the subset distribution over the cut's survival patterns.

    ``patterns`` is the cut's Eq. (2) table
    (:func:`repro.core.bottleneck.pattern_probabilities`).
    """
    q = len(assignments)
    check_enumerable(q)
    supports = [support_mask(a) for a in assignments]
    new = np.zeros_like(dist)
    for pattern, p in enumerate(patterns.tolist()):  # repro: noqa[RR109] mask intersection per pattern, no solver state to carry
        if p == 0.0:
            continue
        allowed = 0
        for j, s in enumerate(supports):
            if s & ~pattern == 0:
                allowed |= 1 << j
        # R -> R ∩ allowed for every state R.
        for state in range(1 << q):  # repro: noqa[RR109] distribution redistribution, one multiply-add per state
            value = dist[state]
            if value != 0.0:
                new[state & allowed] += value * p
    return new


def _through_segment(
    dist: np.ndarray,
    relation: np.ndarray,
    probabilities: np.ndarray,
    q_in: int,
    q_out: int,
) -> np.ndarray:
    """Push the subset distribution through a middle segment."""
    check_enumerable(max(q_in, q_out))
    new = np.zeros(1 << q_out, dtype=np.float64)
    size = relation.shape[0]
    # Precompute, per configuration, the in-mask that can reach each b.
    in_weights = (1 << np.arange(q_in)).astype(np.int64)
    for c in range(size):
        pc = probabilities[c]
        if pc == 0.0:
            continue
        matrix = relation[c]  # (q_in, q_out) bool
        col_masks = (in_weights @ matrix.astype(np.int64)).astype(np.int64)  # per b
        for state in range(1 << q_in):  # repro: noqa[RR109] frontier DP transition, no flow solves inside
            value = dist[state]
            if value == 0.0:
                continue
            out_state = 0
            for b in range(q_out):
                if col_masks[b] & state:
                    out_state |= 1 << b
            new[out_state] += value * pc
    return new


def chain_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    cuts: Sequence[Sequence[int]],
    *,
    solver: str | MaxFlowSolver | None = None,
    prune: bool = True,
) -> ReliabilityResult:
    """Exact reliability via the multi-cut chain decomposition."""
    demand.validate_against(net)
    structure = analyze_chain(net, demand.source, demand.sink, cuts)
    r = len(structure.cuts)

    assignment_sets = []
    for cut in structure.cuts:
        capacities = [net.link(i).capacity for i in cut]
        assignments = enumerate_assignments(capacities, demand.rate)
        if not assignments:
            return ReliabilityResult(
                value=0.0,
                method="chain",
                details={"reason": "a cut cannot carry the demand", "cut": tuple(cut)},
            )
        if len(assignments) > MAX_CHAIN_ASSIGNMENTS:
            raise DecompositionError(
                f"interface has {len(assignments)} assignments; the subset DP "
                f"supports at most {MAX_CHAIN_ASSIGNMENTS}"
            )
        assignment_sets.append(assignments)

    flow_calls = 0
    configurations = 0

    # Segment 0: source-side realization array over A_1.
    source_array = build_side_array(
        structure.segments[0],
        role="source",
        terminal=demand.source,
        ports=structure.out_ports[0],
        assignments=assignment_sets[0],
        demand=demand.rate,
        solver=solver,
        prune=prune,
    )
    flow_calls += source_array.flow_calls
    configurations += len(source_array.masks)
    dist = side_class_probabilities(source_array, range(len(assignment_sets[0])))

    # Cross cut 1.
    dist = _cross_cut(
        dist, pattern_probabilities(net, structure.cuts[0]), assignment_sets[0]
    )

    # Middle segments and their trailing cuts.
    for j in range(1, r):
        relation, probabilities, calls = _build_middle_relation(
            structure.segments[j],
            structure.in_ports[j - 1],
            structure.out_ports[j],
            assignment_sets[j - 1],
            assignment_sets[j],
            demand.rate,
            solver,
            prune,
        )
        flow_calls += calls
        configurations += relation.shape[0]
        dist = _through_segment(
            dist,
            relation,
            probabilities,
            len(assignment_sets[j - 1]),
            len(assignment_sets[j]),
        )
        dist = _cross_cut(
            dist, pattern_probabilities(net, structure.cuts[j]), assignment_sets[j]
        )

    # Final segment: sink-side realization array over A_r.
    sink_array = build_side_array(
        structure.segments[r],
        role="sink",
        terminal=demand.sink,
        ports=structure.in_ports[r - 1],
        assignments=assignment_sets[r - 1],
        demand=demand.rate,
        solver=solver,
        prune=prune,
    )
    flow_calls += sink_array.flow_calls
    configurations += len(sink_array.masks)
    qr = len(assignment_sets[r - 1])
    q_t = side_class_probabilities(sink_array, range(qr))
    # miss[R] = P(sink realized set ⊆ complement of R) — the no-overlap
    # probability — via a subset-zeta table evaluated at ~R.
    zeta_t = subset_zeta(q_t, inplace=True)
    full = (1 << qr) - 1
    terms: list[float] = []
    for state in range(1 << qr):  # repro: noqa[RR109] zeta-table lookup per state, order-free
        value = dist[state]
        if value == 0.0 or state == 0:
            continue
        terms.append(value * (1.0 - zeta_t[full & ~state]))

    return ReliabilityResult(
        value=prob_fsum(terms),
        method="chain",
        flow_calls=flow_calls,
        configurations=configurations,
        details={
            "num_cuts": r,
            "interface_sizes": [len(a) for a in assignment_sets],
            "largest_segment_links": structure.largest_segment_links,
        },
    )
