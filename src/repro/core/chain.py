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

* segment 0 initialises the vector from its §III-C side cover
  (:class:`repro.core.cover.SideCover`: the weight of each distinct
  realization mask);
* crossing cut ``j`` mixes over the ``2^{|C_j|}`` survival patterns,
  intersecting ``R`` with the supported class of each pattern (Eq. 2/3
  generalised);
* a middle segment maps ``R`` through its per-configuration relation
  ``M_c ⊆ A_j × A_{j+1}``: the new set is
  ``{b : ∃ a ∈ R, (a, b) ∈ M_c}``.  ``(a, b) ∈ M_c`` is the §III-C
  realization question with two virtual terminals; the segment's
  relation cover (:func:`repro.core.arrays.build_relation_cover`) gives
  every distinct relation and its weight, and the map runs once per
  distinct relation, not once per configuration;
* the sink segment closes the chain:
  ``R(G) = Σ_R dist[R] · P(realized sink set intersects R)``, the
  Eq. 3 pair sum of :mod:`repro.core.accumulate` over the nonzero
  states and the sink cover's distinct realization masks.

Model requirements are those of the single-cut algorithm, per cut:
every cut link joins consecutive segments (directed ones forward), and
all sub-streams travel source-to-sink.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.accumulate import joint_rows
from repro.core.arrays import build_relation_cover, build_side_cover
from repro.core.assignments import enumerate_assignments, support_mask
from repro.core.bottleneck import pattern_probabilities
from repro.core.demand import FlowDemand
from repro.core.result import ReliabilityResult
from repro.exceptions import DecompositionError
from repro.graph.connectivity import connected_components
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SubnetworkView, check_forward_cut, induced_subnetwork
from repro.probability.enumeration import check_enumerable

__all__ = ["chain_reliability", "ChainStructure", "analyze_chain"]

#: Assignment sets per interface are packed into subset-indexed vectors.
MAX_CHAIN_ASSIGNMENTS = 16

#: Entries of one block of ``_through_segment``'s state-image table.
_IMAGE_ENTRIES = 1 << 18


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
    backwards, or leave a segment straddling an interface, and
    :class:`ReproValueError` for a cut the assignment model cannot
    count exactly (:func:`repro.graph.transforms.check_forward_cut`).
    """
    if not cuts:
        raise DecompositionError("need at least one cut")
    flat: list[int] = [i for cut in cuts for i in cut]
    if len(set(flat)) != len(flat):
        raise DecompositionError("cuts share link indices")
    for cut in cuts:
        check_forward_cut(net, cut)
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


def _failure_row(segment: SubnetworkView) -> np.ndarray:
    """The ``(1, links)`` failure row of one segment, in its link order."""
    return np.asarray([segment.network.failure_probabilities()], dtype=np.float64)


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
    states = np.flatnonzero(dist)
    new = np.zeros_like(dist)
    for pattern, p in enumerate(patterns.tolist()):  # repro: noqa[RR109] mask intersection per pattern, no solver state to carry
        if p == 0.0:
            continue
        allowed = 0
        for j, s in enumerate(supports):
            if s & ~pattern == 0:
                allowed |= 1 << j
        # R -> R ∩ allowed for every state R.
        new += np.bincount(
            states & allowed, weights=dist[states] * p, minlength=len(dist)
        )
    return new


def _through_segment(
    dist: np.ndarray,
    relations: np.ndarray,
    weights: np.ndarray,
    q_out: int,
) -> np.ndarray:
    """Push the subset distribution through a middle segment.

    Row ``r`` of ``relations`` is one distinct relation of the segment
    (:attr:`repro.core.cover.SideCover.distinct` of its relation cover):
    word ``a`` is the out-mask in-assignment ``a`` reaches, and
    ``weights[r]`` the probability of that relation.  Each relation maps
    every in-state ``R`` to ``⋃_{a ∈ R} relations[r, a]`` once, by
    doubling over the in-assignments.
    """
    q_in = relations.shape[1]
    check_enumerable(max(q_in, q_out))
    states = np.flatnonzero(dist)
    new = np.zeros(1 << q_out, dtype=np.float64)
    block = max(1, _IMAGE_ENTRIES >> q_in)
    for start in range(0, len(relations), block):
        rows = relations[start : start + block]
        # image[r, R] = union of rows[r, a] over the in-assignments a in R.
        image = np.zeros((len(rows), 1 << q_in), dtype=np.uint64)
        for a in range(q_in):
            np.bitwise_or(image[:, : 1 << a], rows[:, a : a + 1], out=image[:, 1 << a : 2 << a])
        mass = weights[start : start + block, None] * dist[states]
        new += np.bincount(
            image[:, states].ravel().astype(np.intp),
            weights=mass.ravel(),
            minlength=1 << q_out,
        )
    return new


def chain_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    cuts: Sequence[Sequence[int]],
) -> ReliabilityResult:
    """Exact reliability via the multi-cut chain decomposition.

    The two end segments are §III-C side covers
    (:func:`repro.core.arrays.build_side_cover`) and every middle
    segment is a relation cover over its two port sets
    (:func:`repro.core.arrays.build_relation_cover`).  All of them are
    settled by the cut-certificate kernel inside its guards (no max-flow
    solves) and by the pruned Gray walk past them.
    """
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

    # Segment 0: the source-side cover over A_1.
    source_cover = build_side_cover(
        structure.segments[0],
        role="source",
        terminal=demand.source,
        ports=structure.out_ports[0],
        assignments=assignment_sets[0],
        demand=demand.rate,
    )
    flow_calls += source_cover.flow_calls
    configurations += 1 << source_cover.num_links
    dist = np.zeros(1 << len(assignment_sets[0]), dtype=np.float64)
    dist[source_cover.distinct.astype(np.intp)] = source_cover.weights(
        _failure_row(structure.segments[0])
    )[0]

    # Cross cut 1.
    dist = _cross_cut(
        dist, pattern_probabilities(net, structure.cuts[0]), assignment_sets[0]
    )

    # Middle segments and their trailing cuts.
    for j in range(1, r):
        segment = structure.segments[j]
        relation = build_relation_cover(  # repro: noqa[RR110] each middle is its own segment
            segment,
            in_ports=structure.in_ports[j - 1],
            out_ports=structure.out_ports[j],
            in_assignments=assignment_sets[j - 1],
            out_assignments=assignment_sets[j],
            demand=demand.rate,
        )
        flow_calls += relation.flow_calls
        configurations += 1 << relation.num_links
        weights = relation.weights(_failure_row(segment))[0]
        dist = _through_segment(
            dist,
            relation.distinct.reshape(len(weights), relation.words),
            weights,
            len(assignment_sets[j]),
        )
        dist = _cross_cut(
            dist, pattern_probabilities(net, structure.cuts[j]), assignment_sets[j]
        )

    # Final segment: the sink-side cover over A_r.
    sink_cover = build_side_cover(
        structure.segments[r],
        role="sink",
        terminal=demand.sink,
        ports=structure.in_ports[r - 1],
        assignments=assignment_sets[r - 1],
        demand=demand.rate,
    )
    flow_calls += sink_cover.flow_calls
    configurations += 1 << sink_cover.num_links
    # R(G) = Σ_R dist[R] · P(the sink's realized set meets R): the Eq. 3
    # pair sum with the nonzero states as the source side.
    states = np.flatnonzero(dist)
    value = joint_rows(
        states.astype(np.uint64),
        dist[states][None, :],
        sink_cover.distinct,
        sink_cover.weights(_failure_row(structure.segments[r])),
        (1 << len(assignment_sets[r - 1])) - 1,
    )[0]

    return ReliabilityResult(
        value=float(value),
        method="chain",
        flow_calls=flow_calls,
        configurations=configurations,
        details={
            "num_cuts": r,
            "interface_sizes": [len(a) for a in assignment_sets],
            "largest_segment_links": structure.largest_segment_links,
        },
    )
