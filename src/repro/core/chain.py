"""Chain decomposition — series composition of bottleneck cuts.

Extension beyond the paper: when the network decomposes along an
*ordered sequence* of bottleneck cuts ``C_1, ..., C_r`` into segments
``S_0 (∋ s), S_1, ..., S_r (∋ t)``, the reliability is computed by a
dynamic program over the distribution of the *set of reachable
assignments* at each interface.  The exponent drops from
``max(|E_s|, |E_t|)`` (single best cut) to the largest **segment**,
which can be arbitrarily smaller.  The paper's algorithm is the
``r = 1`` case, and here it is literally so: the split is one
:class:`repro.graph.transforms.SideSplit` from the one cut validator
(:func:`repro.graph.transforms.split_on_cuts`) and the value comes from
the one Eq. 2/3 pipeline (:func:`repro.core.sweep.split_reliability`),
so a one-cut chain is bit-identical to ``bottleneck``.

On ``r ≥ 2`` cuts the pipeline's DP state after interface ``j`` is a
probability vector over subsets ``R ⊆ A_j`` ("with what probability is
exactly this set of cut-``j`` assignments still completable from
``s``?"):

* segment 0 initialises the vector from its §III-C side cover
  (:class:`repro.core.cover.SideCover`: the weight of each distinct
  realization mask);
* crossing cut ``j < r`` mixes over the ``2^{|C_j|}`` survival
  patterns, intersecting ``R`` with the supported class of each
  pattern (Eq. 2/3 generalised);
* a middle segment maps ``R`` through its per-configuration relation
  ``M_c ⊆ A_j × A_{j+1}``: the new set is
  ``{b : ∃ a ∈ R, (a, b) ∈ M_c}``.  ``(a, b) ∈ M_c`` is the §III-C
  realization question with two virtual terminals; the segment's
  relation cover (:func:`repro.core.arrays.build_relation_cover`) gives
  every distinct relation and its weight, and the map runs once per
  distinct relation, not once per configuration;
* the last cut and the sink segment close the chain as the paper's
  split does: per supported class of the last cut, the Eq. 3 pair sum
  of :mod:`repro.core.accumulate` over the nonzero states and the sink
  cover's distinct realization masks, weighted by Eq. 2.

Model requirements are those of the single-cut algorithm, per cut:
every cut link joins consecutive segments (directed ones forward), and
all sub-streams travel source-to-sink.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from repro.core.assignments import enumerate_assignments
from repro.core.demand import FlowDemand
from repro.core.result import ReliabilityResult
from repro.core.sweep import point_reliability
from repro.exceptions import DecompositionError
from repro.graph.network import FlowNetwork
from repro.graph.transforms import split_on_cuts

__all__ = ["chain_reliability"]

#: Assignment sets per interface are packed into subset-indexed vectors.
MAX_CHAIN_ASSIGNMENTS = 16


def chain_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    cuts: Sequence[Sequence[int]],
) -> ReliabilityResult:
    """Exact reliability via the multi-cut chain decomposition.

    Validates the cut sequence (:func:`repro.graph.transforms.split_on_cuts`),
    refuses an interface too wide for the dense subset vector of the
    ``r ≥ 2`` DP, then runs the one-row pipeline
    (:func:`repro.core.sweep.point_reliability`).  The two end segments
    are §III-C side covers and every middle segment is a relation cover
    over its two port sets, all settled by the cut-certificate kernel
    inside its guards (no max-flow solves) and by segment max-flows
    past them.
    """
    demand.validate_against(net)
    split = split_on_cuts(net, demand.source, demand.sink, cuts)
    sizes = [
        len(enumerate_assignments([net.link(i).capacity for i in cut], demand.rate))
        for cut in split.cuts
    ]
    if len(sizes) > 1 and max(sizes) > MAX_CHAIN_ASSIGNMENTS:
        raise DecompositionError(
            f"interface has {max(sizes)} assignments; the subset DP "
            f"supports at most {MAX_CHAIN_ASSIGNMENTS}"
        )
    result = point_reliability(net, demand, split, cache=None)
    details = {
        "num_cuts": len(split.cuts),
        "interface_sizes": sizes,
        "largest_segment_links": max(len(seg.link_map) for seg in split.segments),
    }
    if "reason" in result.details:
        details["reason"] = result.details["reason"]
    return replace(result, method="chain", details=details)
