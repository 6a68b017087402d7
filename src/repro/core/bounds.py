"""Cheap reliability bounds.

Exact reliability is exponential; these bounds are polynomial (up to
small enumerations) and bracket it:

* **Upper bound — cut survival.**  For any s-t cut ``C``, the demand is
  only met when the *alive* capacity of ``C`` reaches ``d``, so
  ``R <= P(alive capacity of C >= d)``.  Each cut is evaluated exactly
  by enumerating its own ``2^|C|`` survival patterns (cuts are small);
  the bound is the minimum over the cuts considered.

* **Lower bound — route families.**  Any subgraph ``H`` that admits the
  demand gives ``P(all of H alive) <= R``.  Collecting several such
  route families ``H_1..H_r`` (greedy: repeatedly take the links used
  by a max flow, then forbid them) and applying inclusion–exclusion
  over "family fully alive" events — whose intersections are just
  products over unions of links — tightens the bound beyond any single
  family.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.summation import prob_fsum
from repro.exceptions import ReproError
from repro.flow.base import max_flow
from repro.flow.mincut import min_cut_links
from repro.graph.cuts import minimal_st_cuts, minimum_cardinality_cut
from repro.graph.network import FlowNetwork
from repro.obs.recorder import span
from repro.probability.enumeration import check_enumerable

__all__ = ["cut_upper_bound", "route_lower_bound", "reliability_bounds"]


def _cut_survival_probability(net: FlowNetwork, cut: tuple[int, ...], demand: int) -> float:
    """``P(alive capacity of the cut >= demand)`` exactly."""
    k = len(cut)
    check_enumerable(k)
    caps = [net.link(i).capacity for i in cut]
    probs = [net.link(i).failure_probability for i in cut]
    terms: list[float] = []
    for pattern in range(1 << k):  # repro: noqa[RR109] closed-form term per pattern, nothing to repair
        alive_capacity = sum(c for i, c in enumerate(caps) if (pattern >> i) & 1)
        if alive_capacity < demand:
            continue
        p = 1.0
        for i in range(k):
            p *= (1.0 - probs[i]) if (pattern >> i) & 1 else probs[i]
        terms.append(p)
    return prob_fsum(terms)


def cut_upper_bound(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    max_cut_size: int = 3,
    max_cuts: int = 32,
) -> float:
    """Minimum cut-survival probability over discovered cuts.

    Considers the minimum-cardinality cut, the capacity-min-cut (from a
    max-flow run on the all-alive network) and every minimal cut up to
    ``max_cut_size`` (capped at ``max_cuts``).  Always a valid upper
    bound; more cuts only tighten it.
    """
    demand.validate_against(net)
    with span("bounds.cut_upper", max_cut_size=max_cut_size, max_cuts=max_cuts):
        cuts: set[tuple[int, ...]] = set()
        card_cut = minimum_cardinality_cut(net, demand.source, demand.sink)
        if card_cut is None:
            return 0.0  # terminals disconnected outright
        cuts.add(tuple(card_cut))
        result = max_flow(net, demand.source, demand.sink)
        if result.value < demand.rate:
            return 0.0
        cuts.add(min_cut_links(net, result))
        for cut in minimal_st_cuts(net, demand.source, demand.sink, max_cut_size, limit=max_cuts):
            cuts.add(tuple(cut))
        bound = 1.0
        for cut in cuts:
            if not cut:
                continue
            bound = min(bound, _cut_survival_probability(net, cut, demand.rate))
        return bound


def route_lower_bound(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    max_families: int = 4,
) -> float:
    """Inclusion–exclusion over greedily-collected route families.

    Each family is the link set used by one feasible flow; successive
    families are found after deleting all previously used links, so the
    families are link-disjoint (their alive-events are independent, but
    the bound does not rely on that — intersections are computed as
    products over link unions, which is exact for any overlap).
    """
    demand.validate_against(net)
    if max_families < 1:
        raise ReproError("need at least one route family")
    with span("bounds.route_lower", max_families=max_families):
        return _route_lower_bound(net, demand, max_families)


def _route_lower_bound(
    net: FlowNetwork,
    demand: FlowDemand,
    max_families: int,
) -> float:
    oracle = FeasibilityOracle(net, demand.source, demand.sink, demand.rate)
    all_links = (1 << net.num_links) - 1
    forbidden = 0
    families: list[int] = []
    while len(families) < max_families:
        alive = all_links & ~forbidden
        if not oracle.feasible(alive):
            break
        # Demand-limited solve: the family is the support of a flow of
        # exactly d units, not of a maximal flow (which would gobble
        # every path into one family).
        used = oracle.used_links(alive, limit=demand.rate)
        family = 0
        for index in used:
            family |= 1 << index
        if family == 0:
            break
        families.append(family)
        forbidden |= family

    if not families:
        return 0.0

    availability = [link.availability for link in net.links()]

    def all_alive_probability(mask: int) -> float:
        p = 1.0
        bits = mask
        while bits:
            low = bits & -bits
            p *= availability[low.bit_length() - 1]
            bits ^= low
        return p

    # Inclusion–exclusion over subsets of families.  The expansion
    # alternates signs, so the terms are fsum'd: cancellation under
    # naive accumulation is exactly what RR102 exists to prevent.
    terms: list[float] = []
    r = len(families)
    for size in range(1, r + 1):
        sign = 1.0 if size % 2 == 1 else -1.0
        for chosen in combinations(range(r), size):
            union = 0
            for j in chosen:
                union |= families[j]
            terms.append(sign * all_alive_probability(union))
    return prob_fsum(terms)


def reliability_bounds(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    max_cut_size: int = 3,
    max_families: int = 4,
) -> tuple[float, float]:
    """``(lower, upper)`` bracket on the reliability."""
    lower = route_lower_bound(net, demand, max_families=max_families)
    upper = cut_upper_bound(net, demand, max_cut_size=max_cut_size)
    if lower > upper + 1e-9:
        raise ReproError(
            f"bound inversion: lower {lower} > upper {upper} (library bug)"
        )
    return lower, max(lower, upper)
