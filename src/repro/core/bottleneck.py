"""The paper's headline algorithm (§III + §IV).

``bottleneck_reliability`` computes the exact flow reliability of a
network with a set of α-bottleneck links in
``O(2^{α|E|} |V||E|)`` time (for constant ``k`` and ``d``):

1. find (or verify) the bottleneck cut and split into ``G_s`` / ``G_t``
   (:mod:`repro.graph.cuts`, :mod:`repro.graph.transforms`);
2. enumerate the assignment set ``D`` (§III-B,
   :mod:`repro.core.assignments`);
3. describe both sides' realization masks (§III-C, the paper's
   ``|D| · 2^{|E_side|}``-entry arrays) as cube covers
   (:mod:`repro.core.arrays`), settled by the solver-free
   cut-certificate kernel (:mod:`repro.core.certificate`) or, for a
   side past its guards, by side-local max-flow solves at the
   configurations the factoring names — the side decides, no option
   does;
4. for each of the ``2^k`` bottleneck survival patterns ``E'``, weigh
   the ACCUMULATION result over the supported class by the pattern
   probability ``p_{E'}`` (Eq. 2) and sum (Eq. 3, one pair sum of
   :mod:`repro.core.accumulate`).

Steps 2–4 are one pipeline, :func:`repro.core.sweep.split_reliability`,
which evaluates Eq. 2/3 for a whole grid of failure vectors over one
pair of covers; ``bottleneck_reliability`` is its one-row call and a
probability sweep its many-row call.  The split of step 1 is the
one-cut case of :func:`repro.graph.transforms.split_on_cuts`, and the
same pipeline runs the multi-cut chain
(:func:`repro.core.chain.chain_reliability`), so a one-cut chain is
this algorithm bit for bit.

Model note: the assignment machinery routes every sub-stream *forward*
across the cut.  For directed cut links (all the library's generators)
this is exact, and so it is on any cut of at most two links: split into
unit paths, a flow crosses each cut link at most once, so with two cut
links neither carries net flow backwards.  From three links on, an
undirected cut link admits networks where flow crosses the cut
backwards to shortcut through the far side, which the assignments do
not count.  Such a cut is refused
(:func:`repro.graph.transforms.check_forward_cut`): a given one raises
:class:`ReproValueError`, the cut search skips it, and ``auto`` falls
back to a whole-graph engine when no other cut is admissible.
"""

from __future__ import annotations

import operator
from typing import Sequence

import numpy as np

from repro.core.demand import FlowDemand
from repro.core.result import ReliabilityResult
from repro.core.sweep import ArrayCache, bottleneck_split, point_reliability
from repro.exceptions import ReproValueError
from repro.graph.network import FlowNetwork
from repro.probability.enumeration import probability_grid

__all__ = ["bottleneck_reliability", "pattern_probabilities", "pattern_probability"]


def _validate_cut_indices(net: FlowNetwork, cut: Sequence[int]) -> None:
    """Eq. 2 inputs must name real links — reject instead of mis-indexing."""
    for index in cut:
        try:
            i = operator.index(index)
        except TypeError as exc:
            raise ReproValueError(
                f"cut link index {index!r} is not an integer"
            ) from exc
        if not 0 <= i < net.num_links:
            raise ReproValueError(
                f"cut link index {i} out of range for a network with "
                f"{net.num_links} links"
            )


def pattern_probabilities(net: FlowNetwork, cut: Sequence[int]) -> np.ndarray:
    """Eq. (2) for all ``2^k`` survival patterns at once.

    Entry ``pattern`` is the probability that exactly the cut links in
    ``pattern`` survive (bit ``i`` refers to ``cut[i]``): the one-row
    :func:`repro.probability.enumeration.probability_grid` of the cut
    links' failure probabilities, multiplied left to right in cut order.
    The table is memoised and **read-only**.
    """
    _validate_cut_indices(net, cut)
    failures = [net.link(index).failure_probability for index in cut]
    return probability_grid(np.array(failures, dtype=np.float64).reshape(1, len(cut)))[0]


def pattern_probability(net: FlowNetwork, cut: Sequence[int], pattern: int) -> float:
    """Eq. (2): probability that exactly the cut links in ``pattern``
    survive (bit ``i`` of ``pattern`` refers to ``cut[i]``) — one entry
    of :func:`pattern_probabilities`."""
    table = pattern_probabilities(net, cut)
    if not 0 <= pattern < len(table):
        raise ReproValueError(
            f"pattern {pattern} out of range for a {len(cut)}-link cut "
            f"(need 0 <= pattern < 2^{len(cut)})"
        )
    return float(table[pattern])


def bottleneck_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    cut: Sequence[int] | None = None,
    max_cut_size: int = 3,
    cache: ArrayCache | None = None,
) -> ReliabilityResult:
    """Exact reliability via the bottleneck decomposition.

    The one-point case of the sweep pipeline: one cut search
    (:func:`repro.core.sweep.bottleneck_split`), then
    :func:`repro.core.sweep.split_reliability` on the one row of
    ``net``'s own failure probabilities.  Every kernel inside is picked
    by the input; ``flow_calls`` is 0 unless a side is past the
    cut-certificate guards.

    Parameters
    ----------
    net, demand:
        The problem instance.
    cut:
        Bottleneck link indices.  When omitted the best admissible cut
        of size up to ``max_cut_size`` is discovered automatically;
        when given it is verified (minimality + two components).
    cache:
        A :class:`repro.core.sweep.ArrayCache`.  When given, both side
        covers are looked up in the content-addressed cache: a warm
        call builds nothing and reports
        ``flow_calls == 0``.  The value and the other ``details`` are
        unchanged; the cache traffic of this call is reported under
        ``details["array_cache"]``.  A discovered cut is memoized there
        too, so a later call on the same topology skips the cut search.

    Raises
    ------
    DecompositionError
        If no admissible bottleneck cut exists (or the given one fails
        verification).
    """
    demand.validate_against(net)
    split = bottleneck_split(net, demand, cut, max_cut_size, cache=cache)
    return point_reliability(net, demand, split, cache=cache)
