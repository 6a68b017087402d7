"""Broadcast (multi-subscriber) reliability.

The paper computes reliability for one subscriber; a streaming operator
cares about a *set* of subscribers.  Two natural quantities:

* :func:`broadcast_reliability` — probability that **every** subscriber
  in a set simultaneously receives the full rate ``d``.  Feasibility of
  one configuration is a single max-flow with a virtual super-sink fed
  by each subscriber through a ``d``-capacity arc: total flow
  ``d * |T|`` iff every per-subscriber arc saturates.
* :func:`coverage_curve` — for each subscriber, the individual
  reliability (one paper-style computation each) plus the expected
  fraction of subscribers served, the metric mesh-vs-tree debates in
  §II actually argue about.

Note the simultaneity: broadcast delivery shares link capacity between
subscribers, so broadcast reliability can be far below the product of
the individual reliabilities even with independent failures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.api import compute_reliability
from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.naive import _lattice_table
from repro.core.result import ReliabilityResult
from repro.core.summation import prob_fsum
from repro.exceptions import DemandError
from repro.flow.base import MaxFlowSolver
from repro.graph.network import FlowNetwork, Node
from repro.probability.enumeration import configuration_probabilities

import numpy as np

__all__ = ["broadcast_reliability", "coverage_curve", "coverage_distribution", "CoverageReport"]

_SUPER_SINK = "__broadcast_sink__"


def _augmented(net: FlowNetwork, sinks: Sequence[Node], rate: int) -> FlowNetwork:
    """Copy of ``net`` plus a super-sink drained by every subscriber.

    The virtual arcs never fail; the configuration space stays the
    original links' (virtual arcs occupy the high indices and ride
    every query as the table filler's ``always_alive`` mask).
    """
    aug = net.copy()
    for sink in sinks:
        aug.add_link(sink, _SUPER_SINK, rate, 0.0)
    return aug


def _check_subscribers(
    net: FlowNetwork, source: Node, sinks: Sequence[Node], rate: int
) -> None:
    """Reject an empty, duplicated or unservable subscriber set."""
    if not sinks:
        raise DemandError("need at least one subscriber")
    if len(set(sinks)) != len(sinks):
        raise DemandError("duplicate subscribers")
    if rate < 1:
        raise DemandError("rate must be >= 1")
    for sink in sinks:
        if not net.has_node(sink):
            raise DemandError(f"subscriber {sink!r} is not in the network")
        if sink == source:
            raise DemandError("the source cannot subscribe to itself")


def broadcast_reliability(
    net: FlowNetwork,
    source: Node,
    sinks: Sequence[Node],
    rate: int,
    *,
    solver: str | MaxFlowSolver | None = None,
) -> ReliabilityResult:
    """P(every subscriber receives the full rate simultaneously).

    Exact, by the naive table filler's pruned Gray walk over the
    original links (the virtual super-sink arcs are failure-free and
    alive in every query).  A net whose every link is alive and still
    misses the target answers 0 after that one solve.  Subject to the
    same size budget as the naive algorithm.
    """
    _check_subscribers(net, source, sinks, rate)
    if net.has_node(_SUPER_SINK):
        raise DemandError(f"node name {_SUPER_SINK!r} is reserved")

    m = net.num_links
    aug = _augmented(net, sinks, rate)
    target = rate * len(sinks)
    oracle = FeasibilityOracle(
        aug, source, _SUPER_SINK, target, solver=solver, incremental=True
    )
    details = {"subscribers": list(sinks), "rate": rate}
    # Feasibility is monotone in the alive set: when the all-alive net
    # misses the target, every configuration does.
    if not oracle.feasible((1 << aug.num_links) - 1):
        return ReliabilityResult(
            value=0.0,
            method="broadcast",
            flow_calls=oracle.calls,
            configurations=1 << m,
            details=details,
        )
    virtual_mask = ((1 << aug.num_links) - 1) ^ ((1 << m) - 1)
    feasible = _lattice_table(oracle, m, prune=True, always_alive=virtual_mask)
    probabilities = configuration_probabilities(net)
    value = float(probabilities[feasible].sum())
    return ReliabilityResult(
        value=value,
        method="broadcast",
        flow_calls=oracle.calls,
        configurations=len(feasible),
        details=details,
    )


@dataclass(frozen=True)
class CoverageReport:
    """Per-subscriber reliabilities plus aggregate coverage."""

    subscribers: tuple[Node, ...]
    individual: tuple[float, ...]
    broadcast: float

    @property
    def expected_coverage(self) -> float:
        """Expected fraction of subscribers individually served.

        Linearity of expectation: the mean of the individual
        reliabilities (no independence needed).  Note this counts each
        subscriber served *on its own*, ignoring capacity contention —
        an upper-bound companion to :attr:`broadcast`.
        """
        return prob_fsum(self.individual) / len(self.individual)

    @property
    def weakest(self) -> tuple[Node, float]:
        """The worst-served subscriber and its reliability."""
        i = min(range(len(self.individual)), key=self.individual.__getitem__)
        return self.subscribers[i], self.individual[i]


def coverage_curve(
    net: FlowNetwork,
    source: Node,
    sinks: Sequence[Node],
    rate: int,
    *,
    method: str = "auto",
    solver: str | MaxFlowSolver | None = None,
) -> CoverageReport:
    """Individual reliability per subscriber plus the broadcast value."""
    individual = []
    for sink in sinks:
        result = compute_reliability(
            net, demand=FlowDemand(source, sink, rate), method=method, solver=solver
        )
        individual.append(float(result.value))
    broadcast = broadcast_reliability(net, source, sinks, rate, solver=solver)
    return CoverageReport(
        subscribers=tuple(sinks),
        individual=tuple(individual),
        broadcast=broadcast.value,
    )


def coverage_distribution(
    net: FlowNetwork,
    source: Node,
    sinks: Sequence[Node],
    rate: int,
    *,
    solver: str | MaxFlowSolver | None = None,
) -> tuple[float, ...]:
    """Exact PMF of the number of *individually servable* subscribers.

    Entry ``k`` is the probability that exactly ``k`` of the subscribers
    could each receive rate ``rate`` on their own (capacity contention
    between subscribers ignored — the per-subscriber view; see
    :func:`broadcast_reliability` for the simultaneous one).  The
    marginals recover each subscriber's individual reliability, and the
    mean recovers :attr:`CoverageReport.expected_coverage` times the
    subscriber count — both pinned by tests.

    Cost: one pruned Gray walk of the ``2^m`` configurations per
    subscriber (the naive table filler), with at most one bounded
    max-flow per (configuration, subscriber).
    """
    _check_subscribers(net, source, sinks, rate)
    served = np.column_stack([
        _lattice_table(
            FeasibilityOracle(net, source, sink, rate, solver=solver, incremental=True),
            net.num_links,
            prune=True,
        )
        for sink in sinks
    ])
    probabilities = configuration_probabilities(net)
    totals = served.sum(axis=1)
    pmf = np.zeros(len(sinks) + 1, dtype=np.float64)
    np.add.at(pmf, totals, probabilities)
    return tuple(float(x) for x in pmf)
