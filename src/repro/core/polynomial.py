"""The reliability polynomial.

When every link shares one failure probability ``p``, the reliability
is a polynomial in ``p`` determined purely by the network's *structure*:

    R(p) = Σ_j  N_j · (1 − p)^j · p^(m − j)

where ``N_j`` counts the feasible configurations with exactly ``j``
alive links.  One feasibility enumeration yields the whole curve — every
"reliability vs p" figure, every derivative, every crossover between
two topologies — with no further max-flow work.

The coefficient vector ``N`` is also a structural signature: ``N_m = 1``
iff the all-alive network admits the demand, the smallest ``j`` with
``N_j > 0`` is the size of the smallest feasible link set (the minimal
route budget), and ``N_j ≤ C(m, j)`` with equality from the point the
demand is unavoidable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from repro.core.demand import FlowDemand
from repro.core.naive import feasibility_table
from repro.exceptions import EstimationError
from repro.graph.network import FlowNetwork
from repro.probability.bitset import popcount_array

__all__ = ["ReliabilityPolynomial", "reliability_polynomial"]


@dataclass(frozen=True)
class ReliabilityPolynomial:
    """``R(p)`` for a network with identical link failure probability.

    ``counts[j]`` is ``N_j`` — the number of demand-feasible
    configurations with exactly ``j`` alive links.
    """

    counts: tuple[int, ...]
    num_links: int
    flow_calls: int

    def __call__(self, p: float) -> float:
        """Evaluate the reliability at failure probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise EstimationError(f"failure probability {p} outside [0, 1]")
        m = self.num_links
        total = 0.0
        for j, count in enumerate(self.counts):
            if count:
                total += count * (1.0 - p) ** j * p ** (m - j)
        return float(min(1.0, max(0.0, total)))

    def derivative(self, p: float) -> float:
        """``dR/dp`` at ``p`` (non-positive everywhere: more failure,
        less reliability)."""
        if not 0.0 < p < 1.0:
            raise EstimationError("derivative defined on the open interval (0, 1)")
        m = self.num_links
        total = 0.0
        for j, count in enumerate(self.counts):
            if not count:
                continue
            q = 1.0 - p
            term = 0.0
            if m - j > 0:
                term += (m - j) * q**j * p ** (m - j - 1)
            if j > 0:
                term -= j * q ** (j - 1) * p ** (m - j)
            total += count * term
        return float(total)

    @property
    def min_feasible_links(self) -> int | None:
        """Size of the smallest alive-set that still delivers, or None
        when even the full network cannot."""
        for j, count in enumerate(self.counts):
            if count:
                return j
        return None

    @property
    def feasible_configurations(self) -> int:
        """Total count of feasible configurations (= Σ N_j)."""
        return sum(self.counts)

    def coefficient_bounds_hold(self) -> bool:
        """Structural sanity: ``N_j <= C(m, j)`` for every ``j``."""
        return all(
            count <= comb(self.num_links, j) for j, count in enumerate(self.counts)
        )

    def curve(self, probabilities: list[float]) -> list[float]:
        """Evaluate at many points (the plot-series helper)."""
        return [self(p) for p in probabilities]


def reliability_polynomial(
    net: FlowNetwork,
    demand: FlowDemand,
) -> ReliabilityPolynomial:
    """Compute the coefficient counts by one feasibility enumeration.

    The per-link failure probabilities stored on ``net`` are ignored —
    the polynomial is a function of the shared ``p`` supplied at
    evaluation time.  Subject to the naive method's size budget.
    """
    table, oracle = feasibility_table(net, demand)
    m = net.num_links
    counts = np.zeros(m + 1, dtype=np.int64)
    popcounts = popcount_array(m)
    np.add.at(counts, popcounts[table.nonzero()[0]], 1)
    return ReliabilityPolynomial(
        counts=tuple(int(c) for c in counts),
        num_links=m,
        flow_calls=oracle.calls,
    )
