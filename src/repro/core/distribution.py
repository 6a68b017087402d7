"""The full distribution of the deliverable rate.

Reliability is the tail probability ``P(maxflow >= d)`` of the random
variable *max-flow of the surviving subgraph*.  This module computes
that variable's entire probability mass function (and hence every
reliability value at once, plus the expected deliverable bit-rate) —
the natural generalization a streaming operator actually wants:
"what rate can I promise at 99%?".

``flow_value_distribution`` enumerates configurations exactly (with a
monotone-aware scan: the max-flow value is monotone in the alive set,
which bounds each subset's value by its supersets' minimum and lets
whole branches collapse); ``sampled_flow_value_distribution`` is the
Monte-Carlo counterpart for larger networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.summation import prob_fsum
from repro.exceptions import EstimationError
from repro.graph.generators import as_rng
from repro.graph.network import FlowNetwork, Node
from repro.probability.bitset import popcount_array
from repro.probability.enumeration import check_enumerable, configuration_probabilities
from repro.probability.sampling import sample_alive_masks

__all__ = [
    "FlowValueDistribution",
    "flow_value_distribution",
    "sampled_flow_value_distribution",
]


@dataclass(frozen=True)
class FlowValueDistribution:
    """PMF of the surviving max-flow value.

    ``pmf[v]`` is ``P(maxflow == v)`` for ``v = 0 .. len(pmf) - 1``.
    """

    pmf: tuple[float, ...]
    exact: bool
    flow_calls: int

    def reliability(self, demand: int) -> float:
        """``P(maxflow >= demand)`` — the paper's quantity, any ``d``."""
        if demand <= 0:
            return 1.0
        return prob_fsum(self.pmf[demand:])

    @property
    def expected_value(self) -> float:
        """Expected deliverable bit-rate ``E[maxflow]``."""
        return prob_fsum(v * p for v, p in enumerate(self.pmf))

    def quantile_rate(self, confidence: float) -> int:
        """The largest rate deliverable with probability >= ``confidence``.

        The operator's question: "what bit-rate can I promise at 99%?"
        Returns 0 when even rate 1 misses the target.
        """
        if not 0.0 < confidence <= 1.0:
            raise EstimationError("confidence must be in (0, 1]")
        rate = 0
        for v in range(1, len(self.pmf)):
            if self.reliability(v) >= confidence:
                rate = v
            else:
                break
        return rate

    def __len__(self) -> int:
        return len(self.pmf)


def flow_value_distribution(
    net: FlowNetwork,
    source: Node,
    sink: Node,
) -> FlowValueDistribution:
    """Exact PMF of the surviving max-flow value.

    Enumerates all ``2^|E|`` configurations, scanning by decreasing
    popcount; each configuration's value is capped by the minimum over
    its one-link supersets (monotonicity), so the per-configuration
    solve can stop at that cap — and is skipped entirely when the cap
    is 0.
    """
    m = net.num_links
    check_enumerable(m, limit=22)
    oracle = FeasibilityOracle(net, source, sink, 0)
    size = 1 << m
    values = np.zeros(size, dtype=np.int64)
    counts = popcount_array(m)
    order = np.argsort(-counts.astype(np.int16), kind="stable")
    full = size - 1
    for mask_np in order:
        mask = int(mask_np)
        if mask == full:
            values[mask] = oracle.flow_value(mask)
            continue
        cap = None
        bits = ~mask & full
        while bits:
            low = bits & -bits
            sup_value = values[mask | low]
            if cap is None or sup_value < cap:
                cap = sup_value
            bits ^= low
        if cap == 0:
            values[mask] = 0
            continue
        values[mask] = oracle.flow_value(mask, limit=int(cap))
    probabilities = configuration_probabilities(net)
    max_value = int(values.max())
    pmf = np.zeros(max_value + 1, dtype=np.float64)
    np.add.at(pmf, values, probabilities)
    return FlowValueDistribution(
        pmf=tuple(float(p) for p in pmf),
        exact=True,
        flow_calls=oracle.calls,
    )


def sampled_flow_value_distribution(
    net: FlowNetwork,
    source: Node,
    sink: Node,
    *,
    num_samples: int = 10_000,
    seed: int | np.random.Generator | None = 0,
) -> FlowValueDistribution:
    """Monte-Carlo PMF of the surviving max-flow value.

    Distinct sampled configurations are solved once (cached), so the
    cost is bounded by the distinct-mask count, not the sample count.
    """
    if num_samples < 1:
        raise EstimationError("num_samples must be positive")
    rng = as_rng(seed)
    oracle = FeasibilityOracle(net, source, sink, 0)
    masks = sample_alive_masks(net, num_samples, rng=rng)
    cache: dict[int, int] = {}
    tally: dict[int, int] = {}
    for mask_np in masks:  # repro: noqa[RR112] one max-flow solve per sample
        mask = int(mask_np)
        value = cache.get(mask)
        if value is None:
            value = oracle.flow_value(mask)
            cache[mask] = value
        tally[value] = tally.get(value, 0) + 1
    max_value = max(tally) if tally else 0
    pmf = [tally.get(v, 0) / num_samples for v in range(max_value + 1)]
    return FlowValueDistribution(
        pmf=tuple(pmf),
        exact=False,
        flow_calls=oracle.calls,
    )
