"""Monte-Carlo reliability estimation.

Samples failure configurations (vectorized, see
:mod:`repro.probability.sampling`), checks each with the feasibility
oracle, and reports the hit ratio with a Wilson score confidence
interval.  Distinct sampled masks are deduplicated through a cache, so
the number of max-flow solves is bounded by the number of *distinct*
configurations seen — on small networks the estimator converges to the
exact algorithms at a fraction of their cost, which is experiment E9's
cross-validation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.result import EstimateResult
from repro.exceptions import EstimationError
from repro.graph.generators import as_rng
from repro.graph.network import FlowNetwork
from repro.obs.progress import progress_ticker
from repro.obs.recorder import MC_SAMPLES, count, span
from repro.probability.sampling import sample_alive_masks

__all__ = ["montecarlo_reliability", "wilson_interval", "z_quantile"]

# Two-sided z quantiles for the confidence levels we support without
# scipy at runtime.
_Z_TABLE = {
    0.80: 1.2815515655446004,
    0.90: 1.6448536269514722,
    0.95: 1.959963984540054,
    0.98: 2.3263478740408408,
    0.99: 2.5758293035489004,
}


def z_quantile(confidence: float) -> float:
    """Two-sided normal quantile for a supported confidence level.

    The shared lookup behind every normal-theory interval in the
    estimator tier (Wilson here, the rare-event intervals in
    :mod:`repro.core.rare`); raising on unsupported levels keeps the
    no-scipy promise honest instead of silently approximating.
    """
    try:
        return _Z_TABLE[round(confidence, 2)]
    except KeyError as exc:
        raise EstimationError(
            f"unsupported confidence {confidence}; choose one of {sorted(_Z_TABLE)}"
        ) from exc


def wilson_interval(hits: int, n: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well-behaved at 0 and 1 (unlike the normal approximation), which
    matters because streaming networks often have reliability ~1.
    """
    if n <= 0:
        raise EstimationError("need at least one sample")
    if not 0 <= hits <= n:
        raise EstimationError(f"hits {hits} outside [0, {n}]")
    z = z_quantile(confidence)
    phat = hits / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    margin = (z / denom) * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return (max(0.0, center - margin), min(1.0, center + margin))


def montecarlo_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    num_samples: int = 10_000,
    confidence: float = 0.95,
    seed: int | None = 0,
    batch_size: int = 4096,
) -> EstimateResult:
    """Estimate the reliability from ``num_samples`` random configurations.

    Sampling is batched; each distinct alive-mask is solved once and
    cached.  Deterministic for a fixed ``seed``.
    """
    demand.validate_against(net)
    if num_samples < 1:
        raise EstimationError("num_samples must be positive")
    if batch_size < 1:
        raise EstimationError("batch_size must be positive")
    rng = as_rng(seed)
    oracle = FeasibilityOracle(net, demand.source, demand.sink, demand.rate)
    cache: dict[int, bool] = {}
    hits = 0
    drawn = 0
    with span("montecarlo.sample", samples=num_samples, batch_size=batch_size):
        with progress_ticker("montecarlo.samples", total=num_samples) as ticker:
            while drawn < num_samples:
                batch = min(batch_size, num_samples - drawn)
                masks = sample_alive_masks(net, batch, rng=rng)
                # One solve per *distinct* mask per batch: dedup first,
                # then scatter the verdicts back over the samples.  The
                # hit count (hence the Wilson interval) is bit-identical
                # to the one-solve-per-sample loop for a fixed seed.
                distinct, inverse = np.unique(masks, return_inverse=True)
                verdicts = np.empty(distinct.shape[0], dtype=bool)
                for idx, mask_np in enumerate(distinct):
                    mask = int(mask_np)
                    verdict = cache.get(mask)
                    if verdict is None:
                        verdict = oracle.feasible(mask)
                        cache[mask] = verdict
                    verdicts[idx] = verdict
                hits += int(np.count_nonzero(verdicts[inverse]))
                drawn += batch
                ticker.tick(batch)
        count(MC_SAMPLES, drawn)
    low, high = wilson_interval(hits, num_samples, confidence)
    return EstimateResult(
        value=hits / num_samples,
        low=low,
        high=high,
        confidence=confidence,
        num_samples=num_samples,
        hits=hits,
        details={
            "distinct_configurations": len(cache),
            "flow_calls": oracle.calls,
        },
    )
