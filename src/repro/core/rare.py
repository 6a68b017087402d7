"""Rare-event reliability estimation: permutation MC and splitting.

Crude Monte-Carlo (:mod:`repro.core.montecarlo`) needs ``~1/U`` samples
to see a single failure, so at per-link availability ``0.99999`` —
unreliability ``U ~ 1e-9``, the regime CDN-grade SLAs quote — it is
useless.  This module grows the estimator tier into that regime with
two variance-reduction methods whose relative error stays bounded as
``U -> 0``:

**Permutation / conditional Monte-Carlo** (the destruction-spectrum
estimator).  Sample a random *order* in which the links fail, find the
number of kills after which the demand first becomes infeasible (the
*critical number* ``B``), then integrate the failure probabilities out
analytically: conditioned on the order, the network is down exactly
when at least ``B`` links failed, so the sample contributes

``W = sum_{k >= B} C(m, k) * prod_{j < k} p_{pi(j)} * prod_{j >= k} (1 - p_{pi(j)})``

(the first ``k`` links of the order failed, the rest survived).  For a
uniform random permutation ``E[W]`` equals the unreliability *exactly*,
for heterogeneous link probabilities included; with equal link
probabilities ``W`` collapses to the Poisson-binomial failure tail
``P(#failed >= B)`` — the machinery of
:func:`repro.core.stratified.poisson_binomial`.  Randomness only enters
through the combinatorial order, so the estimator's variance is a
property of the topology, not of ``p``: the relative error is bounded
uniformly in the availability (Botev, L'Ecuyer & Tuffin 2016 extend
exactly this construction to flow demands; Karger's FPRAS supplies the
``epsilon``-approximation framing).

**Fixed-effort multilevel splitting** for demand-threshold events.
Embed the static model in the standard destruction process: link ``i``
fails by time ``t`` iff ``E_i < lambda_i * t`` with ``E_i ~ Exp(1)``
and ``lambda_i = -ln(1 - p_i)``, so ``t = 1`` reproduces the target
probabilities and *down at t* is monotone in ``t``.  The rare event
``{down at 1}`` is reached through a decreasing time ladder
``t_0 > t_1 > ... > 1``: at each level the surviving trajectories are
bootstrapped back to the fixed population size and *exactly* refreshed
from their conditional law given the level's failed set (truncated
exponentials — pure vectorized inverse-CDF, no MCMC), and the product
of the per-level conditional probabilities estimates ``U``.

Critical numbers come from certificates learned along the way, not
from one max-flow query per kill.  A feasible query yields a flow
*support*: no prefix that spares its links can fail, so it bounds ``B``
from below.  An infeasible query yields a *cut*: a prefix that kills
enough of it must fail.  A batch checks the bounds in numpy, and only
the orders they leave open query the oracle, each at its lower bound
(one :meth:`~repro.core.feasibility.FeasibilityOracle.certify`), learning
one more certificate per query.  Every critical number equals the
one-kill-at-a-time walk's, with at most the walk's queries per order.

Vectorization contract: all inner loops are array-at-a-time numpy —
permutation batches are drawn as ``argsort`` of exponential matrices of
shape ``(batch, m)``, spectrum conditioning, certificate checks and
splitting refreshes are batched, and scalar Python only touches the
orders the certificates leave open.  The solver decides the path: every
estimator repairs flow when the solver honours the warm-start contract
and solves cold otherwise (push–relabel); there is no option to
choose.
Lint rule RR114 enforces the no-scalar-draws discipline on this module.

Replayability: every estimate derives its random streams from one root
:class:`numpy.random.SeedSequence` through *named* spawned children
(the hierarchical-seeding discipline of the nengo ``seed_network``
exemplar), records the root entropy in ``details["seed"]``, and uses a
deterministic batch schedule — same seed + inputs reproduce the value
and details bit-for-bit, which the property suite and the run-ledger
round-trip pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core import certificate
from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.montecarlo import z_quantile
from repro.core.result import EstimateResult
from repro.core.stratified import poisson_binomial, validate_probabilities
from repro.core.summation import KahanSum, fsum
from repro.exceptions import EstimationError
from repro.flow.base import MaxFlowSolver
from repro.graph.network import FlowNetwork
from repro.obs.progress import progress_ticker
from repro.obs.recorder import (
    MC_SAMPLES,
    SAMPLES_VECTORIZED,
    SPECTRUM_CERTIFIED,
    SPECTRUM_SOLVES,
    count,
    span,
)
from repro.probability.bitset import pack_bitplanes

__all__ = [
    "DestructionSpectrum",
    "destruction_spectrum",
    "permutation_montecarlo_reliability",
    "rare_reliability",
    "sample_failure_orders",
    "spawn_streams",
    "splitting_reliability",
]

#: Named child streams spawned (in this order) from the root seed —
#: the stable vocabulary that makes every estimate bit-replayable.
STREAM_NAMES = (
    "spectrum.permutations",
    "split.population",
    "split.resample",
    "split.refresh",
)

#: Bitmask-packing width limit shared with the crude sampler.
_MAX_LINKS = 63

#: Minimum permutations drawn before the target-relative-error stopping
#: rule is consulted (a tiny pilot keeps the variance estimate honest).
_MIN_STOP_SAMPLES = 256


def spawn_streams(
    seed: int | np.random.SeedSequence | None,
) -> tuple[dict[str, np.random.Generator], int]:
    """Named, hierarchically seeded random streams for one estimate.

    One root :class:`~numpy.random.SeedSequence` spawns a child per
    :data:`STREAM_NAMES` entry, in that fixed order, so adding draws to
    one phase never perturbs another — the property that makes partial
    replays meaningful.  Returns the streams and the root entropy to
    record; ``spawn_streams(entropy)`` reproduces the streams exactly.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif seed is None:
        root = np.random.SeedSequence()
    else:
        root = np.random.SeedSequence(int(seed))
    children = root.spawn(len(STREAM_NAMES))
    streams = {
        name: np.random.default_rng(child)
        for name, child in zip(STREAM_NAMES, children)
    }
    entropy = root.entropy
    if not isinstance(entropy, int):  # pragma: no cover - entropy is int here
        raise EstimationError("seed entropy must be an integer for replay")
    return streams, entropy


def sample_failure_orders(
    num_links: int, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """A batch of uniform random link-failure orders, shape ``(batch, m)``.

    Drawn array-at-a-time: one exponential matrix, one ``argsort`` —
    the classic construction (i.i.d. exponential clocks; sorting the
    clocks yields a uniform permutation of the links).
    """
    if num_links < 1:
        raise EstimationError("need at least one link to order")
    if batch < 1:
        raise EstimationError("batch must be positive")
    clocks = rng.standard_exponential((batch, num_links))
    return np.argsort(clocks, axis=1, kind="stable")


#: Failure orders settled together: the chunk's certificate checks are
#: ``(rows x certificates)`` arrays, so this bounds their memory.
_CHUNK_ROWS = 256

#: ``uint8`` entries per support-check block (``rows x supports x m``),
#: 256 KiB of temporaries.
_BLOCK_ENTRIES = 1 << 18


class _Certificates:
    """The supports and cuts one estimate call has learned.

    A *support* (links carrying a flow of value ``>= d``) keeps every
    prefix that kills none of its links feasible, so an order's
    critical number is at least the step at which it first kills one of
    them.  A *cut* (links crossing out of a source shore) stores each
    link's capacity clipped to ``d``; a prefix whose alive part of some
    cut sums below ``d`` is infeasible.  Cuts are learned only while
    ``m * d < 2^53``, so their float64 sums of clipped integers are
    exact.  Each kind stops growing at
    :data:`repro.core.certificate.MAX_CERTIFICATE_CUTS`; rows then
    settle by queries alone, with the same values.
    """

    def __init__(self, net: FlowNetwork, demand: int) -> None:
        m = net.num_links
        self.demand = demand
        self.limit = certificate.MAX_CERTIFICATE_CUTS
        self.clipped = np.array(
            [min(link.capacity, demand) for link in net.links()], dtype=np.float64
        )
        self.learn_cuts = m * demand < 1 << 53
        self.supports = np.zeros((0, m), dtype=bool)
        self.cuts = np.zeros((0, m), dtype=np.float64)

    def add(self, feasible: bool, links: tuple[int, ...]) -> None:
        if feasible:
            if len(self.supports) < self.limit:
                row = np.zeros((1, self.supports.shape[1]), dtype=bool)
                row[0, list(links)] = True
                self.supports = np.concatenate([self.supports, row])
        elif self.learn_cuts and len(self.cuts) < self.limit:
            row = np.zeros((1, self.cuts.shape[1]))
            row[0, list(links)] = self.clipped[list(links)]
            self.cuts = np.concatenate([self.cuts, row])

    def raise_bounds(self, pos: np.ndarray, lo: np.ndarray, since: int) -> None:
        """Raise ``lo`` in place to the first kill of each support from
        index ``since`` on (``m + 1`` for a support the order never kills)."""
        m = pos.shape[1]
        block = max(1, _BLOCK_ENTRIES // pos.size)
        for start in range(since, len(self.supports), block):
            part = self.supports[start : start + block]
            first = np.where(part[None, :, :], pos[:, None, :], m + 1).min(axis=2)
            np.maximum(lo, first.max(axis=1), out=lo)

    def cut_at(self, pos: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Rows whose prefix ``lo`` leaves some cut below the demand."""
        if not len(self.cuts):
            return np.zeros(pos.shape[0], dtype=bool)
        alive = (pos > lo[:, None]).astype(np.float64)
        return np.any(alive @ self.cuts.T < self.demand, axis=1)


def _critical_numbers(
    oracle: FeasibilityOracle, orders: np.ndarray, certificates: _Certificates
) -> tuple[np.ndarray, np.ndarray]:
    """Critical number per failure order: the count of kills at which
    the demand first becomes infeasible (``m + 1`` = never), and the
    feasibility queries each order spent.

    Every row starts from the bound ``lo = 1`` raised by the learned
    supports, and is settled with no query when a learned cut already
    fails at prefix ``lo``.  A row the certificates leave open queries
    the oracle at prefix ``lo`` (one :meth:`FeasibilityOracle.certify`):
    an infeasible answer settles ``B = lo`` and teaches a cut; a
    feasible one teaches a support, which lifts ``lo`` past the queried
    prefix, and the row checks again against everything learned since
    its chunk was checked.  Queries land on distinct prefixes at most
    ``B``, so a row never makes more than the ``min(B, m)`` queries of
    the one-kill-at-a-time walk, and every value equals the walk's.
    """
    batch, m = orders.shape
    full_mask = (1 << m) - 1
    steps = np.arange(1, m + 1, dtype=np.uint8)
    criticals = np.empty(batch, dtype=np.int64)
    queries = np.zeros(batch, dtype=np.int64)
    for start in range(0, batch, _CHUNK_ROWS):
        chunk = orders[start : start + _CHUNK_ROWS]
        rows = chunk.shape[0]
        # pos[b, e]: the step (from 1) at which order b kills link e.
        pos = np.empty((rows, m), dtype=np.uint8)
        pos[np.arange(rows)[:, None], chunk] = steps
        lo = np.ones(rows, dtype=np.int64)
        certificates.raise_bounds(pos, lo, 0)
        settled = certificates.cut_at(pos, lo)
        checked = len(certificates.supports)
        for row in np.flatnonzero(~settled).tolist():
            row_pos = pos[row : row + 1]
            row_lo = lo[row : row + 1]
            order = chunk[row].tolist()  # scalar loop: stay off numpy scalars
            while True:
                certificates.raise_bounds(row_pos, row_lo, checked)
                prefix = int(row_lo[0])
                if prefix > m or certificates.cut_at(row_pos, row_lo)[0]:
                    break
                dead = 0
                for link in order[:prefix]:
                    dead |= 1 << link
                queries[start + row] += 1
                feasible, links = oracle.certify(full_mask & ~dead)
                certificates.add(feasible, links)
                if not feasible:
                    break
                row_lo[0] = min((int(row_pos[0, e]) for e in links), default=m + 1)
        criticals[start : start + rows] = lo
    return criticals, queries


def _log_binomials(m: int) -> np.ndarray:
    """``log C(m, k)`` for ``k = 0..m`` from exact integer binomials."""
    return np.log(np.array([float(math.comb(m, k)) for k in range(m + 1)]))


def _spectrum_weights(
    orders: np.ndarray,
    criticals: np.ndarray,
    probs: np.ndarray,
    *,
    failure_tail: np.ndarray | None,
    log_binom: np.ndarray,
) -> np.ndarray:
    """Per-order conditional unreliability weights, vectorized.

    With a precomputed Poisson-binomial ``failure_tail`` (equal link
    probabilities) the weight is a table lookup ``P(#failed >= B)``;
    otherwise the general order-dependent product formula runs as
    batched log-space cumulative sums.  Links with ``p = 0`` or
    ``p = 1`` contribute ``-inf`` log terms that zero exactly the
    impossible prefixes — the formula stays correct without special
    cases.
    """
    m = orders.shape[1]
    if failure_tail is not None:
        return failure_tail[np.minimum(criticals, m + 1)]
    with np.errstate(divide="ignore"):
        log_p = np.log(probs)
        log_q = np.log1p(-probs)
    lp = log_p[orders]
    lq = log_q[orders]
    batch = orders.shape[0]
    prefix = np.zeros((batch, m + 1))
    prefix[:, 1:] = np.cumsum(lp, axis=1)
    suffix = np.zeros((batch, m + 1))
    suffix[:, :-1] = np.cumsum(lq[:, ::-1], axis=1)[:, ::-1]
    log_terms = log_binom[None, :] + prefix + suffix
    terms = np.exp(log_terms)
    include = np.arange(m + 1)[None, :] >= criticals[:, None]
    return np.sum(np.where(include, terms, 0.0), axis=1)


def _failure_tail(probs: np.ndarray) -> np.ndarray | None:
    """``tail[b] = P(#failed >= b)`` via the Poisson-binomial DP, or
    ``None`` when the links are not identically distributed.

    ``tail`` has ``m + 2`` entries so the ``B = m + 1`` (never fails)
    sentinel indexes an exact zero.
    """
    if probs.size == 0 or not bool(np.all(probs == probs[0])):
        return None
    alive_dist = poisson_binomial(probs)
    m = probs.size
    # P(#failed >= b) = P(#alive <= m - b); cumulative over the alive DP.
    alive_cdf = np.cumsum(alive_dist)
    tail = np.zeros(m + 2)
    tail[: m + 1] = alive_cdf[::-1]
    return tail


@dataclass(frozen=True)
class DestructionSpectrum:
    """The sampled destruction spectrum of one (network, demand) pair.

    ``counts[b]`` is the number of sampled failure orders whose critical
    number was ``b`` (index ``m + 1`` = the demand stayed feasible with
    every link dead, possible only for degenerate demands).
    """

    counts: np.ndarray
    num_permutations: int
    queries: int
    flow_calls: int
    certified: int

    def pmf(self) -> np.ndarray:
        """Empirical spectrum ``f(b) = P(B = b)``; sums to 1."""
        return self.counts / float(self.num_permutations)

    def cdf(self) -> np.ndarray:
        """Empirical cumulative spectrum ``G(b) = P(B <= b)``."""
        return np.cumsum(self.pmf())


def destruction_spectrum(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    num_permutations: int = 1000,
    seed: int | np.random.SeedSequence | None = 0,
    solver: str | MaxFlowSolver | None = None,
    batch_size: int = 2048,
) -> DestructionSpectrum:
    """Sample the destruction spectrum (critical-number distribution).

    The combinatorial half of the permutation estimator, exposed for
    inspection and tests; probabilities never enter, so one spectrum
    serves every availability point of the same topology.
    """
    demand.validate_against(net)
    m = net.num_links
    _require_estimable(m, num_permutations, batch_size)
    streams, _ = spawn_streams(seed)
    rng = streams["spectrum.permutations"]
    oracle = _make_oracle(net, demand, solver)
    certificates = _Certificates(net, demand.rate)
    counts = np.zeros(m + 2, dtype=np.int64)
    queries = 0
    certified = 0
    drawn = 0
    with span("rare.spectrum", permutations=num_permutations, batch_size=batch_size):
        while drawn < num_permutations:
            batch = min(batch_size, num_permutations - drawn)
            orders = sample_failure_orders(m, batch, rng)
            count(SAMPLES_VECTORIZED, batch)
            criticals, row_queries = _critical_numbers(oracle, orders, certificates)
            counts += np.bincount(criticals, minlength=m + 2)
            queries += int(row_queries.sum())
            certified += int(np.count_nonzero(row_queries == 0))
            drawn += batch
        count(SPECTRUM_SOLVES, queries)
        count(SPECTRUM_CERTIFIED, certified)
        count(MC_SAMPLES, drawn)
    return DestructionSpectrum(
        counts=counts,
        num_permutations=num_permutations,
        queries=queries,
        flow_calls=oracle.calls,
        certified=certified,
    )


def _require_estimable(m: int, num_samples: int, batch_size: int) -> None:
    if m < 1:
        raise EstimationError("network has no links to fail")
    if m > _MAX_LINKS:
        raise EstimationError(
            f"rare-event estimation supports at most {_MAX_LINKS} links, got {m}"
        )
    if num_samples < 1:
        raise EstimationError("sample budget must be positive")
    if batch_size < 1:
        raise EstimationError("batch_size must be positive")


def _make_oracle(
    net: FlowNetwork, demand: FlowDemand, solver: str | MaxFlowSolver | None
) -> FeasibilityOracle:
    return FeasibilityOracle(
        net, demand.source, demand.sink, demand.rate, solver=solver, incremental=True
    )


def permutation_montecarlo_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    num_samples: int = 10_000,
    target_relative_error: float | None = None,
    confidence: float = 0.95,
    seed: int | np.random.SeedSequence | None = 0,
    solver: str | MaxFlowSolver | None = None,
    batch_size: int = 2048,
) -> EstimateResult:
    """Permutation/conditional Monte-Carlo estimate of the reliability.

    ``num_samples`` is the permutation budget; with
    ``target_relative_error`` set, sampling stops at the end of the
    first batch whose estimated relative error (at ``confidence``) on
    the *unreliability* meets the target, budget permitting.  The
    estimate is unbiased for heterogeneous link probabilities and its
    relative error is bounded in the availability — the five-nines
    workhorse.  Deterministic per seed: the batch schedule, stream
    derivation and compensated accumulation order are all fixed.
    """
    demand.validate_against(net)
    m = net.num_links
    _require_estimable(m, num_samples, batch_size)
    if target_relative_error is not None and not target_relative_error > 0.0:
        raise EstimationError("target_relative_error must be positive")
    z = z_quantile(confidence)
    probs = validate_probabilities(net.failure_probabilities())
    streams, entropy = spawn_streams(seed)
    rng = streams["spectrum.permutations"]
    oracle = _make_oracle(net, demand, solver)
    full_mask = (1 << m) - 1

    if not oracle.feasible(full_mask):
        # The all-alive network already misses the demand: reliability
        # is exactly 0, no sampling needed.
        return EstimateResult(
            value=0.0,
            low=0.0,
            high=0.0,
            confidence=confidence,
            num_samples=0,
            hits=0,
            method="rare-permutation",
            details={
                "variant": "permutation",
                "unreliability": 1.0,
                "degenerate": "infeasible-at-full-capacity",
                "flow_calls": oracle.calls,
                "seed": entropy,
                "streams": list(STREAM_NAMES),
            },
        )

    failure_tail = _failure_tail(probs)
    log_binom = _log_binomials(m)
    weight_sum = KahanSum()
    weight_sq_sum = KahanSum()
    certificates = _Certificates(net, demand.rate)
    counts = np.zeros(m + 2, dtype=np.int64)
    queries = 0
    certified = 0
    drawn = 0
    batches = 0
    stopped_early = False
    with span("rare.spectrum", permutations=num_samples, batch_size=batch_size):
        with progress_ticker("rare.permutations", total=num_samples) as ticker:
            while drawn < num_samples:
                batch = min(batch_size, num_samples - drawn)
                orders = sample_failure_orders(m, batch, rng)
                count(SAMPLES_VECTORIZED, batch)
                criticals, row_queries = _critical_numbers(
                    oracle, orders, certificates
                )
                weights = _spectrum_weights(
                    orders,
                    criticals,
                    probs,
                    failure_tail=failure_tail,
                    log_binom=log_binom,
                )
                weight_sum.add(fsum(weights.tolist()))
                weight_sq_sum.add(fsum((weights * weights).tolist()))
                counts += np.bincount(criticals, minlength=m + 2)
                queries += int(row_queries.sum())
                certified += int(np.count_nonzero(row_queries == 0))
                drawn += batch
                batches += 1
                ticker.tick(batch)
                if (
                    target_relative_error is not None
                    and drawn >= _MIN_STOP_SAMPLES
                    and _relative_error(weight_sum, weight_sq_sum, drawn, z)
                    <= target_relative_error
                ):
                    stopped_early = True
                    break
        count(SPECTRUM_SOLVES, queries)
        count(SPECTRUM_CERTIFIED, certified)
        count(MC_SAMPLES, drawn)

    unreliability = weight_sum.value / drawn
    std_error = _std_error(weight_sum, weight_sq_sum, drawn)
    relative_error = (
        z * std_error / unreliability if unreliability > 0.0 else math.inf
    )
    low_u = max(0.0, unreliability - z * std_error)
    high_u = min(1.0, unreliability + z * std_error)
    value = min(1.0, max(0.0, 1.0 - unreliability))
    observed = counts[: m + 2][counts > 0]
    nonzero = np.nonzero(counts)[0]
    return EstimateResult(
        value=value,
        low=min(1.0, max(0.0, 1.0 - high_u)),
        high=min(1.0, max(0.0, 1.0 - low_u)),
        confidence=confidence,
        num_samples=drawn,
        hits=int(round(value * drawn)),
        method="rare-permutation",
        details={
            "variant": "permutation",
            "unreliability": float(unreliability),
            "unreliability_low": float(low_u),
            "unreliability_high": float(high_u),
            "std_error": float(std_error),
            "relative_error": float(relative_error),
            "spectrum_counts": counts.tolist(),
            "critical_min": int(nonzero[0]) if observed.size else 0,
            "critical_max": int(nonzero[-1]) if observed.size else 0,
            "homogeneous": failure_tail is not None,
            "spectrum_solves": queries,
            "spectrum_certified": certified,
            "flow_calls": oracle.calls,
            "batches": batches,
            "stopped_early": stopped_early,
            "target_relative_error": target_relative_error,
            "seed": entropy,
            "streams": list(STREAM_NAMES),
        },
    )


def _std_error(total: KahanSum, total_sq: KahanSum, n: int) -> float:
    if n < 2:
        return math.inf
    mean = total.value / n
    variance = max(0.0, (total_sq.value - n * mean * mean) / (n - 1))
    return math.sqrt(variance / n)


def _relative_error(total: KahanSum, total_sq: KahanSum, n: int, z: float) -> float:
    mean = total.value / n
    if mean <= 0.0:
        return math.inf
    return z * _std_error(total, total_sq, n) / mean


def _failure_rates(probs: np.ndarray) -> np.ndarray:
    """Exponential-clock rates ``lambda_i = -ln(1 - p_i)``.

    ``p = 0`` maps to rate 0 (never fails), ``p = 1`` to ``inf``
    (failed at any positive time) — both flow through the comparisons
    below without special cases.
    """
    with np.errstate(divide="ignore"):
        return -np.log1p(-probs)


def _initial_time(rates: np.ndarray, probs: np.ndarray) -> float:
    """The easy end of the time ladder: the smallest ``t`` at which the
    mean link-failure probability reaches ~0.5 (capped to the
    achievable limit when some links never fail)."""
    finite = np.isfinite(rates)
    limit = float(np.mean(np.where(probs > 0.0, 1.0, 0.0)))
    target = min(0.5, 0.95 * limit) if limit > 0.0 else 0.0
    if target <= 0.0:
        return 1.0

    def mean_failure(t: float) -> float:
        with np.errstate(over="ignore"):
            q = -np.expm1(-np.where(finite, rates, np.inf) * t)
        return float(np.mean(np.where(probs > 0.0, q, 0.0)))

    if mean_failure(1.0) >= target:
        return 1.0
    lo, hi = 1.0, 2.0
    while mean_failure(hi) < target and hi < 1e15:
        lo, hi = hi, hi * 2.0
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        if mean_failure(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def _level_schedule(t_initial: float, num_levels: int | None) -> list[float]:
    """Geometric time ladder ``t_0 > ... > t_L = 1`` (log-uniform)."""
    if t_initial <= 1.0:
        return [1.0]
    if num_levels is None:
        # One e-fold of time per level: with a min-cut of c links the
        # per-level conditional probability lands near exp(-c), deep
        # enough to make progress and shallow enough to keep survivors.
        num_levels = max(1, math.ceil(math.log(t_initial)))
    if num_levels < 1:
        raise EstimationError("num_levels must be positive")
    exponents = np.linspace(1.0, 0.0, num_levels + 1)
    return [float(t_initial**e) for e in exponents]


def splitting_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    num_samples: int = 1000,
    num_levels: int | None = None,
    confidence: float = 0.95,
    seed: int | np.random.SeedSequence | None = 0,
    solver: str | MaxFlowSolver | None = None,
) -> EstimateResult:
    """Fixed-effort multilevel splitting estimate of the reliability.

    ``num_samples`` is the per-level population size.  Trajectories are
    exponential-clock matrices; each level conditions on "down at
    ``t_k``", bootstraps the survivors back to the population size and
    refreshes every clock exactly from its truncated conditional
    distribution (vectorized inverse CDF — no MCMC, no scalar draws).
    Feasibility work per level is one solve per *distinct* failed mask
    (masks dedup through ``np.unique`` and a cross-level verdict
    cache).  The product of per-level conditional probabilities
    estimates the unreliability; the interval is a delta-method
    log-normal interval treating levels as independent (slightly
    optimistic, as is standard for fixed-effort splitting).
    """
    demand.validate_against(net)
    m = net.num_links
    _require_estimable(m, num_samples, num_samples)
    z = z_quantile(confidence)
    probs = validate_probabilities(net.failure_probabilities())
    streams, entropy = spawn_streams(seed)
    oracle = _make_oracle(net, demand, solver)
    rates = _failure_rates(probs)
    t_initial = _initial_time(rates, probs)
    schedule = _level_schedule(t_initial, num_levels)
    population = num_samples

    verdicts: dict[int, bool] = {}

    def down_fractions(clocks: np.ndarray, t: float) -> tuple[np.ndarray, int]:
        """Down indicator per trajectory at time ``t`` + distinct solves."""
        failed = clocks < rates[None, :] * t
        alive_masks = pack_bitplanes(~failed)
        distinct, inverse = np.unique(alive_masks, return_inverse=True)
        distinct_down = np.empty(distinct.shape[0], dtype=bool)
        solved = 0
        for idx, alive_np in enumerate(distinct):
            alive = int(alive_np)
            verdict = verdicts.get(alive)
            if verdict is None:
                verdict = not oracle.feasible(alive)
                verdicts[alive] = verdict
                solved += 1
            distinct_down[idx] = verdict
        return distinct_down[inverse], solved

    levels: list[dict[str, Any]] = []
    log_variance = 0.0
    unreliability = 1.0
    starved_level: int | None = None
    with span("rare.split", levels=len(schedule), population=population):
        clocks = streams["split.population"].standard_exponential((population, m))
        count(SAMPLES_VECTORIZED, population)
        count(MC_SAMPLES, population * len(schedule))
        previous_t: float | None = None
        for index, t in enumerate(schedule):
            if previous_t is not None:
                resample = streams["split.resample"]
                refresh = streams["split.refresh"]
                picks = resample.integers(0, clocks.shape[0], size=population)
                base = clocks[picks]
                failed_before = base < rates[None, :] * previous_t
                uniforms = refresh.random((population, m))
                ceiling = rates * previous_t
                with np.errstate(over="ignore", invalid="ignore"):
                    below = -np.log1p(-uniforms * (-np.expm1(-ceiling)))
                    above = ceiling - np.log1p(-uniforms)
                clocks = np.where(failed_before, below, above)
                count(SAMPLES_VECTORIZED, population)
            down, solved = down_fractions(clocks, t)
            survivors = int(np.count_nonzero(down))
            conditional = survivors / float(clocks.shape[0])
            levels.append(
                {
                    "t": float(t),
                    "conditional": conditional,
                    "survivors": survivors,
                    "distinct_solves": solved,
                }
            )
            unreliability *= conditional
            if survivors == 0:
                starved_level = index
                break
            log_variance += (1.0 - conditional) / (population * conditional)
            clocks = clocks[down]
            previous_t = t

    sigma = math.sqrt(log_variance)
    if unreliability > 0.0:
        low_u = unreliability * math.exp(-z * sigma)
        high_u = min(1.0, unreliability * math.exp(z * sigma))
    else:
        low_u = 0.0
        high_u = 1.0  # a starved run bounds nothing from above
    total_samples = population * len(levels)
    value = min(1.0, max(0.0, 1.0 - unreliability))
    details: dict[str, Any] = {
        "variant": "splitting",
        "unreliability": float(unreliability),
        "unreliability_low": float(low_u),
        "unreliability_high": float(high_u),
        "relative_error": float(z * sigma) if unreliability > 0.0 else math.inf,
        "levels": levels,
        "t_initial": float(t_initial),
        "population": population,
        "distinct_configurations": len(verdicts),
        "flow_calls": oracle.calls,
        "seed": entropy,
        "streams": list(STREAM_NAMES),
    }
    if starved_level is not None:
        details["starved_level"] = starved_level
    return EstimateResult(
        value=value,
        low=min(1.0, max(0.0, 1.0 - high_u)),
        high=min(1.0, max(0.0, 1.0 - low_u)),
        confidence=confidence,
        num_samples=total_samples,
        hits=int(round(value * total_samples)),
        method="rare-splitting",
        details=details,
    )


def rare_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    variant: str = "auto",
    num_samples: int | None = None,
    target_relative_error: float | None = None,
    confidence: float = 0.95,
    seed: int | np.random.SeedSequence | None = 0,
    solver: str | MaxFlowSolver | None = None,
    batch_size: int = 2048,
    num_levels: int | None = None,
) -> EstimateResult:
    """Front door of the rare-event tier (``method="rare"``).

    ``variant`` selects the estimator: ``"permutation"`` (alias
    ``"spectrum"``) for the destruction-spectrum conditional MC,
    ``"splitting"`` for fixed-effort multilevel splitting, ``"auto"``
    for permutation — the bounded-relative-error default.
    """
    resolved = {"auto": "permutation", "spectrum": "permutation"}.get(variant, variant)
    if resolved == "permutation":
        return permutation_montecarlo_reliability(
            net,
            demand,
            num_samples=10_000 if num_samples is None else num_samples,
            target_relative_error=target_relative_error,
            confidence=confidence,
            seed=seed,
            solver=solver,
            batch_size=batch_size,
        )
    if resolved == "splitting":
        if target_relative_error is not None:
            raise EstimationError(
                "target_relative_error is a permutation-variant option; "
                "splitting uses a fixed per-level population"
            )
        return splitting_reliability(
            net,
            demand,
            num_samples=1000 if num_samples is None else num_samples,
            num_levels=num_levels,
            confidence=confidence,
            seed=seed,
            solver=solver,
        )
    raise EstimationError(
        f"unknown rare-event variant {variant!r}; "
        "choose auto, permutation, spectrum or splitting"
    )
