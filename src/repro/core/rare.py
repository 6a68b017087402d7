"""Rare-event reliability estimation: permutation Monte-Carlo.

Crude Monte-Carlo (:mod:`repro.core.montecarlo`) needs ``~1/U`` samples
to see a single failure, so at per-link availability ``0.99999`` —
unreliability ``U ~ 1e-9``, the regime CDN-grade SLAs quote — it is
useless.  This module grows the estimator tier into that regime with
a variance-reduction method whose relative error stays bounded as
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
``P(#failed >= B)``, read off :func:`poisson_binomial`'s exact
distribution.  Randomness only enters
through the combinatorial order, so the estimator's variance is a
property of the topology, not of ``p``: the relative error is bounded
uniformly in the availability (Botev, L'Ecuyer & Tuffin 2016 extend
exactly this construction to flow demands; Karger's FPRAS supplies the
``epsilon``-approximation framing).

Critical numbers come from certificates learned along the way, not
from one max-flow query per kill.  A feasible query yields a flow
*support*: no prefix that spares its links can fail, so it bounds ``B``
from below.  An infeasible query yields a *cut*, the smaller of the two
residual min-cuts around ``s`` and around ``t``: a prefix that kills
enough of it must fail.  Each chunk of orders checks every certificate
at once in numpy (one gather of kill steps for the supports, one
matrix product for the cuts), and only the orders they leave open
query the oracle, each at its lower bound (one
:meth:`~repro.core.feasibility.FeasibilityOracle.certify`), learning one
more certificate per query.  An open order's own bookkeeping is plain
Python on bitmasks: before each query it checks only the certificates
learned since its last check, and every cut again only when its bound
has moved.  Every critical number equals the one-kill-at-a-time walk's,
with at most the walk's queries per order.

Vectorization contract: all inner loops are array-at-a-time numpy —
permutation batches are drawn as ``argsort`` of exponential matrices of
shape ``(batch, m)``, spectrum conditioning and chunk certificate
checks are batched, and scalar Python only touches the orders the
certificates leave open.  The oracle always repairs flow between
queries; there is no option to choose.
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

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core import certificate
from repro.core.api import REMOVED_POINTER
from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.montecarlo import z_quantile
from repro.core.result import EstimateResult
from repro.core.summation import KahanSum, fsum
from repro.exceptions import EstimationError, ReproValueError
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
from repro.probability.bitset import mask_from_indices

__all__ = [
    "DestructionSpectrum",
    "destruction_spectrum",
    "poisson_binomial",
    "rare_reliability",
    "sample_failure_orders",
    "spawn_streams",
    "validate_probabilities",
]

#: Named child streams spawned (in this order) from the root seed —
#: the stable vocabulary that makes every estimate bit-replayable.
STREAM_NAMES = ("spectrum.permutations",)

#: Bitmask-packing width limit shared with the crude sampler.
_MAX_LINKS = 63

#: Minimum permutations drawn before the target-relative-error stopping
#: rule is consulted (a tiny pilot keeps the variance estimate honest).
_MIN_STOP_SAMPLES = 256


def validate_probabilities(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Coerce ``values`` to a float64 vector and enforce the ``[0, 1]`` domain.

    The single validation gate shared by :func:`poisson_binomial` and
    the spectrum conditioning below — one code path, so the RR204
    domain discipline holds wherever raw probabilities enter Eq. 2/3-style
    accumulation.  Raises :class:`~repro.exceptions.ReproValueError` on
    any entry outside ``[0, 1]`` (NaN included).
    """
    probs = np.asarray(values, dtype=np.float64)
    if probs.ndim != 1:
        raise ReproValueError(
            f"probability vector must be one-dimensional, got shape {probs.shape}"
        )
    if probs.size and not bool(np.all((probs >= 0.0) & (probs <= 1.0))):
        bad = probs[~((probs >= 0.0) & (probs <= 1.0))][:3]
        raise ReproValueError(
            f"probabilities outside [0, 1]: {bad.tolist()} ..."
        )
    return probs


def poisson_binomial(failure_probabilities: Sequence[float] | np.ndarray) -> np.ndarray:
    """Exact distribution of the number of *alive* links.

    ``result[j] = P(exactly j of the m links are up)``; standard
    ``O(m^2)`` convolution DP.  Inputs are validated to ``[0, 1]``
    (:class:`~repro.exceptions.ReproValueError` otherwise).
    """
    probs = validate_probabilities(failure_probabilities)
    dist = np.array([1.0])
    for p in probs:
        alive = 1.0 - p
        new = np.zeros(len(dist) + 1)
        new[: len(dist)] += dist * p
        new[1:] += dist * alive
        dist = new
    return dist


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
    clocks yields a uniform permutation of the links).  The default
    sort is not stable, so the rows whose clocks hold an exact tie are
    put in link order within each run of equal clocks: every order is
    the stable sort's.
    """
    if num_links < 1:
        raise EstimationError("need at least one link to order")
    if batch < 1:
        raise EstimationError("batch must be positive")
    clocks = rng.standard_exponential((batch, num_links))
    orders = np.argsort(clocks, axis=1)
    clocks.sort(axis=1)
    tied = (clocks[:, 1:] == clocks[:, :-1]).any(axis=1)
    if tied.any():
        links = orders[tied]
        orders[tied] = np.take_along_axis(
            links, np.lexsort((links, clocks[tied])), axis=1
        )
    return orders


#: Failure orders settled together: the chunk's certificate checks are
#: ``(rows x certificates)`` arrays, so this bounds their memory.
_CHUNK_ROWS = 256

#: ``uint8`` entries per support-check block (``rows x supports x
#: width``), 256 KiB of temporaries.
_BLOCK_ENTRIES = 1 << 18


class _Certificates:
    """The supports and cuts one estimate call has learned.

    A *support* (links carrying a flow of value ``>= d``) keeps every
    prefix that kills none of its links feasible, so an order's
    critical number is at least the step at which it first kills one of
    them.  A *cut* (links crossing out of a shore around ``s``) stores
    each link's capacity clipped to ``d``; a prefix whose alive part of
    some cut sums below ``d`` is infeasible.  Cuts are learned only
    while ``m * d < 2^53``, so their float64 sums of clipped integers
    are exact.  Each kind stops growing at
    :data:`repro.core.certificate.MAX_CERTIFICATE_CUTS`; rows then
    settle by queries alone, with the same values.

    :meth:`add` appends to plain lists, which the per-order loop reads
    directly: a support as its links and their bitmask, a cut as the
    bitmask of its links with positive clipped capacity, their
    ``(link, clipped)`` pairs, and whether every one is clipped to
    ``d`` (then any alive link meets the demand).  The chunk checks
    read numpy copies, extended once per chunk by what was learned
    since: supports as link indices padded with ``m`` (a step column
    that reads ``m + 1``, never killed), cuts as dense rows of clipped
    capacities.
    """

    def __init__(self, net: FlowNetwork, demand: int) -> None:
        m = net.num_links
        self.num_links = m
        self.demand = demand
        self.limit = certificate.MAX_CERTIFICATE_CUTS
        self.clipped = [min(link.capacity, demand) for link in net.links()]
        self.learn_cuts = m * demand < 1 << 53
        self.supports: list[tuple[tuple[int, ...], int]] = []
        self.cuts: list[tuple[int, tuple[tuple[int, int], ...], bool]] = []
        self._support_index = np.zeros((0, m), dtype=np.intp)
        self._width = 1
        self._cut_rows = np.zeros((0, m))

    def add(self, feasible: bool, links: tuple[int, ...]) -> None:
        if feasible:
            if len(self.supports) < self.limit:
                self.supports.append((links, mask_from_indices(links)))
        elif self.learn_cuts and len(self.cuts) < self.limit:
            capacities = tuple((e, self.clipped[e]) for e in links if self.clipped[e])
            uniform = all(c == self.demand for _, c in capacities)
            self.cuts.append((mask_from_indices(e for e, _ in capacities), capacities, uniform))

    def cut_fails(self, alive: int, since: int) -> bool:
        """Whether a cut from index ``since`` on leaves less than the
        demand in the alive-set bitmask ``alive``."""
        demand = self.demand
        for mask, capacities, uniform in itertools.islice(self.cuts, since, None):
            hit = mask & alive
            if not hit or (
                not uniform and sum(c for e, c in capacities if hit >> e & 1) < demand
            ):
                return True
        return False

    def _sync(self) -> None:
        """Extend the numpy copies by the certificates learned since."""
        m = self.num_links
        new = [links for links, _ in self.supports[len(self._support_index) :]]
        if new:
            pad = (m,) * m
            rows = np.array([links + pad[len(links) :] for links in new], dtype=np.intp)
            self._support_index = np.concatenate([self._support_index, rows])
            self._width = max(self._width, *map(len, new))
        dense = []
        for _, capacities, _ in self.cuts[len(self._cut_rows) :]:
            row = [0] * m
            for e, c in capacities:
                row[e] = c
            dense.append(row)
        if dense:
            rows = np.array(dense, dtype=np.float64)
            self._cut_rows = np.concatenate([self._cut_rows, rows])

    def bounds(self, pos: np.ndarray) -> np.ndarray:
        """Per row, ``1`` raised to the first kill of each support.

        ``pos`` holds each row's kill step per link plus a last column
        of ``m + 1``, which the padding of shorter supports gathers.
        """
        self._sync()
        rows = pos.shape[0]
        lo = np.ones(rows, dtype=np.int64)
        index = self._support_index[:, : self._width]
        block = max(1, _BLOCK_ENTRIES // (rows * self._width))
        for start in range(0, len(index), block):
            first = pos[:, index[start : start + block]].min(axis=2)
            np.maximum(lo, first.max(axis=1), out=lo)
        return lo

    def cut_at(self, pos: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Rows whose prefix ``lo`` leaves some cut below the demand."""
        if not len(self._cut_rows):
            return np.zeros(pos.shape[0], dtype=bool)
        alive = (pos > lo[:, None]).astype(np.float64)
        return np.any(alive @ self._cut_rows.T < self.demand, axis=1)


def _critical_numbers(
    oracle: FeasibilityOracle, orders: np.ndarray, certificates: _Certificates
) -> tuple[np.ndarray, np.ndarray]:
    """Critical number per failure order: the count of kills at which
    the demand first becomes infeasible (``m + 1`` = never), and the
    feasibility queries each order spent.

    Every row starts from the bound ``lo = 1`` raised by the learned
    supports, and is settled with no query when a learned cut already
    fails at prefix ``lo``; both checks run on the whole chunk at once.
    A row the certificates leave open queries the oracle at prefix
    ``lo`` (one :meth:`FeasibilityOracle.certify`): an infeasible
    answer settles ``B = lo`` and teaches a cut; a feasible one teaches
    a support, which lifts ``lo`` past the queried prefix.  Before each
    query an open row checks, in plain Python, the supports learned
    since its last check, then the cuts learned since — or every cut,
    when ``lo`` has moved.  Queries land on distinct prefixes at most
    ``B``, so a row never makes more than the ``min(B, m)`` queries of
    the one-kill-at-a-time walk, and every value equals the walk's.
    """
    batch, m = orders.shape
    full_mask = (1 << m) - 1
    steps = np.arange(1, m + 1, dtype=np.uint8)
    criticals = np.empty(batch, dtype=np.int64)
    queries = np.zeros(batch, dtype=np.int64)
    supports, cuts = certificates.supports, certificates.cuts
    for start in range(0, batch, _CHUNK_ROWS):
        chunk = orders[start : start + _CHUNK_ROWS]
        rows = chunk.shape[0]
        # pos[b, e]: the step (from 1) at which order b kills link e;
        # pos[b, m] = m + 1 pads the support gather.
        pos = np.empty((rows, m + 1), dtype=np.uint8)
        pos[:, m] = m + 1
        pos[np.arange(rows)[:, None], chunk] = steps
        lo = certificates.bounds(pos)
        open_rows = np.flatnonzero(~certificates.cut_at(pos[:, :m], lo))
        checked_supports, checked_cuts = len(supports), len(cuts)
        open_bounds = []
        open_queries = []
        # Scalar loop: stay off numpy scalars and 1-row arrays.
        for order, row_pos, bound in zip(
            chunk[open_rows].tolist(),
            pos[open_rows].tolist(),
            lo[open_rows].tolist(),
        ):
            # dead[k]: bitmask of the links the first k kills take;
            # dead[m + 1], every link, serves the never-killed bound.
            dead = list(
                itertools.accumulate(map((1).__lshift__, order), operator.or_, initial=0)
            )
            dead.append(full_mask)
            seen_supports, seen_cuts, cut_bound = checked_supports, checked_cuts, bound
            spent = 0
            while True:
                for links, support in itertools.islice(supports, seen_supports, None):
                    if not support & dead[bound]:
                        bound = min((row_pos[e] for e in links), default=m + 1)
                seen_supports = len(supports)
                if bound > m:
                    break
                alive = full_mask & ~dead[bound]
                if certificates.cut_fails(alive, seen_cuts if bound == cut_bound else 0):
                    break
                seen_cuts, cut_bound = len(cuts), bound
                spent += 1
                feasible, links = oracle.certify(alive)
                certificates.add(feasible, links)
                if not feasible:
                    break
                bound = min((row_pos[e] for e in links), default=m + 1)
            open_bounds.append(bound)
            open_queries.append(spent)
        lo[open_rows] = open_bounds
        queries[start + open_rows] = open_queries
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
    oracle = FeasibilityOracle(
        net, demand.source, demand.sink, demand.rate, incremental=True
    )
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


def rare_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    variant: str = "auto",
    num_samples: int | None = None,
    target_relative_error: float | None = None,
    confidence: float = 0.95,
    seed: int | np.random.SeedSequence | None = 0,
    batch_size: int = 2048,
) -> EstimateResult:
    """Permutation/conditional Monte-Carlo estimate of the reliability
    (``method="rare"``).

    ``num_samples`` is the permutation budget (``None``: 10 000); with
    ``target_relative_error`` set, sampling stops at the end of the
    first batch whose estimated relative error (at ``confidence``) on
    the *unreliability* meets the target, budget permitting.  The
    estimate is unbiased for heterogeneous link probabilities and its
    relative error is bounded in the availability — the five-nines
    workhorse.  Deterministic per seed: the batch schedule, stream
    derivation and compensated accumulation order are all fixed.

    ``variant`` names the estimator: ``"auto"``, ``"permutation"`` and
    ``"spectrum"`` all pick permutation MC.  ``"splitting"``
    (fixed-effort multilevel splitting) was removed because it lost
    every measured row to permutation MC, and raises
    :class:`ReproValueError`.
    """
    if variant == "splitting":
        raise ReproValueError(
            "rare-event variant 'splitting' was removed: permutation MC "
            f"reached equal accuracy faster on every measured net; {REMOVED_POINTER}"
        )
    if variant not in ("auto", "permutation", "spectrum"):
        raise EstimationError(
            f"unknown rare-event variant {variant!r}; "
            "choose auto, permutation or spectrum"
        )
    if num_samples is None:
        num_samples = 10_000
    demand.validate_against(net)
    m = net.num_links
    _require_estimable(m, num_samples, batch_size)
    if target_relative_error is not None and not target_relative_error > 0.0:
        raise EstimationError("target_relative_error must be positive")
    z = z_quantile(confidence)
    probs = validate_probabilities(net.failure_probabilities())
    streams, entropy = spawn_streams(seed)
    rng = streams["spectrum.permutations"]
    oracle = FeasibilityOracle(
        net, demand.source, demand.sink, demand.rate, incremental=True
    )
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

