"""The three closed-loop workloads: exact-cold, sweep-warm, estimate-rare.

Each class builds its inputs from the seed (set-up), answers request
``i`` through the program's public entry point (``request``), replays
request ``i`` layer by layer under a :class:`spans.Tracer`
(``replay``), and checks every output against an exact oracle that runs
outside the timed window (``check``).  Request ``i`` uses input
``i % len(inputs)``, so any prefix of the request sequence is the same
for a given seed.
"""

from __future__ import annotations

import math
import statistics
from typing import Any

import inputs
import numpy as np
from spans import Tracer

from repro.core.api import compute_reliability
from repro.core.bottleneck import bottleneck_reliability
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.rare import destruction_spectrum, rare_reliability
from repro.core.sweep import ArrayCache, SweepSpec, compute_reliability_sweep
from repro.graph.cuts import find_bottleneck

DEMAND = FlowDemand("s", "t", inputs.DEMAND)
#: Largest |value - oracle| accepted from an exact engine.
EXACT_TOL = 1e-12


def factoring_value(net: Any) -> float:
    return compute_reliability(net, demand=DEMAND, method="factoring").value


class ExactCold:
    """``compute_reliability(method="auto")`` with no cache, cycling instances.

    Twenty 30-link instances (14 + 14 side links, k = 2, d = 2): auto
    picks the bottleneck path, so cut search and the §III-C array build
    do the work and the Eq. 2/3 phase is under 1% of it.
    """

    name = "exact-cold"

    def __init__(self, seed: int, quick: bool) -> None:
        rng = np.random.default_rng([seed, 1])
        count, side = (4, 9) if quick else (20, 14)
        self.nets = [inputs.bottlenecked(rng, side, side, f"exact-{i}") for i in range(count)]
        self.replay_count = 8 if quick else len(self.nets)

    def inputs(self) -> list[Any]:
        return self.nets

    def warm_up(self) -> None:
        self.request(0)

    def request(self, i: int) -> float:
        net = self.nets[i % len(self.nets)]
        return compute_reliability(net, demand=DEMAND, method="auto").value

    def replay(self, tracer: Tracer, i: int) -> float:
        # method="auto" is exactly find_bottleneck, then
        # bottleneck_reliability on the cut it found (which verifies it).
        net = self.nets[i % len(self.nets)]
        with tracer.span("find_bottleneck", "cuts"):
            split = find_bottleneck(net, DEMAND.source, DEMAND.sink)
        result = tracer.call(
            "bottleneck_reliability", "accumulate",
            bottleneck_reliability, net, DEMAND, cut=split.cut,
        )
        return result.value

    def check(self, outputs: list[tuple[int, float]]) -> list[str]:
        oracle: dict[int, float] = {}
        failures = []
        for i, value in outputs:
            j = i % len(self.nets)
            if j not in oracle:
                oracle[j] = factoring_value(self.nets[j])
            if not abs(value - oracle[j]) <= EXACT_TOL:
                failures.append(f"request {i}: {value!r} != factoring {oracle[j]!r}")
        return failures

    def extra_metrics(self, outputs: list[tuple[int, Any]]) -> dict[str, float]:
        return {}


class SweepWarm:
    """``compute_reliability_sweep`` over a 1025-point availability grid.

    One 26-link topology (12 + 12 side links) whose realization columns
    are cached in set-up, so each call spends no max-flow solve: the
    Eq. 2/3 grid does most of the work and the cut search the rest.
    """

    name = "sweep-warm"
    #: Grid points compared with factoring after the timed window.
    ORACLE_POINTS = 16

    def __init__(self, seed: int, quick: bool) -> None:
        rng = np.random.default_rng([seed, 2])
        side, points = (6, 65) if quick else (12, 1025)
        self.net = inputs.bottlenecked(rng, side, side, "sweep")
        self.spec = SweepSpec.availability(np.linspace(0.5, 0.999, points))
        self.cache = ArrayCache()
        compute_reliability_sweep(self.net, DEMAND, sweep=self.spec, cache=self.cache)
        self.replay_count = 12 if quick else 10

    def inputs(self) -> list[Any]:
        return [self.net]

    def warm_up(self) -> None:
        self.request(0)

    def request(self, i: int) -> list[float]:
        return compute_reliability_sweep(
            self.net, DEMAND, sweep=self.spec, cache=self.cache
        ).values

    def replay(self, tracer: Tracer, i: int) -> list[float]:
        swept = tracer.call(
            "compute_reliability_sweep", "accumulate",
            compute_reliability_sweep, self.net, DEMAND, sweep=self.spec, cache=self.cache,
        )
        return swept.values

    def check(self, outputs: list[tuple[int, list[float]]]) -> list[str]:
        picks = np.linspace(0, len(self.spec) - 1, self.ORACLE_POINTS).round().astype(int)
        oracle = {int(p): factoring_value(self.spec.point_network(self.net, int(p))) for p in picks}
        first = outputs[0][1] if outputs else None
        failures = []
        for i, values in outputs:
            bad = [p for p, want in oracle.items() if not abs(values[p] - want) <= EXACT_TOL]
            if bad:
                failures.append(f"request {i}: points {bad} differ from factoring")
            elif values != first:
                failures.append(f"request {i}: curve differs from request {outputs[0][0]}")
        return failures

    def extra_metrics(self, outputs: list[tuple[int, Any]]) -> dict[str, float]:
        return {}


class EstimateRare:
    """Permutation-MC ``rare_reliability`` to 20% relative error at five nines.

    The 30-link chained net (six segments, five 2-link cuts, every link
    at p = 1e-5, U ~ 1.1e-9) is past every exact engine's enumeration
    guard; ``chain_reliability`` on its recorded cuts gives the exact
    value for the oracle.  Request ``i`` uses the ``i``-th estimator seed
    drawn from the run's seed.
    """

    name = "estimate-rare"
    TARGET = 0.2
    CAP = 65536
    WARM_UP_SAMPLES = 4096
    #: A run fails the coverage check only when this few CIs covering
    #: the exact value is less likely than this under a 10% miss rate
    #: (twice the nominal 5%: early stopping shrinks intervals a little).
    COVERAGE_P = 1e-6
    MISS_RATE = 0.10

    def __init__(self, seed: int, quick: bool) -> None:
        self.net, self.cuts = inputs.chained(4 if quick else 6)
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(1024)]
        self.replay_count = 9 if quick else 12

    def inputs(self) -> list[Any]:
        return [self.net]

    def warm_up(self) -> None:
        # A fixed sample count, so set-up does the same work on every seed
        # (samples to target vary from call to call: 4096 or 6144).
        rare_reliability(
            self.net, DEMAND, variant="permutation",
            num_samples=self.WARM_UP_SAMPLES, seed=self.seeds[-1],
        )

    def _estimate(self, i: int) -> Any:
        return rare_reliability(
            self.net, DEMAND, variant="permutation",
            target_relative_error=self.TARGET, num_samples=self.CAP,
            seed=self.seeds[i % len(self.seeds)],
        )

    def request(self, i: int) -> Any:
        return self._estimate(i)

    def replay(self, tracer: Tracer, i: int) -> Any:
        with tracer.span("rare_reliability", "rare.estimate"):
            estimate = self._estimate(i)
        # The combinatorial half alone, at the sample count the estimate
        # used: the same seed draws the same failure orders.
        with tracer.span("destruction_spectrum", "rare.spectrum"):
            spectrum = destruction_spectrum(
                self.net, DEMAND,
                num_permutations=estimate.num_samples, seed=self.seeds[i % len(self.seeds)],
            )
        if spectrum.counts.tolist() != estimate.details["spectrum_counts"]:
            raise RuntimeError(f"request {i}: replayed spectrum differs from the estimate's")
        # The recorder reads the clock on every max-flow solve, about 15%
        # of an estimate, so the counters come from an untimed rerun.
        tracer.count("rare.estimate", self._estimate, i)
        return estimate

    def check(self, outputs: list[tuple[int, Any]]) -> list[str]:
        if not outputs:
            return []
        exact = 1.0 - chain_reliability(self.net, DEMAND, self.cuts).value
        us = [e.details["unreliability"] for _, e in outputs]
        misses = sum(
            1 for _, e in outputs
            if not e.details["unreliability_low"] <= exact <= e.details["unreliability_high"]
        )
        failures = []
        mean = statistics.fmean(us)
        tolerance = 0.10 * exact
        if len(us) > 1:
            tolerance = max(tolerance, 5.0 * statistics.stdev(us) / math.sqrt(len(us)))
        if not abs(mean - exact) <= tolerance:
            failures.append(f"mean unreliability {mean:.4e} vs exact {exact:.4e}")
        if _binomial_tail(misses, len(outputs), self.MISS_RATE) < self.COVERAGE_P:
            failures.append(f"{misses}/{len(outputs)} intervals miss {exact:.4e}")
        return failures

    def extra_metrics(self, outputs: list[tuple[int, Any]]) -> dict[str, float]:
        return {"rare.samples": statistics.median(e.num_samples for _, e in outputs)}


def _binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))
