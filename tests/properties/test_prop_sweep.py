"""Property: the sweep engine is bit-identical to the pointwise path.

The sweep exists purely as a performance layer — one §III-C array build
serving a whole grid of Eq. 2 / Eq. 3 evaluations.  These tests pin the
contract that makes the cache key sound: for every sweep point, for
every combination of cache state (cold/warm) and build kernel
(certificate, or the Gray walk past a monkeypatched guard),
``compute_reliability_sweep`` must reproduce a fresh
:func:`bottleneck_reliability` call on the point network *bit for bit* — ``==`` on the float value and ``==`` on ``details`` (modulo the
solve-accounting keys, which legitimately differ when no solves run).
"""

import numpy as np
import pytest

from repro.core import certificate
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.sweep import ArrayCache, SweepSpec, compute_reliability_sweep
from repro.graph.builders import fujita_fig4
from repro.graph.generators import bottlenecked_network

SEEDS = [0, 1, 7, 23]

#: details keys that describe *how the solves were accounted*, not what
#: was computed; the sweep path legitimately reports no per-point solves.
ACCOUNTING_KEYS = ("array_cache", "obs")


def _scrub(details):
    return {k: v for k, v in details.items() if k not in ACCOUNTING_KEYS}


def _instance(seed):
    return bottlenecked_network(
        source_side_links=5,
        sink_side_links=4,
        num_bottlenecks=2,
        demand=2,
        seed=seed,
    )


def assert_point_identical(swept, net, demand, spec):
    for i, result in enumerate(swept):
        point = bottleneck_reliability(spec.point_network(net, i), demand)
        assert result.value == point.value
        assert result.method == point.method == "bottleneck"
        assert result.configurations == point.configurations
        assert result.flow_calls == 0
        assert _scrub(result.details) == _scrub(point.details)


class TestSweepPointwiseBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("walk", [False, True])
    def test_availability_grid(self, seed, walk, monkeypatch):
        if walk:
            monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability(list(np.linspace(0.7, 0.99, 5)))
        cache = ArrayCache()
        cold = compute_reliability_sweep(net, demand, sweep=spec, cache=cache)
        warm = compute_reliability_sweep(net, demand, sweep=spec, cache=cache)
        assert (cold.flow_calls > 0) is walk
        for swept in (cold, warm):
            assert_point_identical(swept, net, demand, spec)
        assert warm.flow_calls == 0
        assert warm.cache_stats["misses"] == 0
        assert warm.values == cold.values

    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_cache_ignores_build_kernel(self, seed, monkeypatch):
        """Columns cached by one build kernel must serve the other: the
        kernel is excluded from the key because the bits are ground
        truth."""
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability([0.8, 0.95])
        cache = ArrayCache()
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        baseline = compute_reliability_sweep(net, demand, sweep=spec, cache=cache)
        monkeypatch.undo()
        again = compute_reliability_sweep(net, demand, sweep=spec, cache=cache)
        assert baseline.flow_calls > 0
        assert again.flow_calls == 0
        assert again.values == baseline.values

    @pytest.mark.parametrize("seed", SEEDS)
    def test_failure_scale_grid(self, seed):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.failure_scale([0.25, 0.5, 1.0, 1.5])
        swept = compute_reliability_sweep(net, demand, sweep=spec)
        assert_point_identical(swept, net, demand, spec)

    def test_fig4_demand_grid(self):
        net = fujita_fig4(failure_probability=0.1)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.demand_rates([1, 2, 3, 4])
        swept = compute_reliability_sweep(net, demand, sweep=spec)
        for rate, result in zip(spec.values, swept):
            point = bottleneck_reliability(net, FlowDemand("s", "t", rate))
            assert result.value == point.value
            assert _scrub(result.details) == _scrub(point.details)
