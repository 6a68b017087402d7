"""Property: every way of selecting the §III-C build yields the same bits.

All realization arrays come out of one entry point,
:func:`repro.core.sweep.cached_side_array`, which without a cache is
:func:`repro.core.arrays.build_side_array`.  Inside it the options pick
a kernel: the cut-certificate kernel (no solver, no ``incremental``),
the cold max-flow build (``incremental=False``, any registered solver)
or the incremental Gray walk (``incremental=True``).  These tests pin
the contract that makes the choice a pure performance matter: for every
seed, role, kernel and pruning setting the masks, the reliability value
and the result ``details`` (modulo the accounting keys) are
bit-identical to the default path — and a disk cache filled by any
kernel serves every other kernel with zero max-flow solves.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arrays import build_side_array
from repro.core.assignments import enumerate_assignments
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.sweep import (
    ArrayCache,
    SweepSpec,
    cached_side_array,
    compute_reliability_sweep,
)
from repro.graph.cuts import find_bottleneck
from repro.graph.generators import bottlenecked_network

SEEDS = [0, 7, 23]

#: Kernel selections, as the keyword arguments that pick them.
KERNELS = {
    "certificate": {},
    "cold-dinic": {"solver": "dinic", "incremental": False},
    "cold-edmonds_karp": {"solver": "edmonds_karp", "incremental": False},
    "cold-capacity_scaling": {"solver": "capacity_scaling", "incremental": False},
    "cold-push_relabel": {"solver": "push_relabel"},
    "gray-dinic": {"solver": "dinic", "incremental": True},
    "gray-edmonds_karp": {"solver": "edmonds_karp", "incremental": True},
}

#: The smaller set the slower (whole-pipeline) properties run over.
PIPELINE_KERNELS = ["certificate", "cold-dinic", "gray-dinic", "cold-push_relabel"]

#: details keys that describe *how the solves were accounted*, not what
#: was computed (``incremental`` names the kernel that ran).
ACCOUNTING_KEYS = ("incremental", "array_cache", "obs")


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


def _split(net):
    split = find_bottleneck(net, "s", "t", max_size=3)
    assert split is not None
    capacities = [net.link(i).capacity for i in split.cut]
    return split, enumerate_assignments(capacities, 2)


def _side_request(split, role):
    if role == "source":
        return split.source_side, dict(
            role="source", terminal="s", ports=split.source_ports
        )
    return split.sink_side, dict(role="sink", terminal="t", ports=split.sink_ports)


class TestSideMasksAcrossKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("role", ["source", "sink"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("prune", [False, True])
    def test_masks_bit_identical(self, seed, role, kernel, prune):
        split, assignments = _split(_instance(seed))
        side, request = _side_request(split, role)
        default = build_side_array(
            side, assignments=assignments, demand=2, **request
        )
        chosen = build_side_array(
            side,
            assignments=assignments,
            demand=2,
            prune=prune,
            **request,
            **KERNELS[kernel],
        )
        assert chosen.masks.dtype == np.uint64
        assert np.array_equal(default.masks, chosen.masks)
        np.testing.assert_array_equal(default.probabilities, chosen.probabilities)
        assert chosen.num_assignments == default.num_assignments == len(assignments)
        if kernel == "certificate":
            assert chosen.flow_calls == 0
        else:
            assert chosen.flow_calls > 0

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=300),
        kernel=st.sampled_from(sorted(KERNELS)),
        role=st.sampled_from(["source", "sink"]),
        prune=st.booleans(),
    )
    def test_arbitrary_instances(self, seed, kernel, role, prune):
        net = bottlenecked_network(
            source_side_links=4,
            sink_side_links=3,
            num_bottlenecks=2,
            demand=2,
            seed=seed,
        )
        split, assignments = _split(net)
        side, request = _side_request(split, role)
        default = build_side_array(side, assignments=assignments, demand=2, **request)
        chosen = build_side_array(
            side,
            assignments=assignments,
            demand=2,
            prune=prune,
            **request,
            **KERNELS[kernel],
        )
        assert np.array_equal(default.masks, chosen.masks)


class TestUncachedDispatch:
    @pytest.mark.parametrize("role", ["source", "sink"])
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_cached_side_array_without_cache_is_build_side_array(self, role, kernel):
        split, assignments = _split(_instance(0))
        side, request = _side_request(split, role)
        kwargs = dict(assignments=assignments, demand=2, **request, **KERNELS[kernel])
        direct = build_side_array(side, **kwargs)
        dispatched = cached_side_array(side, cache=None, **kwargs)
        assert np.array_equal(direct.masks, dispatched.masks)
        assert dispatched.flow_calls == direct.flow_calls
        assert dispatched.num_assignments == direct.num_assignments


class TestValueAcrossKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_bottleneck_value_identical(self, seed, kernel):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        default = bottleneck_reliability(net, demand)
        chosen = bottleneck_reliability(net, demand, **KERNELS[kernel])
        assert chosen.value == default.value
        assert chosen.configurations == default.configurations
        assert _scrub(chosen.details) == _scrub(default.details)
        assert "engine" not in chosen.details

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", PIPELINE_KERNELS)
    def test_sweep_matches_pointwise(self, seed, kernel):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability(list(np.linspace(0.7, 0.99, 4)))
        swept = compute_reliability_sweep(net, demand, sweep=spec, **KERNELS[kernel])
        for i, result in enumerate(swept):
            point = bottleneck_reliability(spec.point_network(net, i), demand)
            assert result.value == point.value
            assert _scrub(result.details) == _scrub(point.details)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", PIPELINE_KERNELS)
    def test_demand_sweep_matches_pointwise(self, seed, kernel):
        net = _instance(seed)
        spec = SweepSpec.demand_rates([1, 2, 3])
        swept = compute_reliability_sweep(
            net, FlowDemand("s", "t", 2), sweep=spec, **KERNELS[kernel]
        )
        for rate, result in zip(spec.values, swept):
            point = bottleneck_reliability(net, FlowDemand("s", "t", rate))
            assert result.value == point.value
            assert _scrub(result.details) == _scrub(point.details)


class TestDiskCacheAcrossKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", PIPELINE_KERNELS)
    def test_warm_rerun_solves_nothing(self, tmp_path, seed, kernel):
        """A fresh cache on the directory a cold sweep filled serves a
        repeat sweep with zero misses and zero max-flow solves, and no
        temporary file survives the atomic writes."""
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability([0.8, 0.95])
        cache_dir = tmp_path / "cache"
        cold = compute_reliability_sweep(
            net, demand, sweep=spec, cache=ArrayCache(cache_dir), **KERNELS[kernel]
        )
        assert cold.cache_stats["misses"] > 0
        warm = compute_reliability_sweep(
            net, demand, sweep=spec, cache=ArrayCache(cache_dir), **KERNELS[kernel]
        )
        assert warm.flow_calls == 0
        assert warm.cache_stats["misses"] == 0
        assert warm.values == cold.values
        _, assignments = _split(net)
        assert len(list(Path(cache_dir).glob("*.npy"))) == 2 * len(assignments)
        assert not list(Path(cache_dir).glob("*.tmp"))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("filler", PIPELINE_KERNELS)
    def test_columns_from_one_kernel_serve_the_others(self, tmp_path, seed, filler):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability([0.8, 0.95])
        cache_dir = tmp_path / "cache"
        filled = compute_reliability_sweep(
            net, demand, sweep=spec, cache=ArrayCache(cache_dir), **KERNELS[filler]
        )
        for kernel in PIPELINE_KERNELS:
            again = compute_reliability_sweep(
                net,
                demand,
                sweep=spec,
                cache=ArrayCache(cache_dir),
                **KERNELS[kernel],
            )
            assert again.flow_calls == 0
            assert again.cache_stats["misses"] == 0
            assert again.values == filled.values
