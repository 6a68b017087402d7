"""Property: both §III-C build kernels yield the reference bits.

Every side comes out of one builder over one kernel choice: the side
cover every Eq. 3 caller reads (:func:`repro.core.sweep.cached_side_cover`,
which without a cache is :func:`repro.core.arrays.build_side_cover`).
The side picks the kernel:
the cut-certificate kernel inside its guards, segment max-flows past
them.  These tests reach the max-flow kernel through the guard (a monkeypatched
``MAX_CERTIFICATE_CUTS``), never through an option, and pin the
contract that makes the choice a pure performance matter: for every
seed, role and demand rate both kernels' covers expand to the masks of
the reference oracle (``tests/reference_arrays.py``, one cold Dinic
solve per entry, itself cross-checked against networkx max flows), the
reliability value and result ``details`` (modulo the accounting keys)
are bit-identical across kernels — and a disk cache filled by either
kernel serves the other with zero max-flow solves.
"""

from contextlib import contextmanager
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import certificate
from repro.core.arrays import build_side_cover
from repro.core.assignments import enumerate_assignments
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.sweep import (
    ArrayCache,
    SweepSpec,
    cached_side_cover,
    compute_reliability_sweep,
)
from repro.graph.cuts import find_bottleneck
from repro.graph.generators import bottlenecked_network
from tests.reference_arrays import reference_side_masks

SEEDS = [0, 7, 23]

#: The wider instance set the mask properties run over.
MASK_SEEDS = range(8)

KERNELS = ["certificate", "max-flow"]

#: details keys that describe *how the solves were accounted*, not what
#: was computed.
ACCOUNTING_KEYS = ("array_cache", "obs")


@contextmanager
def _kernel(name):
    """Select a kernel the only way there is: through the guard."""
    with pytest.MonkeyPatch.context() as patch:
        if name == "max-flow":
            patch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        yield


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


def _split(net, rate=2):
    split = find_bottleneck(net, "s", "t", max_size=3)
    assert split is not None
    capacities = [net.link(i).capacity for i in split.cut]
    return split, enumerate_assignments(capacities, rate)


def _side_request(split, role):
    if role == "source":
        return split.source_side, dict(
            role="source", terminal="s", ports=split.source_ports
        )
    return split.sink_side, dict(role="sink", terminal="t", ports=split.sink_ports)


def _networkx_side_masks(side, *, role, terminal, ports, assignments, demand):
    """The reference masks recomputed with networkx max flows: one flow
    network per (configuration, assignment), the assignment's loads as
    port arcs to (``G_s``) or from (``G_t``) a virtual terminal."""
    net = side.network
    masks = np.zeros(1 << net.num_links, dtype=np.uint64)
    for config in range(len(masks)):
        for j, loads in enumerate(assignments):
            g = nx.DiGraph()
            g.add_nodes_from(net.nodes())
            g.add_nodes_from(["__in__", "__out__"])

            def arc(u, v, capacity):
                if g.has_edge(u, v):
                    g[u][v]["capacity"] += capacity
                else:
                    g.add_edge(u, v, capacity=capacity)

            for link in net.links():
                if not config >> link.index & 1 or link.tail == link.head:
                    continue
                arc(link.tail, link.head, link.capacity)
                if not link.directed:
                    arc(link.head, link.tail, link.capacity)
            if role == "source":
                for port, load in zip(ports, loads):
                    arc(port, "__out__", int(load))
                s, t = terminal, "__out__"
            else:
                for port, load in zip(ports, loads):
                    arc("__in__", port, int(load))
                s, t = "__in__", terminal
            if nx.maximum_flow_value(g, s, t) >= demand:
                masks[config] |= np.uint64(1) << np.uint64(j)
    return masks


class TestReferenceOracle:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("role", ["source", "sink"])
    @pytest.mark.parametrize("rate", [1, 2, 3])
    def test_reference_agrees_with_networkx(self, seed, role, rate):
        split, assignments = _split(_instance(seed), rate)
        side, request = _side_request(split, role)
        kwargs = dict(assignments=assignments, demand=rate, **request)
        assert np.array_equal(
            reference_side_masks(side, **kwargs), _networkx_side_masks(side, **kwargs)
        )


class TestSideMasksAcrossKernels:
    @pytest.mark.parametrize("seed", MASK_SEEDS)
    @pytest.mark.parametrize("role", ["source", "sink"])
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("rate", [1, 2, 3])
    def test_masks_match_reference(self, seed, role, kernel, rate):
        split, assignments = _split(_instance(seed), rate)
        side, request = _side_request(split, role)
        with _kernel(kernel):
            built = build_side_cover(
                side, assignments=assignments, demand=rate, **request
            )
        reference = reference_side_masks(
            side, assignments=assignments, demand=rate, **request
        )
        assert built.cubes.dtype == np.uint64
        assert np.array_equal(built.expand(), reference)
        assert built.num_links == side.network.num_links
        assert built.num_assignments == len(assignments)
        if kernel == "certificate" or not assignments:
            assert built.flow_calls == 0
        else:
            assert built.flow_calls > 0

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=300),
        kernel=st.sampled_from(KERNELS),
        role=st.sampled_from(["source", "sink"]),
    )
    def test_arbitrary_instances(self, seed, kernel, role):
        net = bottlenecked_network(
            source_side_links=4,
            sink_side_links=3,
            num_bottlenecks=2,
            demand=2,
            seed=seed,
        )
        split, assignments = _split(net)
        side, request = _side_request(split, role)
        with _kernel(kernel):
            built = build_side_cover(side, assignments=assignments, demand=2, **request)
        reference = reference_side_masks(
            side, assignments=assignments, demand=2, **request
        )
        assert np.array_equal(built.expand(), reference)


class TestUncachedDispatch:
    @pytest.mark.parametrize("role", ["source", "sink"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_cached_side_cover_without_cache_is_build_side_cover(self, role, kernel):
        split, assignments = _split(_instance(0))
        side, request = _side_request(split, role)
        kwargs = dict(assignments=assignments, demand=2, **request)
        with _kernel(kernel):
            direct = build_side_cover(side, **kwargs)
            dispatched = cached_side_cover(side, cache=None, **kwargs)
        assert np.array_equal(direct.cubes, dispatched.cubes)
        assert np.array_equal(dispatched.expand(), reference_side_masks(side, **kwargs))
        assert dispatched.flow_calls == direct.flow_calls
        assert dispatched.num_assignments == direct.num_assignments


class TestValueAcrossKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bottleneck_value_identical(self, seed):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        default = bottleneck_reliability(net, demand)
        with _kernel("max-flow"):
            solved = bottleneck_reliability(net, demand)
        assert default.flow_calls == 0 and solved.flow_calls > 0
        assert solved.value == default.value
        assert solved.configurations == default.configurations
        assert _scrub(solved.details) == _scrub(default.details)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_sweep_matches_pointwise(self, seed, kernel):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability(list(np.linspace(0.7, 0.99, 4)))
        with _kernel(kernel):
            swept = compute_reliability_sweep(net, demand, sweep=spec)
        for i, result in enumerate(swept):
            point = bottleneck_reliability(spec.point_network(net, i), demand)
            assert result.value == point.value
            assert _scrub(result.details) == _scrub(point.details)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_demand_sweep_matches_pointwise(self, seed, kernel):
        net = _instance(seed)
        spec = SweepSpec.demand_rates([1, 2, 3])
        with _kernel(kernel):
            swept = compute_reliability_sweep(net, FlowDemand("s", "t", 2), sweep=spec)
        for rate, result in zip(spec.values, swept):
            point = bottleneck_reliability(net, FlowDemand("s", "t", rate))
            assert result.value == point.value
            assert _scrub(result.details) == _scrub(point.details)


class TestDiskCacheAcrossKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_warm_rerun_solves_nothing(self, tmp_path, seed, kernel):
        """A fresh cache on the directory a cold sweep filled serves a
        repeat sweep with zero misses and zero max-flow solves, and no
        temporary file survives the atomic writes."""
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability([0.8, 0.95])
        cache_dir = tmp_path / "cache"
        with _kernel(kernel):
            cold = compute_reliability_sweep(
                net, demand, sweep=spec, cache=ArrayCache(cache_dir)
            )
            assert cold.cache_stats["misses"] > 0
            warm = compute_reliability_sweep(
                net, demand, sweep=spec, cache=ArrayCache(cache_dir)
            )
        assert warm.flow_calls == 0
        assert warm.cache_stats["misses"] == 0
        assert warm.values == cold.values
        # One cover entry per side.
        assert len(list(Path(cache_dir).glob("*.npy"))) == 2
        assert not list(Path(cache_dir).glob("*.tmp"))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("filler", KERNELS)
    def test_columns_from_one_kernel_serve_the_other(self, tmp_path, seed, filler):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        spec = SweepSpec.availability([0.8, 0.95])
        cache_dir = tmp_path / "cache"
        with _kernel(filler):
            filled = compute_reliability_sweep(
                net, demand, sweep=spec, cache=ArrayCache(cache_dir)
            )
        for kernel in KERNELS:
            with _kernel(kernel):
                again = compute_reliability_sweep(
                    net, demand, sweep=spec, cache=ArrayCache(cache_dir)
                )
            assert again.flow_calls == 0
            assert again.cache_stats["misses"] == 0
            assert again.values == filled.values
