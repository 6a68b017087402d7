"""Unit tests for the sweep engine: the content-addressed ArrayCache,
the cache-aware side-array builder and the vectorized multi-point
accumulation (`repro.core.sweep`)."""

import os

import numpy as np
import pytest

from repro.core import certificate
from repro.core.arrays import build_side_array
from repro.core.assignments import enumerate_assignments
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.sweep import (
    ArrayCache,
    SweepSpec,
    cached_side_array,
    compute_reliability_sweep,
    probability_grid,
    side_fingerprint,
)
from repro.exceptions import ReproValueError
from repro.graph.builders import fujita_fig4
from repro.graph.transforms import split_on_cut
from repro.probability.enumeration import configuration_probabilities
from repro.probability.zeta import superset_zeta, superset_zeta_rows

DEMAND = FlowDemand("s", "t", 2)


def fig4_split(**kwargs):
    net = fujita_fig4(**kwargs)
    return net, split_on_cut(net, "s", "t", [0, 1])


def source_kwargs(split, assignments):
    return dict(
        role="source",
        terminal="s",
        ports=split.source_ports,
        assignments=assignments,
        demand=2,
    )


class TestSideFingerprint:
    def test_excludes_failure_probabilities(self):
        _, lossy = fig4_split(failure_probability=0.3)
        _, robust = fig4_split(failure_probability=0.01)
        args = dict(role="source", terminal="s", ports=lossy.source_ports)
        assert side_fingerprint(lossy.source_side.network, **args) == side_fingerprint(
            robust.source_side.network, **args
        )

    def test_sensitive_to_capacity(self):
        def tiny(capacity):
            from repro.graph.network import FlowNetwork

            net = FlowNetwork()
            net.add_link("s", "a", capacity, 0.1)
            net.add_link("a", "t", 2, 0.1)
            return net

        args = dict(role="source", terminal="s", ports=["t"])
        assert side_fingerprint(tiny(2), **args) != side_fingerprint(
            tiny(3), **args
        )

    def test_sensitive_to_role_terminal_ports(self):
        _, split = fig4_split()
        net = split.source_side.network
        base = side_fingerprint(
            net, role="source", terminal="s", ports=split.source_ports
        )
        assert base != side_fingerprint(
            net, role="sink", terminal="s", ports=split.source_ports
        )
        assert base != side_fingerprint(
            net, role="source", terminal="a", ports=split.source_ports
        )
        assert base != side_fingerprint(
            net,
            role="source",
            terminal="s",
            ports=list(reversed(list(split.source_ports))),
        )


class TestArrayCache:
    def test_memory_round_trip(self):
        cache = ArrayCache()
        column = np.array([True, False, True, True, False], dtype=bool)
        cache.put("k", column)
        assert len(cache) == 1
        got = cache.get("k", 5)
        assert got is not None and got.dtype == bool
        assert np.array_equal(got, column)

    def test_miss_counts(self):
        cache = ArrayCache()
        assert cache.get("absent", 4) is None
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 0

    def test_disk_persistence_across_instances(self, tmp_path):
        column = np.arange(16) % 3 == 0
        first = ArrayCache(tmp_path)
        first.put("k", column)
        assert first.bytes_written > 0
        # a brand-new instance (fresh process stand-in) starts warm
        second = ArrayCache(tmp_path)
        assert len(second) == 0
        got = second.get("k", 16)
        assert got is not None and np.array_equal(got, column)
        assert second.stats()["hits"] == 1 and second.bytes_read > 0

    def test_disk_files_are_content_addressed(self, tmp_path):
        cache = ArrayCache(tmp_path)
        cache.put("deadbeef", np.ones(4, dtype=bool))
        assert (tmp_path / "deadbeef.npy").is_file()
        assert not list(tmp_path.glob("*.tmp"))

    def test_cold_hit_is_read_only(self):
        # An in-place store into a cache hit must raise instead of
        # silently poisoning the buffer the next sweep point reads.
        cache = ArrayCache()
        cache.put("k", np.array([True, False, True, False], dtype=bool))
        got = cache.get("k", 4)
        assert got is not None and not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = False
        again = cache.get("k", 4)
        assert again is not None
        assert np.array_equal(again, [True, False, True, False])

    def test_warm_disk_hit_is_read_only(self, tmp_path):
        column = np.arange(8) % 2 == 0
        ArrayCache(tmp_path).put("k", column)
        warm = ArrayCache(tmp_path)  # fresh instance: served from disk
        got = warm.get("k", 8)
        assert got is not None and not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[:2] = False
        again = warm.get("k", 8)
        assert again is not None and np.array_equal(again, column)


def _column(packed_bytes: int, phase: int = 0) -> np.ndarray:
    """A bool column whose packbits payload is exactly ``packed_bytes``."""
    return (np.arange(packed_bytes * 8) + phase) % 3 == 0


class TestArrayCacheBound:
    def test_max_bytes_must_be_positive(self):
        with pytest.raises(ReproValueError):
            ArrayCache(max_bytes=0)
        with pytest.raises(ReproValueError):
            ArrayCache(max_bytes=-1)

    def test_unbounded_cache_never_evicts(self):
        cache = ArrayCache()
        for i in range(8):
            cache.put(f"k{i}", _column(16, i))
        assert cache.stats()["evictions"] == 0
        assert cache.total_bytes == 0  # accounting only runs when bounded

    def test_lru_eviction_prefers_least_recently_used(self):
        cache = ArrayCache(max_bytes=32)
        cache.put("a", _column(16))
        cache.put("b", _column(16, 1))
        assert cache.get("a", 128) is not None  # a becomes most recent
        cache.put("c", _column(16, 2))  # 48 bytes tracked: evict b, not a
        assert cache.get("b", 128) is None
        assert cache.get("a", 128) is not None
        assert cache.get("c", 128) is not None
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["evicted_bytes"] == 16
        assert cache.total_bytes <= 32

    def test_eviction_unlinks_the_disk_file(self, tmp_path):
        cache = ArrayCache(tmp_path, max_bytes=32)
        cache.put("a", _column(16))
        cache.put("b", _column(16, 1))
        cache.put("c", _column(16, 2))
        assert not (tmp_path / "a.npy").exists()
        assert (tmp_path / "b.npy").is_file() and (tmp_path / "c.npy").is_file()

    def test_adopts_preexisting_disk_tier_oldest_first(self, tmp_path):
        unbounded = ArrayCache(tmp_path)
        for i, key in enumerate(("old", "mid", "new")):
            unbounded.put(key, _column(16, i))
        sizes = {p.stem: p.stat().st_size for p in tmp_path.glob("*.npy")}
        for i, key in enumerate(("old", "mid", "new")):
            os.utime(tmp_path / f"{key}.npy", (1000 + i, 1000 + i))
        bound = sizes["mid"] + sizes["new"]
        bounded = ArrayCache(tmp_path, max_bytes=bound)
        assert not (tmp_path / "old.npy").exists()
        assert (tmp_path / "new.npy").is_file()
        assert bounded.stats()["evictions"] == 1

    def test_single_oversized_column_still_serves(self):
        # The just-touched key is protected: a column larger than the
        # bound degrades the cache to one entry, it never thrashes it.
        cache = ArrayCache(max_bytes=8)
        cache.put("big", _column(16))
        assert cache.get("big", 128) is not None
        assert cache.stats()["evictions"] == 0

    def test_evicted_key_rebuilds_on_demand(self, tmp_path):
        cache = ArrayCache(tmp_path, max_bytes=16)
        cache.put("a", _column(16))
        cache.put("b", _column(16, 1))  # evicts a
        assert cache.get("a", 128) is None
        cache.put("a", _column(16))  # rebuild and re-publish
        assert cache.get("a", 128) is not None


class TestCachedSideArray:
    def test_no_cache_matches_direct_builder(self):
        _, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        kwargs = source_kwargs(split, assignments)
        direct = build_side_array(split.source_side, **kwargs)
        dispatched = cached_side_array(split.source_side, **kwargs)
        assert np.array_equal(direct.masks, dispatched.masks)
        assert direct.flow_calls == dispatched.flow_calls

    def test_cold_then_warm_bit_identity(self):
        _, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        kwargs = source_kwargs(split, assignments)
        direct = build_side_array(split.source_side, **kwargs)
        cache = ArrayCache()
        cold = cached_side_array(split.source_side, cache=cache, **kwargs)
        warm = cached_side_array(split.source_side, cache=cache, **kwargs)
        for built in (cold, warm):
            assert np.array_equal(built.masks, direct.masks)
            assert np.array_equal(built.probabilities, direct.probabilities)
            assert built.num_assignments == direct.num_assignments
        assert cache.stats()["misses"] == len(assignments)
        assert warm.flow_calls == 0
        assert cache.stats()["hits"] == len(assignments)

    def test_partial_warm_builds_only_missing_columns(self):
        _, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        kwargs = source_kwargs(split, assignments)
        cache = ArrayCache()
        cached_side_array(
            split.source_side,
            cache=cache,
            **{**kwargs, "assignments": assignments[:1]},
        )
        full = cached_side_array(split.source_side, cache=cache, **kwargs)
        direct = build_side_array(split.source_side, **kwargs)
        assert np.array_equal(full.masks, direct.masks)
        assert cache.stats()["hits"] == 1
        assert cache.stats()["stores"] == len(assignments)

    def test_cache_shared_between_certificate_and_maxflow_kernels(self, monkeypatch):
        _, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        kwargs = source_kwargs(split, assignments)
        cache = ArrayCache()
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        solved = cached_side_array(split.source_side, cache=cache, **kwargs)
        monkeypatch.undo()
        certified = cached_side_array(split.source_side, cache=cache, **kwargs)
        assert solved.flow_calls > 0
        assert np.array_equal(certified.masks, solved.masks)
        assert certified.flow_calls == 0
        assert cache.stats()["hits"] == len(assignments)


class TestProbabilityGrid:
    def test_rows_match_scalar_tables(self):
        rng = np.random.default_rng(7)
        grid = rng.uniform(0.0, 0.6, size=(5, 4))
        table = probability_grid(grid)
        assert table.shape == (5, 16)
        for s in range(5):
            scalar = configuration_probabilities(list(grid[s]))
            assert np.array_equal(table[s], scalar)

    def test_rejects_non_2d(self):
        with pytest.raises(ReproValueError, match="two-dimensional"):
            probability_grid(np.array([0.1, 0.2]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ReproValueError, match=r"\[0, 1\)"):
            probability_grid(np.array([[0.1, 1.0]]))
        with pytest.raises(ReproValueError, match=r"\[0, 1\)"):
            probability_grid(np.array([[-0.1, 0.5]]))


class TestSupersetZetaRows:
    def test_matches_scalar_per_row(self):
        rng = np.random.default_rng(11)
        values = rng.uniform(size=(6, 8))
        rows = superset_zeta_rows(values)
        for s in range(6):
            assert np.array_equal(rows[s], superset_zeta(values[s]))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ReproValueError):
            superset_zeta_rows(np.ones(8))
        with pytest.raises(ReproValueError):
            superset_zeta_rows(np.ones((2, 3)))

    def test_inplace(self):
        values = np.ones((2, 4))
        out = superset_zeta_rows(values, inplace=True)
        assert out is values


class TestSweepSpec:
    def test_empty_rejected(self):
        for factory in (
            SweepSpec.availability,
            SweepSpec.failure_scale,
            SweepSpec.overrides,
            SweepSpec.demand_rates,
        ):
            with pytest.raises(ReproValueError, match="at least one point"):
                factory([])

    def test_availability_bounds(self):
        with pytest.raises(ReproValueError, match="outside"):
            SweepSpec.availability([0.9, 0.0])
        with pytest.raises(ReproValueError, match="outside"):
            SweepSpec.availability([1.5])

    def test_scale_validation(self):
        with pytest.raises(ReproValueError, match="negative"):
            SweepSpec.failure_scale([-0.5])
        net = fujita_fig4(failure_probability=0.4)
        spec = SweepSpec.failure_scale([3.0])
        with pytest.raises(ReproValueError, match="pushes a link"):
            spec.failure_matrix(net)

    def test_override_validation(self):
        net = fujita_fig4()
        with pytest.raises(ReproValueError, match="out of range"):
            SweepSpec.overrides([{99: 0.5}]).failure_matrix(net)
        with pytest.raises(ReproValueError, match=r"outside \[0, 1\)"):
            SweepSpec.overrides([{0: 1.0}]).failure_matrix(net)

    def test_demand_sweep_has_no_failure_matrix(self):
        with pytest.raises(ReproValueError, match="do not define"):
            SweepSpec.demand_rates([1, 2]).failure_matrix(fujita_fig4())

    def test_point_network_applies_rows(self):
        net = fujita_fig4(failure_probability=0.1)
        spec = SweepSpec.availability([0.8, 0.95])
        point = spec.point_network(net, 1)
        assert point.failure_probabilities() == pytest.approx(
            [0.05] * net.num_links
        )
        matrix = spec.failure_matrix(net)
        assert matrix.shape == (2, net.num_links)
        assert np.array_equal(matrix[0], np.full(net.num_links, 1.0 - 0.8))


class TestComputeReliabilitySweep:
    def pointwise(self, net, spec, index):
        return bottleneck_reliability(spec.point_network(net, index), DEMAND)

    def test_availability_sweep_bit_identical_to_pointwise(self):
        net = fujita_fig4(failure_probability=0.1)
        spec = SweepSpec.availability(list(np.linspace(0.7, 0.99, 7)))
        swept = compute_reliability_sweep(net, DEMAND, sweep=spec)
        assert len(swept) == 7
        for i, result in enumerate(swept):
            point = self.pointwise(net, spec, i)
            assert result.value == point.value  # bit-equal, not approx
            assert result.method == point.method
            assert result.configurations == point.configurations
            assert result.details == point.details

    def test_warm_cache_sweep_zero_solves(self):
        net = fujita_fig4(failure_probability=0.1)
        spec = SweepSpec.availability([0.8, 0.9, 0.97])
        cache = ArrayCache()
        cold = compute_reliability_sweep(net, DEMAND, sweep=spec, cache=cache)
        warm = compute_reliability_sweep(net, DEMAND, sweep=spec, cache=cache)
        assert cold.cache_stats["misses"] > 0
        assert warm.flow_calls == 0
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hits"] == cold.cache_stats["stores"]
        assert warm.values == cold.values

    def test_disk_cache_carries_between_sweeps(self, tmp_path):
        net = fujita_fig4(failure_probability=0.1)
        spec = SweepSpec.availability([0.8, 0.9])
        first = compute_reliability_sweep(
            net, DEMAND, sweep=spec, cache=ArrayCache(tmp_path)
        )
        second = compute_reliability_sweep(
            net, DEMAND, sweep=spec, cache=ArrayCache(tmp_path)
        )
        assert first.cache_stats["misses"] > 0
        assert second.cache_stats["misses"] == 0
        assert second.flow_calls == 0
        assert second.values == first.values

    def test_failure_scale_and_override_kinds(self):
        net = fujita_fig4(failure_probability=0.1)
        for spec in (
            SweepSpec.failure_scale([0.5, 1.0, 2.0]),
            SweepSpec.overrides([{0: 0.3}, {5: 0.0}, {}]),
        ):
            swept = compute_reliability_sweep(net, DEMAND, sweep=spec)
            for i, result in enumerate(swept):
                assert result.value == self.pointwise(net, spec, i).value

    def test_demand_above_cut_capacity_all_zero(self):
        net = fujita_fig4()
        swept = compute_reliability_sweep(
            net,
            FlowDemand("s", "t", 5),
            sweep=SweepSpec.availability([0.8, 0.9]),
        )
        assert swept.flow_calls == 0
        for result in swept:
            assert result.value == 0.0
            assert result.details["reason"] == "cut capacity below demand"

    def test_demand_sweep_matches_pointwise(self):
        net = fujita_fig4(failure_probability=0.1)
        spec = SweepSpec.demand_rates([1, 2, 3, 4])
        swept = compute_reliability_sweep(net, DEMAND, sweep=spec)
        assert swept.kind == "demand"
        for rate, result in zip(spec.values, swept):
            point = bottleneck_reliability(net, FlowDemand("s", "t", rate))
            assert result.value == point.value

    def test_demand_sweep_shares_columns_across_rates(self):
        # Rates 2 and 3 over a capacity-2 pair share the assignment
        # tuples (0,2)/(2,0) etc. only partially; a repeated sweep with
        # the same cache must be fully warm either way.
        net = fujita_fig4(failure_probability=0.1)
        spec = SweepSpec.demand_rates([1, 2, 3])
        cache = ArrayCache()
        compute_reliability_sweep(net, DEMAND, sweep=spec, cache=cache)
        warm = compute_reliability_sweep(net, DEMAND, sweep=spec, cache=cache)
        assert warm.flow_calls == 0

    def test_cached_pointwise_call_reports_cache_delta(self):
        net = fujita_fig4(failure_probability=0.1)
        cache = ArrayCache()
        cold = bottleneck_reliability(net, DEMAND, cache=cache)
        warm = bottleneck_reliability(net, DEMAND, cache=cache)
        assert warm.value == cold.value
        assert cold.details["array_cache"]["misses"] > 0
        assert warm.flow_calls == 0
        assert warm.details["array_cache"]["misses"] == 0
        assert warm.details["array_cache"]["hits"] > 0
