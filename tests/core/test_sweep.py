"""Unit tests for the sweep engine: the content-addressed ArrayCache of
side covers and its cut-search memo, the cache-aware side-cover
dispatch and the vectorized multi-point accumulation
(`repro.core.sweep`)."""

import errno
import gc
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import certificate, sweep
from repro.core.api import compute_reliability
from repro.core.arrays import build_side_cover
from repro.core.assignments import enumerate_assignments, support_mask
from repro.core.bottleneck import bottleneck_reliability
from repro.core.cover import SideCover
from repro.core.demand import FlowDemand
from repro.core.sweep import (
    ArrayCache,
    SweepSpec,
    cached_side_cover,
    compute_reliability_sweep,
    grid_reliability,
    network_fingerprint,
    probability_grid,
    side_fingerprint,
)
from repro.exceptions import DecompositionError, ReproValueError
from repro.graph.builders import fujita_fig4, parallel_links
from repro.graph.generators import bottlenecked_network, chained_network
from repro.graph.transforms import split_on_cut, split_on_cuts
from repro.obs.recorder import ARRAY_CACHE_WRITE_ERRORS, SPLIT_CACHE_HITS, record
from repro.probability.enumeration import configuration_probabilities
from tests.reference_arrays import reference_side_masks

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
    def test_fig4_digests_are_pinned(self):
        """Disk caches written by earlier versions stay valid: fig4's
        digests are byte-identical to the ones they were keyed by."""
        net, split = fig4_split()
        assert network_fingerprint(net) == (
            "ac992765ea87b7da1ec3d552eee97d768a103213900ff35cf844743521deb04a"
        )
        assert side_fingerprint(
            split.source_side.network, role="source", terminal="s", ports=split.source_ports
        ) == "41a1601a673199bfe035a9be7f0b549f805280a9037052191d91d7bb3c8ff269"
        assert side_fingerprint(
            split.sink_side.network, role="sink", terminal="t", ports=split.sink_ports
        ) == "699c7a9bfaff29ffdf437944aaf911bf0fbe46a7b3a18eb5135eb155f4a32087"

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


def _cover(cubes: int = 2, phase: int = 0) -> SideCover:
    """A valid cover entry: ``cubes`` cubes partitioning ``cubes - 1``
    links (``24 * cubes`` bytes of cubes), masks over two assignments.

    Cube ``j`` is "links below ``j`` dead, link ``j`` alive"; the last
    cube has every link dead.
    """
    links = cubes - 1
    rows = [[1 << j, (1 << j) - 1, (j + phase) % 4] for j in range(links)]
    rows.append([0, (1 << links) - 1, phase % 4])
    return SideCover(
        cubes=np.array(rows, dtype=np.uint64), num_links=links, num_assignments=2
    )


#: Resident bytes of a two-cube :func:`_cover` (any phase): its 48 bytes
#: of cubes plus the arrays derived from them.
TWO_CUBES = _cover().nbytes


def _get(cache, key, cubes=2):
    """The cubes ``cache.get`` returns for a :func:`_cover` entry, or None."""
    cover = cache.get(key, cubes - 1, 2)
    return None if cover is None else cover.cubes


class TestArrayCache:
    def test_memory_round_trip(self):
        cache = ArrayCache()
        cover = _cover(3)
        cache.put("k", cover)
        assert len(cache) == 1
        got = _get(cache, "k", 3)
        assert got is not None and got.dtype == np.uint64
        assert np.array_equal(got, cover.cubes)

    def test_miss_counts(self):
        cache = ArrayCache()
        assert _get(cache, "absent") is None
        stats = cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 0

    def test_disk_persistence_across_instances(self, tmp_path):
        cover = _cover(5)
        first = ArrayCache(tmp_path)
        first.put("k", cover)
        assert first.bytes_written > 0
        # a brand-new instance (fresh process stand-in) starts warm
        second = ArrayCache(tmp_path)
        assert len(second) == 0
        got = _get(second, "k", 5)
        assert got is not None and np.array_equal(got, cover.cubes)
        assert second.stats()["hits"] == 1 and second.bytes_read > 0

    def test_disk_files_are_content_addressed(self, tmp_path):
        cache = ArrayCache(tmp_path)
        cache.put("deadbeef", _cover())
        assert (tmp_path / "deadbeef.npy").is_file()
        assert not list(tmp_path.glob("*.tmp"))

    def test_cold_hit_is_read_only(self):
        # An in-place store into a cache hit must raise instead of
        # silently poisoning the buffer the next sweep point reads.
        cache = ArrayCache()
        cache.put("k", _cover(3))
        got = _get(cache, "k", 3)
        assert got is not None and not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0, 2] = 0
        again = _get(cache, "k", 3)
        assert again is not None
        assert np.array_equal(again, _cover(3).cubes)

    def test_warm_disk_hit_is_read_only(self, tmp_path):
        cover = _cover(4)
        ArrayCache(tmp_path).put("k", cover)
        warm = ArrayCache(tmp_path)  # fresh instance: served from disk
        got = _get(warm, "k", 4)
        assert got is not None and not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[:2] = 0
        again = _get(warm, "k", 4)
        assert again is not None and np.array_equal(again, cover.cubes)


class TestArrayCacheBound:
    """Every entry here is a two-cube cover of ``TWO_CUBES`` resident bytes."""

    def test_max_bytes_must_be_positive(self):
        with pytest.raises(ReproValueError):
            ArrayCache(max_bytes=0)
        with pytest.raises(ReproValueError):
            ArrayCache(max_bytes=-1)

    def test_unbounded_cache_never_evicts(self):
        cache = ArrayCache()
        for i in range(8):
            cache.put(f"k{i}", _cover(2, i))
        assert cache.stats()["evictions"] == 0
        assert cache.total_bytes == 0  # accounting only runs when bounded

    def test_lru_eviction_prefers_least_recently_used(self):
        cache = ArrayCache(max_bytes=2 * TWO_CUBES)
        cache.put("a", _cover())
        cache.put("b", _cover(2, 1))
        assert _get(cache, "a") is not None  # a becomes most recent
        cache.put("c", _cover(2, 2))  # three entries tracked: evict b, not a
        assert _get(cache, "b") is None
        assert _get(cache, "a") is not None
        assert _get(cache, "c") is not None
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["evicted_bytes"] == TWO_CUBES
        assert cache.total_bytes <= 2 * TWO_CUBES

    def test_eviction_unlinks_the_disk_file(self, tmp_path):
        cache = ArrayCache(tmp_path, max_bytes=2 * TWO_CUBES)
        cache.put("a", _cover())
        cache.put("b", _cover(2, 1))
        cache.put("c", _cover(2, 2))
        assert not (tmp_path / "a.npy").exists()
        assert (tmp_path / "b.npy").is_file() and (tmp_path / "c.npy").is_file()

    def test_adopts_preexisting_disk_tier_oldest_first(self, tmp_path):
        unbounded = ArrayCache(tmp_path)
        for i, key in enumerate(("old", "mid", "new")):
            unbounded.put(key, _cover(2, i))
        sizes = {p.stem: p.stat().st_size for p in tmp_path.glob("*.npy")}
        for i, key in enumerate(("old", "mid", "new")):
            os.utime(tmp_path / f"{key}.npy", (1000 + i, 1000 + i))
        bound = sizes["mid"] + sizes["new"]
        bounded = ArrayCache(tmp_path, max_bytes=bound)
        assert not (tmp_path / "old.npy").exists()
        assert (tmp_path / "new.npy").is_file()
        assert bounded.stats()["evictions"] == 1

    def test_bound_holds_once_derived_arrays_exist(self):
        """Served covers carry their derived arrays; the bound counts
        them, and eviction drops them with the cubes."""
        nets = [
            bottlenecked_network(
                source_side_links=5, sink_side_links=4, num_bottlenecks=2, demand=2, seed=seed
            )
            for seed in (0, 1, 7)
        ]
        unbounded = ArrayCache()
        for net in nets:
            bottleneck_reliability(net, DEMAND, cache=unbounded)
        covers = list(unbounded._memory.values())
        assert all(cover.nbytes > cover.cubes.nbytes for cover in covers)
        bound = sum(cover.nbytes for cover in covers) // 2
        cache = ArrayCache(max_bytes=bound)
        for net in nets * 2:
            value = bottleneck_reliability(net, DEMAND, cache=cache).value
            assert value == bottleneck_reliability(net, DEMAND).value
            assert cache.total_bytes <= bound
        resident = sum(cover.nbytes for cover in cache._memory.values())
        splits = sum(
            size for key, size in cache._sizes.items() if key not in cache._memory
        )
        assert cache.total_bytes == resident + splits
        assert cache.stats()["evictions"] > 0

    def test_accounted_bytes_are_what_stored_topologies_hold(self):
        """``total_bytes`` is honest: the memory tracemalloc sees the
        cache grow by, per stored topology (its split memo, both covers
        and their derived arrays and regroupings), is within 1.5x of it."""
        nets = [
            bottlenecked_network(
                source_side_links=8, sink_side_links=9, num_bottlenecks=2, demand=2, seed=seed
            )
            for seed in range(42)
            if seed != 25  # no admissible cut
        ]
        grids = [
            np.asarray(net.failure_probabilities(), dtype=np.float64).reshape(1, -1)
            for net in nets
        ]
        cache = ArrayCache(max_bytes=1 << 40)
        for net, grid in zip(nets[:2], grids[:2]):  # first-call allocations
            grid_reliability(net, DEMAND, grid, cache=cache)
        gc.collect()
        tracemalloc.start()
        try:
            before, accounted = tracemalloc.get_traced_memory()[0], cache.total_bytes
            for net, grid in zip(nets[2:], grids[2:]):
                grid_reliability(net, DEMAND, grid, cache=cache)
            gc.collect()
            traced = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        accounted = cache.total_bytes - accounted
        assert accounted > 0
        assert accounted / 1.5 <= traced <= 1.5 * accounted, (traced, accounted)

    def test_single_oversized_column_still_serves(self):
        # The just-touched key is protected: an entry larger than the
        # bound degrades the cache to one entry, it never thrashes it.
        cache = ArrayCache(max_bytes=8)
        cache.put("big", _cover())
        assert _get(cache, "big") is not None
        assert cache.stats()["evictions"] == 0

    def test_evicted_key_rebuilds_on_demand(self, tmp_path):
        cache = ArrayCache(tmp_path, max_bytes=TWO_CUBES)
        cache.put("a", _cover())
        cache.put("b", _cover(2, 1))  # evicts a
        assert _get(cache, "a") is None
        cache.put("a", _cover())  # rebuild and re-publish
        assert _get(cache, "a") is not None


class TestCorruptDiskEntries:
    """A damaged ``.npy`` in the disk tier is a miss, never a wrong answer."""

    @staticmethod
    def _damage_every_entry(tmp_path, write):
        net = fujita_fig4(failure_probability=0.1)
        bottleneck_reliability(net, DEMAND, cache=ArrayCache(tmp_path))
        paths = sorted(tmp_path.glob("*.npy"))
        assert paths
        for path in paths:
            write(path)
        return net, paths

    def test_truncated_column_is_rebuilt(self, tmp_path):
        net, paths = self._damage_every_entry(
            tmp_path, lambda path: np.save(path, np.zeros((0, 3), dtype=np.uint64))
        )
        cache = ArrayCache(tmp_path)
        value = bottleneck_reliability(net, DEMAND, cache=cache).value
        assert value == bottleneck_reliability(net, DEMAND).value
        assert cache.stats()["hits"] == 0
        # The rebuilt covers replace the damaged files.
        assert all(np.load(path).size > 0 for path in paths)

    def test_garbage_file_is_a_miss(self, tmp_path):
        net, _ = self._damage_every_entry(
            tmp_path, lambda path: path.write_bytes(b"not a numpy file")
        )
        cache = ArrayCache(tmp_path)
        value = bottleneck_reliability(net, DEMAND, cache=cache).value
        assert value == bottleneck_reliability(net, DEMAND).value
        assert cache.stats()["hits"] == 0

    def test_damaged_entry_leaves_the_lru_accounting(self, tmp_path):
        (tmp_path / "k.npy").write_bytes(b"garbage")
        cache = ArrayCache(tmp_path, max_bytes=1024)
        assert cache.total_bytes == len(b"garbage")
        assert _get(cache, "k") is None
        assert cache.total_bytes == 0
        assert not (tmp_path / "k.npy").exists()


class TestArrayCacheFaults:
    """Disk-tier writes that race or fail never fail the computation."""

    def test_two_writers_publish_one_key(self, tmp_path, monkeypatch):
        # A second cache on the same directory publishes the key while
        # the first writer is mid-save: both must finish.
        cover = _cover(5)
        first = ArrayCache(tmp_path)
        second = ArrayCache(tmp_path)
        save = np.save
        interleaved = []

        def save_after_rival(handle, array):
            if not interleaved:
                interleaved.append(True)
                second.put("k", cover)
            save(handle, array)

        monkeypatch.setattr(np, "save", save_after_rival)
        first.put("k", cover)
        monkeypatch.setattr(np, "save", save)
        assert interleaved
        assert first.write_errors == 0 and second.write_errors == 0
        assert not list(tmp_path.glob("*.tmp"))
        got = _get(ArrayCache(tmp_path), "k", 5)
        assert got is not None and np.array_equal(got, cover.cubes)

    def test_failed_disk_write_serves_from_memory(self, tmp_path, monkeypatch):
        def full_disk(handle, array):
            raise OSError(errno.ENOSPC, "No space left on device")

        net = fujita_fig4(failure_probability=0.1)
        expected = bottleneck_reliability(net, DEMAND).value
        monkeypatch.setattr(np, "save", full_disk)
        cache = ArrayCache(tmp_path)
        with record() as rec:
            value = bottleneck_reliability(net, DEMAND, cache=cache).value
        assert value == expected
        assert cache.stats()["write_errors"] == cache.stats()["stores"] > 0
        assert rec.counter_total(ARRAY_CACHE_WRITE_ERRORS) == cache.write_errors
        assert not list(tmp_path.iterdir())
        # The covers stay in memory: a second call is fully warm.
        again = bottleneck_reliability(net, DEMAND, cache=cache)
        assert again.value == expected
        assert again.details["array_cache"]["misses"] == 0

    def test_put_leaves_only_the_column_file(self, tmp_path):
        ArrayCache(tmp_path).put("k", _cover())
        assert [path.name for path in tmp_path.iterdir()] == ["k.npy"]

    def test_published_column_has_the_plain_open_mode(self, tmp_path):
        # Other users sharing the directory must be able to read the
        # entry, exactly as if it had been written by a plain open().
        covers, plain = tmp_path / "covers", tmp_path / "plain"
        ArrayCache(covers).put("k", _cover())
        with open(plain, "wb"):
            pass
        assert (covers / "k.npy").stat().st_mode == plain.stat().st_mode

    def test_partial_write_leaves_no_column(self, tmp_path, monkeypatch):
        # The disk fills after a few bytes: neither a temp file nor a
        # truncated entry is left for a later reader.
        def partial_then_full(handle, array):
            handle.write(b"\x93NUMPY")
            raise OSError(errno.ENOSPC, "No space left on device")

        cover = _cover(5)
        monkeypatch.setattr(np, "save", partial_then_full)
        cache = ArrayCache(tmp_path)
        cache.put("k", cover)
        assert cache.write_errors == 1
        assert np.array_equal(_get(cache, "k", 5), cover.cubes)
        assert not list(tmp_path.iterdir())
        assert _get(ArrayCache(tmp_path), "k", 5) is None

    def test_write_after_a_failure_publishes(self, tmp_path, monkeypatch):
        save = np.save
        failures = []

        def fail_once(handle, array):
            if not failures:
                failures.append(True)
                raise OSError(errno.ENOSPC, "No space left on device")
            save(handle, array)

        monkeypatch.setattr(np, "save", fail_once)
        cache = ArrayCache(tmp_path)
        cache.put("a", _cover(2, 1))
        cache.put("b", _cover(2, 2))
        assert cache.write_errors == 1
        assert [path.name for path in tmp_path.iterdir()] == ["b.npy"]
        # Another cache on the directory publishes the failed key later.
        ArrayCache(tmp_path).put("a", _cover(2, 1))
        assert np.array_equal(_get(ArrayCache(tmp_path), "a"), _cover(2, 1).cubes)

    def test_damaged_entry_this_writer_cannot_remove_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        # Another user's damaged entry in a sticky directory: the
        # unlink is refused, the lookup is still a plain miss.
        (tmp_path / "k.npy").write_bytes(b"garbage")

        def refuse(self, missing_ok=False):
            raise PermissionError(errno.EPERM, "Operation not permitted")

        monkeypatch.setattr(Path, "unlink", refuse)
        cache = ArrayCache(tmp_path)
        assert _get(cache, "k") is None
        cache.put("k", _cover())
        assert np.array_equal(_get(cache, "k"), _cover().cubes)

    def test_memory_only_cache_counts_no_write_errors(self, monkeypatch):
        def full_disk(handle, array):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(np, "save", full_disk)
        cache = ArrayCache()
        cache.put("k", _cover())
        assert cache.stats()["write_errors"] == 0
        assert np.array_equal(_get(cache, "k"), _cover().cubes)

    @pytest.mark.parametrize("column", [0, 1], ids=["alive", "dead"])
    def test_flipped_link_bit_is_a_miss(self, tmp_path, column):
        # One flipped alive/dead bit makes two cubes overlap (or leaves
        # configurations uncovered): the entry is no partition, so it
        # is unlinked and rebuilt, never served.
        cover = _cover(4).cubes.copy()
        cover[0, column] ^= np.uint64(0b10)
        np.save(tmp_path / "k.npy", cover)
        cache = ArrayCache(tmp_path)
        assert cache.get("k", 3, 2) is None
        assert not (tmp_path / "k.npy").exists()
        assert cache.stats()["misses"] == 1

    def test_flipped_bits_in_real_entries_are_rebuilt(self, tmp_path):
        net = fujita_fig4(failure_probability=0.1)
        expected = bottleneck_reliability(net, DEMAND).value
        bottleneck_reliability(net, DEMAND, cache=ArrayCache(tmp_path))
        for path in tmp_path.glob("*.npy"):
            cubes = np.load(path)
            cubes[0, 0] ^= np.uint64(1)
            np.save(path, cubes)
        cache = ArrayCache(tmp_path)
        assert bottleneck_reliability(net, DEMAND, cache=cache).value == expected
        assert cache.stats()["hits"] == 0


class TestCachedSideCover:
    def test_no_cache_matches_direct_builder(self):
        _, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        kwargs = source_kwargs(split, assignments)
        direct = build_side_cover(split.source_side, **kwargs)
        dispatched = cached_side_cover(split.source_side, **kwargs)
        assert np.array_equal(direct.cubes, dispatched.cubes)
        assert direct.flow_calls == dispatched.flow_calls
        assert np.array_equal(
            dispatched.expand(), reference_side_masks(split.source_side, **kwargs)
        )

    def test_warm_hit_is_the_stored_cover_and_derives_nothing(self, monkeypatch):
        """Every hit returns the same object: its distinct masks, groups
        and per-link cube lists are derived once per process."""
        _, split = fig4_split()
        kwargs = source_kwargs(split, enumerate_assignments([2, 2], 2))
        cache = ArrayCache()
        cached_side_cover(split.source_side, cache=cache, **kwargs)
        first = cached_side_cover(split.source_side, cache=cache, **kwargs)
        first.weights(np.full((1, first.num_links), 0.1))

        def forbidden(*args, **kwargs):
            raise AssertionError("a warm hit re-derived its masks")

        monkeypatch.setattr(np, "unique", forbidden)
        monkeypatch.setattr(np, "flatnonzero", forbidden)
        second = cached_side_cover(split.source_side, cache=cache, **kwargs)
        assert second is first
        second.weights(np.full((2, second.num_links), 0.2))
        for array in (*second._grouping, *(a for _, *ab in second._decided for a in ab)):
            assert not array.flags.writeable

    def test_cold_then_warm_bit_identity(self):
        _, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        kwargs = source_kwargs(split, assignments)
        direct = build_side_cover(split.source_side, **kwargs)
        cache = ArrayCache()
        cold = cached_side_cover(split.source_side, cache=cache, **kwargs)
        warm = cached_side_cover(split.source_side, cache=cache, **kwargs)
        for built in (cold, warm):
            assert np.array_equal(built.cubes, direct.cubes)
            assert built.num_links == direct.num_links
            assert built.num_assignments == direct.num_assignments
        # One entry per side and assignment list.
        assert cache.stats()["misses"] == 1
        assert warm.flow_calls == 0
        assert cache.stats()["hits"] == 1

    def test_assignment_list_is_part_of_the_key(self):
        _, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        kwargs = source_kwargs(split, assignments)
        cache = ArrayCache()
        cached_side_cover(
            split.source_side,
            cache=cache,
            **{**kwargs, "assignments": assignments[:1]},
        )
        full = cached_side_cover(split.source_side, cache=cache, **kwargs)
        direct = build_side_cover(split.source_side, **kwargs)
        assert np.array_equal(full.cubes, direct.cubes)
        assert cache.stats()["hits"] == 0
        assert cache.stats()["stores"] == 2

    def test_cache_shared_between_certificate_and_maxflow_kernels(self, monkeypatch):
        _, split = fig4_split()
        assignments = enumerate_assignments([2, 2], 2)
        kwargs = source_kwargs(split, assignments)
        cache = ArrayCache()
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        solved = cached_side_cover(split.source_side, cache=cache, **kwargs)
        monkeypatch.undo()
        certified = cached_side_cover(split.source_side, cache=cache, **kwargs)
        assert solved.flow_calls > 0
        assert np.array_equal(certified.cubes, solved.cubes)
        assert np.array_equal(
            certified.cubes, build_side_cover(split.source_side, **kwargs).cubes
        )
        assert certified.flow_calls == 0
        assert cache.stats()["hits"] == 1


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


def _cut_searches(rec):
    return [
        span.attrs for span in rec.root.iter_spans() if span.name == "bottleneck.cut_search"
    ]


class TestSplitMemo:
    """A caller's ArrayCache memoizes found cut searches per topology."""

    def test_second_sweep_on_topology_skips_the_cut_search(self):
        cache = ArrayCache()
        first = fujita_fig4(failure_probability=0.1)
        compute_reliability_sweep(
            first, DEMAND, sweep=SweepSpec.availability([0.8, 0.9]), cache=cache
        )
        # Same topology, other probabilities and another sweep.
        second = fujita_fig4(failure_probability=0.3)
        spec = SweepSpec.failure_scale([0.5, 1.0, 1.5])
        with record() as rec:
            swept = compute_reliability_sweep(second, DEMAND, sweep=spec, cache=cache)
        assert _cut_searches(rec) == []
        assert rec.counter_total(SPLIT_CACHE_HITS) == 1
        fresh = compute_reliability_sweep(second, DEMAND, sweep=spec)
        assert swept.values == fresh.values
        assert [r.details for r in swept] == [r.details for r in fresh]

    def test_memoized_split_carries_its_side_digests(self, monkeypatch):
        cache = ArrayCache()
        net = fujita_fig4(failure_probability=0.1)
        bottleneck_reliability(net, DEMAND, cache=cache)
        [split] = cache._splits.values()
        assert split.side_digests == (
            side_fingerprint(
                split.source_side.network,
                role="source",
                terminal="s",
                ports=split.source_ports,
            ),
            side_fingerprint(
                split.sink_side.network, role="sink", terminal="t", ports=split.sink_ports
            ),
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("a memoized split's side was re-serialized")

        monkeypatch.setattr(sweep, "side_fingerprint", forbidden)
        again = bottleneck_reliability(net, DEMAND, cache=cache)
        assert again.details["array_cache"]["misses"] == 0

    def test_auto_with_a_cache_searches_once(self):
        net = fujita_fig4(failure_probability=0.1)
        cache = ArrayCache()
        with record() as rec:
            first = compute_reliability(net, demand=DEMAND, cache=cache)
            second = compute_reliability(
                fujita_fig4(failure_probability=0.2), demand=DEMAND, cache=cache
            )
        assert _cut_searches(rec) == [{"given": False}]
        assert first.value == compute_reliability(net, demand=DEMAND).value
        assert second.value == compute_reliability(
            fujita_fig4(failure_probability=0.2), demand=DEMAND
        ).value

    def test_memo_ignores_the_rate(self):
        net = fujita_fig4(failure_probability=0.1)
        cache = ArrayCache()
        bottleneck_reliability(net, FlowDemand("s", "t", 1), cache=cache)
        with record() as rec:
            memo = bottleneck_reliability(net, DEMAND, cache=cache)
        assert _cut_searches(rec) == []
        assert memo.value == bottleneck_reliability(net, DEMAND).value

    def test_memo_entries_are_not_covers(self):
        cache = ArrayCache()
        bottleneck_reliability(fujita_fig4(), DEMAND, cache=cache)
        assert len(cache) == 2
        assert cache.stats()["stores"] == 2

    def test_given_cut_bypasses_the_memo(self):
        net = fujita_fig4(failure_probability=0.1)
        cache = ArrayCache()
        with record() as rec:
            given = bottleneck_reliability(net, DEMAND, cut=[0, 1], cache=cache)
            searched = bottleneck_reliability(net, DEMAND, cache=cache)
            again = bottleneck_reliability(net, DEMAND, cut=[0, 1], cache=cache)
        # The given cut stored nothing, so the search ran; the memo it
        # filled is not consulted for a given cut, which is verified.
        assert _cut_searches(rec) == [{"given": True}, {"given": False}, {"given": True}]
        assert rec.counter_total(SPLIT_CACHE_HITS) == 0
        assert given.value == searched.value == again.value

    def test_failed_search_is_not_memoized(self):
        net = parallel_links(5)
        cache = ArrayCache()
        with record() as rec:
            for _ in range(2):
                with pytest.raises(DecompositionError):
                    bottleneck_reliability(net, FlowDemand("s", "t", 1), cache=cache)
        assert _cut_searches(rec) == [{"given": False}, {"given": False}]

    def test_max_bytes_eviction_drops_memo_entries(self):
        # One byte holds only the just-touched entry: the memoized split
        # is evicted by the covers stored after it.
        net = fujita_fig4(failure_probability=0.1)
        cache = ArrayCache(max_bytes=1)
        with record() as rec:
            first = bottleneck_reliability(net, DEMAND, cache=cache)
            second = bottleneck_reliability(net, DEMAND, cache=cache)
        assert _cut_searches(rec) == [{"given": False}, {"given": False}]
        assert rec.counter_total(SPLIT_CACHE_HITS) == 0
        assert second.value == first.value
        assert len(cache) == 1
        # Only the covers' evictions are counted.
        assert cache.stats()["evictions"] == 3

    def test_memo_entry_counts_toward_max_bytes(self):
        searched = ArrayCache(max_bytes=1 << 20)
        cut = bottleneck_reliability(fujita_fig4(), DEMAND, cache=searched).details["cut"]
        given = ArrayCache(max_bytes=1 << 20)
        bottleneck_reliability(fujita_fig4(), DEMAND, cut=cut, cache=given)
        assert len(searched) == len(given) == 2
        assert searched.total_bytes > given.total_bytes

    @pytest.mark.parametrize(
        "call",
        [
            lambda net: compute_reliability(net, demand=DEMAND, method="auto").value,
            lambda net: bottleneck_reliability(net, DEMAND).value,
            lambda net: compute_reliability_sweep(
                net, DEMAND, sweep=SweepSpec.availability([0.9])
            ).values[0],
        ],
        ids=["auto", "bottleneck", "sweep"],
    )
    def test_no_cache_never_fingerprints(self, monkeypatch, call):
        def forbidden(net):
            raise AssertionError("fingerprinted without a caller's cache")

        monkeypatch.setattr(sweep, "network_fingerprint", forbidden)
        assert 0.0 < call(fujita_fig4()) < 1.0


class TestChainSplit:
    """The pipeline on a multi-cut split: the chain DP, row by row."""

    def test_rows_are_computed_on_their_own(self):
        net = chained_network([4, 5, 4], cut_sizes=2, demand=2, seed=1)
        split = split_on_cuts(net, "s", "t", net._chain_cut_indices)
        assert len(split.segments) == 3
        grid = SweepSpec.availability([0.7, 0.9, 0.99]).failure_matrix(net)
        rows, flow_calls = sweep.split_reliability(net, DEMAND, split, grid, cache=None)
        assert flow_calls == 0
        for i, row in enumerate(rows):
            (alone,), _ = sweep.split_reliability(
                net, DEMAND, split, grid[i : i + 1], cache=None
            )
            assert row.value.hex() == alone.value.hex()
            assert row.details == alone.details


class TestCrossCut:
    """The per-pattern bincount mixes the subset distribution exactly as
    the per-state redistribution ``new[R & allowed] += dist[R] · p``."""

    @staticmethod
    def _reference(dist, patterns, assignments):
        supports = [support_mask(a) for a in assignments]
        new = np.zeros_like(dist)
        for pattern, p in enumerate(patterns):
            allowed = sum(
                1 << j for j, support in enumerate(supports) if support & ~pattern == 0
            )
            for state, value in enumerate(dist):
                new[state & allowed] += value * p
        return new

    @staticmethod
    def _inputs(seed, capacities, demand):
        rng = np.random.default_rng(seed)
        assignments = enumerate_assignments(capacities, demand)
        dist = rng.random(1 << len(assignments))
        dist[rng.random(len(dist)) < 0.3] = 0.0
        dist /= dist.sum()
        patterns = rng.random(1 << len(capacities))
        patterns[0] = 0.0
        return dist, patterns / patterns.sum(), assignments

    @pytest.mark.parametrize(
        "seed, capacities, demand",
        [(0, [1, 1], 1), (1, [2, 2], 2), (2, [2, 1, 1], 2), (3, [3, 2, 2], 3)],
    )
    def test_matches_per_state_redistribution(self, seed, capacities, demand):
        dist, patterns, assignments = self._inputs(seed, capacities, demand)
        got = sweep._cross_cut(dist, patterns, assignments)
        expected = self._reference(dist, patterns, assignments)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)

    def test_mass_is_conserved(self):
        dist, patterns, assignments = self._inputs(5, [2, 2, 1], 2)
        assert sweep._cross_cut(dist, patterns, assignments).sum() == pytest.approx(1.0)
