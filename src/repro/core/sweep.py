"""Sweep engine and the one Eq. 2/3 pipeline of the bottleneck algorithm.

The paper's §III-C realization masks are purely combinatorial: whether a
side configuration realizes an assignment is a max-flow question over the
side topology, capacities, ports and the assignment tuple — link failure
probabilities never enter.  Only Eq. 2 (pattern probabilities) and
Eq. 3 (the accumulation) change across a probability sweep.

This module holds:

:class:`ArrayCache`
    A content-addressed store of side *covers* (the disjoint cube
    covers of :mod:`repro.core.cover`, a few dozen ``(alive, dead,
    mask)`` rows instead of ``2^m`` masks), in memory with an optional
    on-disk tier that tolerates shared directories, failed writes and
    damaged files.  The key fingerprints everything that determines
    the masks — side topology, capacities, directedness, role,
    terminal, ports, and the assignment list (the demand is its
    component sum) — and deliberately **excludes** failure
    probabilities: a cover is ground truth ("max-flow ≥ d" per
    configuration, pinned against a max-flow oracle in the tests).

:func:`cached_side_cover`
    The one dispatch to the side-cover builder
    :func:`repro.core.arrays.build_side_cover`: a side's cover is looked
    up in the cache and built only on a miss.  With no cache it is just
    ``build_side_cover``.  It takes no tuning option: the side picks
    its kernel.

:func:`split_reliability`
    The one Eq. 2/3 pipeline, on a resolved split
    (:class:`repro.graph.transforms.SideSplit`, from
    :func:`bottleneck_split` or the chain's cut list) for a
    ``(points x links)`` failure grid: §III-B assignments per cut, both
    side covers (once, through :func:`cached_side_cover`) and, on a
    chain, each middle segment's relation cover, then Eq. 2 and Eq. 3
    per row — each cover weighs its distinct masks under the row
    (:meth:`repro.core.cover.SideCover.weights`) and each supported
    class of the last cut is one pair sum of
    :mod:`repro.core.accumulate`.  On a chain the source masks are first
    carried across every middle (:func:`_cross_cut`,
    :func:`_through_segment`), row by row.
    :func:`repro.core.bottleneck.bottleneck_reliability` and
    :func:`repro.core.chain.chain_reliability` are its one-row calls
    (:func:`point_reliability`); :func:`compute_reliability_sweep` is
    its many-row call on one cut, so every sweep point is bit-identical
    to a fresh pointwise call (a property suite enforces value and
    ``details`` equality).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.accumulate import joint_rows
from repro.core.arrays import (
    _validate_side_request,
    build_relation_cover,
    build_side_cover,
)
from repro.core.assignments import (
    classify_by_support,
    enumerate_assignments,
    support_mask,
)
from repro.core.cover import SideCover, is_partition
from repro.core.demand import FlowDemand
from repro.core.result import ReliabilityResult
from repro.core.summation import prob_fsum
from repro.exceptions import DecompositionError, ReproValueError
from repro.graph.cuts import find_bottleneck, verify_bottleneck
from repro.graph.network import FlowNetwork, Node
from repro.graph.transforms import SideSplit, SubnetworkView
from repro.obs.recorder import (
    ARRAY_CACHE_BYTES,
    ARRAY_CACHE_EVICTED_BYTES,
    ARRAY_CACHE_EVICTIONS,
    ARRAY_CACHE_HITS,
    ARRAY_CACHE_MISSES,
    ARRAY_CACHE_WRITE_ERRORS,
    ASSIGNMENTS_ENUMERATED,
    SPLIT_CACHE_HITS,
    count,
    span,
)
from repro.probability.bitset import mask_from_indices
from repro.probability.enumeration import check_enumerable, probability_grid

__all__ = [
    "ArrayCache",
    "BatchPlan",
    "SweepSpec",
    "SweepResult",
    "cached_side_cover",
    "compute_reliability_sweep",
    "network_fingerprint",
    "plan_batch",
    "probability_grid",
    "side_fingerprint",
]

#: Bump when the fingerprint payload or the cache entry layout changes
#: (invalidates disk caches).
_FINGERPRINT_VERSION = 2

#: Accounted bytes per link of a memoized cut search (its two side
#: networks and link maps): tracemalloc measures about 6.4 KB for a
#: split of a 20-link net.
_SPLIT_BYTES_PER_LINK = 320

#: Grid batches are sized so ``batch_points * cubes`` cube probabilities
#: (and ``batch_points * 2^k`` Eq. 2 entries) stay below this budget.
_MAX_GRID_ENTRIES = 1 << 22

#: Entries of one block of ``_through_segment``'s state-image table.
_IMAGE_ENTRIES = 1 << 18


def side_fingerprint(
    net: FlowNetwork, *, role: str, terminal: Node, ports: Sequence[Node]
) -> str:
    """Canonical digest of everything that determines a side's realization bits.

    Covers the side topology in link-index order (tail, head, capacity,
    directedness), the node list, the role, the terminal and the port
    sequence.  Failure probabilities are deliberately excluded — the
    §III-C combinatorics never read them — which is exactly what lets
    one array serve a whole availability sweep.  Node labels are
    canonicalised via ``repr`` (str/int/tuple labels all have
    deterministic reprs).
    """
    payload = {
        "v": _FINGERPRINT_VERSION,
        "role": role,
        "terminal": repr(terminal),
        "ports": [repr(p) for p in ports],
        "nodes": [repr(n) for n in net.nodes()],
        "links": [
            [repr(link.tail), repr(link.head), int(link.capacity), bool(link.directed)]
            for link in net.links()
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def network_fingerprint(net: FlowNetwork) -> str:
    """Canonical digest of a whole network's topology.

    The full-network twin of :func:`side_fingerprint`: node list plus
    every link's endpoints, capacity and directedness in link-index
    order.  Failure probabilities are deliberately excluded — two
    networks with the same fingerprint share every side cover,
    which is exactly the merge test :func:`plan_batch` groups queries
    by (a probability difference is expressible as an ``overrides``
    sweep point on either network).
    """
    payload = {
        "v": _FINGERPRINT_VERSION,
        "nodes": [repr(n) for n in net.nodes()],
        "links": [
            [repr(link.tail), repr(link.head), int(link.capacity), bool(link.directed)]
            for link in net.links()
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cover_key(side_digest: str, assignments: Sequence[Sequence[int]]) -> str:
    """Key of one side cover: the side digest + the assignment list.

    The demand rate is implied (it is each assignment's component sum).
    """
    tail = ";".join(",".join(str(int(a)) for a in assignment) for assignment in assignments)
    return hashlib.sha256(f"{side_digest}|{tail}".encode("utf-8")).hexdigest()


class ArrayCache:
    """Content-addressed store of §III-C side covers.

    An entry is one side's cube array (:class:`repro.core.cover.SideCover`
    ``cubes``, an ``(n, 3)`` ``uint64`` array); with a ``directory``
    every stored entry is also written as a ``.npy`` file named by its
    key, so later processes (or a second CLI run) start warm.  Disk
    writes are atomic (a per-write temp file + ``os.replace``), and a
    failed one leaves the entry in memory.  A disk entry that is not a
    partition of the side's lattice (:func:`repro.core.cover.is_partition`)
    is a miss.

    The cache is safe to share across both build kernels — the cut
    certificate and its Gray-walk fallback — because every cover
    expands to the same ground-truth masks; the kernel is not part of
    the key.

    ``max_bytes`` bounds the resident bytes of tracked entries (array
    payload; on-disk entries by file size).  When a :meth:`put` or
    :meth:`get` pushes the total past the bound, least-recently-used
    keys are evicted — dropped from memory *and* unlinked from the disk
    tier — until the total fits again.  The just-touched key is never
    evicted, so a single entry larger than the bound still serves (the
    cache degrades to holding one entry, it never thrashes the working
    item).

    The cache also memoizes found cut searches (:meth:`get_split` /
    :meth:`put_split`, filled by :func:`bottleneck_split`).  A memo
    entry lives in memory only, is accounted at
    ``_SPLIT_BYTES_PER_LINK`` per link under the same LRU bound, and is
    not a cover: ``len()``, :meth:`stats` and the eviction counters
    count covers only.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str] | None = None,
        *,
        max_bytes: int | None = None,
    ) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ReproValueError("max_bytes must be a positive byte count")
        self._memory: dict[str, np.ndarray] = {}
        self._splits: dict[str, SideSplit] = {}
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        #: Insertion order is recency order (oldest first); values are
        #: the accounted byte size per key.
        self._sizes: dict[str, int] = {}
        self._total_bytes = 0
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self.evictions = 0
        self.evicted_bytes = 0
        self.write_errors = 0
        if self.max_bytes is not None and self.directory is not None:
            self._adopt_disk_tier()

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def total_bytes(self) -> int:
        """Accounted bytes of every tracked entry (memory + disk)."""
        return self._total_bytes

    def stats(self) -> dict[str, int]:
        """Cumulative counters since construction."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "evictions": self.evictions,
            "evicted_bytes": self.evicted_bytes,
            "write_errors": self.write_errors,
        }

    # -- the LRU bound ------------------------------------------------------

    def _adopt_disk_tier(self) -> None:
        """Track pre-existing ``.npy`` files so the bound covers them.

        Ordered oldest-modified first: files from earlier runs are the
        least recently used until something touches them again.
        """
        assert self.directory is not None
        entries: list[tuple[float, str, int]] = []
        for path in self.directory.glob("*.npy"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path.stem, int(stat.st_size)))
        for _, key, size in sorted(entries):
            self._sizes[key] = size
            self._total_bytes += size
        self._enforce_bound(protect=None)

    def _touch(self, key: str, size: int) -> None:
        """Record ``key`` as most recently used (and its accounted size)."""
        if self.max_bytes is None:
            return
        previous = self._sizes.pop(key, None)
        if previous is not None:
            self._total_bytes -= previous
        self._sizes[key] = size
        self._total_bytes += size
        self._enforce_bound(protect=key)

    def _enforce_bound(self, protect: str | None) -> None:
        if self.max_bytes is None:
            return
        while self._total_bytes > self.max_bytes:
            victim = self._pick_victim(protect)
            if victim is None:
                return
            self._evict(victim)

    def _pick_victim(self, protect: str | None) -> str | None:
        for key in self._sizes:  # insertion order == recency order
            if key != protect:
                return key
        return None

    def _evict(self, key: str) -> None:
        size = self._sizes.pop(key)
        self._total_bytes -= size
        if self._splits.pop(key, None) is not None:
            return  # a memoized cut search: memory-only, not a cover
        self._memory.pop(key, None)
        if self.directory is not None:
            self._path(key).unlink(missing_ok=True)
        self.evictions += 1
        self.evicted_bytes += size
        count(ARRAY_CACHE_EVICTIONS, 1)
        count(ARRAY_CACHE_EVICTED_BYTES, size)

    def _path(self, key: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}.npy"

    def _load(self, key: str, num_links: int, num_assignments: int) -> np.ndarray | None:
        """The disk-tier cover of ``key``; a damaged file is a miss.

        A truncated or edited file could still parse as an array, so
        anything but a partition of the side's ``2^num_links``
        configurations into cubes whose masks fit ``num_assignments``
        bits is unlinked and dropped from the LRU accounting; a file
        this writer may not remove (another user's, in a sticky
        directory) is left in place.
        """
        path = self._path(key)
        if not path.is_file():
            return None
        try:
            cubes = np.load(path)
        except (OSError, ValueError, EOFError):
            cubes = None
        if not is_partition(cubes, num_links, num_assignments):
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
            self._total_bytes -= self._sizes.pop(key, 0)
            return None
        cubes.setflags(write=False)
        self._memory[key] = cubes
        return cubes

    def get(self, key: str, num_links: int, num_assignments: int) -> np.ndarray | None:
        """The cube array stored under ``key``, or None.

        ``num_links`` and ``num_assignments`` are the side's dimensions,
        against which a disk entry is checked.  The returned array is
        **read-only** (``writeable=False``): it is shared by every later
        hit, so an in-place store must fail loudly instead of silently
        poisoning the next sweep point.  Callers that need a private
        writable array take a ``.copy()`` — the invariant lint rule
        RR202 checks statically.
        """
        cubes = self._memory.get(key)
        if cubes is None and self.directory is not None:
            cubes = self._load(key, num_links, num_assignments)
        if cubes is None:
            self.misses += 1
            count(ARRAY_CACHE_MISSES, 1)
            return None
        self.hits += 1
        self.bytes_read += int(cubes.nbytes)
        count(ARRAY_CACHE_HITS, 1)
        count(ARRAY_CACHE_BYTES, int(cubes.nbytes))
        self._touch(key, int(cubes.nbytes))
        return cubes

    def put(self, key: str, cubes: np.ndarray) -> None:
        """Store one cube array under ``key`` (memory + optional disk)."""
        stored = np.array(cubes, dtype=np.uint64).reshape(-1, 3)
        stored.setflags(write=False)
        self._memory[key] = stored
        self.stores += 1
        self.bytes_written += int(stored.nbytes)
        count(ARRAY_CACHE_BYTES, int(stored.nbytes))
        if self.directory is not None:
            path = self._path(key)
            if not path.is_file():
                self._publish(path, stored)
        self._touch(key, int(stored.nbytes))

    def get_split(self, key: str) -> SideSplit | None:
        """The cut search memoized under ``key``, or None."""
        split = self._splits.get(key)
        if split is not None:
            self._touch(key, self._sizes.get(key, 0))
        return split

    def put_split(self, key: str, split: SideSplit) -> None:
        """Memoize one found cut search (memory only, never on disk)."""
        self._splits[key] = split
        self._touch(key, _SPLIT_BYTES_PER_LINK * split.num_links)

    def _publish(self, path: Path, cubes: np.ndarray) -> None:
        """Write one entry file through this writer's own temp file.

        The temp name is unique per write, so caches sharing a directory
        never rename each other's half-written file; it is created by a
        plain ``open``, so the published file gets the usual umask mode
        and other users sharing the directory can read it.  A failed
        write (a full disk, say) removes its temp file and is counted;
        the entry stays served from memory.
        """
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
        try:
            with open(tmp, "xb") as handle:
                np.save(handle, cubes)
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            self.write_errors += 1
            count(ARRAY_CACHE_WRITE_ERRORS, 1)


def cached_side_cover(
    side: SubnetworkView,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    assignments: Sequence[Sequence[int]],
    demand: int,
    cache: ArrayCache | None = None,
) -> SideCover:
    """§III-C side cover, looked up in ``cache`` and built on a miss.

    One entry per side and assignment list: a hit returns the stored
    cubes with ``flow_calls`` 0; a miss goes through
    :func:`~repro.core.arrays.build_side_cover` and stores its cubes.
    With ``cache=None`` this is exactly ``build_side_cover``.
    """
    build = dict(
        role=role, terminal=terminal, ports=ports, assignments=assignments, demand=demand
    )
    if cache is None:
        return build_side_cover(side, **build)
    net = side.network
    _validate_side_request(
        net, role=role, assignments=assignments, ports=ports, demand=demand
    )
    digest = side_fingerprint(net, role=role, terminal=terminal, ports=ports)
    key = _cover_key(digest, assignments)
    with span(
        "sweep.array_cache", role=role, links=net.num_links, assignments=len(assignments)
    ):
        cubes = cache.get(key, net.num_links, len(assignments))
        if cubes is not None:
            return SideCover(
                cubes=cubes, num_links=net.num_links, num_assignments=len(assignments)
            )
        cover = build_side_cover(side, **build)
        cache.put(key, cover.cubes)
    return cover


# -- the sweep specification ----------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """What varies across the sweep points.

    Construct through the classmethods:

    * :meth:`availability` — one uniform link availability per point
      (every link's failure probability becomes ``1 - value``);
    * :meth:`failure_scale` — every link's base failure probability
      multiplied by a per-point factor;
    * :meth:`overrides` — per-point ``{link_index: failure_probability}``
      patches on top of the base probabilities;
    * :meth:`demand_rates` — the probabilities stay fixed and the demand
      ``d`` varies (each rate has its own assignment list, so its own
      side covers).
    """

    kind: str
    values: tuple

    @classmethod
    def availability(cls, values: Sequence[float]) -> "SweepSpec":
        points = tuple(float(v) for v in values)
        if not points:
            raise ReproValueError("sweep needs at least one point")
        for v in points:
            if not 0.0 < v <= 1.0:
                raise ReproValueError(f"availability {v} outside (0, 1]")
        return cls(kind="availability", values=points)

    @classmethod
    def failure_scale(cls, factors: Sequence[float]) -> "SweepSpec":
        points = tuple(float(f) for f in factors)
        if not points:
            raise ReproValueError("sweep needs at least one point")
        for f in points:
            if f < 0.0:
                raise ReproValueError(f"failure scale factor {f} is negative")
        return cls(kind="failure-scale", values=points)

    @classmethod
    def overrides(cls, maps: Sequence[Mapping[int, float]]) -> "SweepSpec":
        points = tuple(dict(m) for m in maps)
        if not points:
            raise ReproValueError("sweep needs at least one point")
        return cls(kind="overrides", values=points)

    @classmethod
    def demand_rates(cls, rates: Sequence[int]) -> "SweepSpec":
        points = tuple(int(r) for r in rates)
        if not points:
            raise ReproValueError("sweep needs at least one point")
        return cls(kind="demand", values=points)

    def __len__(self) -> int:
        return len(self.values)

    def failure_matrix(self, net: FlowNetwork) -> np.ndarray:
        """The ``(points, num_links)`` failure-probability grid.

        Only defined for the probability kinds; validates every entry
        into ``[0, 1)`` with :class:`ReproValueError`.
        """
        if self.kind == "demand":
            raise ReproValueError("demand sweeps do not define a failure matrix")
        base = np.asarray(net.failure_probabilities(), dtype=np.float64)
        m = len(base)
        if self.kind == "availability":
            points = np.asarray(self.values, dtype=np.float64)
            return np.repeat(1.0 - points[:, None], m, axis=1)
        if self.kind == "failure-scale":
            grid = np.asarray(self.values, dtype=np.float64)[:, None] * base[None, :]
            over = (grid >= 1.0).any(axis=1)
            if over.any():
                f = self.values[int(np.argmax(over))]
                raise ReproValueError(
                    f"failure scale factor {f} pushes a link failure "
                    "probability to 1 or beyond"
                )
            return grid
        rows: list[np.ndarray] = []
        for mapping in self.values:
            row = base.copy()
            for index, p in mapping.items():
                i = int(index)
                if not 0 <= i < m:
                    raise ReproValueError(
                        f"override link index {i} out of range for a "
                        f"network with {m} links"
                    )
                p = float(p)
                if not 0.0 <= p < 1.0:
                    raise ReproValueError(
                        f"override failure probability {p} outside [0, 1)"
                    )
                row[i] = p
            rows.append(row)
        return np.array(rows, dtype=np.float64).reshape(len(self.values), m)

    def point_network(self, net: FlowNetwork, index: int) -> FlowNetwork:
        """The network a pointwise call would see at sweep point ``index``.

        The bit-identity property suite compares
        ``compute_reliability_sweep(net, ...).results[i]`` against
        ``bottleneck_reliability(spec.point_network(net, i), ...)``.
        """
        if self.kind == "demand":
            return net
        row = self.failure_matrix(net)[index]
        return net.with_failure_probabilities([float(p) for p in row])


@dataclass(frozen=True)
class SweepResult:
    """An evaluated sweep: one :class:`ReliabilityResult` per point."""

    kind: str
    xs: tuple
    results: tuple[ReliabilityResult, ...]
    #: Max-flow solves spent by this call (0 on a fully warm cache).
    flow_calls: int
    #: :meth:`ArrayCache.stats` delta accumulated by this call.
    cache_stats: dict[str, int]

    @property
    def values(self) -> list[float]:
        return [r.value for r in self.results]

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[ReliabilityResult]:
        return iter(self.results)


def _split_key(net: FlowNetwork, demand: FlowDemand, max_cut_size: int) -> str:
    return "|".join(
        (
            "split",
            network_fingerprint(net),
            repr(demand.source),
            repr(demand.sink),
            str(int(max_cut_size)),
        )
    )


def bottleneck_split(
    net: FlowNetwork,
    demand: FlowDemand,
    cut: Sequence[int] | None,
    max_cut_size: int,
    *,
    cache: ArrayCache | None = None,
) -> SideSplit:
    """The bottleneck cut search: discover the best admissible cut of
    size up to ``max_cut_size``, or verify the given one.

    Admissibility is structural (it never reads the demand rate or the
    failure probabilities), so one search serves every sweep point —
    and, through ``cache``, every later call on the same topology and
    terminals: a found split is memoized under the network fingerprint,
    the terminals and ``max_cut_size``, and a memo hit opens no
    ``bottleneck.cut_search`` span.  A given ``cut`` and a failed
    search bypass the memo.
    """
    key = None
    if cut is None and cache is not None:
        key = _split_key(net, demand, max_cut_size)
        memo = cache.get_split(key)
        if memo is not None:
            count(SPLIT_CACHE_HITS, 1)
            return memo
    with span("bottleneck.cut_search", given=cut is not None):
        if cut is None:
            split = find_bottleneck(
                net, demand.source, demand.sink, max_size=max_cut_size
            )
            if split is None:
                raise DecompositionError(
                    f"no admissible bottleneck cut of size <= {max_cut_size} found"
                )
            if cache is not None and key is not None:
                cache.put_split(key, split)
            return split
        return verify_bottleneck(net, demand.source, demand.sink, cut)


def _cross_cut(
    dist: np.ndarray,
    patterns: np.ndarray,
    assignments: Sequence[Sequence[int]],
) -> np.ndarray:
    """Mix a chain's subset distribution over a cut's survival patterns.

    ``dist[R]`` is the probability that exactly the assignment set
    ``R`` is completable from the source; ``patterns`` is the cut's
    Eq. (2) row.  Each pattern keeps the assignments it supports.
    """
    q = len(assignments)
    check_enumerable(q)
    supports = [support_mask(a) for a in assignments]
    states = np.flatnonzero(dist)
    new = np.zeros_like(dist)
    for pattern, p in enumerate(patterns.tolist()):  # repro: noqa[RR109] mask intersection per pattern, no solver state to carry
        if p == 0.0:
            continue
        allowed = 0
        for j, s in enumerate(supports):
            if s & ~pattern == 0:
                allowed |= 1 << j
        # R -> R ∩ allowed for every state R.
        new += np.bincount(
            states & allowed, weights=dist[states] * p, minlength=len(dist)
        )
    return new


def _through_segment(
    dist: np.ndarray,
    relations: np.ndarray,
    weights: np.ndarray,
    q_out: int,
) -> np.ndarray:
    """Push a chain's subset distribution through a middle segment.

    Row ``r`` of ``relations`` is one distinct relation of the segment
    (:attr:`repro.core.cover.SideCover.distinct` of its relation cover):
    word ``a`` is the out-mask in-assignment ``a`` reaches, and
    ``weights[r]`` the probability of that relation.  Each relation maps
    every in-state ``R`` to ``⋃_{a ∈ R} relations[r, a]`` once, by
    doubling over the in-assignments.
    """
    q_in = relations.shape[1]
    check_enumerable(max(q_in, q_out))
    states = np.flatnonzero(dist)
    new = np.zeros(1 << q_out, dtype=np.float64)
    block = max(1, _IMAGE_ENTRIES >> q_in)
    for start in range(0, len(relations), block):
        rows = relations[start : start + block]
        # image[r, R] = union of rows[r, a] over the in-assignments a in R.
        image = np.zeros((len(rows), 1 << q_in), dtype=np.uint64)
        for a in range(q_in):
            np.bitwise_or(image[:, : 1 << a], rows[:, a : a + 1], out=image[:, 1 << a : 2 << a])
        mass = weights[start : start + block, None] * dist[states]
        new += np.bincount(
            image[:, states].ravel().astype(np.intp),
            weights=mass.ravel(),
            minlength=1 << q_out,
        )
    return new


def split_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    split: SideSplit,
    failure_grid: np.ndarray,
    *,
    cache: ArrayCache | None,
) -> tuple[list[ReliabilityResult], int]:
    """The paper's §III-B/§III-C/§IV-B pipeline on a resolved split.

    Builds each cut's assignment set, both side covers and every middle
    segment's relation cover once, then evaluates every row of the
    ``(points, links)`` ``failure_grid``.  On a one-cut split the source
    cover's distinct masks meet the sink cover's in one Eq. 3 pair sum
    per supported class of the cut, for a batch of rows at once.  On a
    chain, each row first carries the source cover's masks across every
    middle (:func:`_cross_cut`, then :func:`_through_segment`) into a
    distribution over assignment sets of the last cut, whose nonzero
    states the same per-class pair sums close; each row is computed on
    its own.  Returns one result per row (each with ``flow_calls=0``)
    and the max-flow solves the cover builds spent.
    """
    num_points = failure_grid.shape[0]
    cut_links = split.cut
    k = len(cut_links)
    with span("bottleneck.assignments", k=k, demand=demand.rate):
        assignment_sets = [
            enumerate_assignments([net.link(i).capacity for i in cut], demand.rate)
            for cut in split.cuts
        ]
        count(ASSIGNMENTS_ENUMERATED, sum(map(len, assignment_sets)))
    assignments = assignment_sets[-1]
    source_columns = list(split.source_side.link_map)
    sink_columns = list(split.sink_side.link_map)
    base_details = {
        "cut": tuple(cut_links),
        "alpha": split.alpha,
        "num_assignments": len(assignments),
        "source_side_links": len(source_columns),
        "sink_side_links": len(sink_columns),
    }
    if not all(assignment_sets):
        # A cut cannot carry the demand even fully alive (the k = 1
        # case of this is the paper's "c(e') < d => trivially zero").
        zeros = [
            ReliabilityResult(
                value=0.0,
                method="bottleneck",
                details={**base_details, "reason": "cut capacity below demand"},
            )
            for _ in range(num_points)
        ]
        return zeros, 0

    def side_cover(role: str) -> SideCover:
        source = role == "source"
        return cached_side_cover(
            split.source_side if source else split.sink_side,
            role=role,
            terminal=demand.source if source else demand.sink,
            ports=split.source_ports if source else split.sink_ports,
            assignments=assignment_sets[0] if source else assignments,
            demand=demand.rate,
            cache=cache,
        )

    with span(
        "bottleneck.source_array",
        links=len(source_columns),
        assignments=len(assignment_sets[0]),
    ):
        source_cover = side_cover("source")
    relations = [
        build_relation_cover(  # repro: noqa[RR110] each middle is its own segment
            split.segments[j],
            in_ports=split.in_ports[j - 1],
            out_ports=split.out_ports[j],
            in_assignments=assignment_sets[j - 1],
            out_assignments=assignment_sets[j],
            demand=demand.rate,
        )
        for j in range(1, len(split.cuts))
    ]
    with span(
        "bottleneck.sink_array",
        links=len(sink_columns),
        assignments=len(assignments),
    ):
        sink_cover = side_cover("sink")

    # Eq. (3): sum over the 2^k bottleneck survival patterns.  r_{E'}
    # depends only on the supported class, so the patterns sharing a
    # class share one accumulation per batch of rows; each cover weighs
    # its distinct realization masks once per batch.  A row's value is
    # the exactly rounded sum of its pattern terms, so terms of
    # probability 0 (and the order of the terms) leave it unchanged.
    check_enumerable(k)
    by_class: dict[tuple[int, ...], list[int]] = {}
    for pattern, supported in classify_by_support(assignments, k).items():
        if supported:
            by_class.setdefault(supported, []).append(pattern)
    mt = sink_cover.distinct

    def close(
        ms: np.ndarray, ws: np.ndarray, wt: np.ndarray, pattern_rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each row's Eq. 3 pattern terms and its count of live classes."""
        terms = np.zeros((len(pattern_rows), 1 << k), dtype=np.float64)
        used = np.zeros(len(pattern_rows), dtype=np.int64)
        for supported, patterns in by_class.items():
            p_patterns = pattern_rows[:, patterns]
            live = (p_patterns != 0.0).any(axis=1)
            if not live.any():
                continue
            r = joint_rows(ms, ws, mt, wt, mask_from_indices(supported))
            terms[:, patterns] = p_patterns * r[:, None]
            used += live
        return terms, used

    configurations = sum(1 << len(segment.link_map) for segment in split.segments)
    covers = [source_cover, *relations, sink_cover]
    widest = max(*(len(cover.cubes) for cover in covers), 1 << k)
    batch = max(1, _MAX_GRID_ENTRIES // widest)
    results: list[ReliabilityResult] = []
    with span("bottleneck.accumulate", points=num_points, patterns=1 << k):
        for start in range(0, num_points, batch):
            rows = failure_grid[start : start + batch]
            ws = source_cover.weights(rows[:, source_columns])
            wt = sink_cover.weights(rows[:, sink_columns])
            pattern_rows = probability_grid(rows[:, list(cut_links)])  # Eq. (2)
            if not relations:
                terms, used = close(source_cover.distinct, ws, wt, pattern_rows)
            else:
                crossings = [
                    (
                        probability_grid(rows[:, list(cut)]),
                        relation.distinct.reshape(-1, relation.words),
                        relation.weights(rows[:, list(segment.link_map)]),
                    )
                    for cut, segment, relation in zip(
                        split.cuts, split.segments[1:], relations
                    )
                ]
                terms = np.zeros((len(rows), 1 << k), dtype=np.float64)
                used = np.zeros(len(rows), dtype=np.int64)
                for i in range(len(rows)):
                    dist = np.zeros(1 << len(assignment_sets[0]), dtype=np.float64)
                    dist[source_cover.distinct.astype(np.intp)] = ws[i]
                    for j, (cut_rows, relation, weights) in enumerate(crossings):
                        dist = _cross_cut(dist, cut_rows[i], assignment_sets[j])
                        dist = _through_segment(
                            dist, relation, weights[i], len(assignment_sets[j + 1])
                        )
                    states = np.flatnonzero(dist)
                    terms[i : i + 1], used[i : i + 1] = close(
                        states.astype(np.uint64),
                        dist[states][None, :],
                        wt[i : i + 1],
                        pattern_rows[i : i + 1],
                    )
            for row_terms, classes_used in zip(terms.tolist(), used.tolist()):
                results.append(
                    ReliabilityResult(
                        value=prob_fsum(row_terms),
                        method="bottleneck",
                        configurations=configurations,
                        details={**base_details, "distinct_classes": classes_used},
                    )
                )
    return results, sum(cover.flow_calls for cover in covers)


def point_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    split: SideSplit,
    *,
    cache: ArrayCache | None,
) -> ReliabilityResult:
    """The one-row call of :func:`split_reliability` at ``net``'s own
    failure probabilities.

    Reports the cover builds' solves as ``flow_calls`` and, when a
    ``cache`` is given, its traffic under ``details["array_cache"]``.
    """
    failure_grid = np.asarray(net.failure_probabilities(), dtype=np.float64)
    before = cache.stats() if cache is not None else {}
    (result,), flow_calls = split_reliability(
        net,
        demand,
        split,
        failure_grid.reshape(1, net.num_links),
        cache=cache,
    )
    if cache is not None:
        after = cache.stats()
        result.details["array_cache"] = {key: after[key] - before[key] for key in after}
    return replace(result, flow_calls=flow_calls)


def compute_reliability_sweep(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    sweep: SweepSpec,
    cut: Sequence[int] | None = None,
    max_cut_size: int = 3,
    cache: ArrayCache | None = None,
) -> SweepResult:
    """Reliability at every sweep point for the cost of ~one cover build.

    One cut search serves every point, memoized in ``cache`` when one
    is given (:func:`bottleneck_split`).  For the probability kinds the
    assignment set and both side covers are then computed once
    (through ``cache``; a private in-memory :class:`ArrayCache` is used
    when none is given) and Eq. 2 / Eq. 3 are evaluated for the whole
    failure grid by :func:`split_reliability`, the pipeline
    :func:`bottleneck_reliability` runs on one row.  Every point's value
    and ``details`` are bit-identical to a fresh
    :func:`bottleneck_reliability` call on :meth:`SweepSpec.point_network`
    — only the solve accounting differs (the per-point ``flow_calls`` is
    0; this call's total is reported on the :class:`SweepResult`).

    Demand sweeps run the one-point pipeline per rate with the shared
    cache, so a rate seen before is not built again.

    Parameters mirror :func:`bottleneck_reliability`; ``demand.rate`` is
    ignored (and may be any valid rate) for ``kind="demand"`` sweeps.
    """
    demand.validate_against(net)
    # The probability kinds validate their grid before any search.
    failure_grid = sweep.failure_matrix(net) if sweep.kind != "demand" else None
    the_cache = cache if cache is not None else ArrayCache()
    before = the_cache.stats()
    with span("sweep.run", kind=sweep.kind, points=len(sweep)):
        split = bottleneck_split(net, demand, cut, max_cut_size, cache=cache)
        if failure_grid is None:
            points = [
                point_reliability(
                    net,
                    FlowDemand(demand.source, demand.sink, rate),
                    split,
                    cache=the_cache,
                )
                for rate in sweep.values
            ]
            flow_calls = sum(point.flow_calls for point in points)
        else:
            points, flow_calls = split_reliability(
                net,
                demand,
                split,
                failure_grid,
                cache=the_cache,
            )
    after = the_cache.stats()
    return SweepResult(
        kind=sweep.kind,
        xs=sweep.values,
        results=tuple(points),
        flow_calls=flow_calls,
        cache_stats={key: after[key] - before[key] for key in after},
    )


# -- request coalescing: the batch planner ---------------------------------


@dataclass(frozen=True)
class BatchPlan:
    """One merged sweep covering several submitted query points.

    ``net`` is the first member's network; every member is expressed as
    one ``overrides`` sweep point carrying its *full* failure vector, so
    :meth:`SweepSpec.point_network` reconstructs each member's network
    exactly (the topologies are fingerprint-identical by construction).
    """

    #: Base network of the group (first member's).
    net: FlowNetwork
    #: Shared demand (same source, sink and rate for every member).
    demand: FlowDemand
    #: ``kind="overrides"`` spec with one point per member, in
    #: ``indices`` order.
    spec: SweepSpec
    #: Positions of the members in the submitted query sequence.
    indices: tuple[int, ...]
    #: The merge key: topology fingerprint + terminals + rate.
    key: str


def _batch_key(net: FlowNetwork, demand: FlowDemand) -> str:
    return "|".join(
        (
            network_fingerprint(net),
            repr(demand.source),
            repr(demand.sink),
            str(int(demand.rate)),
        )
    )


def plan_batch(
    queries: Sequence[tuple[FlowNetwork, FlowDemand]],
) -> list[BatchPlan]:
    """Merge query points into per-topology sweep plans.

    Queries sharing a topology fingerprint, terminals and demand rate
    collapse into **one** plan — one cut search, one cached cover
    build, one vectorized Eq. 2/3 grid — no matter how their failure
    probabilities differ: each member becomes one ``overrides`` sweep
    point carrying its full failure vector.  This is the serving
    daemon's coalescing mechanism, exposed as a plain function so the
    merge is unit-testable without sockets.

    Plans appear in first-appearance order; ``BatchPlan.indices`` maps
    each plan's sweep points back to positions in ``queries``.
    """
    if not queries:
        return []
    with span("sweep.plan", queries=len(queries)):
        groups: dict[str, list[int]] = {}
        for index, (net, demand) in enumerate(queries):
            demand.validate_against(net)
            groups.setdefault(_batch_key(net, demand), []).append(index)
        plans: list[BatchPlan] = []
        for key, indices in groups.items():
            base_net, base_demand = queries[indices[0]]
            rows: list[dict[int, float]] = []
            for index in indices:
                member_net, _ = queries[index]
                rows.append(
                    {
                        i: float(p)
                        for i, p in enumerate(member_net.failure_probabilities())
                    }
                )
            plans.append(
                BatchPlan(
                    net=base_net,
                    demand=base_demand,
                    spec=SweepSpec.overrides(rows),
                    indices=tuple(indices),
                    key=key,
                )
            )
    return plans
