"""Sweep engine and the one Eq. 2/3 pipeline of the bottleneck algorithm.

The paper's §III-C realization arrays are purely combinatorial: whether a
side configuration realizes an assignment is a max-flow question over the
side topology, capacities, ports and the assignment tuple — link failure
probabilities never enter.  Only Eq. 2 (pattern probabilities) and
Eq. 3 (the accumulation) change across a probability sweep.

This module holds:

:class:`ArrayCache`
    A content-addressed store of realization *columns* (one assignment's
    bool vector over the side lattice), in memory with an optional
    on-disk tier.  The key fingerprints everything that determines the
    bits — side topology, capacities, directedness, role, terminal,
    ports, and the assignment tuple (the demand is its component sum) —
    and deliberately **excludes** failure probabilities: the columns are
    ground truth ("max-flow ≥ d" per configuration), and the two build
    kernels produce identical bits (pinned against the reference oracle
    in ``tests/reference_arrays.py``).

:func:`cached_side_array`
    The one dispatch to the §III-C builder
    :func:`repro.core.arrays.build_side_array`: columns are looked up
    per assignment, only the misses are built (the builder accepts
    assignment subsets), and the result is packed exactly like a direct
    build.  With no cache it is just ``build_side_array``.  It takes no
    tuning option: the side picks its kernel.

:func:`split_reliability`
    The paper's algorithm on a resolved split (:func:`bottleneck_split`)
    for a ``(points x links)`` failure grid: §III-B assignments, both
    §III-C arrays (once, through :func:`cached_side_array`), then Eq. 2
    and Eq. 3 per row — row-wise doubling tables
    (:func:`repro.probability.enumeration.probability_grid`) and the
    row-wise ACCUMULATION kernels of :mod:`repro.core.accumulate`.
    :func:`repro.core.bottleneck.bottleneck_reliability` is its one-row
    call (:func:`point_reliability`); :func:`compute_reliability_sweep`
    is its many-row call, so every sweep point is bit-identical to a
    fresh pointwise call (a property suite enforces value and
    ``details`` equality).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.core.accumulate import accumulate_rows
from repro.core.arrays import (
    RealizationArray,
    _validate_side_request,
    build_side_array,
)
from repro.core.assignments import classify_by_support, enumerate_assignments
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
    ASSIGNMENTS_ENUMERATED,
    count,
    span,
)
from repro.probability.bitset import pack_bitplanes
from repro.probability.enumeration import (
    check_enumerable,
    configuration_probabilities,
    probability_grid,
)

__all__ = [
    "ArrayCache",
    "BatchPlan",
    "BatchResult",
    "SweepSpec",
    "SweepResult",
    "cached_side_array",
    "compute_reliability_sweep",
    "evaluate_batch",
    "network_fingerprint",
    "plan_batch",
    "probability_grid",
    "side_fingerprint",
]

#: Bump when the fingerprint payload layout changes (invalidates disk caches).
_FINGERPRINT_VERSION = 1

#: Grid batches are sized so ``batch_points * 2^{m_side}`` table entries
#: stay below this budget (the 2-D doubling tables are the peak).
_MAX_GRID_ENTRIES = 1 << 22


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
    networks with the same fingerprint share every realization column,
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


def _column_key(side_digest: str, assignment: Sequence[int]) -> str:
    """Key of one realization column: the side digest + the assignment.

    The demand rate is implied (it is the component sum), so demand
    sweeps sharing assignment tuples across rates reuse columns too.
    """
    tail = ",".join(str(int(a)) for a in assignment)
    return hashlib.sha256(f"{side_digest}|{tail}".encode("utf-8")).hexdigest()


class ArrayCache:
    """Content-addressed store of §III-C realization columns.

    Columns live bit-packed (``numpy.packbits``) in memory; with a
    ``directory`` every stored column is also written as a ``.npy`` file
    named by its key, so later processes (or a second CLI run) start
    warm.  Disk writes are atomic (temp file + ``os.replace``).

    The cache is safe to share across both build kernels — the cut
    certificate and its Gray-walk fallback — because the columns are
    ground truth and both are pinned bit-identical to the reference
    oracle; the kernel is not part of the key.

    ``max_bytes`` bounds the resident bytes of tracked columns (packed
    payload; on-disk entries by file size).  When a :meth:`put` or
    :meth:`get` pushes the total past the bound, least-recently-used
    keys are evicted — dropped from memory *and* unlinked from the disk
    tier — until the total fits again.  The just-touched key is never
    evicted, so a single column larger than the bound still serves (the
    cache degrades to holding one column, it never thrashes the working
    item).
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
        if self.max_bytes is not None and self.directory is not None:
            self._adopt_disk_tier()

    def __len__(self) -> int:
        return len(self._memory)

    @property
    def total_bytes(self) -> int:
        """Accounted bytes of every tracked column (memory + disk)."""
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

    def get(self, key: str, num_configurations: int) -> np.ndarray | None:
        """The bool column for ``key`` (length ``num_configurations``), or None.

        The returned array is **read-only** (``writeable=False``): the
        packed buffer is shared by every later hit, so an in-place store
        must fail loudly instead of silently poisoning the next sweep
        point.  Callers that need a private writable column take a
        ``.copy()`` — the invariant lint rule RR202 checks statically.
        """
        packed = self._memory.get(key)
        if packed is None and self.directory is not None:
            path = self._path(key)
            if path.is_file():
                packed = np.load(path)
                packed.setflags(write=False)
                self._memory[key] = packed
        if packed is None:
            self.misses += 1
            count(ARRAY_CACHE_MISSES, 1)
            return None
        self.hits += 1
        self.bytes_read += int(packed.nbytes)
        count(ARRAY_CACHE_HITS, 1)
        count(ARRAY_CACHE_BYTES, int(packed.nbytes))
        self._touch(key, int(packed.nbytes))
        column = np.unpackbits(
            packed, count=num_configurations, bitorder="little"
        ).astype(bool)
        column.setflags(write=False)
        return column

    def put(self, key: str, column: np.ndarray) -> None:
        """Store one bool column under ``key`` (memory + optional disk)."""
        packed = np.packbits(np.asarray(column, dtype=bool), bitorder="little")
        packed.setflags(write=False)
        self._memory[key] = packed
        self.stores += 1
        self.bytes_written += int(packed.nbytes)
        count(ARRAY_CACHE_BYTES, int(packed.nbytes))
        if self.directory is not None:
            path = self._path(key)
            if not path.is_file():
                tmp = path.with_name(path.name + ".tmp")
                with open(tmp, "wb") as handle:
                    np.save(handle, packed)
                os.replace(tmp, path)
        self._touch(key, int(packed.nbytes))


def cached_side_array(
    side: SubnetworkView,
    *,
    role: str,
    terminal: Node,
    ports: Sequence[Node],
    assignments: Sequence[Sequence[int]],
    demand: int,
    cache: ArrayCache | None = None,
) -> RealizationArray:
    """§III-C side array with per-assignment column caching.

    Every assignment's column is looked up in ``cache`` first; only the
    misses go through :func:`~repro.core.arrays.build_side_array`
    (columns are independent, so building a subset yields the same bits
    as building all of them), then the full matrix is packed exactly
    like a direct build.  ``flow_calls`` counts only the solves spent on
    misses — a fully warm call reports 0.  With ``cache=None`` this is
    exactly ``build_side_array``.
    """
    if cache is None:
        return build_side_array(
            side,
            role=role,
            terminal=terminal,
            ports=ports,
            assignments=assignments,
            demand=demand,
        )
    net = side.network
    m = net.num_links
    check_enumerable(m)
    _validate_side_request(
        net, role=role, assignments=assignments, ports=ports, demand=demand
    )
    size = 1 << m
    num_assignments = len(assignments)
    digest = side_fingerprint(net, role=role, terminal=terminal, ports=ports)
    keys = [_column_key(digest, a) for a in assignments]
    realized = np.zeros((size, num_assignments), dtype=bool)
    with span("sweep.array_cache", role=role, links=m, assignments=num_assignments):
        missing: list[int] = []
        for j, key in enumerate(keys):
            column = cache.get(key, size)
            if column is None:
                missing.append(j)
            else:
                realized[:, j] = column
        if not missing:
            # The one probability-table request of a fully warm side.
            probabilities = configuration_probabilities(net)
            flow_calls = 0
        else:
            built = build_side_array(
                side,
                role=role,
                terminal=terminal,
                ports=ports,
                assignments=[assignments[j] for j in missing],
                demand=demand,
            )
            # The builder already asked for this side's table.
            probabilities = built.probabilities
            flow_calls = built.flow_calls
            for local, j in enumerate(missing):
                column = (
                    (built.masks >> np.uint64(local)) & np.uint64(1)
                ).astype(bool)
                realized[:, j] = column
                cache.put(keys[j], column)
    masks = pack_bitplanes(realized)
    return RealizationArray(
        masks=masks,
        probabilities=probabilities,
        num_assignments=num_assignments,
        flow_calls=flow_calls,
    )


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
      ``d`` varies (arrays are rebuilt per rate, but shared assignment
      tuples reuse cached columns).
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
        rows: list[np.ndarray] = []
        if self.kind == "availability":
            for v in self.values:
                rows.append(np.full(m, 1.0 - v, dtype=np.float64))
        elif self.kind == "failure-scale":
            for f in self.values:
                row = base * f
                if row.size and float(row.max()) >= 1.0:
                    raise ReproValueError(
                        f"failure scale factor {f} pushes a link failure "
                        "probability to 1 or beyond"
                    )
                rows.append(row)
        else:  # overrides
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


def bottleneck_split(
    net: FlowNetwork,
    demand: FlowDemand,
    cut: Sequence[int] | None,
    max_cut_size: int,
) -> SideSplit:
    """The bottleneck cut search: discover the best admissible cut of
    size up to ``max_cut_size``, or verify the given one.

    Admissibility is structural (it never reads the demand rate or the
    failure probabilities), so one search serves every sweep point.
    """
    with span("bottleneck.cut_search", given=cut is not None):
        if cut is None:
            split = find_bottleneck(
                net, demand.source, demand.sink, max_size=max_cut_size
            )
            if split is None:
                raise DecompositionError(
                    f"no admissible bottleneck cut of size <= {max_cut_size} found"
                )
            return split
        return verify_bottleneck(net, demand.source, demand.sink, cut)


def split_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    split: SideSplit,
    failure_grid: np.ndarray,
    *,
    cache: ArrayCache | None,
) -> tuple[list[ReliabilityResult], int]:
    """The paper's §III-B/§III-C/§IV-B pipeline on a resolved split.

    Builds the assignment set and both realization arrays once, then
    evaluates Eq. 2 and Eq. 3 for every row of the ``(points, links)``
    ``failure_grid``.  Returns one result per row (each with
    ``flow_calls=0``) and the max-flow solves the array builds spent.
    """
    num_points = failure_grid.shape[0]
    cut_links = split.cut
    k = len(cut_links)
    capacities = [net.link(i).capacity for i in cut_links]
    with span("bottleneck.assignments", k=k, demand=demand.rate):
        assignments = enumerate_assignments(capacities, demand.rate)
        count(ASSIGNMENTS_ENUMERATED, len(assignments))
    source_columns = list(split.source_side.link_map)
    sink_columns = list(split.sink_side.link_map)
    base_details = {
        "cut": tuple(cut_links),
        "alpha": split.alpha,
        "num_assignments": len(assignments),
        "source_side_links": len(source_columns),
        "sink_side_links": len(sink_columns),
    }
    if not assignments:
        # The cut cannot carry the demand even fully alive (the k = 1
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

    def side_array(role: str) -> RealizationArray:
        source = role == "source"
        return cached_side_array(
            split.source_side if source else split.sink_side,
            role=role,
            terminal=demand.source if source else demand.sink,
            ports=split.source_ports if source else split.sink_ports,
            assignments=assignments,
            demand=demand.rate,
            cache=cache,
        )

    with span(
        "bottleneck.source_array",
        links=len(source_columns),
        assignments=len(assignments),
    ):
        source_array = side_array("source")
    with span(
        "bottleneck.sink_array",
        links=len(sink_columns),
        assignments=len(assignments),
    ):
        sink_array = side_array("sink")

    # Eq. (3): sum over the 2^k bottleneck survival patterns.  r_{E'}
    # depends only on the supported class, so identical classes share
    # one accumulation per batch of rows.
    check_enumerable(k)
    classes = classify_by_support(assignments, k)
    configurations = len(source_array.masks) + len(sink_array.masks)
    batch = max(1, _MAX_GRID_ENTRIES >> max(len(source_columns), len(sink_columns), k))
    results: list[ReliabilityResult] = []
    with span("bottleneck.accumulate", points=num_points, patterns=1 << k):
        for start in range(0, num_points, batch):
            rows = failure_grid[start : start + batch]
            source_rows = probability_grid(rows[:, source_columns])
            sink_rows = probability_grid(rows[:, sink_columns])
            pattern_rows = probability_grid(rows[:, list(cut_links)])  # Eq. (2)
            r_rows: dict[tuple[int, ...], np.ndarray] = {}
            for local in range(len(rows)):
                terms: list[float] = []
                used: set[tuple[int, ...]] = set()
                for pattern, supported in classes.items():
                    if not supported:
                        continue
                    p_pattern = float(pattern_rows[local, pattern])
                    if p_pattern == 0.0:
                        continue
                    r = r_rows.get(supported)
                    if r is None:
                        r = accumulate_rows(
                            source_array.masks,
                            sink_array.masks,
                            source_rows,
                            sink_rows,
                            supported,
                        )
                        r_rows[supported] = r
                    used.add(supported)
                    terms.append(p_pattern * float(r[local]))
                results.append(
                    ReliabilityResult(
                        value=prob_fsum(terms),
                        method="bottleneck",
                        configurations=configurations,
                        details={**base_details, "distinct_classes": len(used)},
                    )
                )
    return results, source_array.flow_calls + sink_array.flow_calls


def point_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    split: SideSplit,
    *,
    cache: ArrayCache | None,
) -> ReliabilityResult:
    """The one-row call of :func:`split_reliability` at ``net``'s own
    failure probabilities.

    Reports the array builds' solves as ``flow_calls`` and, when a
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
    """Reliability at every sweep point for the cost of ~one array build.

    One cut search serves every point.  For the probability kinds the
    assignment set and both realization arrays are then computed once
    (through ``cache``; a private in-memory :class:`ArrayCache` is used
    when none is given) and Eq. 2 / Eq. 3 are evaluated for the whole
    failure grid by :func:`split_reliability`, the pipeline
    :func:`bottleneck_reliability` runs on one row.  Every point's value
    and ``details`` are bit-identical to a fresh
    :func:`bottleneck_reliability` call on :meth:`SweepSpec.point_network`
    — only the solve accounting differs (the per-point ``flow_calls`` is
    0; this call's total is reported on the :class:`SweepResult`).

    Demand sweeps run the one-point pipeline per rate with the shared
    cache, so assignment tuples common to several rates are built once.

    Parameters mirror :func:`bottleneck_reliability`; ``demand.rate`` is
    ignored (and may be any valid rate) for ``kind="demand"`` sweeps.
    """
    demand.validate_against(net)
    # The probability kinds validate their grid before any search.
    failure_grid = sweep.failure_matrix(net) if sweep.kind != "demand" else None
    the_cache = cache if cache is not None else ArrayCache()
    before = the_cache.stats()
    with span("sweep.run", kind=sweep.kind, points=len(sweep)):
        split = bottleneck_split(net, demand, cut, max_cut_size)
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


@dataclass(frozen=True)
class BatchResult:
    """An evaluated batch, scattered back to submission order."""

    #: One result per submitted query, aligned with the input sequence.
    results: tuple[ReliabilityResult, ...]
    #: Max-flow solves spent by the whole batch (0 on a warm cache).
    flow_calls: int
    #: The merged plans, in first-appearance order.
    plans: tuple[BatchPlan, ...]
    #: Solves spent per plan (aligned with ``plans``).
    plan_flow_calls: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.results)


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
    collapse into **one** plan — one cut search, one cached array
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


def evaluate_batch(
    queries: Sequence[tuple[FlowNetwork, FlowDemand]],
    *,
    cut: Sequence[int] | None = None,
    max_cut_size: int = 3,
    cache: ArrayCache | None = None,
) -> BatchResult:
    """Answer every query through the merged plans of :func:`plan_batch`.

    One :func:`compute_reliability_sweep` runs per plan against the
    shared ``cache``; results are scattered back to submission order,
    each bit-identical to a fresh :func:`bottleneck_reliability` call on
    the member's own network (the sweep engine's pinned property).  A
    plan that cannot decompose raises — callers needing per-query
    isolation (the serving planner) run plans individually.
    """
    plans = plan_batch(queries)
    the_cache = cache if cache is not None else ArrayCache()
    scattered: list[ReliabilityResult | None] = [None] * len(queries)
    plan_flow_calls: list[int] = []
    total = 0
    with span("sweep.batch", queries=len(queries), plans=len(plans)):
        for plan in plans:
            swept = compute_reliability_sweep(
                plan.net,
                plan.demand,
                sweep=plan.spec,
                cut=cut,
                max_cut_size=max_cut_size,
                cache=the_cache,
            )
            plan_flow_calls.append(swept.flow_calls)
            total += swept.flow_calls
            for position, result in zip(plan.indices, swept.results):
                scattered[position] = result
    results = tuple(r for r in scattered if r is not None)
    if len(results) != len(queries):  # pragma: no cover - plan_batch covers all
        raise ReproValueError("batch planning failed to cover every query")
    return BatchResult(
        results=results,
        flow_calls=total,
        plans=tuple(plans),
        plan_flow_calls=tuple(plan_flow_calls),
    )
