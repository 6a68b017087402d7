"""Disjoint cube covers of a side's realization masks (paper §III-C, compressed).

The §III-C array of a side holds one realization mask per configuration,
``2^m`` entries, yet a side realizes only a handful of distinct masks:
they are decided by its inclusion-minimal cut family (Li, Zhao & Kan),
and links in no such cut never matter (the "irrelevant components" of
Canale, Romero & Rubino).  A **cube** ``(alive, dead, mask)`` is the
set of configurations with every link of ``alive`` up and every link of
``dead`` down, the others free; a **cover** is a list of pairwise
disjoint cubes whose union is the whole lattice and whose
configurations all realize their cube's ``mask``.

:func:`factor_cover` builds a cover by factoring whose leaves are
masks.  A node ``(alive, dead)`` has a lowest mask (only ``alive`` up)
and a highest one (everything but ``dead`` up); realization is monotone
in the alive set, so when the two agree every configuration of the
node realizes that mask and the node is one cube.  Otherwise it
branches on the undecided link that settles the most mask bits.  The
frontier is expanded breadth first as numpy arrays, a bounded chunk at
a time.  The masks come from the caller: the cut family's clipped
capacities (:func:`repro.core.certificate.certificate_cover`) or, past
the certificate guards, one max-flow per configuration and load
(:mod:`repro.core.arrays`).  The branching reads masks only, so both
give the same cover, cube for cube.

Eq. 3 needs two things from a side, and :class:`SideCover` gives both:
its distinct masks (:attr:`SideCover.distinct`) and each mask's weight
under a probability row (:meth:`SideCover.weights`).  A cube's
probability is ``Π(1 − p)`` over its alive links times ``Π p`` over its
dead ones, multiplied in link order; a mask's weight sums its cubes.
Every row is computed on its own, so a row's weights do not depend on
the batch it rides in.

A chain middle segment (:mod:`repro.core.chain`) is covered the same
way, with a wider mask: its **relation cover** holds ``W`` ``uint64``
words per cube, one per in-assignment ``a``, and bit ``b`` of word ``a``
says the cube's configurations absorb ``a`` at the in-ports while
emitting out-assignment ``b``.  A side is the one-word case, and its
cube array stays ``(n, 3)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.core.accumulate import regroup
from repro.obs.recorder import CONFIGURATIONS_ENUMERATED, count
from repro.probability.enumeration import check_enumerable

__all__ = ["SideCover", "factor_cover", "is_partition", "resident_bytes"]

#: Frontier nodes expanded per step (a fixed count, so the cube order
#: never depends on how a kernel sizes its own arrays).
_FRONTIER_NODES = 1 << 12

#: Entries of one block of :func:`is_partition`'s pairwise test.
_PAIR_ENTRIES = 1 << 20

#: ``(links, caps) -> masks`` of a frontier (see :func:`factor_cover`).
Evaluate = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SideCover:
    """A side's realization masks as a disjoint cube cover.

    Attributes
    ----------
    cubes:
        Read-only ``uint64`` array ``(n, 2 + W)``: ``alive``, ``dead``
        and the ``W`` mask words of each cube (bit ``i`` of ``alive`` /
        ``dead`` is side link ``i``; bit ``j`` of a word is assignment
        ``j``).  A side has ``W = 1``; a relation cover one word per
        in-assignment.
    num_links:
        ``m`` — the side's link count.
    num_assignments:
        ``|D|`` — how many bits of each mask word are meaningful.
    flow_calls:
        Max-flow solves spent building the cover (0 on a cache hit).
    """

    cubes: np.ndarray
    num_links: int
    num_assignments: int
    flow_calls: int = 0
    #: :meth:`regrouped` per class mask, with its resident bytes.
    _regroupings: dict[int, tuple[tuple[np.ndarray, np.ndarray], int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def words(self) -> int:
        """``W`` — mask words per cube (1 for a side)."""
        return self.cubes.shape[1] - 2

    @cached_property
    def _grouping(self) -> tuple[np.ndarray, np.ndarray]:
        if self.words == 1:
            distinct, inverse = np.unique(self.cubes[:, 2], return_inverse=True)
        else:
            distinct, inverse = np.unique(self.cubes[:, 2:], axis=0, return_inverse=True)
        return _frozen(distinct), _frozen(inverse.reshape(-1))

    @cached_property
    def _decided(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Per link deciding some cube: ``(link, alive cubes, dead cubes)``."""
        decided = []
        for i in range(self.num_links):
            bit = np.uint64(1 << i)
            up = np.flatnonzero(self.cubes[:, 0] & bit)
            down = np.flatnonzero(self.cubes[:, 1] & bit)
            if len(up) or len(down):
                decided.append((i, _frozen(up), _frozen(down)))
        return decided

    @cached_property
    def _resident(self) -> int:
        derived = resident_bytes(self.cubes, self._grouping, self._decided)
        return derived + sys.getsizeof(self) + sys.getsizeof(self._regroupings)

    @property
    def nbytes(self) -> int:
        """Resident bytes (:func:`resident_bytes`): the cubes and every
        array derived from them, with the objects that hold them.  The
        grouping and the per-link cube lists are derived here, once, and
        each :meth:`regrouped` class adds its own; every derived array
        is read-only like the cubes, since a cached cover serves every
        later hit."""
        return self._resident + sum(size for _, size in self._regroupings.values())

    def regrouped(self, within: int) -> tuple[np.ndarray, np.ndarray]:
        """The distinct masks grouped by their bits inside ``within``
        (:func:`repro.core.accumulate.regroup`), derived once per class
        and read-only."""
        memo = self._regroupings.get(within)
        if memo is None:
            restricted, inverse = regroup(self.distinct, within)
            grouping = (_frozen(restricted), _frozen(inverse))
            memo = self._regroupings[within] = (grouping, resident_bytes(grouping))
        return memo[0]

    @property
    def distinct(self) -> np.ndarray:
        """The distinct realization masks (ascending); ``(k, W)`` rows of
        words when ``W > 1``."""
        return self._grouping[0]

    def cube_probabilities(self, failure_rows: np.ndarray) -> np.ndarray:
        """``(n, rows)`` probability of each cube under each failure row.

        ``failure_rows`` is ``(rows, num_links)`` in side link order.
        Each entry is a product over the cube's decided links taken in
        link order, so it does not depend on the other rows.
        """
        rows = np.asarray(failure_rows, dtype=np.float64)
        out = np.ones((len(self.cubes), rows.shape[0]), dtype=np.float64)
        for i, up, down in self._decided:
            p = rows[:, i]
            out[up] *= 1.0 - p
            out[down] *= p
        return out

    def weights(self, failure_rows: np.ndarray) -> np.ndarray:
        """``(rows, len(distinct))`` probability of each distinct mask.

        One weighted ``np.bincount`` over disjoint per-row bins, each
        filled in cube order, so every row is reproducible bit for bit.
        Counts one configuration-probability term per cube.
        """
        count(CONFIGURATIONS_ENUMERATED, len(self.cubes))
        distinct, inverse = self._grouping
        by_cube = self.cube_probabilities(failure_rows)
        rows, size = by_cube.shape[1], len(distinct)
        bins = inverse[:, None] + np.arange(rows)[None, :] * size
        folded = np.bincount(bins.ravel(), weights=by_cube.ravel(), minlength=rows * size)
        return folded.reshape(rows, size)

    def expand(self) -> np.ndarray:
        """The ``2^m`` mask array the cover describes (tests and oracles);
        ``(2^m, W)`` when ``W > 1``."""
        check_enumerable(self.num_links)
        configurations = np.arange(1 << self.num_links, dtype=np.uint64)
        masks = np.zeros((len(configurations), self.words), dtype=np.uint64)
        for alive, dead, *words in self.cubes.tolist():
            masks[(configurations & np.uint64(alive | dead)) == np.uint64(alive)] = words
        return masks[:, 0] if self.words == 1 else masks


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def resident_bytes(*objects: object) -> int:
    """Bytes the ``objects`` hold in memory, each reachable object once.

    Follows arrays to the buffers their views keep alive, containers to
    their items and dataclass instances to their fields (read by name,
    so no instance ``__dict__`` is materialized); every object counts
    its ``sys.getsizeof``.  ``None``, booleans and small
    integers are shared singletons and count nothing.  This is what a
    cache entry costs the process, which is what a byte bound on the
    cache means.
    """
    seen: set[int] = set()
    total = 0
    stack = list(objects)
    while stack:
        obj = stack.pop()
        if obj is None or obj is True or obj is False:
            continue
        if isinstance(obj, int) and -5 <= obj <= 256:
            continue
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.keys())
            stack.extend(obj.values())
        elif isinstance(obj, np.ndarray):
            if obj.base is not None:
                stack.append(obj.base)
        else:
            names = getattr(type(obj), "__dataclass_fields__", ())
            stack.extend(getattr(obj, name) for name in names)
    return total


def factor_cover(
    num_links: int,
    capacities: Sequence[int],
    evaluate: Evaluate,
    link_weights: np.ndarray,
    cap: int,
) -> np.ndarray:
    """The ``(n, 2 + W)`` cube array of one segment, by factoring on masks.

    A frontier is ``links``, ``(nodes, 2)`` ``uint64`` (each node's
    ``alive`` and ``dead`` link masks), and ``caps``, ``(nodes, 2,
    cuts)`` ``int64``: per cut, the clipped capacity of ``alive``
    (``lo``, at most ``cap``) and the unclipped capacity of everything
    not ``dead`` (``hi``).  Columns of ``link_weights`` (``(num_links,
    cuts)``, each entry at most ``cap``) are the cuts; with no columns
    ``caps`` is empty and ``evaluate`` reads the link masks alone.
    ``evaluate`` returns ``(nodes, 2 + 2 * num_links, W)`` mask words:
    each node's lowest and highest mask, then its lowest masks with each
    link revived, then its highest masks with each link killed (entries
    of links the node already decides are never read).  The alive child
    adds the branch link's weights to ``lo``, the dead child takes them
    off ``hi``.

    The branch of a node is the undecided link that settles the most
    assignment bits, over all ``W`` words: those its revival adds to the
    lowest mask plus those its death takes from the highest.  Ties go to the larger
    capacity, then to the lower index.  The rule reads masks only, never
    the cuts, so every kernel that knows the masks factors a side into
    the very same cubes in the very same order.
    """
    m = num_links
    order = sorted(range(m), key=lambda i: (-int(capacities[i]), i))
    preference = np.empty(m, dtype=np.int64)
    preference[order] = np.arange(m - 1, -1, -1)
    link_bits = np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64))
    top = link_weights.sum(axis=0, dtype=np.int64)
    start = (
        np.zeros((1, 2), dtype=np.uint64),
        np.stack([np.zeros_like(top), top])[None],
    )
    found: list[np.ndarray] = []
    stack = [start]
    while stack:
        links, caps = stack.pop()
        masks = evaluate(links, caps)
        done = (masks[:, 0] == masks[:, 1]).all(axis=1)
        if done.any():
            found.append(np.concatenate([links[done], masks[done, 0]], axis=1))
            open_ = ~done
            links, caps, masks = links[open_], caps[open_], masks[open_]
            if not len(links):
                continue
        # settled[n, i]: the bits link i's revival adds to the lowest mask
        # plus those its death takes from the highest (each move only
        # grows or only shrinks a mask, so both are popcounts of an xor),
        # then the tie-break; decided links never win.
        moved = masks[:, 2:].reshape(len(masks), 2, m, -1) ^ masks[:, :2, None]
        settled = np.bitwise_count(moved).sum(axis=(1, 3), dtype=np.int64)
        settled *= m
        settled += preference
        settled[((links[:, :1] | links[:, 1:]) & link_bits) != 0] = -1
        link = np.argmax(settled, axis=1)
        nodes = len(links)
        grown = np.concatenate([links, links])
        grown[:nodes, 0] |= link_bits[link]
        grown[nodes:, 1] |= link_bits[link]
        split = np.concatenate([caps, caps])
        capacity = link_weights[link]
        split[:nodes, 0] += capacity
        np.minimum(split[:nodes, 0], cap, out=split[:nodes, 0])
        split[nodes:, 1] -= capacity
        for first in range(0, 2 * nodes, _FRONTIER_NODES):
            last = first + _FRONTIER_NODES
            stack.append((grown[first:last], split[first:last]))
    cubes = np.concatenate(found).astype(np.uint64)
    cubes.setflags(write=False)
    return cubes


def is_partition(cubes: np.ndarray, num_links: int, num_assignments: int) -> bool:
    """Whether ``cubes`` is a cover of a side with these dimensions.

    A ``(n, 3)`` ``uint64`` array whose cubes fit in ``num_links`` bits
    and decide no link both ways, whose masks fit in
    ``num_assignments`` bits, whose sizes sum to ``2^num_links`` and
    which are pairwise disjoint (two cubes are disjoint iff one's alive
    links meet the other's dead ones).
    """
    if not (
        isinstance(cubes, np.ndarray)
        and cubes.dtype == np.uint64
        and cubes.ndim == 2
        and cubes.shape[1] == 3
        and len(cubes)
    ):
        return False
    alive, dead, mask = cubes[:, 0], cubes[:, 1], cubes[:, 2]
    links = np.uint64((1 << num_links) - 1)
    if ((alive | dead) & ~links).any() or (alive & dead).any():
        return False
    if (mask >> np.uint64(num_assignments)).any():
        return False
    decided = np.bitwise_count(alive | dead).astype(np.int64)
    if sum(1 << (num_links - int(d)) for d in decided.tolist()) != 1 << num_links:
        return False
    block = max(1, _PAIR_ENTRIES // len(cubes))
    for first in range(0, len(cubes), block):
        a, d = alive[first : first + block, None], dead[first : first + block, None]
        apart = ((a & dead[None, :]) | (d & alive[None, :])) != 0
        rows = np.arange(first, first + len(a))
        apart[rows - first, rows] = True
        if not apart.all():
            return False
    return True
