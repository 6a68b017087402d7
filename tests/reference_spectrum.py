"""Reference critical numbers: the test oracles for ``repro.core.rare``.

:func:`critical_numbers` is the one-kill-at-a-time walk: for each
sampled failure order it kills links one at a time and asks the oracle
after every kill, so it spends ``min(B, m)`` feasibility queries per
order.  ``repro.core.rare`` settles the same numbers from learned cut
and support certificates and must agree with it row for row.

:class:`_Certificates` / :func:`_critical_numbers` are the earlier
all-numpy certificate bookkeeping, kept verbatim: every check a
``(rows x certificates)`` array, including per-order re-checks on
1-row arrays.  Under the same ``certify`` the production bookkeeping
must settle the same numbers with the same per-order query counts.
"""

from __future__ import annotations

import numpy as np

from repro.core import certificate
from repro.core.feasibility import FeasibilityOracle
from repro.graph.network import FlowNetwork


def critical_numbers(
    oracle: FeasibilityOracle, orders: np.ndarray, full_mask: int
) -> tuple[np.ndarray, int]:
    """Critical number per failure order: the count of kills at which
    the demand first becomes infeasible (``m + 1`` = never).

    The only scalar loop of the estimator, and it rides the warm
    residual-repair path: consecutive queries differ in one link, so an
    incremental oracle repairs rather than re-solves; the jump back to
    the all-alive mask between orders is revive-only (free).
    """
    batch, m = orders.shape
    criticals = np.full(batch, m + 1, dtype=np.int64)
    queries = 0
    order_lists = orders.tolist()  # scalar loop: stay off numpy scalars
    for row, order in enumerate(order_lists):
        mask = full_mask
        for killed, link in enumerate(order, start=1):
            mask &= ~(1 << link)
            queries += 1
            if not oracle.feasible(mask):
                criticals[row] = killed
                break
    return criticals, queries


#: Failure orders settled together: the chunk's certificate checks are
#: ``(rows x certificates)`` arrays, so this bounds their memory.
_CHUNK_ROWS = 256

#: ``uint8`` entries per support-check block (``rows x supports x m``),
#: 256 KiB of temporaries.
_BLOCK_ENTRIES = 1 << 18


class _Certificates:
    """The supports and cuts one estimate call has learned.

    A *support* (links carrying a flow of value ``>= d``) keeps every
    prefix that kills none of its links feasible, so an order's
    critical number is at least the step at which it first kills one of
    them.  A *cut* (links crossing out of a source shore) stores each
    link's capacity clipped to ``d``; a prefix whose alive part of some
    cut sums below ``d`` is infeasible.  Cuts are learned only while
    ``m * d < 2^53``, so their float64 sums of clipped integers are
    exact.  Each kind stops growing at
    :data:`repro.core.certificate.MAX_CERTIFICATE_CUTS`; rows then
    settle by queries alone, with the same values.
    """

    def __init__(self, net: FlowNetwork, demand: int) -> None:
        m = net.num_links
        self.demand = demand
        self.limit = certificate.MAX_CERTIFICATE_CUTS
        self.clipped = np.array(
            [min(link.capacity, demand) for link in net.links()], dtype=np.float64
        )
        self.learn_cuts = m * demand < 1 << 53
        self.supports = np.zeros((0, m), dtype=bool)
        self.cuts = np.zeros((0, m), dtype=np.float64)

    def add(self, feasible: bool, links: tuple[int, ...]) -> None:
        if feasible:
            if len(self.supports) < self.limit:
                row = np.zeros((1, self.supports.shape[1]), dtype=bool)
                row[0, list(links)] = True
                self.supports = np.concatenate([self.supports, row])
        elif self.learn_cuts and len(self.cuts) < self.limit:
            row = np.zeros((1, self.cuts.shape[1]))
            row[0, list(links)] = self.clipped[list(links)]
            self.cuts = np.concatenate([self.cuts, row])

    def raise_bounds(self, pos: np.ndarray, lo: np.ndarray, since: int) -> None:
        """Raise ``lo`` in place to the first kill of each support from
        index ``since`` on (``m + 1`` for a support the order never kills)."""
        m = pos.shape[1]
        block = max(1, _BLOCK_ENTRIES // pos.size)
        for start in range(since, len(self.supports), block):
            part = self.supports[start : start + block]
            first = np.where(part[None, :, :], pos[:, None, :], m + 1).min(axis=2)
            np.maximum(lo, first.max(axis=1), out=lo)

    def cut_at(self, pos: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Rows whose prefix ``lo`` leaves some cut below the demand."""
        if not len(self.cuts):
            return np.zeros(pos.shape[0], dtype=bool)
        alive = (pos > lo[:, None]).astype(np.float64)
        return np.any(alive @ self.cuts.T < self.demand, axis=1)


def _critical_numbers(
    oracle: FeasibilityOracle, orders: np.ndarray, certificates: _Certificates
) -> tuple[np.ndarray, np.ndarray]:
    """Critical number per failure order: the count of kills at which
    the demand first becomes infeasible (``m + 1`` = never), and the
    feasibility queries each order spent.

    Every row starts from the bound ``lo = 1`` raised by the learned
    supports, and is settled with no query when a learned cut already
    fails at prefix ``lo``.  A row the certificates leave open queries
    the oracle at prefix ``lo`` (one :meth:`FeasibilityOracle.certify`):
    an infeasible answer settles ``B = lo`` and teaches a cut; a
    feasible one teaches a support, which lifts ``lo`` past the queried
    prefix, and the row checks again against everything learned since
    its chunk was checked.  Queries land on distinct prefixes at most
    ``B``, so a row never makes more than the ``min(B, m)`` queries of
    the one-kill-at-a-time walk, and every value equals the walk's.
    """
    batch, m = orders.shape
    full_mask = (1 << m) - 1
    steps = np.arange(1, m + 1, dtype=np.uint8)
    criticals = np.empty(batch, dtype=np.int64)
    queries = np.zeros(batch, dtype=np.int64)
    for start in range(0, batch, _CHUNK_ROWS):
        chunk = orders[start : start + _CHUNK_ROWS]
        rows = chunk.shape[0]
        # pos[b, e]: the step (from 1) at which order b kills link e.
        pos = np.empty((rows, m), dtype=np.uint8)
        pos[np.arange(rows)[:, None], chunk] = steps
        lo = np.ones(rows, dtype=np.int64)
        certificates.raise_bounds(pos, lo, 0)
        settled = certificates.cut_at(pos, lo)
        checked = len(certificates.supports)
        for row in np.flatnonzero(~settled).tolist():
            row_pos = pos[row : row + 1]
            row_lo = lo[row : row + 1]
            order = chunk[row].tolist()  # scalar loop: stay off numpy scalars
            while True:
                certificates.raise_bounds(row_pos, row_lo, checked)
                prefix = int(row_lo[0])
                if prefix > m or certificates.cut_at(row_pos, row_lo)[0]:
                    break
                dead = 0
                for link in order[:prefix]:
                    dead |= 1 << link
                queries[start + row] += 1
                feasible, links = oracle.certify(full_mask & ~dead)
                certificates.add(feasible, links)
                if not feasible:
                    break
                row_lo[0] = min((int(row_pos[0, e]) for e in links), default=m + 1)
        criticals[start : start + rows] = lo
    return criticals, queries
