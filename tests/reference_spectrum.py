"""Reference critical numbers: the one-kill-at-a-time walk, the test oracle.

For each sampled failure order it kills links one at a time and asks
the oracle after every kill, so it spends ``min(B, m)`` feasibility
queries per order.  ``repro.core.rare`` settles the same numbers from
learned cut and support certificates and must agree with it row for
row.
"""

from __future__ import annotations

import numpy as np

from repro.core.feasibility import FeasibilityOracle


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
