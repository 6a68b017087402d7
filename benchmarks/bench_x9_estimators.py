"""X9 — one estimator per regime: the table that decides which stay.

Each cell is the time an estimator takes to reach a *reported* CI
relative error of ``TARGET_RE`` on the unreliability ``U``: its sample
budget doubles from ``FIRST_BUDGET`` until the half-width of the
interval it returns, divided by its own ``U`` estimate, is at most
``TARGET_RE``; that budget is then timed, best of ``REPEATS`` calls.
A seed whose budget passes ``CAP`` without reaching the target gets a
``past the cap`` cell.  Every estimator listed by
``available_methods()`` among ``ESTIMATORS`` is run through
``compute_reliability`` with ``num_samples=`` and ``seed=``, on

* fig4 at p = 0.1 and p = 1e-3 (d = 2),
* ``bottlenecked_network`` 8 + 8 (seed 0, d = 2) with p in
  [0.05, 0.3] and in [1e-3, 1e-2],
* X3's ``parallel_links(6, 1, 0.02)`` (d = 2),

for each estimator seed in ``SEEDS``.  The exact ``U`` comes from
``naive`` (fig4, parallel links) or from ``chain`` on the two designed
bottleneck links (the 8 + 8 nets).  A net's winner is the estimator
with the lowest median time over the seeds, counting a past-the-cap
seed as slower than any timed one.

Run standalone to print the JSON rows (``PYTHONPATH=src python
benchmarks/bench_x9_estimators.py``).  The committed snapshot
(``benchmarks/BENCH_estimators.json``, tabled in docs/PERFORMANCE.md
"Removed engines") was recorded against the source of commit 13d0493,
the last with ``montecarlo-stratified``; re-running the script after
its deletion times only the surviving estimators.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from repro.core.api import available_methods, compute_reliability
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.graph.builders import fujita_fig4, parallel_links
from repro.graph.generators import bottlenecked_network

REPEATS = 3
SEEDS = (1, 2, 3)
ESTIMATORS = ("montecarlo", "montecarlo-stratified", "rare")
TARGET_RE = 0.10
FIRST_BUDGET = 250
CAP = 1 << 19
DEMAND = FlowDemand("s", "t", 2)


def table_nets():
    """``(name, net, exact U)`` for every row of the table."""

    def eight_by_eight(p_range):
        net = bottlenecked_network(
            source_side_links=8, sink_side_links=8, seed=0, p_range=p_range
        )
        return net, 1.0 - chain_reliability(net, DEMAND, [[0, 1]]).value

    def by_naive(net):
        return net, 1.0 - naive_reliability(net, DEMAND).value

    return [
        ("fig4 @ p=0.1", *by_naive(fujita_fig4(failure_probability=0.1))),
        ("fig4 @ p=1e-3", *by_naive(fujita_fig4(failure_probability=1e-3))),
        ("8 + 8 @ p in [0.05, 0.3]", *eight_by_eight((0.05, 0.3))),
        ("8 + 8 @ p in [1e-3, 1e-2]", *eight_by_eight((1e-3, 1e-2))),
        ("parallel_links(6, 1, 0.02)", *by_naive(parallel_links(6, 1, 0.02))),
    ]


def ci_relative_error(estimate) -> float:
    """Half-width of the reported interval over the reported ``U``."""
    unreliability = 1.0 - estimate.value
    if unreliability <= 0.0:
        return float("inf")
    return (estimate.high - estimate.low) / 2.0 / unreliability


def contains(estimate, exact: float) -> bool:
    """Whether the reported interval holds ``exact``, up to ``1e-12`` of
    round-off (a zero-variance estimate reports a zero-width interval)."""
    return estimate.low - 1e-12 <= exact <= estimate.high + 1e-12


def _run(net, method, budget, seed):
    return compute_reliability(
        net, demand=DEMAND, method=method, num_samples=budget, seed=seed
    )


def time_to_target(net, exact_u, method, seed) -> dict:
    """The first doubled budget that reaches ``TARGET_RE``, timed."""
    budget = FIRST_BUDGET
    while budget <= CAP:
        estimate = _run(net, method, budget, seed)
        re = ci_relative_error(estimate)
        if re <= TARGET_RE:
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                _run(net, method, budget, seed)
                best = min(best, time.perf_counter() - start)
            return {
                "samples": budget,
                "ms": round(best * 1e3, 3),
                "unreliability": 1.0 - estimate.value,
                "ci_relative_error": round(re, 4),
                "ci_contains_exact": contains(estimate, 1.0 - exact_u),
            }
        budget *= 2
    last = round(re, 4) if re != float("inf") else "no failure seen"
    return {"past_cap": CAP, "last_ci_relative_error": last}


def _median_key(cells: list[dict]) -> float:
    """Median time over seeds; a past-the-cap seed counts as infinite."""
    return statistics.median(cell.get("ms", float("inf")) for cell in cells)


def measure() -> dict:
    estimators = [m for m in ESTIMATORS if m in available_methods()]
    rows, summary = [], []
    for name, net, exact_u in table_nets():
        medians = {}
        for method in estimators:
            cells = []
            for seed in SEEDS:
                cell = {"net": name, "estimator": method, "seed": seed}
                cell.update(time_to_target(net, exact_u, method, seed))
                cells.append(cell)
            rows.extend(cells)
            medians[method] = _median_key(cells)
        winner = min(medians, key=medians.get)
        summary.append(
            {
                "net": name,
                "links": net.num_links,
                "exact_unreliability": exact_u,
                "median_ms": {
                    m: (v if v != float("inf") else "past the cap")
                    for m, v in medians.items()
                },
                "winner": winner if medians[winner] != float("inf") else None,
            }
        )
    return {"summary": summary, "rows": rows}


def test_x9_estimators_to_equal_accuracy(benchmark, show):
    table = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(
        ["net", "U", *table["summary"][0]["median_ms"], "winner"],
        [
            [
                row["net"],
                f"{row['exact_unreliability']:.3g}",
                *row["median_ms"].values(),
                row["winner"],
            ]
            for row in table["summary"]
        ],
        title=f"X9: median ms to {TARGET_RE:.0%} reported CI relative error on U",
    )
    # Permutation MC reaches the target on every net within the cap.
    assert all("ms" in r for r in table["rows"] if r["estimator"] == "rare")


if __name__ == "__main__":
    json.dump(measure(), sys.stdout, indent=2)
    print()
