"""C1 — side covers: ``method="auto"`` against ``factoring`` as sides grow.

Inputs are the end-to-end suite's bottlenecked nets
(``benchmarks/suite/inputs.py``, imported as is):
``bottlenecked(default_rng([0, 1]), s, s)`` at 10 + 10, 14 + 14 (the
exact-cold nets), 18 + 18 and 20 + 20 side links.  ``auto`` takes the
bottleneck path, whose two sides are disjoint cube covers
(``repro.core.cover``); ``factoring`` is the fastest other exact engine
and refuses nets over ``MAX_FACTORING_LINKS`` = 40 links, so the
20 + 20 row has no factoring time.  Each cell is the median over the
nets of the best of ``REPEATS`` calls; where factoring runs the two
values agree to 1e-12.

Run standalone to print the table (``PYTHONPATH=src python
benchmarks/bench_c1_cover.py``); the committed snapshot lives in
``benchmarks/BENCH_cover.json`` and docs/PERFORMANCE.md ("Side covers").
"""

from __future__ import annotations

import importlib.util
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.api import compute_reliability
from repro.core.demand import FlowDemand
from repro.core.factoring import MAX_FACTORING_LINKS

#: (side links, nets) per row.
ROWS = ((10, 6), (14, 20), (18, 6), (20, 6))
REPEATS = 3


def _suite_inputs():
    path = Path(__file__).resolve().parent / "suite" / "inputs.py"
    spec = importlib.util.spec_from_file_location("suite_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _best(fn) -> tuple[float, float]:
    """``(value, best seconds)`` of ``REPEATS`` calls."""
    best, value = float("inf"), 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, best


def measure() -> list[dict]:
    inputs = _suite_inputs()
    demand = FlowDemand("s", "t", inputs.DEMAND)
    rows = []
    for side, count in ROWS:
        rng = np.random.default_rng([0, 1])
        nets = [inputs.bottlenecked(rng, side, side, f"c1-{side}-{i}") for i in range(count)]
        auto_ms, factoring_ms, faster = [], [], 0
        for net in nets:
            value, seconds = _best(
                lambda: compute_reliability(net, demand=demand, method="auto").value
            )
            auto_ms.append(seconds * 1e3)
            if net.num_links > MAX_FACTORING_LINKS:
                continue
            oracle, seconds = _best(
                lambda: compute_reliability(net, demand=demand, method="factoring").value
            )
            factoring_ms.append(seconds * 1e3)
            assert abs(value - oracle) <= 1e-12, (side, value, oracle)
            faster += auto_ms[-1] < factoring_ms[-1]
        rows.append(
            {
                "sides": f"{side} + {side}",
                "nets": count,
                "auto_ms": round(statistics.median(auto_ms), 2),
                "auto_range_ms": [round(min(auto_ms), 2), round(max(auto_ms), 2)],
                "factoring_ms": (
                    round(statistics.median(factoring_ms), 2) if factoring_ms else None
                ),
                "auto_faster_on": faster if factoring_ms else None,
            }
        )
    return rows


def _table(rows: list[dict]) -> list[list[str]]:
    out = []
    for row in rows:
        if row["factoring_ms"] is None:
            factoring = f"refused: > {MAX_FACTORING_LINKS} links"
            faster = "-"
        else:
            factoring = f"{row['factoring_ms']:.2f}"
            faster = f"{row['auto_faster_on']} / {row['nets']}"
        low, high = row["auto_range_ms"]
        out.append(
            [
                f"{row['sides']} ({row['nets']})",
                f"{row['auto_ms']:.2f} ({low:.2f}-{high:.2f})",
                factoring,
                faster,
            ]
        )
    return out


HEADERS = ["sides (nets)", "auto ms (range)", "factoring ms", "auto faster on"]


def test_c1_auto_against_factoring(benchmark, show):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(HEADERS, _table(rows), title="C1: auto vs factoring on bottlenecked nets")


if __name__ == "__main__":
    from repro.bench.reporting import format_table

    print(format_table(HEADERS, _table(measure()), title="C1: auto vs factoring"))
