"""X8 — one exact engine per regime: the table that decides which stay.

Three tables, each cell the best of ``REPEATS`` calls:

* **d = 1 engines** on X1's directed ladders (8 / 16 / 40 / 200 links)
  and X4's undirected ladders (12 / 50 / 200 / 800 links) and 3x4 /
  4x12 grids.  Every name in ``D1_ENGINES`` is timed through
  ``compute_reliability``; an engine that refuses the input (wrong link
  kind, no bridge, past its own guard) gets a ``refused`` cell, and one
  past ``CAPS`` is not run at all (naive and factoring grow as
  ``2^|E|``: factoring took 179 s on the 40-link ladder, one call).
* **k = 1 nets**: ``bridge``, ``bottleneck`` on the discovered bridge
  and ``factoring`` on ``bottlenecked_network(num_bottlenecks=1,
  demand=2)`` with 6 / 9 / 12-link sides, seeds 0-2.
* **Rare-event estimator at a stated accuracy**: permutation MC stops
  at ``TARGET_RE`` CI relative error on fig4 at p = 1e-5, the 30-link
  chained net of R1, and that net with ``p_range=(1e-6, 1e-2)``.

Every exact value an engine returns is checked against ``naive`` where
naive runs (to 1e-12), the bottleneck path on undirected links
included: the cut search skips a cut of three or more links with an
undirected one (the model note in :mod:`repro.core.bottleneck`), so on
the 3x4 grid ``bottleneck`` and ``auto`` split on a two-link cut.  The
committed snapshot predates that and records their forward-model gap
there as ``minus_naive``.

Run standalone to print the JSON rows (``PYTHONPATH=src python
benchmarks/bench_x8_engines.py``).  The committed snapshot
(``benchmarks/BENCH_engines.json``, tabled in docs/PERFORMANCE.md
"Removed engines") was recorded against the source of commit b54c5ac,
the last with ``series-parallel``, ``minpaths`` and rare-event
splitting.  That run had both names in ``D1_ENGINES`` and one more
rare-event row per net: ``splitting_reliability`` with its per-level
population doubled from 250 until its reported CI relative error
reached ``TARGET_RE``, and that population timed best of ``REPEATS``.
"""

from __future__ import annotations

import json
import sys
import time

from bench_x1_ladders import ladder
from bench_x4_frontier import undirected_grid, undirected_ladder

from repro.core.api import compute_reliability
from repro.core.demand import FlowDemand
from repro.core.rare import rare_reliability
from repro.exceptions import ReproError
from repro.graph.builders import fujita_fig4
from repro.graph.generators import bottlenecked_network, chained_network

REPEATS = 5
D1_ENGINES = (
    "naive",
    "factoring",
    "bottleneck",
    "bridge",
    "frontier",
    "frontier-directed",
    "auto",
)
#: Largest net (links) each engine is run on; the rest run everywhere.
CAPS = {"naive": 17, "factoring": 17, "bottleneck": 50, "auto": 50}
BRIDGE_SIDES = (6, 9, 12)
BRIDGE_SEEDS = (0, 1, 2)
TARGET_RE = 0.10


def _best(fn):
    """``(value, best ms)`` of ``REPEATS`` calls."""
    best, value = float("inf"), None
    for _ in range(REPEATS):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return value, round(best * 1e3, 3)


def d1_nets():
    return (
        [ladder(sections) for sections in (4, 8, 20, 100)]
        + [undirected_ladder(sections) for sections in (6, 25, 100, 400)]
        + [undirected_grid(3, 4), undirected_grid(4, 12)]
    )


def measure_d1() -> list[dict]:
    demand = FlowDemand("s", "t", 1)
    rows = []
    for net in d1_nets():
        naive = None
        for engine in D1_ENGINES:
            cell = {"net": net.name, "links": net.num_links, "engine": engine}
            rows.append(cell)
            if net.num_links > CAPS.get(engine, net.num_links):
                cell["skipped"] = f"over {CAPS[engine]} links"
                continue
            try:
                value, cell["ms"] = _best(
                    lambda: compute_reliability(net, demand=demand, method=engine)
                )
            except ReproError as exc:
                cell["refused"] = f"{type(exc).__name__}: {exc}"[:100]
                continue
            cell["value"] = value.value
            if not hasattr(value, "low"):
                cell["exact"] = True
            if engine == "naive":
                naive = value.value
            elif naive is not None and cell.get("exact"):
                assert abs(value.value - naive) <= 1e-12, cell
    return rows


def measure_bridge() -> list[dict]:
    demand = FlowDemand("s", "t", 2)
    rows = []
    for side in BRIDGE_SIDES:
        for seed in BRIDGE_SEEDS:
            net = bottlenecked_network(
                source_side_links=side,
                sink_side_links=side,
                num_bottlenecks=1,
                demand=2,
                seed=seed,
            )
            bridge, bridge_ms = _best(
                lambda: compute_reliability(net, demand=demand, method="bridge")
            )
            cut = [bridge.details["bridge"]]
            bottleneck, bottleneck_ms = _best(
                lambda: compute_reliability(
                    net, demand=demand, method="bottleneck", cut=cut
                )
            )
            factoring, factoring_ms = _best(
                lambda: compute_reliability(net, demand=demand, method="factoring")
            )
            assert abs(bridge.value - factoring.value) <= 1e-12
            assert abs(bottleneck.value - factoring.value) <= 1e-12
            rows.append(
                {
                    "sides": f"{side} + {side}",
                    "seed": seed,
                    "value": factoring.value,
                    "bridge_ms": bridge_ms,
                    "bottleneck_ms": bottleneck_ms,
                    "factoring_ms": factoring_ms,
                }
            )
    return rows


def rare_nets():
    def chain(p_range):
        return chained_network(
            [2, 4, 4, 4, 4, 2], cut_sizes=2, demand=2, seed=5, p_range=p_range
        )

    return [
        ("fig4 @ p=1e-5", fujita_fig4(failure_probability=1e-5)),
        ("chained 30 links @ p=1e-5", chain((1e-5, 1e-5))),
        ("chained 30 links @ p in [1e-6, 1e-2]", chain((1e-6, 1e-2))),
    ]


def _estimate_row(estimator, estimate, ms) -> dict:
    re = estimate.details["relative_error"]
    return {
        "estimator": estimator,
        "samples": estimate.num_samples,
        "ms": ms,
        "unreliability": estimate.details["unreliability"],
        "ci_relative_error": round(re, 4),
        "ms_x_re2": round(ms * re * re, 4),
    }


def measure_rare() -> list[dict]:
    demand = FlowDemand("s", "t", 2)
    rows = []
    for name, net in rare_nets():
        perm, ms = _best(
            lambda: rare_reliability(
                net, demand, num_samples=1 << 20, target_relative_error=TARGET_RE, seed=0
            )
        )
        assert perm.details["relative_error"] <= TARGET_RE
        rows.append({"net": name, "rows": [_estimate_row("permutation", perm, ms)]})
    return rows


def test_x8_d1_engines(benchmark, show):
    rows = benchmark.pedantic(measure_d1, rounds=1, iterations=1)
    show(
        ["net", "|E|", "engine", "ms / outcome"],
        [
            [
                r["net"],
                r["links"],
                r["engine"],
                r.get("ms", r.get("refused", r.get("skipped"))),
            ]
            for r in rows
        ],
        title="X8: d = 1 engines on ladders and grids",
    )
    # The directed frontier answers every net of the table.
    frontier = [r for r in rows if r["engine"] == "frontier-directed"]
    assert len(frontier) == len(d1_nets())
    assert all("ms" in r for r in frontier)


def test_x8_bridge_nets(benchmark, show):
    rows = benchmark.pedantic(measure_bridge, rounds=1, iterations=1)
    show(
        ["sides", "seed", "R", "bridge ms", "bottleneck ms", "factoring ms"],
        [
            [
                r["sides"],
                r["seed"],
                f"{r['value']:.6f}",
                r["bridge_ms"],
                r["bottleneck_ms"],
                r["factoring_ms"],
            ]
            for r in rows
        ],
        title="X8: k = 1 nets, bridge against bottleneck(cut=[bridge])",
    )


def test_x8_rare_equal_accuracy(benchmark, show):
    rows = benchmark.pedantic(measure_rare, rounds=1, iterations=1)
    show(
        ["net", "estimator", "samples", "ms", "CI rel. err", "ms x RE^2"],
        [
            [
                r["net"],
                e["estimator"],
                e["samples"],
                e["ms"],
                e["ci_relative_error"],
                e["ms_x_re2"],
            ]
            for r in rows
            for e in r["rows"]
        ],
        title=f"X8: permutation MC to {TARGET_RE:.0%} CI relative error",
    )


if __name__ == "__main__":
    json.dump(
        {"d1": measure_d1(), "bridge": measure_bridge(), "rare": measure_rare()},
        sys.stdout,
        indent=2,
    )
    print()
