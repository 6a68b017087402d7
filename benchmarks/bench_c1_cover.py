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

Two more tables time the cover builder on its own:

* **past the certificate guards** — sides of 19–20 links with 17–18
  free nodes (``bottlenecked_network`` with 18–19 side nodes, k = 2
  and 3, d = 2), past ``MAX_CERTIFICATE_FREE_NODES`` = 16, and the
  ``chained_network([6, 14, 6], cut_sizes=3, demand=2, seed=1)`` middle
  forced past ``MAX_CERTIFICATE_CUTS``; each row is the best of
  ``REPEATS`` builds, with its solves and cubes;
* **kernel crossover** — sides inside the guards, built by the
  certificate kernel and again forced onto the max-flow fallback, by
  free nodes.

Only the public builders and the guard constants are used, so the same
file times an older tree too.

Run standalone to print the tables (``PYTHONPATH=src python
benchmarks/bench_c1_cover.py``); the committed snapshot lives in
``benchmarks/BENCH_cover.json`` and docs/PERFORMANCE.md ("Side covers",
"Kernel choice").
"""

from __future__ import annotations

import importlib.util
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.core import certificate
from repro.core.api import compute_reliability
from repro.core.arrays import build_relation_cover, build_side_cover
from repro.core.assignments import enumerate_assignments
from repro.core.demand import FlowDemand
from repro.core.factoring import MAX_FACTORING_LINKS
from repro.exceptions import DecompositionError
from repro.graph.generators import bottlenecked_network, chained_network
from repro.graph.transforms import split_on_cut, split_on_cuts

#: (side links, nets) per row.
ROWS = ((10, 6), (14, 20), (18, 6), (20, 6))
REPEATS = 3

#: (k, side links, side nodes, seed) of the past-guard rows: the first
#: seed whose designed cut splits, 17 free nodes at 18 side nodes and
#: 18 at 19.
PAST_GUARD = (
    (2, 19, 18, 0), (2, 20, 18, 0), (2, 19, 19, 1), (2, 20, 19, 1),
    (3, 19, 18, 1), (3, 20, 18, 0), (3, 19, 19, 0), (3, 20, 19, 0),
)

#: Free nodes of the crossover rows (side links = free nodes + 3, k = 3).
CROSSOVER_FREE = (8, 10, 12, 14, 15, 16)
CROSSOVER_SEEDS = range(6)


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


@contextmanager
def _forced_past_the_guards():
    saved = certificate.MAX_CERTIFICATE_CUTS
    certificate.MAX_CERTIFICATE_CUTS = 0
    try:
        yield
    finally:
        certificate.MAX_CERTIFICATE_CUTS = saved


def _built(build) -> tuple[dict, float]:
    """``(row fields, best ms)`` of ``REPEATS`` calls of ``build()``."""
    cover, seconds = _best(build)
    return {"cubes": len(cover.cubes), "solves": cover.flow_calls}, seconds * 1e3


def _sides(k: int, links: int, nodes: int, seed: int):
    """``(role, free nodes, build)`` of both sides of a designed split."""
    net = bottlenecked_network(
        source_side_links=links, sink_side_links=links, num_bottlenecks=k,
        demand=2, seed=seed, source_side_nodes=nodes, sink_side_nodes=nodes,
    )
    split = split_on_cut(net, "s", "t", list(range(k)))
    assignments = enumerate_assignments([net.link(i).capacity for i in split.cut], 2)
    for role, side, terminal, ports in (
        ("source", split.source_side, "s", split.source_ports),
        ("sink", split.sink_side, "t", split.sink_ports),
    ):
        touched = {n for link in side.network.links() for n in (link.tail, link.head)}
        free = len(touched | set(ports)) - 1
        request = dict(
            role=role, terminal=terminal, ports=ports, assignments=assignments, demand=2
        )
        yield role, free, lambda: build_side_cover(side, **request)


def measure_past_guard() -> list[dict]:
    rows = []
    for k, links, nodes, seed in PAST_GUARD:
        for role, free, build in _sides(k, links, nodes, seed):
            fields, ms = _built(build)
            rows.append({"side": f"k={k} {links} links seed {seed} {role}",
                         "free_nodes": free, "ms": round(ms, 2), **fields})
    net = chained_network([6, 14, 6], cut_sizes=3, demand=2, seed=1)
    split = split_on_cuts(net, "s", "t", net._chain_cut_indices)
    into, out = (
        enumerate_assignments([net.link(i).capacity for i in cut], 2) for cut in split.cuts
    )
    with _forced_past_the_guards():
        fields, ms = _built(
            lambda: build_relation_cover(
                split.segments[1], in_ports=split.in_ports[0],
                out_ports=split.out_ports[1], in_assignments=into,
                out_assignments=out, demand=2,
            )
        )
    # A middle has no real terminal: every node is free.
    rows.append({"side": "chain [6, 14, 6] middle, cut guard forced",
                 "free_nodes": len(split.segments[1].network.nodes()),
                 "ms": round(ms, 2), **fields})
    return rows


def measure_crossover() -> list[dict]:
    rows = []
    for free in CROSSOVER_FREE:
        certified, solved = [], []
        for seed in CROSSOVER_SEEDS:
            try:
                sides = list(_sides(3, free + 3, free + 1, seed))
            except DecompositionError:  # the designed cut does not split this seed
                continue
            for _role, side_free, build in sides:
                if side_free != free:
                    continue
                certified.append(_built(build)[1])
                with _forced_past_the_guards():
                    solved.append(_built(build)[1])
        rows.append({
            "free_nodes": free,
            "sides": len(certified),
            "certificate_ms": round(statistics.median(certified), 2),
            "max_flow_ms": round(statistics.median(solved), 2),
            "max_flow_faster_on": sum(b < a for a, b in zip(certified, solved)),
        })
    return rows


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
PAST_GUARD_HEADERS = ["side", "free nodes", "build ms", "solves", "cubes"]
CROSSOVER_HEADERS = ["free nodes", "sides", "certificate ms", "max-flow ms", "max-flow faster on"]


def _past_guard_table(rows: list[dict]) -> list[list[str]]:
    return [
        [r["side"], str(r["free_nodes"]), f"{r['ms']:.2f}", str(r["solves"]), str(r["cubes"])]
        for r in rows
    ]


def _crossover_table(rows: list[dict]) -> list[list[str]]:
    return [
        [str(r["free_nodes"]), str(r["sides"]), f"{r['certificate_ms']:.2f}",
         f"{r['max_flow_ms']:.2f}", f"{r['max_flow_faster_on']} / {r['sides']}"]
        for r in rows
    ]


def test_c1_auto_against_factoring(benchmark, show):
    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    show(HEADERS, _table(rows), title="C1: auto vs factoring on bottlenecked nets")


def test_c1_past_the_certificate_guards(benchmark, show):
    rows = benchmark.pedantic(measure_past_guard, rounds=1, iterations=1)
    show(PAST_GUARD_HEADERS, _past_guard_table(rows), title="C1: covers past the guards")
    assert all(r["ms"] < 50 for r in rows if "chain" not in r["side"]), rows


def test_c1_kernel_crossover(benchmark, show):
    rows = benchmark.pedantic(measure_crossover, rounds=1, iterations=1)
    show(CROSSOVER_HEADERS, _crossover_table(rows), title="C1: kernel crossover")


if __name__ == "__main__":
    import sys

    from repro.bench.reporting import format_table

    tables = {
        "auto": (HEADERS, _table, measure, "C1: auto vs factoring"),
        "past-guard": (PAST_GUARD_HEADERS, _past_guard_table, measure_past_guard,
                       "C1: covers past the certificate guards"),
        "crossover": (CROSSOVER_HEADERS, _crossover_table, measure_crossover,
                      "C1: certificate vs max-flow kernel by free nodes"),
    }
    for name in sys.argv[1:] or tables:
        headers, table, run, title = tables[name]
        print(format_table(headers, table(run()), title=title))
