"""I1 — incremental Gray-walk flow repair vs cold lattice solves.

Cold enumeration re-derives the whole flow at every lattice entry; the
incremental engine (``repro.flow.incremental``) repairs the previous
entry's flow across the one-link Gray step instead.  The honest metric
is **augmenting-path work** — the ``solver.dinic.paths`` counter, i.e.
how many augmenting paths the solver actually traced — not solver
invocations, because repairs are many tiny solves (``flow_calls`` can
grow while the path work collapses).

Naive has no cold switch (its Gray walk always repairs), so the cold
rows come from :func:`_cold_popcount_naive` below — a cold
Dinic oracle scanned most-alive first, the order naive used before its
Gray walk.  Every row is asserted value-identical to the cold baseline
(``==`` on the float, not approx) before it is reported; the committed
snapshot lives in ``benchmarks/BENCH_incremental.json`` (its bottleneck
rows are history: the bottleneck pipeline no longer takes
``incremental=`` or ``prune=``, and ``solver=`` is gone everywhere) and
the acceptance bar
(>= 2x path-work reduction on fig4) is asserted here so a regression
fails the bench, not just the JSON diff.
"""

import numpy as np
import pytest

from repro.bench.harness import time_call
from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.naive import naive_reliability
from repro.core.result import ReliabilityResult
from repro.graph.builders import fujita_fig4
from repro.graph.generators import bottlenecked_network
from repro.obs import Recorder, record
from repro.probability.bitset import popcount_array
from repro.probability.enumeration import configuration_probabilities


def _cold_popcount_naive(net, demand, *, prune):
    """Cold reference: one Dinic solve per undecided configuration.

    Configurations are scanned most-alive first, so with ``prune`` every
    one-link superset is decided before its subsets and a configuration
    with an infeasible one is skipped (feasibility is monotone).
    """
    m = net.num_links
    size = 1 << m
    oracle = FeasibilityOracle(net, demand.source, demand.sink, demand.rate)
    table = np.zeros(size, dtype=bool)
    order = np.argsort(-popcount_array(m).astype(np.int16), kind="stable")
    for mask in map(int, order):
        missing = [mask | (1 << j) for j in range(m) if not mask >> j & 1]
        if prune and not all(table[sup] for sup in missing):
            continue
        table[mask] = oracle.feasible(mask)
    return ReliabilityResult(
        value=float(configuration_probabilities(net)[table].sum()),
        method="naive-cold",
        flow_calls=oracle.calls,
        configurations=size,
    )


def _measured(fn, *args, **kwargs):
    """(TimedResult, augmenting paths, counter totals) for one call."""
    recorder = Recorder()
    with record(recorder):
        timing = time_call(fn, *args, repeats=3, **kwargs)
    totals = recorder.counter_totals()
    paths = sum(
        v
        for name, v in totals.items()
        if name.startswith("solver.") and name.endswith(".paths")
    )
    # time_call ran the target three times inside one recorder; report
    # the per-call counts.
    return timing, paths // 3, totals


def _rows_for(net, demand, *, variants):
    rows = []
    baseline_paths = {}
    for label, fn, kwargs in variants:
        timing, paths, totals = _measured(fn, net, demand, **kwargs)
        result = timing.value
        key = kwargs["prune"]
        if fn is _cold_popcount_naive:
            baseline_paths[key] = paths
            ratio = 1.0
        else:
            ratio = baseline_paths[key] / paths if paths else float("inf")
        rows.append(
            {
                "configuration": label,
                "ms": round(timing.seconds * 1e3, 3),
                "value": result.value,
                "flow_calls": result.flow_calls,
                "augmenting_paths": paths,
                "flow_repairs": int(totals.get("flow_repairs", 0)) // 3,
                "paths_saved": int(totals.get("augmenting_paths_saved", 0)) // 3,
                "path_work_reduction": round(ratio, 2),
            }
        )
    return rows


_NAIVE_VARIANTS = [
    ("cold pruned", _cold_popcount_naive, {"prune": True}),
    ("incremental pruned", naive_reliability, {"prune": True}),
    ("cold unpruned", _cold_popcount_naive, {"prune": False}),
    ("incremental unpruned", naive_reliability, {"prune": False}),
]


def test_i1_naive_fig4(benchmark, show):
    """Fig. 4 whole-graph lattice: the acceptance workload."""
    net = fujita_fig4()
    demand = FlowDemand("s", "t", 2)

    rows = benchmark.pedantic(
        lambda: _rows_for(net, demand, variants=_NAIVE_VARIANTS),
        rounds=1,
        iterations=1,
    )
    cold = {r["configuration"]: r for r in rows}
    for r in rows:
        assert r["value"] == cold["cold pruned"]["value"]
    # The acceptance bar: >= 2x less augmenting-path work than cold.
    assert cold["incremental pruned"]["path_work_reduction"] >= 2.0
    assert cold["incremental unpruned"]["path_work_reduction"] >= 2.0
    show(
        ["configuration", "ms", "flow calls", "aug. paths", "repairs", "saved", "reduction"],
        [
            [
                r["configuration"],
                f"{r['ms']:.2f}",
                r["flow_calls"],
                r["augmenting_paths"],
                r["flow_repairs"],
                r["paths_saved"],
                f"{r['path_work_reduction']:.2f}x",
            ]
            for r in rows
        ],
        title="I1: naive on fujita_fig4 (2^7 configurations)",
    )


@pytest.mark.parametrize("seed", [0, 7])
def test_i1_naive_random(benchmark, show, seed):
    """Random bottlenecked instances: where the planner's ordering and
    the two-sided prune bite hardest (8-15x observed)."""
    net = bottlenecked_network(
        source_side_links=5, sink_side_links=4, num_bottlenecks=2, demand=2, seed=seed
    )
    demand = FlowDemand("s", "t", 2)
    rows = benchmark.pedantic(
        lambda: _rows_for(net, demand, variants=_NAIVE_VARIANTS),
        rounds=1,
        iterations=1,
    )
    assert len({r["value"] for r in rows}) == 1
    incremental_pruned = next(r for r in rows if r["configuration"] == "incremental pruned")
    assert incremental_pruned["path_work_reduction"] >= 2.0
    show(
        ["configuration", "ms", "flow calls", "aug. paths", "reduction"],
        [
            [
                r["configuration"],
                f"{r['ms']:.2f}",
                r["flow_calls"],
                r["augmenting_paths"],
                f"{r['path_work_reduction']:.2f}x",
            ]
            for r in rows
        ],
        title=f"I1: naive on bottlenecked_network(seed={seed})",
    )
