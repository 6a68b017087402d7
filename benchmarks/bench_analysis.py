"""A1 — static-analysis gate latency: syntax tier vs dataflow tier.

The dataflow tier builds a CFG per function and runs up to five
fixpoint solves over it, so it is structurally slower than the
single-pass syntax tier; this bench pins the cost of both over the
shipped ``src/repro`` tree and asserts the CI budget: the *full*
dataflow tier (CFG construction + every RR201–RR204 solve, all ~100
files) must finish well under 30 seconds, or the ``analysis-dataflow``
CI job starts dominating the pipeline.

The committed snapshot lives in ``benchmarks/BENCH_analysis.json``.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import analyze_paths
from repro.bench.harness import time_call

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_REPRO = REPO_ROOT / "src" / "repro"

#: The CI budget for one full dataflow-tier pass (seconds).
DATAFLOW_BUDGET_S = 30.0


def _run_tier(tier: str):
    report = analyze_paths([str(SRC_REPRO)], tier=tier)
    assert report.clean, [f.render() for f in report.findings]
    return report


def test_a1_analysis_tier_latency(benchmark, show):
    def run():
        syntax = time_call(_run_tier, "syntax", repeats=3)
        dataflow = time_call(_run_tier, "dataflow", repeats=3)
        both = time_call(_run_tier, "all", repeats=3)
        return {
            "syntax": syntax,
            "dataflow": dataflow,
            "all": both,
            "files": syntax.value.files_checked,
        }

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    files = data["files"]
    assert files > 50  # the whole package, not a stray subset

    # The acceptance bar: a full flow-sensitive pass fits the CI budget
    # with an order of magnitude to spare.
    assert data["dataflow"].seconds < DATAFLOW_BUDGET_S

    rows = [
        [
            tier,
            f"{data[tier].seconds * 1e3:.1f}",
            f"{data[tier].seconds * 1e3 / files:.2f}",
        ]
        for tier in ("syntax", "dataflow", "all")
    ]
    show(
        ["tier", "ms (best of 3)", "ms/file"],
        rows,
        title=f"A1: repro.analysis over src/repro ({files} files)",
    )
