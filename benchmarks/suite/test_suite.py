"""Smoke tests of the benchmark suite: ``pytest benchmarks/suite``.

Every workload runs once untraced and once traced with ``--quick``
(tiny inputs, the same code paths).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "suite" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory: pytest.TempPathFactory) -> dict[tuple[str, int], tuple[str, Path]]:
    out = {}
    spans_dir = tmp_path_factory.mktemp("spans")
    for workload in WORKLOADS:
        for trace in (0, 1):
            spans = spans_dir / f"{workload}.json"
            done = _run(["--workload", workload, "--seed", "0", "--quick",
                         "--trace", str(trace), "--spans", str(spans)])
            assert done.returncode == 0, done.stdout + done.stderr
            out[workload, trace] = (done.stdout, spans)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_printed_with_its_unit(runs, workload, trace):
    stdout, _ = runs[workload, trace]
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        value = result["metrics"][metric["name"]]["value"]
        assert f"{workload} {metric['name']} {value:.6g} {metric['unit']}" in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_span_nests_under_a_request_span(runs, workload):
    _, path = runs[workload, 1]
    spans = json.loads(path.read_text())["spans"]
    by_id = {span["id"]: span for span in spans}
    assert any(span["layer"] != "request" for span in spans)
    for span in spans:
        assert span["start"] <= span["end"]
        root = span
        while root["parent"] is not None:
            parent = by_id[root["parent"]]
            assert parent["start"] <= root["start"] and root["end"] <= parent["end"]
            root = parent
        assert root["layer"] == "request"
        assert root["request"] == span["request"]


@pytest.mark.parametrize("workload", ["exact-cold", "sweep-warm", "estimate-rare"])
def test_layer_self_seconds_add_up_to_the_untraced_latency(runs, workload):
    stdout, _ = runs[workload, 1]
    overhead = json.loads(stdout.strip().splitlines()[-1])["metrics"]["trace.overhead_frac"]
    assert abs(overhead["value"]) <= 0.10


def test_without_the_program_the_run_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(SUITE, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "exact-cold", "--seed", "0", "--quick"], cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout
