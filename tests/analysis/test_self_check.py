"""Meta-test: the shipped source tree passes its own static-analysis gate."""

from __future__ import annotations

import os
import subprocess
import sys

from repro.analysis import analyze_paths

from tests.analysis.conftest import REPO_ROOT, SRC_REPRO


def test_src_repro_is_clean_in_process():
    report = analyze_paths([str(SRC_REPRO)])
    assert not report.parse_errors, report.parse_errors
    offenders = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"repro.analysis findings in src/repro:\n{offenders}"
    assert report.files_checked > 50  # the whole package, not a stray subset


def test_module_entry_point_exits_zero():
    """Acceptance criterion: ``python -m repro.analysis src/repro`` exits 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "src/repro"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_dataflow_tier_entry_point_exits_zero():
    """Acceptance criterion: the flow-sensitive tier alone is clean on
    ``src/repro`` (the CI ``analysis-dataflow`` job runs exactly this)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--tier", "dataflow", "src/repro"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_fixture_tree_is_deliberately_dirty():
    """The seeded fixtures must keep violating every rule so the suite
    can detect a rule that silently stops firing."""
    fixtures = REPO_ROOT / "tests" / "analysis" / "fixtures"
    report = analyze_paths([str(fixtures)])
    codes = {f.code for f in report.findings}
    assert codes == {
        "RR101",
        "RR102",
        "RR103",
        "RR104",
        "RR105",
        "RR106",
        "RR107",
        "RR109",
        "RR110",
        "RR111",
        "RR112",
        "RR113",
        "RR114",
        "RR201",
        "RR202",
        "RR203",
        "RR204",
    }
