"""Integration tests: ``repro profile`` and the ``--trace`` family.

The acceptance bar for the observability layer: the phase tree printed
by ``repro profile`` on ``fujita_fig4`` must report per-phase
``flow_solves`` whose sum equals ``ReliabilityResult.flow_calls``
exactly — for both exact kernels.  The bottleneck arrays come from the
solver-free cut-certificate kernel and spend no solves, so the
bottleneck solve-accounting tests push fig4's sides past the
certificate guard (a monkeypatched ``MAX_CERTIFICATE_CUTS``) onto the
Gray-walk fallback.
"""

import json
import re

import pytest

from repro import obs
from repro.cli import main
from repro.core import certificate
from repro.core.api import compute_reliability
from repro.core.demand import FlowDemand
from repro.graph.builders import fujita_fig4
from repro.graph.io import save

_PHASE_LINE = re.compile(r"^(?:\|- |`- )")
_FLOW_SOLVES = re.compile(r"\bflow_solves=(\d+)\b")
_FLOW_CALLS = re.compile(r"^max-flow calls: (\d+)$", re.MULTILINE)


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    save(fujita_fig4(), path)
    return str(path)


def _phase_flow_solves(profile_output: str) -> list[int]:
    """flow_solves annotations on the *top-level* phase lines only."""
    totals = []
    for line in profile_output.splitlines():
        if _PHASE_LINE.match(line):
            match = _FLOW_SOLVES.search(line)
            if match:
                totals.append(int(match.group(1)))
    return totals


class TestProfileCommand:
    @pytest.mark.parametrize("method", ["naive", "bottleneck"])
    def test_phase_flow_solves_sum_to_flow_calls(
        self, net_file, capsys, monkeypatch, method
    ):
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        assert main(
            ["profile", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--method", method]
        ) == 0
        out = capsys.readouterr().out
        flow_calls = int(_FLOW_CALLS.search(out).group(1))
        per_phase = _phase_flow_solves(out)
        assert per_phase, "no flow_solves-annotated phases in the tree"
        assert sum(per_phase) == flow_calls

    def test_profile_prints_reliability_and_counters(self, net_file, capsys):
        assert main(
            ["profile", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--method", "bottleneck"]
        ) == 0
        out = capsys.readouterr().out
        assert "reliability = 0.8426357910" in out
        assert "counters:" in out
        assert "configurations_enumerated" in out
        assert "assignments_enumerated" in out

    def test_profile_montecarlo_counts_samples(self, net_file, capsys):
        assert main(
            ["profile", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--method", "montecarlo", "--samples", "2048"]
        ) == 0
        out = capsys.readouterr().out
        assert "mc_samples = 2048" in out

    def test_profile_trace_json(self, net_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        trace_path = tmp_path / "trace.json"
        assert main(
            ["profile", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--method", "bottleneck", "--trace-json", str(trace_path)]
        ) == 0
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.obs/trace/v1"
        out = capsys.readouterr().out
        flow_calls = int(_FLOW_CALLS.search(out).group(1))
        assert payload["counters"]["flow_solves"] == flow_calls > 0

    def test_profile_progress_heartbeats(self, net_file, capsys):
        assert main(
            ["profile", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--method", "naive", "--progress"]
        ) == 0
        err = capsys.readouterr().err
        assert "naive.configurations:" in err


class TestComputeTraceFlags:
    def test_trace_prints_tree_to_stderr(self, net_file, capsys):
        assert main(
            ["compute", net_file, "-s", "s", "-t", "t", "-d", "2", "--trace"]
        ) == 0
        captured = capsys.readouterr()
        assert "reliability = 0.8426357910" in captured.out
        # The run-ledger announcement may precede the tree.
        assert any(
            line.startswith("phases (") for line in captured.err.splitlines()
        )
        assert "trace  " in captured.err

    def test_trace_json_round_trips_through_json_loads(self, net_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        assert main(
            ["compute", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--method", "naive", "--json", "--trace-json", str(trace_path)]
        ) == 0
        result = json.loads(capsys.readouterr().out)
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.obs/trace/v1"
        assert payload["counters"]["flow_solves"] == result["flow_calls"]
        assert payload["counters"]["configurations_enumerated"] == 2 ** 9
        assert payload["seconds"] > 0
        assert [s["name"] for s in payload["spans"]]

    def test_trace_json_to_stdout(self, net_file, capsys):
        assert main(
            ["compute", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--trace-json", "-"]
        ) == 0
        out = capsys.readouterr().out
        payload, _ = json.JSONDecoder().raw_decode(out, out.index("{"))
        assert payload["schema"] == "repro.obs/trace/v1"

    def test_no_trace_flags_leave_no_recorder_installed(self, net_file, capsys):
        assert main(["compute", net_file, "-s", "s", "-t", "t", "-d", "2"]) == 0
        capsys.readouterr()
        assert obs.current_recorder() is None


class TestResultDetails:
    @pytest.mark.parametrize("method", ["naive", "bottleneck"])
    def test_details_obs_phase_summary(self, method, monkeypatch):
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        with obs.record():
            result = compute_reliability(net, demand=demand, method=method)
        summary = result.details["obs"]
        per_phase = sum(
            p["counters"].get("flow_solves", 0) for p in summary["phases"]
        )
        assert per_phase == summary["counters"]["flow_solves"] == result.flow_calls > 0

    def test_details_has_no_obs_key_without_recorder(self):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        result = compute_reliability(net, demand=demand, method="bottleneck")
        assert "obs" not in result.details
