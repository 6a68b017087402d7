"""CLI integration: telemetry flags, the run ledger and kill-safety.

In-process ``main()`` drives everything except the live-endpoint scrape
and the SIGTERM test, which need a real child process (the endpoint must
be up *while* the run executes; the signal must hit a whole process).
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.graph.builders import fujita_fig4
from repro.graph.io import save
from repro.obs import MetricsServer, read_events
from repro.obs.recorder import ARRAY_ENTRIES_BUILT, FLOW_SOLVES, Recorder

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    save(fujita_fig4(), path)
    return str(path)


def _compute(net_file, *extra):
    return main(["compute", net_file, "-s", "s", "-t", "t", "-d", "2", *extra])


class TestEventsFlag:
    def test_compute_writes_events_stream(self, net_file, tmp_path, capsys):
        events_dir = tmp_path / "ev"
        assert _compute(net_file, "--events", str(events_dir), "--no-ledger") == 0
        events = read_events(events_dir / "main.jsonl")
        assert events[0]["ev"] == "start"
        assert events[0]["meta"]["command"] == "compute"
        assert events[-1]["ev"] == "finish"
        assert events[-1]["counters"][ARRAY_ENTRIES_BUILT] > 0

    def test_sweep_workers_spool_worker_files(self, net_file, tmp_path, capsys):
        events_dir = tmp_path / "ev"
        assert (
            main(
                [
                    "sweep",
                    net_file,
                    "-s",
                    "s",
                    "-t",
                    "t",
                    "-d",
                    "2",
                    "--availability",
                    "0.8,0.9",
                    "--workers",
                    "2",
                    "--events",
                    str(events_dir),
                    "--no-ledger",
                ]
            )
            == 0
        )
        worker_files = list(events_dir.glob("worker-*.jsonl"))
        assert worker_files, "chunked sweep must spool worker events"
        for path in worker_files:
            events = read_events(path)
            assert events[0]["ev"] == "start"
            assert any(e["ev"] == "span_close" for e in events)


class TestRunLedgerCli:
    def test_compute_appends_and_runs_list_shows_it(
        self, net_file, tmp_path, capsys
    ):
        ledger = str(tmp_path / "runs")
        assert _compute(net_file, "--ledger-dir", ledger) == 0
        err = capsys.readouterr().err
        assert "recorded (completed)" in err

        assert main(["runs", "list", "--ledger-dir", ledger]) == 0
        out = capsys.readouterr().out
        assert "compute" in out and "completed" in out

    def test_runs_show_round_trips_record(self, net_file, tmp_path, capsys):
        ledger = str(tmp_path / "runs")
        # --incremental selects the max-flow kernel, whose solves the
        # record's counters must reconcile with.
        assert _compute(net_file, "--incremental", "--ledger-dir", ledger) == 0
        capsys.readouterr()
        assert main(["runs", "show", "-1", "--ledger-dir", ledger]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["schema"] == "repro.obs/run/v1"
        assert record["command"] == "compute"
        assert record["counters"][FLOW_SOLVES] == record["flow_calls"] > 0
        assert record["value"] == pytest.approx(0.842635791)

    def test_no_ledger_suppresses_append(self, net_file, tmp_path, capsys):
        ledger = tmp_path / "runs"
        assert _compute(net_file, "--ledger-dir", str(ledger), "--no-ledger") == 0
        assert not ledger.exists()

    def test_identical_runs_diff_clean(self, net_file, tmp_path, capsys):
        ledger = str(tmp_path / "runs")
        assert _compute(net_file, "--ledger-dir", ledger) == 0
        assert _compute(net_file, "--ledger-dir", ledger) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "-2", "-1", "--ledger-dir", ledger]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_injected_double_flow_solves_fails_diff(
        self, net_file, tmp_path, capsys
    ):
        ledger = tmp_path / "runs"
        assert _compute(net_file, "--incremental", "--ledger-dir", str(ledger)) == 0
        capsys.readouterr()
        # Inject a 2x flow_solves regression into a copy of the record.
        [record_path] = [
            p for p in ledger.glob("*.json") if p.name != "index.jsonl"
        ]
        record = json.loads(record_path.read_text())
        record["counters"][FLOW_SOLVES] *= 2
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(record))

        code = main(
            ["runs", "diff", str(record_path), str(regressed), "--ledger-dir", str(ledger)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out and "flow_solves" in out and "2.00x" in out

    def test_diff_json_output(self, net_file, tmp_path, capsys):
        ledger = str(tmp_path / "runs")
        assert _compute(net_file, "--ledger-dir", ledger) == 0
        capsys.readouterr()
        assert (
            main(["runs", "diff", "-1", "-1", "--ledger-dir", ledger, "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["counter_regressions"] == []

    def test_empty_ledger_messages(self, tmp_path, capsys):
        ledger = str(tmp_path / "empty")
        assert main(["runs", "list", "--ledger-dir", ledger]) == 0
        assert "no runs recorded" in capsys.readouterr().out
        assert main(["runs", "diff", "-2", "-1", "--ledger-dir", ledger]) == 1
        assert "out of range" in capsys.readouterr().err


class TestTopCommand:
    def test_top_renders_one_frame(self, capsys):
        rec = Recorder()
        with obs.record(rec):
            with obs.span("sweep.run"):
                obs.count(FLOW_SOLVES, 42)
        with MetricsServer(rec) as server:
            assert main(["top", server.url, "--iterations", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "sweep.run" in out
        assert "flow_solves" in out and "42" in out

    def test_top_unreachable_endpoint_errors(self, capsys):
        # Port 9 (discard) is never a metrics endpoint.
        assert main(["top", "http://127.0.0.1:9", "--iterations", "1"]) == 1
        assert "cannot reach" in capsys.readouterr().err


def _spawn(args, cwd):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


class TestLiveEndpoint:
    def test_metrics_served_while_sweep_runs(self, net_file, tmp_path):
        proc = _spawn(
            [
                "sweep",
                net_file,
                "-s",
                "s",
                "-t",
                "t",
                "-d",
                "2",
                "--availability",
                "0.8:0.99:50",
                "--metrics-port",
                "0",
                "--metrics-linger",
                "8",
                "--ledger-dir",
                str(tmp_path / "runs"),
            ],
            cwd=tmp_path,
        )
        try:
            # The endpoint URL is announced on stderr before the run.
            url = None
            for line in proc.stderr:
                if "metrics endpoint:" in line:
                    url = line.split("metrics endpoint:", 1)[1].strip()
                    break
            assert url, "endpoint announcement never appeared on stderr"
            # The endpoint is up before the first span opens, so an
            # early scrape can legitimately see an empty exposition;
            # poll until the run has produced metrics (the linger
            # window keeps the endpoint alive after completion).
            deadline = time.monotonic() + 20
            body = ""
            while time.monotonic() < deadline and "repro_" not in body:
                with urllib.request.urlopen(url + "/metrics", timeout=5.0) as response:
                    body = response.read().decode("utf-8")
                if "repro_" not in body:
                    time.sleep(0.1)
            assert "repro_" in body
            with urllib.request.urlopen(url + "/trace.json", timeout=5.0) as response:
                payload = json.loads(response.read().decode("utf-8"))
            assert "counters" in payload
        finally:
            proc.terminate()
            proc.wait(timeout=30)


class TestKillSafety:
    def test_sigterm_leaves_readable_trace_and_interrupted_record(
        self, net_file, tmp_path
    ):
        events_dir = tmp_path / "ev"
        ledger_dir = tmp_path / "runs"
        proc = _spawn(
            [
                "compute",
                net_file,
                "-s",
                "s",
                "-t",
                "t",
                "-d",
                "1",
                "--method",
                "montecarlo",
                "--samples",
                "200000000",
                "--events",
                str(events_dir),
                "--ledger-dir",
                str(ledger_dir),
            ],
            cwd=tmp_path,
        )
        try:
            deadline = time.monotonic() + 30
            main_jsonl = events_dir / "main.jsonl"
            while time.monotonic() < deadline and not main_jsonl.exists():
                time.sleep(0.05)
            assert main_jsonl.exists(), "sink never flushed its start event"
            time.sleep(0.3)  # let the run get into the sampling loop
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        assert proc.returncode == 130
        assert "terminated" in err
        assert "recorded (interrupted)" in err

        # Every line of the trace parses (a truncated tail is allowed
        # by read_events; interior corruption would raise).
        events = read_events(main_jsonl)
        assert events[0]["ev"] == "start"
        assert not any(e["ev"] == "finish" for e in events)

        # The ledger holds exactly one well-formed interrupted record.
        index = (ledger_dir / "index.jsonl").read_text().splitlines()
        assert len(index) == 1
        entry = json.loads(index[0])
        assert entry["status"] == "interrupted"
        record = json.loads(
            (ledger_dir / f"{entry['id']}.json").read_text()
        )
        assert record["status"] == "interrupted"
        assert record["schema"] == "repro.obs/run/v1"
