"""CLI integration for ``repro serve``: lifecycle, ledger and kill-safety.

The daemon needs a real child process for everything interesting — the
protocol ``shutdown`` op must land a ``completed`` ledger record, and a
SIGTERM mid-serve must land an ``interrupted`` one with a parseable
telemetry trace (the same kill-safety contract compute/sweep honour).
"""

import json
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.graph.builders import fujita_fig4
from repro.graph.io import save
from repro.obs import read_events
from repro.serve.client import ReliabilityClient

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    save(fujita_fig4(), path)
    return str(path)


def _spawn(*args):
    import os

    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", *args],
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def _runs_list(ledger_dir):
    import os

    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    out = subprocess.run(
        [sys.executable, "-m", "repro", "runs", "list", "--json",
         "--ledger-dir", ledger_dir],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(out.stdout)


def _wait_for_port(proc, *, want_warm=False):
    """Read startup stderr until the bound address (and warm line) appear."""
    port = None
    warmed = not want_warm
    lines = []
    while port is None or not warmed:
        line = proc.stderr.readline()
        if not line:
            raise AssertionError(f"daemon exited early:\n{''.join(lines)}")
        lines.append(line)
        match = re.search(r"serving on 127\.0\.0\.1:(\d+)", line)
        if match:
            port = int(match.group(1))
        if "warmed" in line:
            warmed = True
    return port


class TestArgumentValidation:
    def test_serve_cache_max_bytes_without_cache_dir(self):
        """``--cache-max-bytes`` alone bounds the memory tier: the daemon
        starts, answers and exits 0 on a ``shutdown`` op."""
        proc = _spawn("--port", "0", "--cache-max-bytes", "65536", "--no-ledger")
        try:
            port = _wait_for_port(proc)
            net = fujita_fig4()
            with ReliabilityClient("127.0.0.1", port) as client:
                reply = client.query(net, "s", "t", 2)
                client.shutdown()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.stderr.read()
        fresh = bottleneck_reliability(net, FlowDemand("s", "t", 2))
        assert reply["ok"] and reply["points"][0]["reliability"] == fresh.value

    def test_warm_requires_demand_flags(self, net_file, capsys):
        assert main(["serve", "--warm", net_file]) == 1
        assert "--warm requires" in capsys.readouterr().err

    def test_sweep_cache_max_bytes_without_cache_dir(self, net_file, capsys):
        argv = [
            "sweep", net_file, "-s", "s", "-t", "t", "-d", "2",
            "--availability", "0.9,0.95", "--json",
        ]
        assert main(argv) == 0
        unbounded = json.loads(capsys.readouterr().out)
        assert main([*argv, "--cache-max-bytes", "1024"]) == 0
        bounded = json.loads(capsys.readouterr().out)
        assert bounded["points"] == unbounded["points"]
        assert bounded["cache"]["evictions"] > 0


class TestServeLifecycle:
    def test_shutdown_op_lands_a_completed_ledger_record(
        self, net_file, tmp_path
    ):
        ledger = str(tmp_path / "runs")
        events = str(tmp_path / "ev")
        proc = _spawn(
            "--warm", net_file, "-s", "s", "-t", "t", "-d", "2",
            "--cache-dir", str(tmp_path / "cache"),
            "--events", events, "--ledger-dir", ledger,
        )
        try:
            port = _wait_for_port(proc, want_warm=True)
            net = fujita_fig4()
            with ReliabilityClient("127.0.0.1", port) as client:
                assert client.ping()["ok"]
                reply = client.query(net, "s", "t", 2)
                # Warmed at startup: the first query answers zero-solve...
                assert reply["warm"] is True and reply["flow_calls"] == 0
                # ...and matches the pointwise CLI path bit for bit.
                fresh = bottleneck_reliability(net, FlowDemand("s", "t", 2))
                assert reply["points"][0]["reliability"] == fresh.value
                client.shutdown()
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
            stderr = proc.stderr.read()
        assert "recorded (completed)" in stderr
        assert re.search(r"served \d+ queries", stderr)
        stream = read_events(Path(events) / "main.jsonl")
        assert stream[0]["ev"] == "start"
        assert stream[0]["meta"]["port"] == port
        assert stream[-1]["ev"] == "finish"
        entries = _runs_list(ledger)
        assert entries[-1]["command"] == "serve"
        assert entries[-1]["status"] == "completed"

    def test_sigterm_lands_interrupted_with_parseable_trace(self, tmp_path):
        ledger = str(tmp_path / "runs")
        events = str(tmp_path / "ev")
        proc = _spawn("--events", events, "--ledger-dir", ledger)
        try:
            _wait_for_port(proc)
            time.sleep(0.2)
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 130
        finally:
            if proc.poll() is None:
                proc.kill()
            stderr = proc.stderr.read()
        assert "recorded (interrupted)" in stderr
        assert "terminated" in stderr
        entries = _runs_list(ledger)
        assert entries[-1]["command"] == "serve"
        assert entries[-1]["status"] == "interrupted"
        # The stream stays parseable line-by-line and the telemetry
        # ``finish`` event is suppressed (the run did not finish).
        stream = read_events(Path(events) / "main.jsonl")
        assert stream[0]["ev"] == "start"
        assert all("ev" in event for event in stream)
        assert not any(event["ev"] == "finish" for event in stream)
