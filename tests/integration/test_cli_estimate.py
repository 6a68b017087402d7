"""Integration tests for the ``repro estimate`` subcommand.

Covers the CLI surface of the rare-event tier and the acceptance
criterion that every estimate is replayable *from the run ledger*: the
ledger records the seed, and re-running with it reproduces the value
bit-for-bit.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graph.builders import fujita_fig4
from repro.graph.io import save


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    save(fujita_fig4(), path)
    return str(path)


@pytest.fixture
def five_nines_file(tmp_path):
    path = tmp_path / "net9.json"
    save(fujita_fig4(failure_probability=1e-5), path)
    return str(path)


def _estimate(net_file, *extra):
    return main(
        ["estimate", net_file, "-s", "s", "-t", "t", "-d", "2", *extra]
    )


class TestEstimateCommand:
    def test_default_run_prints_interval(self, net_file, capsys):
        assert _estimate(net_file, "--budget", "1000", "--no-ledger") == 0
        out = capsys.readouterr().out
        assert "method: rare-permutation" in out
        assert "interval" in out and "unreliability" in out

    def test_json_output_is_machine_readable(self, net_file, capsys):
        assert (
            _estimate(net_file, "--budget", "1000", "--seed", "7", "--json",
                      "--no-ledger")
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "rare-permutation"
        assert payload["seed"] == 7
        assert 0.0 <= payload["reliability"] <= 1.0
        low, high = payload["interval"]
        assert low <= payload["reliability"] <= high
        assert payload["flow_calls"] > 0

    def test_five_nines_with_target_relative_error(self, five_nines_file, capsys):
        assert (
            _estimate(
                five_nines_file,
                "--budget", "20000",
                "--target-relative-error", "0.1",
                "--seed", "3",
                "--json",
                "--no-ledger",
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["unreliability"] < 1e-3
        assert payload["relative_error"] <= 0.1

    def test_same_seed_replays_bit_identical(self, net_file, capsys):
        args = ("--budget", "800", "--seed", "42", "--json", "--no-ledger")
        assert _estimate(net_file, *args) == 0
        first = json.loads(capsys.readouterr().out)
        assert _estimate(net_file, *args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_budget_must_be_positive(self, net_file, capsys):
        assert _estimate(net_file, "--budget", "0", "--no-ledger") == 1
        assert "--budget must be positive" in capsys.readouterr().err


class TestLedgerRoundTrip:
    def test_estimate_recorded_and_replayable_from_ledger(
        self, net_file, tmp_path, capsys
    ):
        """The acceptance criterion: the ledger's params carry the seed,
        and replaying with it reproduces the recorded value exactly."""
        ledger = str(tmp_path / "runs")
        assert (
            _estimate(
                net_file, "--budget", "900", "--seed", "11",
                "--ledger-dir", ledger,
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "recorded (completed)" in err

        assert main(["runs", "show", "-1", "--ledger-dir", ledger]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "estimate"
        assert record["status"] == "completed"
        assert record["params"]["seed"] == 11
        assert record["params"]["budget"] == 900
        assert record["counters"]["mc_samples"] == 900
        assert record["counters"]["samples_vectorized"] == 900
        assert record["counters"]["spectrum_solves"] > 0
        interval = record["interval"]
        assert interval["num_samples"] == 900
        assert interval["confidence"] == 0.95
        assert interval["low"] <= record["value"] <= interval["high"]

        # Replay from the ledger record alone.
        assert (
            _estimate(
                net_file,
                "--budget", str(record["params"]["budget"]),
                "--seed", str(record["params"]["seed"]),
                "--json",
                "--no-ledger",
            )
            == 0
        )
        replay = json.loads(capsys.readouterr().out)
        assert replay["reliability"] == record["value"]
        assert replay["interval"] == [interval["low"], interval["high"]]
        assert replay["num_samples"] == interval["num_samples"]
        assert replay["confidence"] == interval["confidence"]

    def test_identical_estimates_diff_clean(self, net_file, tmp_path, capsys):
        ledger = str(tmp_path / "runs")
        args = ("--budget", "500", "--seed", "2", "--ledger-dir", ledger)
        assert _estimate(net_file, *args) == 0
        assert _estimate(net_file, *args) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "-2", "-1", "--ledger-dir", ledger]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_estimate_span_lands_in_trace(self, net_file, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        assert (
            _estimate(
                net_file, "--budget", "300", "--no-ledger",
                "--trace-json", str(trace_file),
            )
            == 0
        )
        trace = json.loads(trace_file.read_text())
        text = json.dumps(trace)
        assert "rare.spectrum" in text
