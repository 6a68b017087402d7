"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.core.api import compute_reliability
from repro.graph.builders import fujita_fig4
from repro.graph.io import save


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    save(fujita_fig4(), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compute_args(self):
        args = build_parser().parse_args(
            ["compute", "x.json", "-s", "s", "-t", "t", "-d", "2"]
        )
        assert args.rate == 2
        assert args.method == "auto"

    def test_bad_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["compute", "x.json", "-s", "s", "-t", "t", "-d", "1", "--method", "magic"]
            )


    @pytest.mark.parametrize("command", ["compute", "profile"])
    def test_chain_is_not_a_cli_method(self, command, net_file, capsys):
        """chain needs an ordered cut sequence the command line cannot
        pass: argparse refuses it (exit 2), while the API keeps it."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, net_file, "-s", "s", "-t", "t", "-d", "2", "--method", "chain"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'chain'" in capsys.readouterr().err
        assert compute_reliability(
            fujita_fig4(), "s", "t", 2, method="chain", cuts=[[0, 1]]
        ).value == pytest.approx(0.8426357910, abs=1e-10)


class TestCommands:
    def test_describe(self, net_file, capsys):
        assert main(["describe", net_file]) == 0
        out = capsys.readouterr().out
        assert "fujita-fig4" in out
        assert "e0" in out

    def test_compute_auto(self, net_file, capsys):
        assert main(["compute", net_file, "-s", "s", "-t", "t", "-d", "2"]) == 0
        out = capsys.readouterr().out
        assert "0.8426357910" in out

    def test_compute_explicit_method(self, net_file, capsys):
        assert main(
            ["compute", net_file, "-s", "s", "-t", "t", "-d", "2", "--method", "naive"]
        ) == 0
        assert "naive" in capsys.readouterr().out

    def test_compute_json_output(self, net_file, capsys):
        assert main(
            ["compute", net_file, "-s", "s", "-t", "t", "-d", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reliability"] == pytest.approx(0.842635791)
        assert payload["method"] == "bottleneck"

    def test_compute_montecarlo(self, net_file, capsys):
        assert main(
            [
                "compute", net_file, "-s", "s", "-t", "t", "-d", "2",
                "--method", "montecarlo", "--samples", "2000",
            ]
        ) == 0
        assert "interval" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["compute", "profile"])
    def test_samples_reach_rare(self, net_file, command, capsys):
        """``--samples`` is the permutation budget of ``--method rare``:
        two budgets give two intervals, each the API's at that budget."""
        demand = ["-s", "s", "-t", "t", "-d", "2", "--method", "rare"]
        intervals = []
        for samples in (500, 20_000):
            argv = [command, net_file, *demand, "--samples", str(samples)]
            if command == "compute":
                argv.append("--json")
            assert main(argv) == 0
            out = capsys.readouterr().out
            expected = compute_reliability(
                fujita_fig4(), "s", "t", 2, method="rare", num_samples=samples
            )
            if command == "compute":
                payload = json.loads(out)
                assert payload["interval"] == [expected.low, expected.high]
                intervals.append(tuple(payload["interval"]))
            else:
                assert f"reliability = {expected.value:.10f}" in out
                assert f"mc_samples = {samples}" in out
                intervals.append(expected.value)
        assert intervals[0] != intervals[1]

    def test_bounds(self, net_file, capsys):
        assert main(["bounds", net_file, "-s", "s", "-t", "t", "-d", "2"]) == 0
        out = capsys.readouterr().out
        assert "lower bound" in out and "upper bound" in out

    def test_distribution(self, net_file, capsys):
        assert main(["distribution", net_file, "-s", "s", "-t", "t"]) == 0
        out = capsys.readouterr().out
        assert "expected deliverable rate" in out

    def test_sample_network_stdout(self, capsys):
        assert main(["sample-network", "--kind", "diamond"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["links"]) == 4

    def test_sample_network_file(self, tmp_path, capsys):
        out_path = tmp_path / "sample.json"
        assert main(["sample-network", "--kind", "fig4", "-o", str(out_path)]) == 0
        assert out_path.exists()

    def test_missing_file_is_error(self, capsys):
        assert main(["describe", "/nonexistent/net.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_terminal_is_error(self, net_file, capsys):
        assert main(["compute", net_file, "-s", "s", "-t", "zzz", "-d", "1"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_roundtrip_sample_to_compute(self, tmp_path, capsys):
        out_path = tmp_path / "bn.json"
        assert main(["sample-network", "--kind", "bottlenecked", "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["compute", str(out_path), "-s", "s", "-t", "t", "-d", "2"]) == 0
        assert "reliability" in capsys.readouterr().out


class TestImportanceCommand:
    def test_importance_output(self, net_file, capsys):
        assert main(["importance", net_file, "-s", "s", "-t", "t", "-d", "2"]) == 0
        out = capsys.readouterr().out
        assert "birnbaum" in out
        assert "e0" in out

    def test_importance_measure_choice(self, net_file, capsys):
        assert main(
            ["importance", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--measure", "fussell_vesely"]
        ) == 0
        assert "e0" in capsys.readouterr().out

    def test_bad_measure_rejected(self, net_file):
        with pytest.raises(SystemExit):
            main(["importance", net_file, "-s", "s", "-t", "t", "-d", "2",
                  "--measure", "vibes"])


class TestModuleEntryPoint:
    def test_version_flag(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "repro 1.0.0" in proc.stdout

    def test_module_compute_round_trip(self, net_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "compute", net_file,
             "-s", "s", "-t", "t", "-d", "2", "--json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        import json as _json

        payload = _json.loads(proc.stdout)
        assert abs(payload["reliability"] - 0.842635791) < 1e-9

    def test_distribution_source_equals_sink_exits_1(self, net_file):
        """Rejected at the oracle boundary, not spun on inside the solver."""
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "distribution", net_file,
             "-s", "s", "-t", "s"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert "source and sink must differ" in proc.stderr
