"""CLI integration: ``--incremental``/``--no-incremental`` and the
eager option validation on compute and profile.

The validation-ordering tests pin the satellite fix: a bad
option/method pairing must be rejected *before* the network file is
touched, so the error is the pairing error even when the file does not
exist (previously ``load()`` ran first and its side effects — and
errors — masked the real problem).
"""

import json
import re

import pytest

from repro.cli import main
from repro.graph.builders import fujita_fig4
from repro.graph.io import save

_FIG4_RELIABILITY = "0.8426357910"


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    save(fujita_fig4(), path)
    return str(path)


class TestComputeIncremental:
    @pytest.mark.parametrize("method", ["naive", "auto"])
    @pytest.mark.parametrize("flag", ["--incremental", "--no-incremental"])
    def test_value_identical_either_way(self, net_file, capsys, method, flag):
        assert main(
            ["compute", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--method", method, flag]
        ) == 0
        assert _FIG4_RELIABILITY in capsys.readouterr().out

    def test_incremental_saves_augmenting_path_work(self, net_file, capsys):
        """The savings metric is augmenting-path work, not invocation
        count — repairs are many tiny solves, so ``flow_calls`` can grow
        while the total path work shrinks."""

        def paths(flag):
            assert main(
                ["profile", net_file, "-s", "s", "-t", "t", "-d", "2",
                 "--method", "naive", flag]
            ) == 0
            out = capsys.readouterr().out
            return int(re.search(r"solver\.\w+\.paths = (\d+)", out).group(1))

        assert paths("--incremental") < paths("--no-incremental")

    def test_flags_are_mutually_exclusive(self, net_file, capsys):
        with pytest.raises(SystemExit):
            main(
                ["compute", net_file, "-s", "s", "-t", "t", "-d", "2",
                 "--incremental", "--no-incremental"]
            )
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["factoring", "bottleneck"])
    @pytest.mark.parametrize("flag", ["--incremental", "--no-incremental"])
    def test_rejected_for_unsupported_method(self, net_file, capsys, flag, method):
        assert main(
            ["compute", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--method", method, flag]
        ) == 1
        err = capsys.readouterr().err
        assert f"{flag} is not supported by method {method!r}" in err
        assert "use one of: naive, rare, auto" in err


class TestEstimateIncremental:
    def test_estimate_takes_the_flags(self, net_file, capsys):
        """``estimate`` has no ``--method``; the flag validation used to
        crash on the missing attribute."""
        outputs = []
        for flag in ("--incremental", "--no-incremental"):
            assert main(
                ["estimate", net_file, "-s", "s", "-t", "t", "-d", "2",
                 "--budget", "500", "--seed", "0", "--json", flag]
            ) == 0
            outputs.append(json.loads(capsys.readouterr().out))
        assert outputs[0]["reliability"] == outputs[1]["reliability"]
        assert outputs[0]["interval"] == outputs[1]["interval"]


class TestValidationPrecedesLoad:
    """The pairing error must win even when the network file is absent."""

    def test_compute_incremental_error_before_load(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(
            ["compute", missing, "-s", "s", "-t", "t", "-d", "2",
             "--method", "factoring", "--incremental"]
        ) == 1
        err = capsys.readouterr().err
        assert "--incremental is not supported" in err
        assert "nope.json" not in err

    def test_missing_file_still_reported_when_options_valid(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(
            ["compute", missing, "-s", "s", "-t", "t", "-d", "2",
             "--method", "naive", "--incremental"]
        ) == 1
        assert "nope.json" in capsys.readouterr().err


class TestProfileIncremental:
    def test_profile_reports_repair_counters(self, net_file, capsys):
        assert main(
            ["profile", net_file, "-s", "s", "-t", "t", "-d", "2",
             "--method", "naive", "--incremental"]
        ) == 0
        out = capsys.readouterr().out
        assert _FIG4_RELIABILITY in out
        assert "flow_repairs" in out
        assert "augmenting_paths_saved" in out
        flow_calls = int(re.search(r"max-flow calls: (\d+)", out).group(1))
        counted = int(re.search(r"flow_solves = (\d+)", out).group(1))
        assert counted == flow_calls
