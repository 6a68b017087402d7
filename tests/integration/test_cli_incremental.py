"""CLI integration: the solver decides flow repair, and validation
precedes ``load()``.

``compute``, ``estimate`` and ``profile`` have no repair toggle: the
naive and rare-event walks repair flow whenever the solver supports
warm starts (the default Dinic does) and solve cold otherwise.  The
removed ``--incremental`` / ``--no-incremental`` flags exit 2 with a
pointer (``tests/integration/test_cli_removed.py``).  A cold run is
reached here by monkeypatching the default solver's
``supports_incremental`` off — exactly the switch the oracle reads.

The validation-ordering tests pin that a bad command line is rejected
*before* the network file is touched, so the error is the command-line
error even when the file does not exist.
"""

import json
import re

import pytest

from repro.cli import main
from repro.flow.dinic import DinicSolver
from repro.graph.builders import fujita_fig4
from repro.graph.io import save

_FIG4_RELIABILITY = "0.8426357910"


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    save(fujita_fig4(), path)
    return str(path)


@pytest.fixture
def cold_dinic(monkeypatch):
    """Make the default solver look warm-start-incapable."""
    monkeypatch.setattr(DinicSolver, "supports_incremental", False)


class TestComputeIncremental:
    @pytest.mark.parametrize("method", ["naive", "auto"])
    def test_value_pinned(self, net_file, capsys, method):
        assert main(
            ["compute", net_file, "-s", "s", "-t", "t", "-d", "2", "--method", method]
        ) == 0
        assert _FIG4_RELIABILITY in capsys.readouterr().out

    def test_incremental_saves_augmenting_path_work(self, net_file, capsys, monkeypatch):
        """The savings metric is augmenting-path work, not invocation
        count — repairs are many tiny solves, so ``flow_calls`` can grow
        while the total path work shrinks."""

        def paths():
            assert main(
                ["profile", net_file, "-s", "s", "-t", "t", "-d", "2",
                 "--method", "naive"]
            ) == 0
            out = capsys.readouterr().out
            assert _FIG4_RELIABILITY in out
            return int(re.search(r"solver\.\w+\.paths = (\d+)", out).group(1))

        warm = paths()
        monkeypatch.setattr(DinicSolver, "supports_incremental", False)
        assert warm < paths()


class TestEstimateIncremental:
    def test_estimate_identical_warm_or_cold(self, net_file, capsys, monkeypatch):
        """Repair changes the solver work, never the estimate."""

        def estimate():
            assert main(
                ["estimate", net_file, "-s", "s", "-t", "t", "-d", "2",
                 "--budget", "500", "--seed", "0", "--json", "--no-ledger"]
            ) == 0
            return json.loads(capsys.readouterr().out)

        warm = estimate()
        monkeypatch.setattr(DinicSolver, "supports_incremental", False)
        cold = estimate()
        assert warm["reliability"] == cold["reliability"]
        assert warm["interval"] == cold["interval"]


class TestValidationPrecedesLoad:
    """The command-line error must win even when the network file is absent."""

    @pytest.mark.parametrize("flag", ["--incremental", "--no-incremental"])
    def test_removed_flag_error_before_load(self, tmp_path, capsys, flag):
        missing = str(tmp_path / "nope.json")
        assert main(
            ["compute", missing, "-s", "s", "-t", "t", "-d", "2",
             "--method", "naive", flag]
        ) == 2
        err = capsys.readouterr().err
        assert f"{flag} was removed" in err
        assert "nope.json" not in err

    def test_missing_file_still_reported_when_options_valid(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(
            ["compute", missing, "-s", "s", "-t", "t", "-d", "2", "--method", "naive"]
        ) == 1
        assert "nope.json" in capsys.readouterr().err


class TestProfileIncremental:
    def test_profile_reports_repair_counters(self, net_file, capsys):
        assert main(
            ["profile", net_file, "-s", "s", "-t", "t", "-d", "2", "--method", "naive"]
        ) == 0
        out = capsys.readouterr().out
        assert _FIG4_RELIABILITY in out
        assert "flow_repairs" in out
        assert "augmenting_paths_saved" in out
        flow_calls = int(re.search(r"max-flow calls: (\d+)", out).group(1))
        counted = int(re.search(r"flow_solves = (\d+)", out).group(1))
        assert counted == flow_calls

    def test_cold_solver_reports_no_repairs(self, net_file, capsys, cold_dinic):
        assert main(
            ["profile", net_file, "-s", "s", "-t", "t", "-d", "2", "--method", "naive"]
        ) == 0
        out = capsys.readouterr().out
        assert _FIG4_RELIABILITY in out
        assert "flow_repairs" not in out
        assert "augmenting_paths_saved" not in out
