"""CLI integration: the engine decides flow repair, and validation
precedes ``load()``.

``compute``, ``estimate`` and ``profile`` have no repair toggle: the
naive and rare-event walks always repair flow.  The removed
``--incremental`` / ``--no-incremental`` flags exit 2 with a pointer
(``tests/integration/test_cli_removed.py``).  A cold naive run is
reached here by building every oracle with ``incremental=False``.

The validation-ordering tests pin that a bad command line is rejected
*before* the network file is touched, so the error is the command-line
error even when the file does not exist.
"""

import re

import pytest

from repro.cli import main
from repro.core.feasibility import FeasibilityOracle
from repro.graph.builders import fujita_fig4
from repro.graph.io import save

_FIG4_RELIABILITY = "0.8426357910"


@pytest.fixture
def net_file(tmp_path):
    path = tmp_path / "net.json"
    save(fujita_fig4(), path)
    return str(path)


def _force_cold(monkeypatch):
    """Build every oracle as ``FeasibilityOracle(..., incremental=False)``."""
    init = FeasibilityOracle.__init__

    def cold_init(self, *args, incremental=False, **kwargs):
        init(self, *args, incremental=False, **kwargs)

    monkeypatch.setattr(FeasibilityOracle, "__init__", cold_init)


@pytest.fixture
def cold_oracle(monkeypatch):
    _force_cold(monkeypatch)


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
            return int(re.search(r"solver\.dinic\.paths = (\d+)", out).group(1))

        warm = paths()
        _force_cold(monkeypatch)
        assert warm < paths()


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

    def test_cold_oracle_reports_no_repairs(self, net_file, capsys, cold_oracle):
        assert main(
            ["profile", net_file, "-s", "s", "-t", "t", "-d", "2", "--method", "naive"]
        ) == 0
        out = capsys.readouterr().out
        assert _FIG4_RELIABILITY in out
        assert "flow_repairs" not in out
        assert "augmenting_paths_saved" not in out
