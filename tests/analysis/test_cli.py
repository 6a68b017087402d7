"""CLI contract tests for ``python -m repro.analysis``."""

from __future__ import annotations

import json

import pytest

from repro.analysis.cli import main


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", "def f(xs=[]):\n    return xs\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RR105" in out

    def test_parse_error_exits_two(self, tmp_path, capsys):
        _write(tmp_path, "broken.py", "def broken(:\n")
        assert main([str(tmp_path)]) == 2

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nowhere")]) == 2
        assert "nowhere" in capsys.readouterr().err

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main([str(tmp_path / "empty")]) == 2
        assert "no Python files" in capsys.readouterr().err

    def test_unknown_select_exits_two(self, tmp_path, capsys):
        _write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(tmp_path), "--select", "RR777"]) == 2
        assert "RR777" in capsys.readouterr().err

    def test_empty_select_exits_two(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", "def f(xs=[]):\n    return xs\n")
        assert main([str(tmp_path), "--select", ""]) == 2
        assert "no rule codes" in capsys.readouterr().err

    def test_cancelled_selection_exits_two(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", "def f(xs=[]):\n    return xs\n")
        assert main([str(tmp_path), "--select", "RR105", "--ignore", "RR105"]) == 2
        assert "no rules to run" in capsys.readouterr().err


class TestOptions:
    def test_select_narrows_rules(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", "import random\n\ndef f(xs=[]):\n    return random.random()\n")
        assert main([str(tmp_path), "--select", "RR101"]) == 1
        out = capsys.readouterr().out
        assert "RR101" in out and "RR105" not in out

    def test_ignore_drops_rules(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", "def f(xs=[]):\n    return xs\n")
        assert main([str(tmp_path), "--ignore", "RR105"]) == 0

    def test_comma_separated_select(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", "def f(xs=[]):\n    return xs\n")
        assert main([str(tmp_path), "--select", "RR101,RR105"]) == 1

    def test_json_format(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", "def f(xs=[]):\n    return xs\n")
        assert main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["exit_code"] == 1
        assert payload["counts_by_code"] == {"RR105": 1}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RR101", "RR102", "RR103", "RR104", "RR105", "RR106"):
            assert code in out

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--format", "yaml"])
        assert excinfo.value.code == 2


class TestTiers:
    DIRTY_BOTH = (
        "def f(xs=[], probs=()):\n"
        "    return configuration_probabilities(probs)\n"
    )

    def test_syntax_tier_skips_dataflow_rules(self, tmp_path, capsys):
        _write(tmp_path, "mod.py", self.DIRTY_BOTH)
        assert main([str(tmp_path), "--tier", "syntax"]) == 1
        out = capsys.readouterr().out
        assert "RR105" in out and "RR204" not in out

    def test_dataflow_tier_skips_syntax_rules(self, tmp_path, capsys):
        _write(tmp_path, "mod.py", self.DIRTY_BOTH)
        assert main([str(tmp_path), "--tier", "dataflow"]) == 1
        out = capsys.readouterr().out
        assert "RR204" in out and "RR105" not in out

    def test_bad_tier_rejected(self, tmp_path):
        _write(tmp_path, "clean.py", "x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path), "--tier", "psychic"])
        assert excinfo.value.code == 2

    def test_rule_is_an_alias_for_select(self, tmp_path, capsys):
        _write(
            tmp_path,
            "dirty.py",
            "import random\n\ndef f(xs=[]):\n    return random.random()\n",
        )
        assert main([str(tmp_path), "--rule", "RR101"]) == 1
        out = capsys.readouterr().out
        assert "RR101" in out and "RR105" not in out

    def test_rule_and_select_combine(self, tmp_path, capsys):
        _write(
            tmp_path,
            "dirty.py",
            "import random\n\ndef f(xs=[]):\n    return random.random()\n",
        )
        assert main([str(tmp_path), "--select", "RR105", "--rule", "RR101"]) == 1
        out = capsys.readouterr().out
        assert "RR101" in out and "RR105" in out

    def test_list_rules_shows_tiers(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "[syntax]" in out and "[dataflow]" in out
        for code in ("RR201", "RR202", "RR203", "RR204"):
            assert code in out

    def test_list_rules_filters_by_tier(self, capsys):
        assert main(["--list-rules", "--tier", "dataflow"]) == 0
        out = capsys.readouterr().out
        assert "RR201" in out and "RR101" not in out
