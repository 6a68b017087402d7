"""Engine-level tests: suppressions, selection, reporters, registry."""

from __future__ import annotations

import json

import pytest

from repro.analysis import analyze_paths, analyze_source, all_rules, get_rule
from repro.analysis.engine import AnalysisReport, iter_python_files
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule
from repro.analysis.reporters import render_json, render_report, render_text
from repro.analysis.suppressions import SuppressionIndex
from repro.exceptions import AnalysisError, ReproError, ReproValueError

EXPECTED_CODES = [
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
]


class TestRegistry:
    def test_all_rules_sorted_codes(self):
        assert [r.code for r in all_rules()] == EXPECTED_CODES

    def test_get_rule(self):
        rule = get_rule("RR104")
        assert rule.name == "builtin-exception-raised"

    def test_get_rule_unknown(self):
        with pytest.raises(AnalysisError):
            get_rule("RR999")

    def test_analysis_error_is_repro_error(self):
        assert issubclass(AnalysisError, ReproError)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(AnalysisError, match="duplicate"):

            @register_rule
            class Clone(Rule):  # pragma: no cover - never instantiated
                code = "RR101"
                name = "clone"

    def test_malformed_code_rejected(self):
        with pytest.raises(AnalysisError, match="malformed"):

            @register_rule
            class Bad(Rule):  # pragma: no cover - never instantiated
                code = "XX1"
                name = "bad"

    def test_every_rule_has_rationale(self):
        for rule in all_rules():
            assert rule.rationale, rule.code
            assert rule.name, rule.code


class TestSuppressions:
    def test_bare_noqa_suppresses_everything(self):
        index = SuppressionIndex.from_source("x = 1  # repro: noqa\n")
        finding = Finding("f.py", 1, 1, "RR105", "m")
        assert index.suppresses(finding)

    def test_coded_noqa_is_selective(self):
        index = SuppressionIndex.from_source("x = 1  # repro: noqa[RR101, RR103]\n")
        assert index.suppresses(Finding("f.py", 1, 1, "RR101", "m"))
        assert index.suppresses(Finding("f.py", 1, 1, "RR103", "m"))
        assert not index.suppresses(Finding("f.py", 1, 1, "RR104", "m"))

    def test_wrong_line_does_not_suppress(self):
        index = SuppressionIndex.from_source("x = 1  # repro: noqa\ny = 2\n")
        assert not index.suppresses(Finding("f.py", 2, 1, "RR105", "m"))

    def test_plain_noqa_is_not_honoured(self):
        index = SuppressionIndex.from_source("x = 1  # noqa\n")
        assert not index.suppresses(Finding("f.py", 1, 1, "RR105", "m"))

    def test_empty_bracket_suppresses_nothing(self):
        index = SuppressionIndex.from_source("x = 1  # repro: noqa[]\n")
        assert not index.suppresses(Finding("f.py", 1, 1, "RR105", "m"))


class TestAnalyzeSource:
    SOURCE = "def f(xs=[]):\n    return xs\n"

    def test_findings_returned(self):
        findings = analyze_source(self.SOURCE, "mod.py")
        assert [f.code for f in findings] == ["RR105"]

    def test_syntax_error_raises(self):
        with pytest.raises(AnalysisError, match="cannot parse"):
            analyze_source("def broken(:\n", "mod.py")

    def test_findings_sorted_by_location(self):
        source = "a = {}\n\ndef f(xs=[], ys={}):\n    return xs, ys\n"
        findings = analyze_source(source, "mod.py")
        assert findings == sorted(findings)


class TestAnalyzePaths:
    def test_select_and_ignore(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("import random\n\ndef f(xs=[]):\n    return random.random()\n")
        both = analyze_paths([str(tmp_path)])
        assert {f.code for f in both.findings} == {"RR101", "RR105"}
        only = analyze_paths([str(tmp_path)], select=["RR105"])
        assert {f.code for f in only.findings} == {"RR105"}
        without = analyze_paths([str(tmp_path)], ignore=["RR105"])
        assert {f.code for f in without.findings} == {"RR101"}

    def test_unknown_select_code(self, tmp_path):
        with pytest.raises(AnalysisError, match="unknown rule"):
            analyze_paths([str(tmp_path)], select=["RR777"])

    def test_empty_effective_rule_set_rejected(self, tmp_path):
        # A typo'd selection must not masquerade as a clean run.
        with pytest.raises(AnalysisError, match="no rules to run"):
            analyze_paths([str(tmp_path)], select=["RR102"], ignore=["RR102"])

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(ReproValueError, match="does not exist"):
            iter_python_files([str(tmp_path / "nope")])

    def test_empty_scan_raises(self, tmp_path):
        # Zero matched files would make a CI gate vacuously green.
        with pytest.raises(ReproValueError, match="no Python files"):
            iter_python_files([str(tmp_path)])

    def test_tier_filter(self, tmp_path):
        mod = tmp_path / "mod.py"
        mod.write_text("import random\n\ndef f(xs=[]):\n    return random.random()\n")
        syntax = analyze_paths([str(tmp_path)], tier="syntax")
        assert {f.code for f in syntax.findings} == {"RR101", "RR105"}
        dataflow = analyze_paths([str(tmp_path)], tier="dataflow")
        assert dataflow.clean
        with pytest.raises(AnalysisError, match="unknown tier"):
            analyze_paths([str(tmp_path)], tier="quantum")

    def test_parse_error_collected(self, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        report = analyze_paths([str(tmp_path)])
        assert report.parse_errors and report.exit_code() == 2

    def test_exit_codes(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert analyze_paths([str(clean)]).exit_code() == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(xs=[]):\n    return xs\n")
        assert analyze_paths([str(dirty)]).exit_code() == 1

    def test_pycache_skipped(self, tmp_path):
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "junk.py").write_text("def f(xs=[]):\n    return xs\n")
        (tmp_path / "real.py").write_text("x = 1\n")
        report = analyze_paths([str(tmp_path)])
        assert report.files_checked == 1 and report.clean


class TestReporters:
    def _dirty_report(self, tmp_path) -> AnalysisReport:
        mod = tmp_path / "mod.py"
        mod.write_text("def f(xs=[]):\n    return xs\n")
        return analyze_paths([str(tmp_path)])

    def test_text_clean(self):
        report = AnalysisReport(files_checked=3)
        assert "clean" in render_text(report)

    def test_text_lists_findings(self, tmp_path):
        rendered = render_text(self._dirty_report(tmp_path))
        assert "RR105" in rendered and "mod.py:1:" in rendered
        assert "1 finding(s)" in rendered

    def test_json_round_trip(self, tmp_path):
        payload = json.loads(render_json(self._dirty_report(tmp_path)))
        assert payload["version"] == 1
        assert payload["counts_by_code"] == {"RR105": 1}
        assert payload["exit_code"] == 1
        (finding,) = payload["findings"]
        assert finding["code"] == "RR105" and finding["line"] == 1

    def test_unknown_format(self):
        with pytest.raises(AnalysisError):
            render_report(AnalysisReport(), "yaml")
