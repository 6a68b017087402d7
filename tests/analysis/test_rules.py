"""One fixture-backed test per rule: positives flagged, negatives not,
noqa suppression honoured."""

from __future__ import annotations

import pytest

from tests.analysis.conftest import (
    FIXTURES,
    fixture_findings,
    fixture_path,
    flagged_functions,
)

ALL_CODES = (
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
)

#: Dataflow-tier rules ship a second, entirely clean fixture module.
DATAFLOW_CODES = ("RR112", "RR201", "RR202", "RR203", "RR204")


@pytest.mark.parametrize("code", ALL_CODES)
def test_every_rule_catches_its_seeded_violations(code):
    """Acceptance: each rule fires on its fixture (and only inside the
    ``bad_*`` functions), and the ``# repro: noqa`` line stays silent."""
    findings = fixture_findings(code)
    assert findings, f"{code} caught nothing in its fixture"
    assert all(f.code == code for f in findings)

    names = flagged_functions(findings, fixture_path(code))
    assert names, f"{code} findings did not land inside any fixture function"
    offenders = {n for n in names if not n.startswith("bad_")}
    assert not offenders, f"{code} flagged non-positive fixtures: {sorted(offenders)}"
    assert "suppressed" not in names, f"{code} ignored its noqa suppression"


@pytest.mark.parametrize("code", DATAFLOW_CODES)
def test_dataflow_clean_fixtures_stay_silent(code):
    """Each dataflow rule ships a realistic clean module it must not flag."""
    from repro.analysis import analyze_paths

    path = FIXTURES / f"{code.lower()}_clean.py"
    assert path.is_file(), f"missing clean fixture {path}"
    report = analyze_paths([str(path)], select=[code])
    assert not report.parse_errors, report.parse_errors
    assert not report.findings, [f.render() for f in report.findings]


def test_rr101_counts_and_messages():
    findings = fixture_findings("RR101")
    assert len(findings) == 4
    assert any("stdlib random" in f.message for f in findings)
    assert any("numpy.random.rand" in f.message for f in findings)
    assert any("numpy.random.seed" in f.message for f in findings)


def test_rr102_counts():
    findings = fixture_findings("RR102")
    # two bad sum() calls + one bad += accumulation
    assert len(findings) == 3
    assert sum("sum()" in f.message for f in findings) == 2
    assert sum("+=" in f.message for f in findings) == 1


def test_rr103_counts():
    findings = fixture_findings("RR103")
    # bad_table, bad_enumeration (2 ** n), bad_size_assignment
    assert len(findings) == 3
    assert any("2 **" in f.message for f in findings)
    assert any("assigned to 'size'" in f.message for f in findings)


def test_rr104_counts():
    findings = fixture_findings("RR104")
    assert len(findings) == 3
    assert sum("builtin ValueError" in f.message for f in findings) == 1
    assert sum("builtin RuntimeError" in f.message for f in findings) == 1
    assert sum("builtin TypeError" in f.message for f in findings) == 1


def test_rr105_counts():
    findings = fixture_findings("RR105")
    assert len(findings) == 3


def test_rr106_counts():
    findings = fixture_findings("RR106")
    # bad_unannotated: params + return; bad_missing_return: return;
    # PublicThing.bad_method: param.
    assert len(findings) == 4
    assert any("PublicThing.bad_method" in f.message for f in findings)
    assert sum("no return annotation" in f.message for f in findings) == 2


def test_rr107_counts_and_messages():
    findings = fixture_findings("RR107")
    # bad_perf_counter, bad_wall_time, bad_monotonic_alias (aliased
    # module), bad_from_import (flagged at the import).
    assert len(findings) == 4
    assert sum("time.perf_counter()" in f.message for f in findings) == 1
    assert sum("time.time()" in f.message for f in findings) == 1
    assert sum("time.monotonic()" in f.message for f in findings) == 1
    assert sum("import of perf_counter" in f.message for f in findings) == 1


def test_rr109_counts_and_messages():
    findings = fixture_findings("RR109")
    # bad_inline_shift, bad_inline_pow, bad_bound_size.
    assert len(findings) == 3
    assert sum("range(1 << m)" in f.message for f in findings) == 1
    assert sum("range(2 ** n_bits)" in f.message for f in findings) == 1
    assert sum("size = 1 << m" in f.message for f in findings) == 1


def test_rr110_counts_and_messages():
    findings = fixture_findings("RR110")
    # bad_rebuild_per_point (for), bad_while_rebuild (while),
    # bad_comprehension_rebuild (listcomp).
    assert len(findings) == 3
    assert sum("build_side_cover()" in f.message for f in findings) == 2
    assert sum("build_relation_cover()" in f.message for f in findings) == 1
    assert all("cached_side_cover" in f.message for f in findings)


def test_rr111_counts_and_messages():
    findings = fixture_findings("RR111")
    # bad_fstring_span, bad_concat_count, bad_format_gauge,
    # bad_percent_ticker, bad_unknown_span_literal,
    # bad_unknown_ticker_label, bad_recorder_attribute_fstring.
    assert len(findings) == 7
    assert sum("an f-string" in f.message for f in findings) == 2
    assert sum("string concatenation" in f.message for f in findings) == 1
    assert sum(".format() call" in f.message for f in findings) == 1
    assert sum("%-formatting" in f.message for f in findings) == 1
    assert sum("KNOWN_SPANS" in f.message for f in findings) == 1
    assert sum("KNOWN_TICKER_LABELS" in f.message for f in findings) == 1


def test_rr111_clean_fixture_stays_silent():
    """Realistic catalogued instrumentation must pass untouched."""
    from repro.analysis import analyze_paths

    path = FIXTURES / "rr111_clean.py"
    report = analyze_paths([str(path)], select=["RR111"])
    assert not report.parse_errors, report.parse_errors
    assert not report.findings, [f.render() for f in report.findings]


def test_rr111_exempts_obs_itself(tmp_path):
    """repro.obs derives ticker gauge names from catalogued labels."""
    from repro.analysis import analyze_source

    source = (
        "from repro.obs.recorder import gauge, span\n"
        "def f(label, done):\n"
        "    with span(f'{label}.window'):\n"
        "        gauge(f'{label}.items', done)\n"
    )
    inside = analyze_source(source, str(tmp_path / "repro" / "obs" / "progress.py"))
    assert not [f for f in inside if f.code == "RR111"]

    outside = analyze_source(source, str(tmp_path / "repro" / "core" / "mod.py"))
    assert [f for f in outside if f.code == "RR111"]


def test_rr110_scoped_to_core(tmp_path):
    """Outside repro.core a loop of builds is some caller's business."""
    from repro.analysis import analyze_source

    source = (
        "def f(split, points):\n"
        "    return [build_side_cover(split) for _ in points]\n"
    )
    outside = analyze_source(source, str(tmp_path / "repro" / "p2p" / "mod.py"))
    assert not [f for f in outside if f.code == "RR110"]

    inside = analyze_source(source, str(tmp_path / "repro" / "core" / "mod.py"))
    assert [f for f in inside if f.code == "RR110"]


def test_rr110_ignores_straight_line_builds(tmp_path):
    from repro.analysis import analyze_source

    source = (
        "def f(split):\n"
        "    source = build_side_cover(split.source_side)\n"
        "    for x in range(3):\n"
        "        use(source, x)\n"
        "    return source\n"
    )
    findings = analyze_source(source, str(tmp_path / "repro" / "core" / "mod.py"))
    assert not [f for f in findings if f.code == "RR110"]


def test_rr109_scoped_to_core(tmp_path):
    """Probability-layer table builders iterate their own ranges freely."""
    from repro.analysis import analyze_source

    source = "def f(m):\n    for mask in range(1 << m):\n        pass\n"
    outside = analyze_source(
        source, str(tmp_path / "repro" / "probability" / "mod.py")
    )
    assert not [f for f in outside if f.code == "RR109"]

    inside = analyze_source(source, str(tmp_path / "repro" / "core" / "mod.py"))
    assert [f for f in inside if f.code == "RR109"]


def test_rr107_exempts_the_obs_package(tmp_path):
    """The clock rule must not flag repro.obs itself — that is where the
    sanctioned wallclock lives."""
    from repro.analysis import analyze_source

    source = "import time\n\ndef f():\n    return time.perf_counter()\n"
    inside_obs = analyze_source(source, str(tmp_path / "repro" / "obs" / "recorder.py"))
    assert not [f for f in inside_obs if f.code == "RR107"]

    elsewhere = analyze_source(source, str(tmp_path / "repro" / "core" / "mod.py"))
    assert [f for f in elsewhere if f.code == "RR107"]


def test_rule_scoping_by_package(tmp_path):
    """RR102/RR106 stay quiet outside core/flow/probability paths."""
    from repro.analysis import analyze_source

    source = "def f(probabilities):\n    return sum(probabilities)\n"
    outside = analyze_source(source, str(tmp_path / "elsewhere" / "mod.py"))
    assert not [f for f in outside if f.code in ("RR102", "RR106")]

    inside = analyze_source(source, str(tmp_path / "core" / "mod.py"))
    assert {f.code for f in inside} == {"RR102", "RR106"}


def test_rr104_scoped_to_repro_tree(tmp_path):
    from repro.analysis import analyze_source

    source = "def f():\n    raise ValueError('x')\n"
    outside = analyze_source(source, str(tmp_path / "scripts" / "tool.py"))
    assert not [f for f in outside if f.code == "RR104"]

    inside = analyze_source(source, str(tmp_path / "repro" / "tool.py"))
    assert [f for f in inside if f.code == "RR104"]


def test_rr112_counts_and_messages():
    findings = fixture_findings("RR112")
    # bad_direct_loop, bad_enumerate_loop, bad_index_loop,
    # bad_comprehension, bad_cast_loop.
    assert len(findings) == 5
    assert sum("for loop over" in f.message for f in findings) == 2
    assert sum("enumerate() over" in f.message for f in findings) == 1
    assert sum("range(len()) over" in f.message for f in findings) == 1
    assert sum("comprehension over" in f.message for f in findings) == 1
    assert all("bitset primitives" in f.message for f in findings)


def test_rr112_kills_rebound_names(tmp_path):
    """Rebinding a tracked name to a non-mask value ends the track."""
    from repro.analysis import analyze_source

    source = (
        "def f(realization, items):\n"
        "    masks = realization.masks\n"
        "    masks = sorted(items)\n"
        "    return [len(m) for m in masks]\n"
    )
    path = str(tmp_path / "repro" / "core" / "mod.py")
    assert not [f for f in analyze_source(source, path) if f.code == "RR112"]


def test_rr112_exempts_bitset_itself(tmp_path):
    """The bitset module's own per-bit assembly loops are the vocabulary."""
    from repro.analysis import analyze_source

    source = (
        "def f(realization):\n"
        "    return [int(m) for m in realization.masks]\n"
    )
    inside = analyze_source(
        source, str(tmp_path / "repro" / "probability" / "bitset.py")
    )
    assert not [f for f in inside if f.code == "RR112"]

    outside = analyze_source(
        source, str(tmp_path / "repro" / "probability" / "sampling.py")
    )
    assert [f for f in outside if f.code == "RR112"]


def test_rr113_counts_and_messages():
    findings = fixture_findings("RR113")
    # bad_sleep_in_handler, bad_sleep_from_import, bad_subprocess_import,
    # bad_subprocess_from_import, bad_os_system, bad_blocking_recv,
    # bad_blocking_accept.
    assert len(findings) == 7
    assert sum("time.sleep()" in f.message for f in findings) == 1
    assert sum("import of sleep" in f.message for f in findings) == 1
    assert sum("import of subprocess" in f.message for f in findings) == 1
    assert sum("import from subprocess" in f.message for f in findings) == 1
    assert sum("os.system()" in f.message for f in findings) == 1
    assert sum(".recv()" in f.message for f in findings) == 1
    assert sum(".accept()" in f.message for f in findings) == 1


def test_rr113_scoped_to_serve(tmp_path):
    """Outside a ``serve`` package, blocking reads are other rules'
    business (or nobody's)."""
    from repro.analysis import analyze_source

    source = "def f(sock):\n    return sock.recv(4096)\n"
    outside = analyze_source(source, str(tmp_path / "repro" / "core" / "mod.py"))
    assert not [f for f in outside if f.code == "RR113"]

    inside = analyze_source(source, str(tmp_path / "repro" / "serve" / "mod.py"))
    assert [f for f in inside if f.code == "RR113"]


def test_rr113_exempts_the_loop_and_the_client(tmp_path):
    """server.py owns the select() loop, client.py runs out-of-process —
    their socket calls are the sanctioned vocabulary.  time.sleep stays
    banned even there."""
    from repro.analysis import analyze_source

    socket_source = "def f(sock):\n    return sock.recv(4096)\n"
    for sanctioned in ("server.py", "client.py"):
        path = str(tmp_path / "repro" / "serve" / sanctioned)
        assert not [
            f for f in analyze_source(socket_source, path) if f.code == "RR113"
        ]

    sleep_source = "import time\n\ndef f():\n    time.sleep(1)\n"
    path = str(tmp_path / "repro" / "serve" / "server.py")
    assert [f for f in analyze_source(sleep_source, path) if f.code == "RR113"]


def test_rr114_counts_and_messages():
    findings = fixture_findings("RR114")
    # bad_scalar_random, bad_scalar_integers_while, bad_scalar_choice,
    # bad_named_stream, bad_nested_loop (deduped across the two loops).
    assert len(findings) == 5
    assert sum("rng.random()" in f.message for f in findings) == 2
    assert sum("rng.integers()" in f.message for f in findings) == 1
    assert sum("rng.choice()" in f.message for f in findings) == 1
    assert sum("rng.standard_exponential()" in f.message for f in findings) == 1


def test_rr114_clean_fixture_stays_silent():
    """The batched idioms of the estimator tier must not be flagged."""
    from repro.analysis import analyze_paths

    path = FIXTURES / "rr114_clean.py"
    report = analyze_paths([str(path)], select=["RR114"])
    assert not report.parse_errors, report.parse_errors
    assert not report.findings, [f.render() for f in report.findings]


def test_rr114_scoped_to_core(tmp_path):
    """Outside ``repro.core`` (e.g. the p2p simulator) scalar draws are
    legitimate sequential logic."""
    from repro.analysis import analyze_source

    source = "def f(rng, n):\n    for _ in range(n):\n        rng.random()\n"
    outside = analyze_source(source, str(tmp_path / "repro" / "p2p" / "mod.py"))
    assert not [f for f in outside if f.code == "RR114"]

    inside = analyze_source(source, str(tmp_path / "repro" / "core" / "mod.py"))
    assert [f for f in inside if f.code == "RR114"]


def test_rr201_counts_and_messages():
    findings = fixture_findings("RR201")
    # bad_return_sample (return), bad_result_payload (ReliabilityResult),
    # bad_cache_write (cache .put).
    assert len(findings) == 3
    assert sum("returns a value" in f.message for f in findings) == 1
    assert sum("a ReliabilityResult" in f.message for f in findings) == 1
    assert sum("a cache write" in f.message for f in findings) == 1


def test_rr202_counts_and_messages():
    findings = fixture_findings("RR202")
    # subscript store, view augmented-assign, .sort(), out=, .fill().
    assert len(findings) == 5
    assert sum("subscript store" in f.message for f in findings) == 1
    assert sum("augmented assignment" in f.message for f in findings) == 1
    assert sum(".sort()" in f.message for f in findings) == 1
    assert sum("out= write" in f.message for f in findings) == 1
    assert sum(".fill()" in f.message for f in findings) == 1


def test_rr203_anchors_on_the_acquire_line():
    findings = fixture_findings("RR203")
    assert len(findings) == 3
    # Every finding points at the ``x = progress_ticker(...)`` / ``span``
    # acquisition so the `with` fix-it lands on the right line.
    import re

    source = (FIXTURES / "rr203.py").read_text().splitlines()
    for finding in findings:
        line = source[finding.line - 1]
        assert re.search(r"=\s*(progress_ticker|ProgressTicker|span)\(", line), line


def test_rr204_is_flow_sensitive():
    """The partially-guarded fixture is the point of the CFG: the guarded
    branch's sink is clean, the unguarded branch's sink is flagged."""
    findings = fixture_findings("RR204")
    assert len(findings) == 3
    source = (FIXTURES / "rr204.py").read_text().splitlines()
    partial = [
        f for f in findings
        if "bad_partially_guarded" in source[f.line - 1]
        or f.line in range(15, 20)
    ]
    guarded_sink_lines = [
        i + 1 for i, text in enumerate(source[:20]) if "raise" in text
    ]
    flagged_lines = {f.line for f in findings}
    assert not flagged_lines.intersection(guarded_sink_lines)
