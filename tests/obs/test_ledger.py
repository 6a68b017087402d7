"""Unit tests for the run ledger (repro.obs.ledger)."""

import json

import pytest

from repro.exceptions import ReproValueError
from repro.obs import RUN_SCHEMA, RunLedger, diff_records, make_run_record
from repro.obs.ledger import canonical_json, content_hash, env_fingerprint


def _record(**overrides):
    base = dict(
        command="compute",
        input_fingerprint="abc123",
        params={"method": "bottleneck", "rate": 2},
        seconds=1.0,
        counters={"flow_solves": 69, "cover_cubes_built": 120},
        phases=[{"name": "engine.build", "seconds": 0.8}],
        value=0.8426,
        flow_calls=69,
        solver="dinic",
    )
    base.update(overrides)
    return make_run_record(**base)


class TestContentHashing:
    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert content_hash({"b": 1, "a": 2}) == content_hash({"a": 2, "b": 1})

    def test_env_fingerprint_names_interpreter(self):
        env = env_fingerprint()
        assert set(env) >= {"python", "platform", "numpy", "repro"}


class TestMakeRunRecord:
    def test_schema_and_fields(self):
        rec = _record()
        assert rec["schema"] == RUN_SCHEMA
        assert rec["status"] == "completed"
        assert rec["env"]["solver"] == "dinic"
        assert isinstance(rec["unix"], float)

    def test_interrupted_status_allowed(self):
        assert _record(status="interrupted")["status"] == "interrupted"

    def test_unknown_status_rejected(self):
        with pytest.raises(ReproValueError):
            _record(status="exploded")

    def test_meta_is_not_a_parameter(self):
        """A record has no ``meta`` field, so the argument is refused
        rather than dropped."""
        with pytest.raises(TypeError, match="meta"):
            _record(meta={"note": "x"})


class TestRunLedger:
    def test_append_and_load_round_trip(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run_id = ledger.append(_record())
        assert len(run_id) == 12
        loaded = ledger.load(run_id)
        assert loaded["id"] == run_id
        assert loaded["counters"]["flow_solves"] == 69

    def test_id_ignores_timestamp(self, tmp_path):
        ledger = RunLedger(tmp_path)
        a = _record()
        b = dict(a, unix=a["unix"] + 1000.0)
        assert ledger.append(a) == ledger.append(b)

    def test_index_lists_appends_oldest_first(self, tmp_path):
        ledger = RunLedger(tmp_path)
        first = ledger.append(_record(seconds=1.0))
        second = ledger.append(_record(seconds=2.0))
        entries = ledger.entries()
        assert [e["id"] for e in entries] == [first, second]

    def test_entries_tolerate_torn_final_line(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run_id = ledger.append(_record())
        with open(tmp_path / "index.jsonl", "a") as handle:
            handle.write('{"id":"partial')
        assert [e["id"] for e in ledger.entries()] == [run_id]

    def test_resolve_by_prefix_negative_index_and_path(self, tmp_path):
        ledger = RunLedger(tmp_path)
        first = ledger.append(_record(seconds=1.0))
        second = ledger.append(_record(seconds=2.0))
        assert ledger.resolve(first[:6])["id"] == first
        assert ledger.resolve("-1")["id"] == second
        assert ledger.resolve("-2")["id"] == first
        assert ledger.resolve(str(tmp_path / f"{first}.json"))["id"] == first

    def test_resolve_rejects_unknown_and_out_of_range(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ledger.append(_record())
        with pytest.raises(ReproValueError, match="no run matching"):
            ledger.resolve("zzzz")
        with pytest.raises(ReproValueError, match="out of range"):
            ledger.resolve("-5")

    def test_resolve_rejects_non_record_file(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ReproValueError, match="not a"):
            RunLedger(tmp_path).resolve(str(bogus))


class TestDiffRecords:
    def test_identical_records_are_clean(self):
        rec = _record()
        diff = diff_records(rec, rec)
        assert diff.ok and diff.ok_strict
        assert diff.same_input
        assert diff.counter_regressions == []

    def test_injected_double_flow_solves_is_a_regression(self):
        base = _record()
        other = _record(counters={"flow_solves": 138, "cover_cubes_built": 120})
        diff = diff_records(base, other)
        assert not diff.ok
        [reg] = diff.counter_regressions
        assert reg["name"] == "flow_solves"
        assert reg["ratio"] == pytest.approx(2.0)

    def test_growth_within_tolerance_is_not_flagged(self):
        base = _record()
        other = _record(counters={"flow_solves": 80, "cover_cubes_built": 120})
        assert diff_records(base, other, tolerance=1.25).ok  # 80/69 < 1.25

    def test_counter_appearing_from_zero_is_a_regression(self):
        base = _record()
        other = _record(
            counters={"flow_solves": 69, "cover_cubes_built": 120, "flow_repairs": 5}
        )
        diff = diff_records(base, other)
        assert [r["name"] for r in diff.counter_regressions] == ["flow_repairs"]

    def test_shrinking_counter_is_an_improvement_not_fatal(self):
        base = _record()
        other = _record(counters={"flow_solves": 10, "cover_cubes_built": 120})
        diff = diff_records(base, other)
        assert diff.ok
        assert [i["name"] for i in diff.counter_improvements] == ["flow_solves"]

    def test_time_valued_counters_are_latency_not_work(self):
        # solver.<name>.seconds counters carry wallclock, which differs
        # between two "identical" runs under machine load; they must
        # never trip the hard counter gate, only the advisory one.
        base = _record(counters={"flow_solves": 69, "solver.dinic.seconds": 0.001})
        other = _record(counters={"flow_solves": 69, "solver.dinic.seconds": 0.004})
        diff = diff_records(base, other)
        assert diff.ok and diff.ok_strict  # 4x ratio but sub-50 ms delta

        slow = _record(counters={"flow_solves": 69, "solver.dinic.seconds": 0.3})
        diff = diff_records(base, slow)
        assert diff.ok  # still never a hard regression
        assert not diff.ok_strict
        assert any(
            r["name"] == "solver.dinic.seconds" for r in diff.latency_regressions
        )

    def test_latency_regression_is_advisory(self):
        base = _record(seconds=0.1)
        other = _record(seconds=1.0)
        diff = diff_records(base, other)
        assert diff.ok
        assert not diff.ok_strict
        assert any(r["name"] == "<total>" for r in diff.latency_regressions)

    def test_small_absolute_latency_jitter_is_ignored(self):
        base = _record(seconds=0.010)
        other = _record(seconds=0.040)  # 4x but only +30 ms
        assert diff_records(base, other).ok_strict

    def test_phase_latencies_accumulate_by_name(self):
        base = _record(
            phases=[
                {"name": "engine.chunk", "seconds": 0.1},
                {"name": "engine.chunk", "seconds": 0.1},
            ]
        )
        other = _record(
            phases=[{"name": "engine.chunk", "seconds": 1.0}], seconds=1.0
        )
        diff = diff_records(base, other)
        names = [r["name"] for r in diff.latency_regressions]
        assert "engine.chunk" in names

    def test_different_inputs_are_reported(self):
        diff = diff_records(_record(), _record(input_fingerprint="other"))
        assert not diff.same_input

    def test_tolerance_must_exceed_one(self):
        with pytest.raises(ReproValueError):
            diff_records(_record(), _record(), tolerance=1.0)
