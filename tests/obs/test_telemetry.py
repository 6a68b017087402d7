"""Unit tests for the durable telemetry stream (sink + events/v1)."""

import json
import threading

import pytest

from repro import obs
from repro.exceptions import ReproValueError
from repro.core import certificate
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.graph.builders import fujita_fig4
from repro.obs import (
    EVENTS_SCHEMA,
    JsonlSink,
    TelemetryRecorder,
    read_events,
    telemetry_session,
)
from repro.obs.recorder import FLOW_SOLVES
from repro.obs.sink import PARENT_SPOOL_NAME


class TestJsonlSink:
    def test_emits_one_json_line_per_event(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with JsonlSink(path, capacity=1) as sink:
            sink.emit({"ev": "a", "n": 1})
            sink.emit({"ev": "b", "n": 2})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["ev"] for line in lines] == ["a", "b"]

    def test_buffers_until_capacity(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        sink = JsonlSink(path, capacity=3)
        sink.emit({"ev": "a"})
        sink.emit({"ev": "b"})
        assert not path.exists()  # lazy open: nothing flushed yet
        sink.emit({"ev": "c"})  # hits capacity -> auto-flush
        assert len(path.read_text().splitlines()) == 3
        sink.close()

    def test_never_emitting_leaves_no_file(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with JsonlSink(path):
            pass
        assert not path.exists()

    def test_close_flushes_and_is_idempotent(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        sink = JsonlSink(path, capacity=100)
        sink.emit({"ev": "a"})
        sink.close()
        sink.close()
        assert len(path.read_text().splitlines()) == 1
        with pytest.raises(ReproValueError):
            sink.emit({"ev": "late"})

    def test_append_mode_extends_existing_stream(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with JsonlSink(path, capacity=1) as sink:
            sink.emit({"ev": "a"})
        with JsonlSink(path, capacity=1, mode="a") as sink:
            sink.emit({"ev": "b"})
        assert len(path.read_text().splitlines()) == 2

    def test_rejects_bad_capacity_and_mode(self, tmp_path):
        with pytest.raises(ReproValueError):
            JsonlSink(tmp_path / "x", capacity=0)
        with pytest.raises(ReproValueError):
            JsonlSink(tmp_path / "x", mode="r")

    def test_concurrent_emits_stay_line_atomic(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        sink = JsonlSink(path, capacity=7)

        def hammer(tag):
            for i in range(200):
                sink.emit({"ev": "tick", "tag": tag, "i": i})

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        sink.close()
        events = read_events(path)
        assert len(events) == 800
        assert all(e["ev"] == "tick" for e in events)


class TestReadEvents:
    def test_tolerates_truncated_final_line(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('{"ev":"a"}\n{"ev":"b"}\n{"ev":"c","trunc')
        events = read_events(path)
        assert [e["ev"] for e in events] == ["a", "b"]

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('{"ev":"a"}\nNOT JSON\n{"ev":"c"}\n')
        with pytest.raises(ReproValueError, match="interior line 2"):
            read_events(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('{"ev":"a"}\n\n{"ev":"b"}\n')
        assert len(read_events(path)) == 2


class TestTelemetryRecorder:
    def _events(self, tmp_path, body):
        path = tmp_path / "main.jsonl"
        sink = JsonlSink(path, capacity=1)
        rec = TelemetryRecorder(sink, meta={"command": "test"})
        with obs.record(rec):
            body(rec)
        sink.close()
        return read_events(path), rec

    def test_start_event_carries_schema_and_meta(self, tmp_path):
        events, _ = self._events(tmp_path, lambda rec: None)
        assert events[0]["ev"] == "start"
        assert events[0]["schema"] == EVENTS_SCHEMA
        assert events[0]["meta"] == {"command": "test"}

    def test_span_open_close_pairing(self, tmp_path):
        def body(rec):
            with obs.span("sweep.run", points=3):
                with obs.span("sweep.arrays"):
                    pass

        events, _ = self._events(tmp_path, body)
        kinds = [(e["ev"], e.get("name")) for e in events]
        assert ("span_open", "sweep.run") in kinds
        assert ("span_open", "sweep.arrays") in kinds
        # Children close before their parents.
        closes = [e["name"] for e in events if e["ev"] == "span_close"]
        assert closes.index("sweep.arrays") < closes.index("sweep.run")

    def test_span_close_carries_own_counters_only(self, tmp_path):
        def body(rec):
            with obs.span("sweep.run"):
                obs.count(FLOW_SOLVES, 2)
                with obs.span("sweep.arrays"):
                    obs.count(FLOW_SOLVES, 5)

        events, rec = self._events(tmp_path, body)
        by_name = {e["name"]: e for e in events if e["ev"] == "span_close"}
        assert by_name["sweep.arrays"]["counters"][FLOW_SOLVES] == 5
        assert by_name["sweep.run"]["counters"][FLOW_SOLVES] == 2
        # Summing span_close counters reproduces the recorder totals.
        summed = sum(
            e["counters"].get(FLOW_SOLVES, 0)
            for e in events
            if e["ev"] == "span_close"
        )
        assert summed == rec.counter_totals()[FLOW_SOLVES] == 7

    def test_phase_boundary_emits_cumulative_snapshot(self, tmp_path):
        def body(rec):
            with obs.span("sweep.run"):  # a phase: direct child of root
                obs.count(FLOW_SOLVES, 3)

        events, _ = self._events(tmp_path, body)
        snapshots = [e for e in events if e["ev"] == "counters"]
        assert snapshots and snapshots[-1]["counters"][FLOW_SOLVES] == 3

    def test_finish_event_emitted_once(self, tmp_path):
        path = tmp_path / "main.jsonl"
        sink = JsonlSink(path, capacity=1)
        rec = TelemetryRecorder(sink)
        with obs.record(rec):
            obs.count(FLOW_SOLVES)
        rec.finish()  # second finish: no duplicate event
        sink.close()
        events = read_events(path)
        finishes = [e for e in events if e["ev"] == "finish"]
        assert len(finishes) == 1
        assert finishes[0]["counters"][FLOW_SOLVES] == 1


class TestTelemetrySession:
    def test_session_writes_main_stream(self, tmp_path):
        spool = tmp_path / "ev"
        with telemetry_session(spool, meta={"command": "t"}) as rec:
            with obs.span("sweep.run"):
                obs.count(FLOW_SOLVES, 4)
            assert rec.counter_totals()[FLOW_SOLVES] == 4
        assert [p.name for p in spool.iterdir()] == [PARENT_SPOOL_NAME]
        events = read_events(spool / PARENT_SPOOL_NAME)
        assert events[0]["ev"] == "start"
        assert events[-1]["ev"] == "finish"

    def test_session_flushes_on_exception(self, tmp_path):
        spool = tmp_path / "ev"
        with pytest.raises(RuntimeError):
            with telemetry_session(spool):
                with obs.span("sweep.run"):
                    obs.count(FLOW_SOLVES, 2)
                raise RuntimeError("killed")
        events = read_events(spool / PARENT_SPOOL_NAME)
        # The phase closed before the raise, so its span_close and the
        # cumulative snapshot are on disk — but no clean ``finish``
        # event: its absence marks the run as interrupted.
        assert any(e["ev"] == "counters" for e in events)
        assert not any(e["ev"] == "finish" for e in events)

    def test_session_totals_match_sessionless_run(self, tmp_path, monkeypatch):
        """Telemetry must observe, never perturb: counters are unchanged."""
        # Past the certificate guard, so the max-flow counters move too.
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        with obs.record() as rec:
            bare = bottleneck_reliability(net, demand)
        bare_totals = rec.counter_totals()
        with telemetry_session(tmp_path) as rec:
            traced = bottleneck_reliability(net, demand)
        traced_totals = rec.counter_totals()
        assert traced.value == bare.value

        def program(totals):  # solver.dinic.seconds is wall time
            return {k: v for k, v in totals.items() if not k.startswith("solver.")}

        assert program(traced_totals) == program(bare_totals)
        assert traced_totals[FLOW_SOLVES] == traced.flow_calls > 0
