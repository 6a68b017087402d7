"""Unit tests for the instrumentation core (repro.obs.recorder)."""

import pytest

from repro import obs
from repro.exceptions import ReproValueError
from repro.obs import recorder as recmod
from repro.obs.progress import NULL_TICKER
from repro.obs.recorder import NULL_SPAN, Recorder


class TestSpanTree:
    def test_nesting_structure(self):
        with obs.record() as rec:
            with obs.span("outer"):
                with obs.span("inner_a"):
                    pass
                with obs.span("inner_b"):
                    with obs.span("leaf"):
                        pass
        outer = rec.root.children[0]
        assert outer.name == "outer"
        assert [c.name for c in outer.children] == ["inner_a", "inner_b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]

    def test_attribute_capture(self):
        with obs.record() as rec:
            with obs.span("phase", side="source", links=7):
                pass
        phase = rec.root.children[0]
        assert phase.attrs == {"side": "source", "links": 7}

    def test_span_yields_its_record(self):
        with obs.record():
            with obs.span("x", k=1) as rec_span:
                assert rec_span.name == "x"
                assert rec_span.attrs == {"k": 1}

    def test_timing_is_monotone(self):
        with obs.record() as rec:
            with obs.span("a"):
                with obs.span("b"):
                    pass
        a = rec.root.children[0]
        b = a.children[0]
        assert a.end is not None and b.end is not None
        assert a.start <= b.start <= b.end <= a.end
        assert a.seconds >= b.seconds >= 0.0

    def test_sibling_spans_stay_siblings(self):
        with obs.record() as rec:
            for name in ("p1", "p2", "p3"):
                with obs.span(name):
                    pass
        assert [c.name for c in rec.root.children] == ["p1", "p2", "p3"]

    def test_exception_still_closes_span(self):
        with obs.record() as rec:
            with pytest.raises(RuntimeError):
                with obs.span("doomed"):
                    raise RuntimeError("boom")
        doomed = rec.root.children[0]
        assert doomed.end is not None
        assert rec.current is rec.root

    def test_finish_closes_leaked_spans(self):
        rec = Recorder()
        cm = rec.span("leaked")
        cm.__enter__()
        root = rec.finish()
        assert root.end is not None
        assert root.children[0].end is not None
        assert rec.current is rec.root

    def test_iter_spans_depth_first(self):
        with obs.record() as rec:
            with obs.span("a"):
                with obs.span("b"):
                    pass
            with obs.span("c"):
                pass
        names = [s.name for s in rec.root.iter_spans()]
        assert names == ["<root>", "a", "b", "c"]


class TestCounters:
    def test_counts_attach_to_innermost_span(self):
        with obs.record() as rec:
            with obs.span("phase1"):
                obs.count("flow_solves", 3)
            with obs.span("phase2"):
                obs.count("flow_solves", 4)
            obs.count("flow_solves")  # lands on the root
        p1, p2 = rec.root.children
        assert p1.counters == {"flow_solves": 3}
        assert p2.counters == {"flow_solves": 4}
        assert rec.root.counters == {"flow_solves": 1}
        assert rec.counter_total("flow_solves") == 8

    def test_subtree_totals(self):
        with obs.record() as rec:
            with obs.span("outer"):
                obs.count("x", 1)
                with obs.span("inner"):
                    obs.count("x", 2)
                    obs.count("y", 10)
        outer = rec.root.children[0]
        assert outer.total("x") == 3
        assert outer.total("y") == 10
        assert outer.totals() == {"x": 3, "y": 10}
        assert rec.counter_totals() == {"x": 3, "y": 10}

    def test_float_amounts_accumulate(self):
        with obs.record() as rec:
            obs.count("solver.dinic.seconds", 0.25)
            obs.count("solver.dinic.seconds", 0.5)
        assert rec.counter_total("solver.dinic.seconds") == pytest.approx(0.75)

    def test_gauges_last_value_wins(self):
        with obs.record() as rec:
            with obs.span("loop"):
                obs.gauge("rate", 10.0)
                obs.gauge("rate", 20.0)
        assert rec.root.children[0].gauges == {"rate": 20.0}

    def test_gauge_values_chronological_last_wins(self):
        # Unlike counters, gauges do not sum: gauge_values() reports the
        # last value set anywhere in the trace, across sibling spans.
        with obs.record() as rec:
            with obs.span("phase_a"):
                obs.gauge("rate", 10.0)
            with obs.span("phase_b"):
                obs.gauge("rate", 20.0)
                obs.gauge("depth", 3)
        assert rec.gauge_values() == {"rate": 20.0, "depth": 3}

    def test_gauge_values_returns_a_copy(self):
        with obs.record() as rec:
            with obs.span("phase"):
                obs.gauge("rate", 1.0)
        snapshot = rec.gauge_values()
        snapshot["rate"] = 99.0
        assert rec.gauge_values() == {"rate": 1.0}

    def test_span_gauge_values_covers_subtree(self):
        with obs.record() as rec:
            with obs.span("outer"):
                obs.gauge("outer.g", 1)
                with obs.span("inner"):
                    obs.gauge("inner.g", 2)
        outer = rec.root.children[0]
        assert outer.gauge_values() == {"outer.g": 1, "inner.g": 2}

    def test_known_counter_catalogue(self):
        assert obs.FLOW_SOLVES in obs.KNOWN_COUNTERS
        assert obs.CONFIGURATIONS_ENUMERATED in obs.KNOWN_COUNTERS
        assert obs.ASSIGNMENTS_ENUMERATED in obs.KNOWN_COUNTERS
        assert obs.ARRAY_ENTRIES_BUILT in obs.KNOWN_COUNTERS
        assert obs.MC_SAMPLES in obs.KNOWN_COUNTERS

    def test_known_span_and_ticker_catalogues(self):
        assert "sweep.run" in obs.KNOWN_SPANS
        assert "bottleneck.source_array" in obs.KNOWN_SPANS
        assert "sweep.arrays" in obs.KNOWN_SPANS
        assert "engine.chunk" not in obs.KNOWN_SPANS
        assert "arrays.source" in obs.KNOWN_TICKER_LABELS
        assert "naive.configurations" in obs.KNOWN_TICKER_LABELS


class TestScoping:
    def test_no_recorder_by_default(self):
        assert obs.current_recorder() is None

    def test_record_installs_and_uninstalls(self):
        with obs.record() as rec:
            assert obs.current_recorder() is rec
        assert obs.current_recorder() is None

    def test_record_uninstalls_on_error(self):
        with pytest.raises(RuntimeError):
            with obs.record():
                raise RuntimeError("boom")
        assert obs.current_recorder() is None

    def test_record_accepts_existing_recorder(self):
        rec = Recorder()
        with obs.record(rec) as installed:
            assert installed is rec

    def test_nested_recorders_restore_outer(self):
        with obs.record() as outer:
            with obs.record() as inner:
                assert obs.current_recorder() is inner
            assert obs.current_recorder() is outer

    def test_record_finishes_root(self):
        with obs.record() as rec:
            pass
        assert rec.root.end is not None

    def test_negative_progress_interval_rejected(self):
        with pytest.raises(ReproValueError):
            Recorder(progress_interval=-1.0)


class TestDisabledNoOpPath:
    """With no recorder installed the helpers must allocate nothing —
    the overhead contract the benchmark guard quantifies."""

    @pytest.fixture
    def allocation_sentinel(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("recorder machinery touched on the disabled path")

        monkeypatch.setattr(recmod.SpanRecord, "__init__", boom)
        monkeypatch.setattr(recmod.Recorder, "count", boom)
        monkeypatch.setattr(recmod.Recorder, "gauge", boom)
        monkeypatch.setattr(recmod.Recorder, "span", boom)

    def test_span_returns_shared_singleton(self, allocation_sentinel):
        s1 = obs.span("hot", attr=1)
        s2 = obs.span("other")
        assert s1 is s2 is NULL_SPAN
        with s1:
            pass

    def test_count_and_gauge_are_noops(self, allocation_sentinel):
        obs.count("flow_solves", 5)
        obs.gauge("rate", 1.0)

    def test_progress_ticker_is_shared_singleton(self, allocation_sentinel):
        t1 = obs.progress_ticker("loop", total=100)
        t2 = obs.progress_ticker("loop2")
        assert t1 is t2 is NULL_TICKER
        t1.tick()
        t1.tick(50)
        t1.finish()
        with t2:
            t2.tick()

    def test_instrumented_kernel_allocates_no_obs_objects(self, allocation_sentinel):
        """End to end: the instrumented kernels run through the no-op
        stubs when recording is off."""
        from repro.core.bottleneck import bottleneck_reliability
        from repro.core.demand import FlowDemand
        from repro.core.naive import naive_reliability
        from repro.graph.builders import fujita_fig4

        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        naive = naive_reliability(net, demand)
        bottleneck = bottleneck_reliability(net, demand)
        assert naive.value == pytest.approx(bottleneck.value)
