"""Unit tests for the live metrics endpoint (repro.obs.serve)."""

import json
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.obs import MetricsServer, render_prometheus
from repro.obs.recorder import FLOW_SOLVES, Recorder
from repro.obs.serve import _format_value, _metric_name


def _get(url):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.headers, response.read().decode("utf-8")


class TestNameSanitisation:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("flow_solves", "flow_solves"),
            ("solver.dinic.solves", "solver_dinic_solves"),
            ("arrays.source-rate", "arrays_source_rate"),
            ("0weird", "_0weird"),
        ],
    )
    def test_metric_name(self, raw, expected):
        assert _metric_name(raw) == expected

    def test_format_value(self):
        assert _format_value(3) == "3"
        assert _format_value(True) == "1"
        assert _format_value(2.5) == "2.5"
        assert _format_value("not a number") is None


class TestRenderPrometheus:
    def _recorder(self):
        rec = Recorder()
        with obs.record(rec):
            with obs.span("sweep.run"):
                obs.count(FLOW_SOLVES, 9)
                obs.gauge("sweep.points_done", 4)
        return rec

    def test_counters_gauges_and_phases(self):
        text = render_prometheus(self._recorder())
        assert "# TYPE repro_flow_solves_total counter" in text
        assert "repro_flow_solves_total 9" in text
        assert "repro_sweep_points_done 4" in text
        assert 'repro_phase_seconds{phase="sweep.run"}' in text

    def test_non_numeric_gauges_are_skipped(self):
        rec = Recorder()
        with obs.record(rec):
            with obs.span("sweep.run"):
                obs.gauge("sweep.label", "fig4")
        text = render_prometheus(rec)
        assert "sweep_label" not in text


class TestMetricsServer:
    def test_serves_metrics_and_trace(self):
        rec = Recorder()
        with obs.record(rec):
            with obs.span("sweep.run"):
                obs.count(FLOW_SOLVES, 3)
        with MetricsServer(rec) as server:
            assert server.port > 0
            status, headers, body = _get(server.url + "/metrics")
            assert status == 200
            assert headers["Content-Type"].startswith("text/plain")
            assert "repro_flow_solves_total 3" in body

            status, headers, body = _get(server.url + "/trace.json")
            assert status == 200
            payload = json.loads(body)
            assert payload["counters"][FLOW_SOLVES] == 3
            assert [s["name"] for s in payload["spans"]] == ["sweep.run"]

    def test_root_path_is_metrics(self):
        with MetricsServer(Recorder()) as server:
            _, _, body = _get(server.url + "/")
            assert body.endswith("\n")

    def test_unknown_path_is_404(self):
        with MetricsServer(Recorder()) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server.url + "/nope")
            assert excinfo.value.code == 404

    def test_stop_is_idempotent_and_frees_port(self):
        server = MetricsServer(Recorder())
        url = server.url
        server.stop()
        server.stop()
        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            _get(url + "/metrics")

    def test_trace_reports_its_own_bound_endpoint(self):
        """The ephemeral-port contract: --metrics-port 0 must be
        discoverable from the endpoint itself, not only from stderr."""
        with MetricsServer(Recorder(), port=0) as server:
            _, _, body = _get(server.url + "/trace.json")
        endpoint = json.loads(body)["endpoint"]
        assert endpoint["port"] == server.port
        assert endpoint["host"] == "127.0.0.1"
        assert endpoint["url"] == server.url

    def test_recorder_is_swappable_after_bind(self):
        """The CLI binds the socket first (to learn the port), then swaps
        the real session recorder in; scrapes must follow the attribute."""
        server = MetricsServer(Recorder())
        try:
            real = Recorder()
            with obs.record(real):
                with obs.span("sweep.run"):
                    obs.count(FLOW_SOLVES, 7)
            server.recorder = real
            _, _, body = _get(server.url + "/metrics")
            assert "repro_flow_solves_total 7" in body
        finally:
            server.stop()

    def test_stop_waits_for_inflight_scrapes(self):
        """Graceful drain: stop() blocks until in-flight requests exit
        (daemon handler threads would otherwise be abandoned mid-reply)."""
        import threading
        import time

        server = MetricsServer(Recorder())
        server._enter_request()  # simulate a scrape that is mid-handler
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        time.sleep(0.1)
        assert stopper.is_alive(), "stop() must wait for the in-flight scrape"
        server._exit_request()
        stopper.join(timeout=5)
        assert not stopper.is_alive()

    def test_stop_drain_timeout_bounds_the_wait(self):
        import time

        server = MetricsServer(Recorder())
        server._enter_request()  # a scrape that never finishes
        start = time.monotonic()
        server.stop(drain_timeout=0.2)
        assert time.monotonic() - start < 5.0

    def test_serves_while_recorder_still_recording(self):
        rec = Recorder()
        with obs.record(rec):
            with obs.span("sweep.run"):
                obs.count(FLOW_SOLVES, 1)
                with MetricsServer(rec) as server:
                    _, _, body = _get(server.url + "/metrics")
                    # Mid-run scrape: the open phase reports elapsed time.
                    assert "repro_flow_solves_total 1" in body
                    assert 'repro_phase_seconds{phase="sweep.run"}' in body
