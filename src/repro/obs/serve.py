"""Live metrics endpoint: Prometheus-style text exposition + trace JSON.

A :class:`MetricsServer` wraps a :class:`~repro.obs.recorder.Recorder`
(usually the :class:`~repro.obs.telemetry.TelemetryRecorder` of an open
session) in a stdlib-only ``ThreadingHTTPServer`` running on a daemon
thread, so ``repro compute|sweep --metrics-port`` can be scraped while
the enumeration is still running.

Routes
------
``/metrics``
    Prometheus text exposition (version 0.0.4):

    * ``repro_<counter>_total`` — live trace-wide counter totals;
    * ``repro_<gauge>`` — last-value-wins gauges;
    * ``repro_phase_seconds{phase="..."}`` — wall time per top-level
      span (still-open phases report elapsed-so-far).

``/trace.json``
    The full live trace (:func:`repro.obs.export.trace_to_dict`) plus
    an ``endpoint`` block (bound host/port — the ephemeral-port
    contract of ``--metrics-port 0``) — the feed ``repro top``
    renders.

Counter/gauge names are sanitised for Prometheus by mapping every
non-``[a-zA-Z0-9_]`` character to ``_`` (so ``array_cache_hits`` stays
itself and ``arrays.source.rate`` becomes ``arrays_source_rate``).
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.obs.export import trace_to_dict
from repro.obs.recorder import Recorder

__all__ = ["MetricsServer", "render_prometheus"]

_NAME_SANITISE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    sanitised = _NAME_SANITISE.sub("_", name)
    if sanitised and sanitised[0].isdigit():
        sanitised = "_" + sanitised
    return sanitised


def _format_value(value: Any) -> str | None:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(float(value)) if isinstance(value, float) else str(value)
    return None  # non-numeric gauges have no Prometheus representation


def render_prometheus(recorder: Recorder) -> str:
    """Render the live state of ``recorder`` as Prometheus text."""
    lines: list[str] = []

    counters = recorder.counter_totals()
    for name in sorted(counters):
        metric = f"repro_{_metric_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(counters[name])}")

    gauges = recorder.gauge_values()
    for name in sorted(gauges):
        value = _format_value(gauges[name])
        if value is None:
            continue
        metric = f"repro_{_metric_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {value}")

    phases = [child for child in recorder.root.children]
    if phases:
        lines.append("# TYPE repro_phase_seconds gauge")
        for phase in phases:
            label = phase.name.replace("\\", "\\\\").replace('"', '\\"')
            lines.append(
                f'repro_phase_seconds{{phase="{label}"}} '
                f"{_format_value(phase.seconds)}"
            )

    return "\n".join(lines) + "\n"


class MetricsServer:
    """Serve one recorder's live state over HTTP until :meth:`stop`.

    Parameters
    ----------
    recorder:
        The recorder to expose; it keeps being written by the run while
        this server reads it (reads are snapshot-style dict copies).
    port:
        TCP port; ``0`` binds an ephemeral port (read :attr:`port`).
    host:
        Bind address, loopback by default.
    """

    def __init__(
        self,
        recorder: Recorder,
        *,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        #: Mutable on purpose: the CLI binds the socket *before* the
        #: telemetry session exists (so the ephemeral port can ride the
        #: ``start`` event) and swaps the real recorder in afterwards.
        #: Handlers read this attribute per request.
        self.recorder = recorder
        self._inflight = 0
        self._inflight_lock = threading.Lock()
        self._drained = threading.Event()
        self._drained.set()
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                server._enter_request()
                try:
                    self._do_GET_inner()
                finally:
                    server._exit_request()

            def _do_GET_inner(self) -> None:
                path = self.path.split("?", 1)[0]
                if path in ("/", "/metrics"):
                    body = render_prometheus(server.recorder)
                    self._reply(body, "text/plain; version=0.0.4; charset=utf-8")
                elif path == "/trace.json":
                    payload = trace_to_dict(server.recorder)
                    payload["endpoint"] = {
                        "host": server._httpd.server_address[0],
                        "port": server.port,
                        "url": server.url,
                    }
                    self._reply(
                        json.dumps(payload, default=str),
                        "application/json; charset=utf-8",
                    )
                else:
                    self.send_error(404, "unknown path (try /metrics or /trace.json)")

            def _reply(self, body: str, content_type: str) -> None:
                data = body.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args: Any) -> None:
                return  # scrapes must not spam the CLI's stderr

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def _enter_request(self) -> None:
        with self._inflight_lock:
            self._inflight += 1
            self._drained.clear()

    def _exit_request(self) -> None:
        with self._inflight_lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._drained.set()

    def stop(self, *, drain_timeout: float = 5.0) -> None:
        """Shut the server down gracefully (idempotent).

        Stops accepting new scrapes, then **waits for in-flight
        requests to finish** (up to ``drain_timeout`` seconds) before
        closing the socket — ``daemon_threads`` means ``server_close``
        alone would abandon a handler mid-reply, which is exactly what
        a scraper sees as a torn response on SIGTERM.
        """
        self._httpd.shutdown()
        self._drained.wait(timeout=drain_timeout)
        self._httpd.server_close()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()
