"""repro.obs — tracing, metrics and progress for the reliability kernels.

The paper's headline claim is a *cost separation*
(``|D| 2^{|E_s|} + |D| 2^{|E_t|}`` side-local max-flow solves for the
bottleneck algorithm vs ``2^{|E|}`` naive); this package is how the
repository measures it.  Three layers:

* :mod:`repro.obs.recorder` — the instrumentation core: a
  context-var-scoped :class:`Recorder` with timed :func:`span` context
  managers and typed counters/gauges, collapsing to allocation-free
  no-ops while no recorder is installed;
* :mod:`repro.obs.progress` — :class:`ProgressTicker` heartbeats for
  the exponential loops (rate/ETA callbacks);
* :mod:`repro.obs.export` — text-tree / JSON reporters and the flat
  :func:`phase_summary` that lands in
  ``ReliabilityResult.details["obs"]``.

Quickstart
----------
>>> from repro import compute_reliability
>>> from repro.graph.builders import fujita_fig4
>>> from repro.obs import record, phase_summary
>>> with record() as rec:
...     result = compute_reliability(fujita_fig4(), "s", "t", 2, method="naive")
>>> rec.counter_total("flow_solves") == result.flow_calls
True

Surfaces: ``repro profile`` prints the phase tree for one computation;
``repro compute --trace`` / ``--trace-json FILE`` attach tracing to a
normal run.  See ``docs/OBSERVABILITY.md`` for the span taxonomy and
the counter catalogue.
"""

from __future__ import annotations

from repro.obs.export import format_tree, phase_summary, trace_to_dict, trace_to_json
from repro.obs.ledger import RUN_SCHEMA, RunDiff, RunLedger, diff_records, make_run_record
from repro.obs.progress import ProgressTicker, ProgressUpdate, progress_ticker
from repro.obs.recorder import (
    ARRAY_ENTRIES_BUILT,
    ASSIGNMENTS_ENUMERATED,
    CONFIGURATIONS_ENUMERATED,
    FLOW_SOLVES,
    KNOWN_COUNTERS,
    KNOWN_SPANS,
    KNOWN_TICKER_LABELS,
    MC_SAMPLES,
    SAMPLES_VECTORIZED,
    SERVE_COALESCED,
    SERVE_QUERIES,
    SERVE_WARM_HITS,
    SPECTRUM_SOLVES,
    Recorder,
    SpanRecord,
    count,
    current_recorder,
    gauge,
    record,
    span,
    wallclock,
)
from repro.obs.serve import MetricsServer, render_prometheus
from repro.obs.sink import JsonlSink, read_events
from repro.obs.telemetry import EVENTS_SCHEMA, TelemetryRecorder, telemetry_session

__all__ = [
    "ARRAY_ENTRIES_BUILT",
    "ASSIGNMENTS_ENUMERATED",
    "CONFIGURATIONS_ENUMERATED",
    "EVENTS_SCHEMA",
    "FLOW_SOLVES",
    "JsonlSink",
    "KNOWN_COUNTERS",
    "KNOWN_SPANS",
    "KNOWN_TICKER_LABELS",
    "MC_SAMPLES",
    "MetricsServer",
    "ProgressTicker",
    "ProgressUpdate",
    "RUN_SCHEMA",
    "Recorder",
    "RunDiff",
    "RunLedger",
    "SAMPLES_VECTORIZED",
    "SERVE_COALESCED",
    "SERVE_QUERIES",
    "SERVE_WARM_HITS",
    "SPECTRUM_SOLVES",
    "SpanRecord",
    "TelemetryRecorder",
    "count",
    "current_recorder",
    "diff_records",
    "format_tree",
    "gauge",
    "make_run_record",
    "phase_summary",
    "progress_ticker",
    "read_events",
    "record",
    "render_prometheus",
    "span",
    "telemetry_session",
    "trace_to_dict",
    "trace_to_json",
    "wallclock",
]
