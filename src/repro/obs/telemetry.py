"""Durable telemetry: the ``repro.obs/events/v1`` stream and its plumbing.

:class:`TelemetryRecorder` is a :class:`~repro.obs.recorder.Recorder`
that additionally *streams* what it captures: every span open/close is
emitted as one JSONL event through a :class:`~repro.obs.sink.JsonlSink`,
so the trace exists on disk while the run is still going — and survives
the run being killed.

Event vocabulary (``ev`` field), one JSON object per line:

``start``
    Stream header: ``schema``, ``pid``, ``unix`` epoch stamp and
    free-form ``meta`` (CLI command, input path, ...).
``span_open``
    ``name``, entry ``attrs``, ``t`` seconds since the stream started.
``span_close``
    ``name``, ``seconds``, the span's **own** ``counters`` and
    ``gauges`` (children report themselves) and ``t``.  Summing
    ``span_close`` counters over a stream therefore reproduces the
    recorder's :meth:`~repro.obs.recorder.Recorder.counter_totals`.
``counters``
    Cumulative counter snapshot, emitted at phase boundaries as a
    recovery point for interrupted runs.
``finish``
    Final cumulative ``counters`` / ``gauges`` and total ``seconds``.
    Present exactly when the run completed cleanly.

A telemetry *session* (:func:`telemetry_session`) owns a directory and
streams the trace to ``main.jsonl`` inside it.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs.recorder import Recorder, SpanRecord, record, wallclock
from repro.obs.sink import PARENT_SPOOL_NAME, JsonlSink

__all__ = [
    "EVENTS_SCHEMA",
    "TelemetryRecorder",
    "telemetry_session",
]

#: Schema tag stamped on the ``start`` event of every stream.
EVENTS_SCHEMA = "repro.obs/events/v1"


class TelemetryRecorder(Recorder):
    """A recorder that streams its trace as ``events/v1`` JSONL.

    Everything the base :class:`Recorder` captures in memory still
    happens (the span tree, ``counter_totals()``, exporters); this class
    only adds emission.  The sink is flushed at phase closes (direct
    children of the root) that land at least ``flush_interval`` seconds
    after the previous flush, and whenever its bounded buffer fills —
    so the durable stream trails the live trace by at most
    ``flush_interval`` seconds plus one open phase (sub-interval phases
    batch their events instead of paying a write() each).  Any unwind,
    including the SIGTERM-raised one, flushes the remainder
    (``telemetry_session`` closes the sink).
    """

    def __init__(
        self,
        sink: JsonlSink,
        *,
        meta: Mapping[str, Any] | None = None,
        flush_interval: float = 0.05,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self.sink = sink
        self.flush_interval = flush_interval
        self._suppress_finish = False
        self._last_flush = wallclock()
        sink.emit(
            {
                "schema": EVENTS_SCHEMA,
                "ev": "start",
                "pid": os.getpid(),
                "unix": time.time(),
                "meta": dict(meta or {}),
            }
        )
        sink.flush()

    def _elapsed(self) -> float:
        return wallclock() - self.root.start

    def _push(self, record: SpanRecord) -> None:
        super()._push(record)
        self.sink.emit(
            {
                "ev": "span_open",
                "name": record.name,
                "attrs": dict(record.attrs),
                "t": self._elapsed(),
            }
        )

    def _pop(self, record: SpanRecord) -> None:
        was_phase = len(self._stack) == 2 and self._stack[-1] is record
        super()._pop(record)
        self.sink.emit(
            {
                "ev": "span_close",
                "name": record.name,
                "seconds": record.seconds,
                "counters": dict(record.counters),
                "gauges": dict(record.gauges),
                "t": self._elapsed(),
            }
        )
        if was_phase:
            # Phase boundary: drop a cumulative recovery point so an
            # interrupted stream still yields totals up to the last
            # completed phase, and make everything up to here durable —
            # unless the last flush was moments ago (a grid of sub-ms
            # phases must not pay one write() per point).
            self.sink.emit(
                {
                    "ev": "counters",
                    "counters": self.counter_totals(),
                    "t": self._elapsed(),
                }
            )
            now = wallclock()
            if now - self._last_flush >= self.flush_interval:
                self.sink.flush()
                self._last_flush = now

    def finish(self) -> SpanRecord:
        already = self.root.end is not None
        root = super().finish()
        if not already and not self._suppress_finish:
            self.sink.emit(
                {
                    "ev": "finish",
                    "seconds": root.seconds,
                    "counters": self.counter_totals(),
                    "gauges": self.gauge_values(),
                }
            )
        if not already:
            self.sink.flush()
        return root


@contextmanager
def telemetry_session(
    directory: str | Path,
    *,
    meta: Mapping[str, Any] | None = None,
    capacity: int = 256,
    recorder: TelemetryRecorder | None = None,
) -> Iterator[TelemetryRecorder]:
    """Open a telemetry directory and record into it.

    Creates ``directory``, streams the trace to ``main.jsonl`` inside
    it and installs the recorder (as :func:`repro.obs.record` does).
    On exit — normal or via exception, including
    the SIGTERM-raised one — the trace is finished and the sink closed,
    so the directory is always left readable.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    sink = JsonlSink(root / PARENT_SPOOL_NAME, capacity=capacity)
    rec = (
        TelemetryRecorder(sink, meta=meta) if recorder is None else recorder
    )
    try:
        with record(rec):
            try:
                yield rec
            except BaseException:
                # An exceptional unwind (including the SIGTERM-raised
                # one) must not stamp a clean ``finish`` event: its
                # absence is how readers recognise an interrupted run.
                rec._suppress_finish = True
                raise
    finally:
        sink.close()

