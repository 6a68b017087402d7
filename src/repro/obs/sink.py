"""Streaming event sinks: bounded-buffer JSONL output and its reader.

The durable half of :mod:`repro.obs`: while the :class:`~repro.obs.recorder.Recorder`
holds a trace in process memory, a :class:`JsonlSink` streams the same
information to disk as schema-versioned JSONL *events* (see
:mod:`repro.obs.telemetry` for the event vocabulary) so a killed run
still leaves a readable record.

Durability contract
-------------------
* every event is one complete ``\\n``-terminated JSON line;
* the bounded buffer flushes with **one** ``write()`` call per flush, so
  a crash can truncate at most the final line of a file — never corrupt
  an earlier one;
* :func:`read_events` tolerates exactly that failure mode: an
  undecodable *final* line is dropped (and reported), an undecodable
  interior line raises, because it means something other than a crash
  wrote the file.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ReproValueError

__all__ = [
    "JsonlSink",
    "read_events",
]

#: Filename of the event stream inside a telemetry directory.
PARENT_SPOOL_NAME = "main.jsonl"


def _encode(event: Mapping[str, Any]) -> str:
    return json.dumps(event, separators=(",", ":"), sort_keys=True, default=str) + "\n"


class JsonlSink:
    """Append JSON events to a file through a bounded line buffer.

    Parameters
    ----------
    path:
        Destination file; parent directories are created.
    capacity:
        Maximum buffered events before an automatic flush.  ``1`` makes
        every ``emit`` durable immediately.
    mode:
        ``"w"`` (default) truncates — each sink owns its file — or
        ``"a"`` to append to an existing stream.

    The sink is a context manager (``close()`` flushes).  Emission is
    thread-safe; the file handle is opened lazily on the first event so
    constructing a sink that never emits leaves no file behind.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        capacity: int = 256,
        mode: str = "w",
    ) -> None:
        if capacity < 1:
            raise ReproValueError(f"sink capacity must be >= 1, got {capacity}")
        if mode not in ("w", "a"):
            raise ReproValueError(f"sink mode must be 'w' or 'a', got {mode!r}")
        self.path = Path(path)
        self.capacity = capacity
        self._mode = mode
        self._buffer: list[str] = []
        self._handle: Any = None
        self._lock = threading.Lock()
        self._closed = False
        self.events_emitted = 0

    @property
    def closed(self) -> bool:
        return self._closed

    def emit(self, event: Mapping[str, Any]) -> None:
        """Buffer one event; auto-flush when the buffer is full."""
        line = _encode(event)
        with self._lock:
            if self._closed:
                raise ReproValueError(f"sink for {self.path} is closed")
            self._buffer.append(line)
            self.events_emitted += 1
            if len(self._buffer) >= self.capacity:
                self._flush_locked()

    def flush(self) -> None:
        """Write all buffered lines with a single ``write()`` call."""
        with self._lock:
            if not self._closed:
                self._flush_locked()

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._closed = True

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.path, self._mode, encoding="utf-8")
        # One write call for the whole batch: a crash mid-write can
        # truncate the tail of this batch but never interleave with or
        # corrupt previously flushed lines.
        self._handle.write("".join(self._buffer))
        self._handle.flush()
        self._buffer.clear()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def read_events(path: str | Path) -> list[dict[str, Any]]:
    """Parse one JSONL event file, tolerating a truncated final line.

    A killed process can leave at most one partial line at the end of a
    sink file (see :class:`JsonlSink`); that line is silently dropped.
    An undecodable line anywhere *else* raises
    :class:`~repro.exceptions.ReproValueError` — it indicates real
    corruption, not an interrupted run.
    """
    raw = Path(path).read_text(encoding="utf-8")
    lines = raw.split("\n")
    events: list[dict[str, Any]] = []
    for i, line in enumerate(lines):
        text = line.strip()
        if not text:
            continue
        try:
            events.append(json.loads(text))
        except json.JSONDecodeError as exc:
            if i == len(lines) - 1:
                break  # truncated tail of an interrupted run: expected
            raise ReproValueError(
                f"corrupt event stream {path}: undecodable interior line {i + 1}"
            ) from exc
    return events

