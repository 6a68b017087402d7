"""The run ledger: content-addressed records of every CLI computation.

Every ``repro compute`` / ``repro sweep`` appends one *run record* —
input fingerprint, counter totals, per-phase wallclock, an environment
fingerprint, and the computed value — under ``.repro/runs/``.  Records
are content-addressed (the run id is a prefix of the SHA-256 of the
canonical record JSON), so identical records collide into the same id
and the ledger is append-only by construction.

``repro runs list|show|diff`` reads the ledger back; :func:`diff_records`
is the regression gate: counter blow-ups (e.g. a change that doubles
``flow_solves`` on the same input) are **hard** regressions, wallclock
growth is *advisory* by default (CI machines are noisy; pass
``strict_latency=True`` to promote it).  A diff reference can be a run
id prefix, a negative index (``-1`` = latest), or a path to a committed
baseline record such as ``benchmarks/BENCH_telemetry.json`` — which is
just a run record produced by this module and checked in.

Schema: ``repro.obs/run/v1``.  This module lives in :mod:`repro.obs`
deliberately — it stamps epoch times, and RR107 confines raw clock
reads to this package.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.exceptions import ReproValueError

__all__ = [
    "RUN_SCHEMA",
    "RunDiff",
    "RunLedger",
    "canonical_json",
    "content_hash",
    "diff_records",
    "env_fingerprint",
    "make_run_record",
]

#: Schema tag of every ledger record.
RUN_SCHEMA = "repro.obs/run/v1"

#: Default location of the ledger, relative to the working directory.
DEFAULT_LEDGER_DIR = ".repro/runs"

#: Characters of the SHA-256 hex digest used as the run id.
_ID_LENGTH = 12

_INDEX_NAME = "index.jsonl"


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, tight separators, stringified
    fallbacks — the form every content hash in the ledger is taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def content_hash(payload: Any) -> str:
    """SHA-256 hex digest of :func:`canonical_json`."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def env_fingerprint() -> dict[str, str]:
    """Where a run happened: interpreter, platform, key library versions."""
    try:
        import numpy

        numpy_version = str(numpy.__version__)
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        numpy_version = "absent"
    try:
        from repro._version import __version__ as repro_version
    except Exception:  # pragma: no cover
        repro_version = "unknown"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "numpy": numpy_version,
        "repro": repro_version,
    }


def make_run_record(
    *,
    command: str,
    input_fingerprint: str,
    params: Mapping[str, Any],
    status: str = "completed",
    seconds: float | None = None,
    counters: Mapping[str, int | float] | None = None,
    phases: list[Mapping[str, Any]] | None = None,
    value: Any = None,
    flow_calls: int | None = None,
    solver: str | None = None,
    interval: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble one schema-versioned run record (not yet persisted).

    ``status`` is ``"completed"`` for a clean run or ``"interrupted"``
    when the process was terminated mid-computation — the kill-safety
    contract is that a SIGTERM'd sweep still appends a well-formed
    record with this status.  An estimate passes its confidence
    ``interval`` (``low``, ``high``, ``num_samples``, ``confidence``),
    recorded under that key; other records do not carry it.
    """
    if status not in ("completed", "interrupted", "failed"):
        raise ReproValueError(f"unknown run status {status!r}")
    env = env_fingerprint()
    if solver is not None:
        env["solver"] = solver
    record: dict[str, Any] = {
        "schema": RUN_SCHEMA,
        "command": command,
        "input": input_fingerprint,
        "params": dict(params),
        "status": status,
        "seconds": seconds,
        "counters": dict(counters or {}),
        "phases": [dict(p) for p in phases or []],
        "value": value,
        "flow_calls": flow_calls,
        "env": env,
        "unix": time.time(),
    }
    if interval is not None:
        record["interval"] = dict(interval)
    return record


class RunLedger:
    """Append-only store of run records under one directory.

    Layout: ``<dir>/<id>.json`` per record plus an ``index.jsonl`` of
    one summary line per append (id, time, command, status, headline
    numbers) so ``runs list`` never has to open every record.
    """

    def __init__(self, directory: str | Path = DEFAULT_LEDGER_DIR) -> None:
        self.directory = Path(directory)

    # -- writing ----------------------------------------------------------

    def append(self, record: Mapping[str, Any]) -> str:
        """Persist ``record`` and return its content-addressed id.

        The id hashes the record *without* its timestamp, so re-running
        an identical computation in an identical environment lands on
        the same id (and simply overwrites the identical file).
        """
        body = dict(record)
        hashed = {k: v for k, v in body.items() if k != "unix"}
        run_id = content_hash(hashed)[:_ID_LENGTH]
        body["id"] = run_id
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"{run_id}.json"
        path.write_text(json.dumps(body, indent=2, default=str) + "\n", encoding="utf-8")
        index_line = canonical_json(
            {
                "id": run_id,
                "unix": body.get("unix"),
                "command": body.get("command"),
                "status": body.get("status"),
                "seconds": body.get("seconds"),
                "flow_calls": body.get("flow_calls"),
                "value": body.get("value"),
            }
        )
        with open(self.directory / _INDEX_NAME, "a", encoding="utf-8") as handle:
            handle.write(index_line + "\n")
        return run_id

    # -- reading ----------------------------------------------------------

    def entries(self) -> list[dict[str, Any]]:
        """Index entries, oldest first (undecodable tail line tolerated)."""
        index = self.directory / _INDEX_NAME
        if not index.is_file():
            return []
        out: list[dict[str, Any]] = []
        lines = index.read_text(encoding="utf-8").split("\n")
        for i, line in enumerate(lines):
            text = line.strip()
            if not text:
                continue
            try:
                out.append(json.loads(text))
            except json.JSONDecodeError as exc:
                if i == len(lines) - 1:
                    break  # torn final append of a killed process
                raise ReproValueError(
                    f"corrupt ledger index {index}: line {i + 1}"
                ) from exc
        return out

    def load(self, run_id: str) -> dict[str, Any]:
        """Load one full record by exact id."""
        path = self.directory / f"{run_id}.json"
        if not path.is_file():
            raise ReproValueError(f"no run {run_id!r} in ledger {self.directory}")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ReproValueError(f"run record {path} is not a JSON object")
        return loaded

    def resolve(self, ref: str) -> dict[str, Any]:
        """Resolve a user-facing reference to a full record.

        In order: a path to a record JSON file (committed baselines),
        a negative index into the ledger (``-1`` = latest append), or a
        unique run-id prefix.
        """
        as_path = Path(ref)
        if as_path.is_file():
            loaded = json.loads(as_path.read_text(encoding="utf-8"))
            if not isinstance(loaded, dict) or loaded.get("schema") != RUN_SCHEMA:
                raise ReproValueError(
                    f"{ref} is not a {RUN_SCHEMA} run record"
                )
            return loaded
        entries = self.entries()
        if ref.lstrip("-").isdigit() and ref.startswith("-"):
            index = int(ref)
            if not entries or not (-len(entries) <= index <= -1):
                raise ReproValueError(
                    f"ledger has {len(entries)} runs; index {ref} out of range"
                )
            return self.load(str(entries[index]["id"]))
        matches = sorted({str(e["id"]) for e in entries if str(e["id"]).startswith(ref)})
        if len(matches) == 1:
            return self.load(matches[0])
        if not matches:
            raise ReproValueError(f"no run matching {ref!r} in {self.directory}")
        raise ReproValueError(f"ambiguous run reference {ref!r}: {', '.join(matches)}")


@dataclass
class RunDiff:
    """Outcome of comparing two run records.

    ``counter_regressions`` drive the exit status (:attr:`ok`);
    ``latency_regressions`` are advisory unless the diff was run with
    ``strict_latency=True`` (in which case they are folded in by the
    caller examining :attr:`ok_strict`).
    """

    base_id: str
    other_id: str
    same_input: bool
    counter_regressions: list[dict[str, Any]] = field(default_factory=list)
    counter_improvements: list[dict[str, Any]] = field(default_factory=list)
    latency_regressions: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counter_regressions

    @property
    def ok_strict(self) -> bool:
        return self.ok and not self.latency_regressions


def _numeric_counters(record: Mapping[str, Any]) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, value in (record.get("counters") or {}).items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        out[str(name)] = float(value)
    return out


def _phase_seconds(record: Mapping[str, Any]) -> dict[str, float]:
    out: dict[str, float] = {}
    for phase in record.get("phases") or []:
        seconds = phase.get("seconds")
        if isinstance(seconds, (int, float)) and not isinstance(seconds, bool):
            # Repeated phase names accumulate.
            name = str(phase.get("name"))
            out[name] = out.get(name, 0.0) + float(seconds)
    return out


def diff_records(
    base: Mapping[str, Any],
    other: Mapping[str, Any],
    *,
    tolerance: float = 1.25,
    min_seconds: float = 0.05,
) -> RunDiff:
    """Compare ``other`` against baseline ``base``.

    A counter is a **regression** when it grew beyond ``tolerance``
    (ratio, default 25% headroom for legitimately noisy counters like
    cache byte counts) — including appearing where the baseline had
    zero.  An **improvement** is the mirror image (shrunk below
    ``1/tolerance``), reported for context, never fatal.  Counters whose
    name ends in ``.seconds`` carry wallclock, not work — they join the
    advisory latency gate instead of the hard counter gate.  Wallclock
    (total and per-phase) is flagged only when it exceeds the tolerance
    *and* grew by at least ``min_seconds`` absolute — sub-50 ms phase
    jitter is machine noise, not signal.
    """
    if tolerance <= 1.0:
        raise ReproValueError(f"tolerance must exceed 1.0, got {tolerance}")
    diff = RunDiff(
        base_id=str(base.get("id", "<baseline>")),
        other_id=str(other.get("id", "<candidate>")),
        same_input=base.get("input") == other.get("input"),
    )
    base_counters = _numeric_counters(base)
    other_counters = _numeric_counters(other)
    for name in sorted(set(base_counters) | set(other_counters)):
        b = base_counters.get(name, 0.0)
        o = other_counters.get(name, 0.0)
        if b == o:
            continue
        if name.endswith(".seconds"):
            # Time-valued counters (solver.<name>.seconds) are machine
            # noise like any wallclock: advisory, with the same
            # absolute-delta guard as phase timings.
            if o - b >= min_seconds and (b == 0.0 or o / b > tolerance):
                diff.latency_regressions.append(
                    {"name": name, "base": b, "other": o, "ratio": (o / b) if b else None}
                )
            continue
        ratio = (o / b) if b > 0 else None
        entry = {"name": name, "base": b, "other": o, "ratio": ratio}
        if o > b and (ratio is None or ratio > tolerance):
            diff.counter_regressions.append(entry)
        elif b > o and (o == 0.0 or b / o > tolerance):
            diff.counter_improvements.append(entry)

    base_latency = _phase_seconds(base)
    base_latency["<total>"] = float(base.get("seconds") or 0.0)
    other_latency = _phase_seconds(other)
    other_latency["<total>"] = float(other.get("seconds") or 0.0)
    for name in sorted(set(base_latency) | set(other_latency)):
        b = base_latency.get(name, 0.0)
        o = other_latency.get(name, 0.0)
        if o - b < min_seconds:
            continue
        if b == 0.0 or o / b > tolerance:
            diff.latency_regressions.append(
                {"name": name, "base": b, "other": o, "ratio": (o / b) if b else None}
            )
    return diff
