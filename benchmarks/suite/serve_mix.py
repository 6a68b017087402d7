"""The serve-mix workload: a ``repro serve`` daemon under open-loop traffic.

The daemon runs as a subprocess (``python -m repro serve --port 0
--no-ledger``); one client thread talks to it over two pipelined TCP
connections.  Queries arrive as a Poisson process at ``RATE`` per
second and each one's latency runs from the moment it was due, so a
stall also charges the queries that queue behind it.  A second phase
sends the same mix in bursts of ``BURST`` and measures the throughput
the daemon sustains.

The mix: 90% of queries ask one of six topologies warmed in set-up
(fig4 plus five 16-20-link bottlenecked nets) for 1-8 availabilities;
10% bring a topology never seen before, which forces a cut search, a
cold array build and a cache insert.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import select
import socket
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import calibrate
import inputs
import numpy as np
from spans import Tracer
from workloads import DEMAND, EXACT_TOL, factoring_value

from repro.core.sweep import ArrayCache
from repro.exceptions import ReproError
from repro.graph.io import to_dict
from repro.serve.client import ReliabilityClient
from repro.serve.planner import answer_queries
from repro.serve.protocol import QUERY_SCHEMA, decode_query, encode_line

#: Offered load of the open phase, queries per second.
RATE = 20.0
#: Queries per burst in the throughput phase.  Sent back to back, a
#: burst lands in one coalescing round, so every round does comparable
#: work; with queries kept in flight instead, the round mix (and the
#: throughput) swung by 20% from run to run.
BURST = 16
CONNECTIONS = 2
COLD_SHARE = 0.10
#: Every CHECK_EVERY-th reply is compared point by point with factoring.
CHECK_EVERY = 8
#: Share of the measuring window spent in the open phase.
OPEN_SHARE = 0.75
#: The warm-up pass: this many queries on the warm topologies in turn,
#: then this many on never-seen ones, so set-up does the same work on
#: every seed.
WARM_UP_QUERIES = 18
WARM_UP_COLD = 2
#: The open phase times a calibration job (~7 ms) only in an idle gap
#: at least this long, so the job neither delays a send nor competes
#: with the daemon.
CAL_GAP = 0.03
#: How long to wait for replies still owed after a phase ends.
DRAIN_SECONDS = 10.0
#: The daemon's default coalesce window; the replay groups sends this
#: close together into one round.
COALESCE_WINDOW = 0.005


@dataclass
class Query:
    qid: int
    net: Any
    availabilities: list[float]
    cold: bool
    line: bytes


@dataclass
class Sample:
    query: Query
    due: float
    sent: float
    received: float | None = None
    reply: dict[str, Any] | None = None
    #: Seconds of the calibration job timed nearest the due time.
    calibration: float = 0.0


class QueryStream:
    """Query ``k`` of the mix; the same seed gives the same sequence."""

    def __init__(self, seed: int, quick: bool) -> None:
        rng = np.random.default_rng([seed, 3])
        self.sizes = [(4, 4), (5, 5)] if quick else [(7, 7), (7, 8), (8, 8), (8, 9), (9, 9)]
        self.warm = [inputs.fig4()] + [
            inputs.bottlenecked(rng, a, b, f"warm-{i}") for i, (a, b) in enumerate(self.sizes)
        ]
        self._warm_dicts = [to_dict(net) for net in self.warm]
        self._rng = np.random.default_rng([seed, 4])
        self._next = 0
        self.cold_digest = hashlib.sha256()

    def _make(self, net: Any, payload: dict[str, Any], cold: bool) -> Query:
        rng = self._rng
        availabilities = [float(a) for a in rng.uniform(0.8, 0.999, int(rng.integers(1, 9)))]
        qid = self._next
        self._next += 1
        line = encode_line({
            "schema": QUERY_SCHEMA, "op": "query", "id": qid, "network": payload,
            "source": DEMAND.source, "sink": DEMAND.sink, "rate": DEMAND.rate,
            "availability": availabilities,
        })
        return Query(qid, net, availabilities, cold, line)

    def for_warm(self, j: int) -> Query:
        return self._make(self.warm[j], self._warm_dicts[j], False)

    def cold(self) -> Query:
        """A query on a topology never seen before."""
        rng = self._rng
        a, b = self.sizes[int(rng.integers(len(self.sizes)))]
        net = inputs.bottlenecked(rng, a, b, f"cold-{self._next}")
        self.cold_digest.update(inputs.digest(net).encode())
        return self._make(net, to_dict(net), True)

    def next(self) -> Query:
        rng = self._rng
        if rng.random() < COLD_SHARE:
            return self.cold()
        return self.for_warm(int(rng.integers(len(self.warm))))


class Daemon:
    """``python -m repro serve`` on an ephemeral port, stopped by ``close``."""

    def __init__(self, root: Path, *, metrics: bool) -> None:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0", "--no-ledger"]
        if metrics:
            command += ["--metrics-port", "0"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            command, cwd=root, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.metrics_url: str | None = None
        self.port: int | None = None
        try:
            self.port = self._wait_ready(deadline=time.monotonic() + 60.0)
        except BaseException:
            self.close()
            raise

    def _wait_ready(self, deadline: float) -> int:
        """Read stderr (unbuffered, so select stays truthful) up to "serving on"."""
        assert self.proc.stderr is not None
        fd = self.proc.stderr.fileno()
        text = ""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], deadline - time.monotonic())
            chunk = os.read(fd, 4096).decode(errors="replace") if ready else ""
            if not chunk:
                break
            text += chunk
            for line in text.splitlines(keepends=True):
                if not line.endswith("\n"):
                    break
                if line.startswith("metrics endpoint: "):
                    self.metrics_url = line.split(": ", 1)[1].strip()
                elif line.startswith("serving on "):
                    return int(line.rsplit(":", 1)[1])
        raise RuntimeError(f"daemon did not start: {text!r}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def scrape(self) -> dict[str, float]:
        """Counter totals from ``/metrics``, plus ``rounds``: one per
        top-level ``serve.batch`` span, i.e. per answered round."""
        assert self.metrics_url is not None
        with urllib.request.urlopen(self.metrics_url + "/metrics", timeout=10) as response:
            text = response.read().decode()
        out: dict[str, float] = {"rounds": 0}
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            name, value = line.rsplit(" ", 1)
            if name == 'repro_phase_seconds{phase="serve.batch"}':
                out["rounds"] += 1
            elif "{" not in name:
                out[name] = float(value)
        return out

    def close(self) -> None:
        if self.proc.poll() is None and self.port is not None:
            try:
                with ReliabilityClient("127.0.0.1", self.port, timeout=10) as client:
                    client.shutdown()
            except (OSError, ReproError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if self.proc.stderr is not None:
            self.proc.stderr.close()


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` of a process in MiB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Client:
    """Non-blocking pipelined connections; replies matched by query id."""

    def __init__(self, port: int) -> None:
        self.socks = [
            socket.create_connection(("127.0.0.1", port), timeout=10) for _ in range(CONNECTIONS)
        ]
        for sock in self.socks:
            sock.setblocking(False)
        self._in = [bytearray() for _ in self.socks]
        self._out = [bytearray() for _ in self.socks]

    def send(self, conn: int, data: bytes) -> None:
        self._out[conn] += data
        self._flush(conn)

    def _flush(self, conn: int) -> None:
        try:
            sent = self.socks[conn].send(self._out[conn])
        except BlockingIOError:
            return
        del self._out[conn][:sent]

    def poll(self, timeout: float) -> list[tuple[int, dict[str, Any], float]]:
        """Wait up to ``timeout`` for replies; returns (conn, reply, time)."""
        writers = [sock for conn, sock in enumerate(self.socks) if self._out[conn]]
        readable, writable, _ = select.select(self.socks, writers, [], max(0.0, timeout))
        now = time.perf_counter()
        for sock in writable:
            self._flush(self.socks.index(sock))
        replies = []
        for sock in readable:
            conn = self.socks.index(sock)
            data = sock.recv(1 << 16)
            if not data:
                raise ConnectionError("daemon closed a connection")
            buffer = self._in[conn]
            buffer += data
            while (end := buffer.find(b"\n")) >= 0:
                replies.append((conn, json.loads(buffer[:end]), now))
                del buffer[: end + 1]
        return replies

    def close(self) -> None:
        for sock in self.socks:
            sock.close()


class ServeMix:
    """Set-up: spawn the daemon, warm six topologies, run a warm-up pass."""

    name = "serve-mix"

    def __init__(self, seed: int, quick: bool, root: Path, *, metrics: bool = False) -> None:
        self.stream = QueryStream(seed, quick)
        self.seed = seed
        self.daemon = Daemon(root, metrics=metrics)
        try:
            self.client = Client(self.daemon.port)
        except BaseException:
            self.daemon.close()
            raise
        self.setup_lines: list[bytes] = []
        try:
            for j in range(len(self.stream.warm)):
                self._closed([self.stream.for_warm(j)])
            warm = len(self.stream.warm)
            self._closed([self.stream.for_warm(j % warm) for j in range(WARM_UP_QUERIES)])
            self._closed([self.stream.cold() for _ in range(WARM_UP_COLD)])
        except BaseException:
            self.close()
            raise

    def inputs(self) -> list[Any]:
        return self.stream.warm

    def _closed(self, queries: list[Query]) -> None:
        """Send queries one at a time, each after the previous reply."""
        for query in queries:
            self.setup_lines.append(query.line)
            self.client.send(0, query.line)
            limit = time.perf_counter() + DRAIN_SECONDS
            replies: list[Any] = []
            while not replies and time.perf_counter() < limit:
                replies = self.client.poll(limit - time.perf_counter())
            if not replies or not replies[0][1].get("ok"):
                raise RuntimeError(f"set-up query {query.qid} failed: {replies}")

    def open_phase(self, seconds: float) -> list[Sample]:
        """Poisson arrivals at ``RATE``; queries are built before the clock starts.

        A calibration job runs before and after the phase, and in each
        gap between arrivals where no reply is owed and the next query
        is due more than ``CAL_GAP`` ahead.
        """
        rng = np.random.default_rng([self.seed, 5])
        offsets: list[float] = []
        t = float(rng.exponential(1.0 / RATE))
        while t < seconds:
            offsets.append(t)
            t += float(rng.exponential(1.0 / RATE))
        queries = [self.stream.next() for _ in offsets]
        calibrations = [(time.perf_counter(), calibrate.seconds())]
        start = time.perf_counter() + 0.01
        pending: dict[int, Sample] = {}
        samples: list[Sample] = []
        k = 0
        calibrated = -1
        deadline = start + seconds + DRAIN_SECONDS
        while k < len(queries) or pending:
            now = time.perf_counter()
            if k < len(queries) and now >= start + offsets[k]:
                sample = Sample(queries[k], due=start + offsets[k], sent=time.perf_counter())
                self.client.send(k % CONNECTIONS, queries[k].line)
                pending[queries[k].qid] = sample
                samples.append(sample)
                k += 1
                continue
            if now > deadline:
                break
            wait = start + offsets[k] - now if k < len(queries) else deadline - now
            if not pending and calibrated < k < len(queries) and wait > CAL_GAP:
                calibrations.append((now, calibrate.seconds()))
                calibrated = k
                continue
            for _, reply, received in self.client.poll(wait):
                sample = pending.pop(reply.get("id"), None)
                if sample is not None:
                    sample.received, sample.reply = received, reply
        calibrations.append((time.perf_counter(), calibrate.seconds()))
        times = [at for at, _ in calibrations]
        for sample in samples:
            j = bisect.bisect(times, sample.due)
            nearest = min(calibrations[max(0, j - 1): j + 1], key=lambda c: abs(c[0] - sample.due))
            sample.calibration = nearest[1]
        return samples

    def burst_phase(self, seconds: float) -> tuple[list[Sample], list[tuple[float, float]]]:
        """Bursts of ``BURST`` queries, each sent once the previous one is
        answered; returns the samples and, per burst, the seconds until
        its last reply and the same time in ``cal``.  The client builds
        each burst, and times a calibration job, off the clock."""
        samples: list[Sample] = []
        busy: list[tuple[float, float]] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            burst = [self.stream.next() for _ in range(BURST)]
            cal = calibrate.seconds()
            sent = time.perf_counter()
            pending = {}
            for j, query in enumerate(burst):
                pending[query.qid] = Sample(query, due=sent, sent=sent)
                samples.append(pending[query.qid])
                self.client.send(j % CONNECTIONS, query.line)
            limit = sent + DRAIN_SECONDS
            while pending and time.perf_counter() < limit:
                for _, reply, received in self.client.poll(limit - time.perf_counter()):
                    sample = pending.pop(reply.get("id"), None)
                    if sample is not None:
                        sample.received, sample.reply = received, reply
            if pending:
                break
            took = max(s.received for s in samples[-BURST:]) - sent
            busy.append((took, took / cal))
        return samples, busy

    def close(self) -> None:
        self.client.close()
        self.daemon.close()


def failures(samples: list[Sample]) -> list[str]:
    """Error replies, missing replies, and oracle mismatches."""
    out = []
    for sample in samples:
        q, reply = sample.query, sample.reply
        if reply is None:
            out.append(f"query {q.qid}: no reply")
        elif not reply.get("ok") or len(reply.get("points", [])) != len(q.availabilities):
            out.append(f"query {q.qid}: {reply.get('error', reply)}")
        elif q.qid % CHECK_EVERY == 0:
            for a, point in zip(q.availabilities, reply["points"]):
                m = q.net.num_links
                want = factoring_value(q.net.with_failure_probabilities([1.0 - a] * m))
                if not abs(point["reliability"] - want) <= EXACT_TOL:
                    out.append(f"query {q.qid}: {point['reliability']!r} != factoring {want!r}")
                    break
    return out


def latencies(samples: list[Sample]) -> list[float]:
    return [s.received - s.due for s in samples if s.received is not None]


def _replay(
    setup_lines: list[bytes], samples: list[Sample], tracer: Tracer
) -> tuple[dict[int, float], list[str]]:
    """Answer the recorded lines in-process, layer by layer.

    Sends closer together than the daemon's coalesce window form one
    round, as they would have in the daemon.  Returns the replayed
    service seconds of each query's round, and a failure for each value
    that differs from what the daemon sent.
    """
    cache = ArrayCache()
    answer_queries([decode_query(line) for line in setup_lines], cache=cache)
    rounds: list[list[Sample]] = []
    for sample in sorted(samples, key=lambda s: s.sent):
        if rounds and sample.sent - rounds[-1][0].sent <= COALESCE_WINDOW:
            rounds[-1].append(sample)
        else:
            rounds.append([sample])
    service: dict[int, float] = {}
    bad = []
    for r, members in enumerate(rounds):
        with tracer.request(r, "serve-round") as root:
            decoded = []
            for sample in members:
                with tracer.span("decode_query", "serve.decode"):
                    decoded.append(decode_query(sample.query.line))
            payloads = tracer.call(
                "answer_queries", "serve.plan", answer_queries, decoded, cache=cache
            )
            for payload in payloads:
                with tracer.span("encode_line", "serve.encode"):
                    encode_line(payload)
        for sample, payload in zip(members, payloads):
            service[sample.query.qid] = root.end - root.start
            live = (sample.reply or {}).get("points", [])
            if [p["reliability"] for p in payload["points"]] != [p["reliability"] for p in live]:
                bad.append(f"query {sample.query.qid}: replay differs from the daemon")
    return service, bad


def traced(
    seed: int, quick: bool, root: Path, seconds: float, tracer: Tracer
) -> tuple[dict[str, float], int, int, list[str]]:
    """Per-layer metrics of serve-mix.

    A plain daemon takes the open-phase traffic for half the window, a
    daemon with ``--metrics-port 0`` the same traffic for the other half;
    its ``/metrics`` is scraped before and after, and its request lines
    are replayed in-process under ``tracer``.  Returns the serve metrics,
    the number of replayed queries, the queries attempted, and failures.
    """
    plain = ServeMix(seed, quick, root)
    try:
        inputs.print_digests(plain.inputs())
        untraced = plain.open_phase(seconds / 2)
    finally:
        plain.close()
    watched = ServeMix(seed, quick, root, metrics=True)
    try:
        before = watched.daemon.scrape()
        live = watched.open_phase(seconds / 2)
        after = watched.daemon.scrape()
    finally:
        watched.close()
    service, mismatches = _replay(watched.setup_lines, live, tracer)

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    queries = delta("repro_serve_queries_total")
    rounds = delta("rounds")
    answered = [s for s in live if s.received is not None]
    cold = [s.received - s.due for s in untraced if s.query.cold and s.received is not None]
    metrics = {
        "serve.queue_wait_s": statistics.median(
            s.received - s.due - service[s.query.qid] for s in answered
        ),
        "serve.rounds": rounds,
        "serve.queries_per_round": queries / rounds,
        "serve.coalesced": delta("repro_serve_coalesced_total") / queries,
        "serve.warm_hits": delta("repro_serve_warm_hits_total") / queries,
        "serve.cold_p50_s": statistics.median(cold) if cold else 0.0,
        "loadgen.late_p99_s": statistics.quantiles([s.sent - s.due for s in untraced], n=100)[98],
        "trace.overhead_frac": (
            statistics.median(latencies(live)) / statistics.median(latencies(untraced)) - 1.0
        ),
    }
    bad = failures(untraced) + failures(live) + mismatches
    return metrics, len(live), len(untraced) + len(live), bad
