"""The daemon: a single-threaded ``select()``-multiplexed TCP server.

One process, one thread, one event loop — the classic pattern: a
non-blocking listener plus per-connection read/write buffers, with
``select()`` arbitrating readiness.  Single-threadedness is load-
bearing twice over:

* the :class:`~repro.core.sweep.ArrayCache` and the obs recorder are
  touched without locks;
* queries that arrive together are *answered* together — after a
  select wake the loop keeps draining with zero-timeout polls until no
  socket is readable, then hands the whole round to
  :func:`repro.serve.planner.answer_queries`, so concurrent queries on
  one topology merge into one sweep batch.  Nothing waits for company:
  queries that arrive while a round computes form the next round.

Blocking calls inside the handler path would stall every connected
client at once; lint rule RR113 statically rejects ``time.sleep``,
``subprocess`` and blocking socket reads outside this loop.

Lifecycle contract (mirrored by the CLI's ledger): a protocol
``shutdown`` op drains the write buffers and exits cleanly (ledger
status ``completed``); SIGTERM unwinds exceptionally through
``serve_forever`` (telemetry ``finish`` suppressed, ledger status
``interrupted``).
"""

from __future__ import annotations

import errno
import select
import socket
from typing import Any

from repro.core.demand import FlowDemand
from repro.core.sweep import ArrayCache, SweepSpec, compute_reliability_sweep
from repro.exceptions import ReproError, ReproValueError
from repro.graph.network import FlowNetwork
from repro.obs.recorder import span, wallclock
from repro.serve.planner import answer_queries
from repro.serve.protocol import (
    ERROR_OVERSIZED,
    MAX_LINE_BYTES,
    ProtocolError,
    Query,
    control_payload,
    decode_query,
    encode_line,
    error_payload,
)

__all__ = ["ReliabilityServer"]

_RECV_CHUNK = 65536
#: How long serve_forever keeps flushing write buffers after a
#: ``shutdown`` op before closing anyway.
_DRAIN_SECONDS = 5.0


class _Connection:
    """Per-socket state: a read buffer, a write queue, and a fate."""

    __slots__ = ("sock", "inbuf", "outbuf", "close_after_flush")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.close_after_flush = False


class ReliabilityServer:
    """Serve reliability queries over local TCP until shutdown.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`port`).
    cache:
        The shared :class:`ArrayCache` (a fresh in-memory one when
        omitted).  Give it a directory + ``max_bytes`` for a persistent
        bounded tier.
    max_line_bytes:
        Per-line request cap; beyond it the connection gets an
        ``oversized`` error and is closed.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        cache: ArrayCache | None = None,
        max_line_bytes: int = MAX_LINE_BYTES,
        backlog: int = 128,
    ) -> None:
        if max_line_bytes <= 0:
            raise ReproValueError("max_line_bytes must be positive")
        self.cache = cache if cache is not None else ArrayCache()
        self.max_line_bytes = max_line_bytes
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(backlog)
        listener.setblocking(False)
        self._listener = listener
        # request_shutdown() writes a byte here so a blocked select()
        # wakes at once instead of after its poll interval.
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._wake_reader.setblocking(False)
        self._wake_writer.setblocking(False)
        self._conns: dict[socket.socket, _Connection] = {}
        self._shutdown_requested = False
        self._closed = False
        #: Connections that vanished mid-line (torn requests) — dropped,
        #: never answered, never fatal to the loop.
        self.torn_requests = 0
        #: Queries answered since construction (all ops).
        self.queries_served = 0
        #: Rounds (select wakes that produced at least one query).
        self.rounds = 0

    # -- addressing --------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return int(self._listener.getsockname()[1])

    @property
    def host(self) -> str:
        return str(self._listener.getsockname()[0])

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- warming -----------------------------------------------------------

    def warm(self, net: FlowNetwork, demand: FlowDemand) -> int:
        """Pre-build the side covers for ``(net, demand)``.

        One single-point sweep at the network's own probabilities: the
        §III-C covers it builds (or disk-loads) are exactly the ones
        every later probability-axis query on this topology reuses.
        Returns the side covers it had to build — the cache misses (0
        when the disk tier was already warm).
        """
        with span("serve.warm", links=net.num_links, rate=demand.rate):
            swept = compute_reliability_sweep(
                net,
                demand,
                sweep=SweepSpec.overrides([{}]),
                cache=self.cache,
            )
        return swept.cache_stats["misses"]

    # -- the loop ----------------------------------------------------------

    def request_shutdown(self) -> None:
        """Ask the loop to exit after flushing; wakes a blocked ``select``.

        Safe to call from another thread.
        """
        self._shutdown_requested = True
        try:
            self._wake_writer.send(b"\0")
        except OSError:  # full (a wake is already pending) or closed
            pass

    def serve_forever(self, *, poll_interval: float = 0.25) -> None:
        """Run until a ``shutdown`` op (or :meth:`request_shutdown`).

        Exits only after pending responses are flushed (bounded by an
        internal drain deadline).  Exceptions — including the CLI's
        SIGTERM-raised unwind — propagate after closing every socket.
        """
        try:
            while not self._shutdown_requested:
                self.step(timeout=poll_interval)
            deadline = wallclock() + _DRAIN_SECONDS
            while self._has_pending_output() and wallclock() < deadline:
                self.step(timeout=0.05)
        finally:
            self.close()

    def step(self, timeout: float = 0.25) -> int:
        """One event-loop round; returns the number of queries answered.

        Public so tests (and the in-process bench harness) can drive
        the loop deterministically without a thread.
        """
        queries, _ = self._collect(timeout)
        if not queries:
            self._flush_writable(0.0)
            return 0
        # Natural batching: take whatever the connections already hold,
        # without waiting for more.
        while True:
            more, readable = self._collect(0.0)
            queries.extend(more)
            if not readable:
                break
        self.rounds += 1
        self._answer(queries)
        self._flush_writable(0.0)
        return len(queries)

    # -- readiness plumbing -------------------------------------------------

    def _collect(self, timeout: float) -> tuple[list[tuple[_Connection, Query]], bool]:
        """One ``select`` wake: accept, read, parse complete lines.

        Returns the parsed queries and whether any connection was
        readable.  The listener does not count: a pending connection
        that ``accept`` cannot take (``EMFILE``) stays readable, and
        counting it would keep :meth:`step` draining forever.
        """
        readers: list[socket.socket] = [self._listener, self._wake_reader]
        readers.extend(
            conn.sock for conn in self._conns.values() if not conn.close_after_flush
        )
        writers = [conn.sock for conn in self._conns.values() if conn.outbuf]
        readable, writable, _ = select.select(readers, writers, [], max(timeout, 0.0))
        for sock in writable:
            conn = self._conns.get(sock)
            if conn is not None:
                self._write(conn)
        queries: list[tuple[_Connection, Query]] = []
        read_any = False
        for sock in readable:
            if sock is self._listener:
                self._accept()
                continue
            if sock is self._wake_reader:
                self._drain_wake()
                continue
            conn = self._conns.get(sock)
            if conn is not None:
                read_any = True
                queries.extend(self._read(conn))
        return queries, read_any

    def _drain_wake(self) -> None:
        try:
            while self._wake_reader.recv(_RECV_CHUNK):
                pass
        except OSError:  # BlockingIOError: drained
            pass

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except BlockingIOError:
                return
            except OSError as exc:  # pragma: no cover - platform races
                if exc.errno in (errno.EMFILE, errno.ENFILE):
                    return
                raise
            sock.setblocking(False)
            self._conns[sock] = _Connection(sock)

    def _read(self, conn: _Connection) -> list[tuple[_Connection, Query]]:
        try:
            data = conn.sock.recv(_RECV_CHUNK)
        except BlockingIOError:
            return []
        except (ConnectionError, OSError):
            self._drop(conn, torn=bool(conn.inbuf))
            return []
        if not data:
            # Peer closed; a half-sent line is a torn request — dropped,
            # not answered (there is nobody left to answer).
            self._drop(conn, torn=bool(conn.inbuf))
            return []
        conn.inbuf.extend(data)
        return self._parse(conn)

    def _parse(self, conn: _Connection) -> list[tuple[_Connection, Query]]:
        queries: list[tuple[_Connection, Query]] = []
        while True:
            newline = conn.inbuf.find(b"\n")
            if newline < 0:
                if len(conn.inbuf) > self.max_line_bytes:
                    conn.inbuf.clear()
                    # Flag first: _send drops the connection the moment
                    # the error finishes flushing.
                    conn.close_after_flush = True
                    self._send(
                        conn,
                        error_payload(
                            ERROR_OVERSIZED,
                            f"request line exceeds {self.max_line_bytes} bytes",
                        ),
                    )
                return queries
            line = bytes(conn.inbuf[:newline])
            del conn.inbuf[: newline + 1]
            if not line.strip():
                continue
            try:
                query = decode_query(line)
            except ProtocolError as exc:
                self._send(conn, error_payload(exc.code, str(exc)))
                continue
            queries.append((conn, query))

    def _answer(self, round_queries: list[tuple[_Connection, Query]]) -> None:
        compute: list[tuple[_Connection, Query]] = []
        for conn, query in round_queries:
            if query.op == "ping":
                self._send(conn, control_payload("ping", query.qid))
                self.queries_served += 1
            elif query.op == "shutdown":
                self._send(conn, control_payload("shutdown", query.qid))
                self.queries_served += 1
                self._shutdown_requested = True
            else:
                compute.append((conn, query))
        if not compute:
            return
        payloads = answer_queries([query for _, query in compute], cache=self.cache)
        for (conn, _), payload in zip(compute, payloads):
            self._send(conn, payload)
            self.queries_served += 1

    # -- write plumbing -----------------------------------------------------

    def _send(self, conn: _Connection, payload: dict[str, Any]) -> None:
        conn.outbuf.extend(encode_line(payload))
        self._write(conn)

    def _write(self, conn: _Connection) -> None:
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except BlockingIOError:
                return
            except (ConnectionError, OSError):
                self._drop(conn, torn=False)
                return
            if sent <= 0:
                return
            del conn.outbuf[:sent]
        if conn.close_after_flush:
            self._drop(conn, torn=False)

    def _flush_writable(self, timeout: float) -> None:
        writers = [conn.sock for conn in self._conns.values() if conn.outbuf]
        if not writers:
            return
        _, writable, _ = select.select([], writers, [], max(timeout, 0.0))
        for sock in writable:
            conn = self._conns.get(sock)
            if conn is not None:
                self._write(conn)

    def _has_pending_output(self) -> bool:
        return any(conn.outbuf for conn in self._conns.values())

    def _drop(self, conn: _Connection, *, torn: bool) -> None:
        if torn:
            self.torn_requests += 1
        self._conns.pop(conn.sock, None)
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - close races
            pass

    def close(self) -> None:
        """Close the listener and every connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in list(self._conns.values()):
            self._drop(conn, torn=False)
        for sock in (self._listener, self._wake_reader, self._wake_writer):
            try:
                sock.close()
            except OSError:  # pragma: no cover - close races
                pass

    def __enter__(self) -> "ReliabilityServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
