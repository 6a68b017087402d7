"""A minimal blocking client for the reliability daemon.

Runs in the *caller's* process — the blocking reads here never stall
the daemon's event loop, which is why this module (with ``server.py``,
which owns the ``select()`` loop) is exempt from lint rule RR113's
blocking-call ban.

>>> with ReliabilityClient("127.0.0.1", port) as client:  # doctest: +SKIP
...     reply = client.query(net, "s", "t", 2, availability=[0.9, 0.99])
...     reply["points"][0]["reliability"]
"""

from __future__ import annotations

import json
import socket
from typing import Any, Mapping, Sequence

from repro.exceptions import ReproError
from repro.graph.io import to_dict
from repro.graph.network import FlowNetwork
from repro.serve.protocol import QUERY_SCHEMA, encode_line

__all__ = ["ReliabilityClient"]


class ReliabilityClient:
    """One TCP connection to a :class:`~repro.serve.server.ReliabilityServer`."""

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # One small line per request: send it now, not after the
        # previous request's ACK (Nagle).
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    # -- raw plumbing (exposed for protocol-error tests) --------------------

    def send_raw(self, data: bytes) -> None:
        """Write raw bytes — the door for torn/oversized/bad-line tests."""
        self._sock.sendall(data)

    def read_response(self) -> dict[str, Any]:
        """Block until one full response line arrives and decode it."""
        while True:
            newline = self._buffer.find(b"\n")
            if newline >= 0:
                line = bytes(self._buffer[:newline])
                del self._buffer[: newline + 1]
                decoded = json.loads(line.decode("utf-8"))
                if not isinstance(decoded, dict):
                    raise ReproError(f"malformed response line: {line!r}")
                return decoded
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ReproError("connection closed before a full response arrived")
            self._buffer.extend(chunk)

    def request(self, payload: Mapping[str, Any]) -> dict[str, Any]:
        """Send one payload dict and read one response."""
        self.send_raw(encode_line(payload))
        return self.read_response()

    # -- the friendly surface ----------------------------------------------

    def query(
        self,
        net: FlowNetwork,
        source: Any,
        sink: Any,
        rate: int,
        *,
        availability: float | Sequence[float] | None = None,
        failure_scale: float | Sequence[float] | None = None,
        overrides: Mapping[int, float] | Sequence[Mapping[int, float]] | None = None,
        method: str | None = None,
        qid: Any = None,
    ) -> dict[str, Any]:
        """One reliability query; returns the decoded response payload."""
        payload: dict[str, Any] = {
            "schema": QUERY_SCHEMA,
            "op": "query",
            "network": to_dict(net),
            "source": source,
            "sink": sink,
            "rate": int(rate),
        }
        if qid is not None:
            payload["id"] = qid
        if availability is not None:
            payload["availability"] = (
                list(availability)
                if isinstance(availability, Sequence)
                else availability
            )
        if failure_scale is not None:
            payload["failure_scale"] = (
                list(failure_scale)
                if isinstance(failure_scale, Sequence)
                else failure_scale
            )
        if overrides is not None:
            if isinstance(overrides, Mapping):
                payload["overrides"] = {str(k): v for k, v in overrides.items()}
            else:
                payload["overrides"] = [
                    {str(k): v for k, v in entry.items()} for entry in overrides
                ]
        if method is not None:
            payload["method"] = method
        return self.request(payload)

    def ping(self) -> dict[str, Any]:
        """Readiness check."""
        return self.request({"schema": QUERY_SCHEMA, "op": "ping"})

    def shutdown(self) -> dict[str, Any]:
        """Ask the daemon to exit cleanly; returns its acknowledgement."""
        return self.request({"schema": QUERY_SCHEMA, "op": "shutdown"})

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - close races
            pass

    def __enter__(self) -> "ReliabilityClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
