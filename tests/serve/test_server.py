"""End-to-end daemon tests over real sockets.

Two driving styles: a background ``serve_forever`` thread for the
blocking-client flows, and a deterministic single-thread style where
the test owns both the client socket and ``server.step()`` — the latter
is what makes the torn-request and oversized-line paths testable
without races.
"""

import json
import socket
import threading

import pytest

from repro.core.demand import FlowDemand
from repro.core.sweep import ArrayCache
from repro.exceptions import ReproValueError
from repro.graph.builders import fujita_fig4
from repro.serve.client import ReliabilityClient
from repro.serve.protocol import QUERY_SCHEMA, encode_line
from repro.serve.server import ReliabilityServer


@pytest.fixture
def threaded_server():
    server = ReliabilityServer(coalesce_window=0.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=10)
        server.close()


def _recv_line(sock, buffer=None):
    """Read one response line; pass the same ``buffer`` to keep the
    bytes after the first newline (two replies can share one recv)."""
    buffer = bytearray() if buffer is None else buffer
    while b"\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("connection closed before a full line")
        buffer.extend(chunk)
    newline = buffer.find(b"\n")
    line = bytes(buffer[:newline])
    del buffer[: newline + 1]
    return json.loads(line.decode("utf-8"))


class TestLifecycle:
    def test_constructor_validation(self):
        with pytest.raises(ReproValueError):
            ReliabilityServer(coalesce_window=-1.0)
        with pytest.raises(ReproValueError):
            ReliabilityServer(max_line_bytes=0)

    def test_ephemeral_port_and_idempotent_close(self):
        server = ReliabilityServer()
        assert server.port > 0
        assert server.address == f"127.0.0.1:{server.port}"
        server.close()
        server.close()

    def test_shutdown_op_stops_serve_forever(self):
        server = ReliabilityServer(coalesce_window=0.0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        with ReliabilityClient("127.0.0.1", server.port) as client:
            ack = client.shutdown()
        assert ack["ok"] is True and ack["op"] == "shutdown"
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestQueries:
    def test_ping(self, threaded_server):
        with ReliabilityClient("127.0.0.1", threaded_server.port) as client:
            ack = client.ping()
        assert ack["ok"] is True and ack["op"] == "ping"

    def test_cold_then_warm_query(self, threaded_server):
        net = fujita_fig4()
        with ReliabilityClient("127.0.0.1", threaded_server.port) as client:
            cold = client.query(net, "s", "t", 2, qid=1)
            warm = client.query(net, "s", "t", 2, qid=2)
        assert cold["ok"] and not cold["warm"]
        assert warm["ok"] and warm["flow_calls"] == 0 and warm["warm"]
        assert (
            warm["points"][0]["reliability"] == cold["points"][0]["reliability"]
        )

    def test_axis_grid_round_trip(self, threaded_server):
        net = fujita_fig4()
        with ReliabilityClient("127.0.0.1", threaded_server.port) as client:
            reply = client.query(net, "s", "t", 2, availability=[0.9, 0.95, 0.99])
        assert [p["x"] for p in reply["points"]] == [0.9, 0.95, 0.99]
        values = [p["reliability"] for p in reply["points"]]
        assert values == sorted(values)  # higher availability, higher reliability

    def test_warm_prebuild_makes_first_query_warm(self):
        server = ReliabilityServer(coalesce_window=0.0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            built = server.warm(fujita_fig4(), FlowDemand("s", "t", 2))
            assert built > 0
            with ReliabilityClient("127.0.0.1", server.port) as client:
                reply = client.query(fujita_fig4(), "s", "t", 2)
            assert reply["warm"] and reply["flow_calls"] == 0
        finally:
            server.request_shutdown()
            thread.join(timeout=10)

    def test_disk_cache_warms_across_server_instances(self, tmp_path):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        first = ReliabilityServer(cache=ArrayCache(tmp_path))
        assert first.warm(net, demand) > 0
        first.close()
        second = ReliabilityServer(cache=ArrayCache(tmp_path))
        assert second.warm(net, demand) == 0
        second.close()


class TestProtocolErrorPaths:
    """Deterministic single-thread driving: the test owns step()."""

    def _connect(self, server):
        sock = socket.create_connection(("127.0.0.1", server.port), timeout=5)
        sock.settimeout(5)
        return sock

    def test_bad_schema_line_gets_error_response(self):
        with ReliabilityServer(coalesce_window=0.0) as server:
            sock = self._connect(server)
            sock.sendall(encode_line({"schema": "nope", "op": "query"}))
            for _ in range(20):
                server.step(timeout=0.01)
            reply = _recv_line(sock)
            sock.close()
        assert reply["ok"] is False
        assert reply["error"]["code"] == "unsupported-schema"

    def test_bad_json_then_good_ping_on_same_connection(self):
        """Per-line errors are not connection-fatal."""
        with ReliabilityServer(coalesce_window=0.0) as server:
            sock = self._connect(server)
            sock.sendall(b"{not json}\n")
            sock.sendall(encode_line({"schema": QUERY_SCHEMA, "op": "ping"}))
            for _ in range(20):
                server.step(timeout=0.01)
            buffer = bytearray()
            first = _recv_line(sock, buffer)
            second = _recv_line(sock, buffer)
            sock.close()
        assert first["error"]["code"] == "bad-json"
        assert second["ok"] is True and second["op"] == "ping"

    def test_oversized_line_is_connection_fatal(self):
        with ReliabilityServer(coalesce_window=0.0, max_line_bytes=128) as server:
            sock = self._connect(server)
            sock.sendall(b"x" * 512)  # no newline: an unbounded line
            for _ in range(20):
                server.step(timeout=0.01)
            reply = _recv_line(sock)
            assert reply["error"]["code"] == "oversized"
            # The server closes after flushing the error.
            for _ in range(20):
                server.step(timeout=0.01)
            assert sock.recv(65536) == b""
            sock.close()

    def test_torn_request_is_counted_and_dropped(self):
        with ReliabilityServer(coalesce_window=0.0) as server:
            sock = self._connect(server)
            sock.sendall(b'{"schema": "repro.serve/query/v1", "op"')  # no newline
            for _ in range(20):
                server.step(timeout=0.01)
            sock.close()
            for _ in range(50):
                server.step(timeout=0.01)
                if server.torn_requests:
                    break
            assert server.torn_requests == 1
            assert server.queries_served == 0

    def test_clean_disconnect_is_not_torn(self):
        with ReliabilityServer(coalesce_window=0.0) as server:
            sock = self._connect(server)
            sock.sendall(encode_line({"schema": QUERY_SCHEMA, "op": "ping"}))
            for _ in range(20):
                server.step(timeout=0.01)
            _recv_line(sock)
            sock.close()
            for _ in range(20):
                server.step(timeout=0.01)
            assert server.torn_requests == 0
