"""The daemon's transport and its default memory bound.

Replies are small writes, so both ends set ``TCP_NODELAY``: with Nagle
on, a round's second reply waits for the ACK the client delays.  The
tests here pin the option on both ends, check that pipelining changes
no reply byte, and check that a daemon with no cache given stays
within :data:`~repro.serve.server.DEFAULT_CACHE_BYTES` while its warm
topologies stay warm.
"""

import socket
import threading

import pytest

from repro.graph.generators import bottlenecked_network
from repro.graph.io import to_dict
from repro.serve.client import ReliabilityClient
from repro.serve.planner import answer_queries
from repro.serve.protocol import QUERY_SCHEMA, decode_query, encode_line
from repro.serve.server import DEFAULT_CACHE_BYTES, ReliabilityServer


def _nodelay(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0


def _line(qid, net, rate=2, availability=(0.9, 0.95)):
    return encode_line(
        {
            "schema": QUERY_SCHEMA,
            "op": "query",
            "id": qid,
            "network": to_dict(net),
            "source": "s",
            "sink": "t",
            "rate": rate,
            "availability": list(availability),
        }
    )


def _raw_line(sock, buffer):
    """One reply line as the daemon wrote it, bytes and all."""
    while b"\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise AssertionError("connection closed before a full line")
        buffer.extend(chunk)
    newline = buffer.find(b"\n") + 1
    line = bytes(buffer[:newline])
    del buffer[:newline]
    return line


@pytest.fixture
def serving():
    """Start ``ReliabilityServer`` threads; every one is shut down after."""
    started = []

    def start():
        server = ReliabilityServer()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.request_shutdown()
        thread.join(timeout=10)
        server.close()


class TestNoDelay:
    def test_accepted_sockets_set_nodelay(self):
        with ReliabilityServer() as server:
            socks = [
                socket.create_connection(("127.0.0.1", server.port), timeout=5)
                for _ in range(2)
            ]
            for _ in range(20):
                server.step(timeout=0.01)
            accepted = [conn.sock for conn in server._conns.values()]
            assert len(accepted) == 2
            assert all(_nodelay(sock) for sock in accepted)
            for sock in socks:
                sock.close()

    def test_client_sets_nodelay(self):
        with ReliabilityServer() as server:
            with ReliabilityClient("127.0.0.1", server.port) as client:
                assert _nodelay(client._sock)


class TestPipelining:
    def test_pipelined_replies_match_one_at_a_time_byte_for_byte(self, serving):
        """16 queries (eight topologies at rates 1 and 2, so no two share
        a plan) written back to back over two connections get the very
        bytes each gets alone on a fresh daemon."""
        nets = [
            bottlenecked_network(
                source_side_links=4, sink_side_links=4, num_bottlenecks=2, seed=seed
            )
            for seed in range(8)
        ]
        lines = [
            _line(2 * j + r, net, rate=1 + r) for j, net in enumerate(nets) for r in range(2)
        ]

        alone = serving()
        with socket.create_connection(("127.0.0.1", alone.port), timeout=30) as sock:
            buffer = bytearray()
            expected = []
            for line in lines:
                sock.sendall(line)
                expected.append(_raw_line(sock, buffer))

        piped = serving()
        socks = [
            socket.create_connection(("127.0.0.1", piped.port), timeout=30) for _ in range(2)
        ]
        try:
            for conn in range(2):
                socks[conn].sendall(b"".join(lines[conn::2]))
            got = [None] * len(lines)
            for conn, sock in enumerate(socks):
                buffer = bytearray()
                for index in range(conn, len(lines), 2):
                    got[index] = _raw_line(sock, buffer)
        finally:
            for sock in socks:
                sock.close()
        assert got == expected


class TestDefaultBound:
    def test_never_seen_topologies_stay_within_the_bound_and_warm_stays_warm(self):
        """A default daemon fed 300 never-seen topologies among six warm
        ones keeps its accounted bytes within the default bound, and the
        warm six still answer from cached covers."""

        def net(seed, links):
            return bottlenecked_network(
                source_side_links=links, sink_side_links=links, num_bottlenecks=2, seed=seed
            )

        warm = [net(seed, 8) for seed in range(6)]
        with ReliabilityServer() as server:
            cache = server.cache
            assert cache.max_bytes == DEFAULT_CACHE_BYTES

            def ask(nets):
                return answer_queries(
                    [decode_query(_line(i, n)) for i, n in enumerate(nets)], cache=cache
                )

            ask(warm)
            for seed in range(300):
                ask([net(1000 + seed, 7 + seed % 3), warm[seed % 6]])
                assert cache.total_bytes <= DEFAULT_CACHE_BYTES
            replies = ask(warm)
        assert cache.stats()["evictions"] > 0
        assert all(reply["ok"] and reply["warm"] for reply in replies)
