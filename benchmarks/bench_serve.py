"""S2 — serving: warm zero-solve throughput and burst amortization.

Two acceptance bars from the serving tier:

* **Warm throughput** — a daemon whose :class:`ArrayCache` already
  holds the §III-C realization columns for a topology must answer
  availability-grid queries at >= 1000 points/second over the real
  socket path (decode, plan, vectorized evaluate, canonical encode),
  with **zero** max-flow solves and every point bit-identical to a
  fresh :func:`bottleneck_reliability` call.

* **Burst amortization** — 32 concurrent clients querying one topology
  through the daemon must beat 32 cold ``python -m repro compute``
  invocations by >= 5x: coalescing folds the burst into one sweep
  batch and one array build, while each CLI process pays interpreter
  start-up plus a full cold decomposition.

Both bars are asserted here, so a regression fails the bench rather
than just drifting the committed ``benchmarks/BENCH_serve.json``.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np

from repro.bench.harness import time_call
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.graph.builders import fujita_fig4
from repro.graph.io import save
from repro.serve.client import ReliabilityClient
from repro.serve.server import ReliabilityServer

DEMAND = FlowDemand("s", "t", 2)
GRID = [float(v) for v in np.linspace(0.7, 0.99, 33)]
ROUND_QUERIES = 16
BURST_CLIENTS = 32
REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")


def _serving(server):
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread


def test_s2_warm_grid_throughput(benchmark, show):
    net = fujita_fig4()
    server = ReliabilityServer()
    thread = _serving(server)
    try:
        built = server.warm(net, DEMAND)
        assert built > 0  # the cold build happened here, not below

        def round_trip():
            with ReliabilityClient("127.0.0.1", server.port) as client:
                return [
                    client.query(net, "s", "t", 2, availability=GRID)
                    for _ in range(ROUND_QUERIES)
                ]

        timing = benchmark.pedantic(
            lambda: time_call(round_trip, repeats=3), rounds=1, iterations=1
        )
        replies = timing.value
    finally:
        server.request_shutdown()
        thread.join(timeout=10)

    # Every reply is a zero-solve warm answer...
    assert all(r["warm"] and r["flow_calls"] == 0 for r in replies)
    # ...bit-identical to the pointwise reference at every grid point.
    spec_points = replies[0]["points"]
    for index, point in enumerate(spec_points):
        fresh = bottleneck_reliability(
            _point_net(net, GRID[index]), DEMAND
        )
        assert point["reliability"] == fresh.value

    points = ROUND_QUERIES * len(GRID)
    per_second = points / timing.seconds
    assert per_second >= 1000.0, f"warm throughput {per_second:.0f} pts/s < 1000"

    show(
        ["workload", "points", "ms", "points/sec", "flow calls"],
        [
            [
                f"{ROUND_QUERIES} warm grid queries x {len(GRID)} pts",
                points,
                f"{timing.seconds * 1e3:.2f}",
                f"{per_second:.0f}",
                0,
            ]
        ],
        title="S2a: warm availability-grid throughput (fig4)",
    )


def _point_net(net, availability):
    from repro.core.sweep import SweepSpec

    return SweepSpec.availability([availability]).point_network(net, 0)


def test_s2_burst_vs_cold_cli(benchmark, show, tmp_path):
    import os

    net = fujita_fig4()
    net_file = tmp_path / "net.json"
    save(net, net_file)
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    reference = bottleneck_reliability(net, DEMAND)

    def cold_cli_burst():
        outputs = []
        for _ in range(BURST_CLIENTS):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro", "compute",
                    str(net_file), "-s", "s", "-t", "t", "-d", "2",
                ],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        return outputs

    def serve_burst():
        server = ReliabilityServer()  # cold cache: the burst pays one build
        thread = _serving(server)
        replies = [None] * BURST_CLIENTS
        try:
            def one(slot):
                with ReliabilityClient("127.0.0.1", server.port) as client:
                    replies[slot] = client.query(net, "s", "t", 2)

            workers = [
                threading.Thread(target=one, args=(slot,))
                for slot in range(BURST_CLIENTS)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            server.request_shutdown()
            thread.join(timeout=10)
        return replies, server.rounds

    def run():
        cli_timing = time_call(cold_cli_burst, repeats=1)
        serve_timing = time_call(serve_burst, repeats=1)
        return {"cli": cli_timing, "serve": serve_timing}

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    cli_outputs = data["cli"].value
    replies, rounds = data["serve"].value

    # Both paths agree with the in-process reference: the CLI to its
    # printed precision, the daemon bit for bit.
    assert all(f"reliability = {reference.value:.10f}" in out for out in cli_outputs)
    assert all(r["points"][0]["reliability"] == reference.value for r in replies)
    # Coalescing folded the burst into far fewer sweep rounds than clients.
    assert rounds < BURST_CLIENTS

    speedup = data["cli"].seconds / data["serve"].seconds
    assert speedup >= 5.0, f"burst speedup {speedup:.1f}x < 5x"

    show(
        ["configuration", "seconds", "batch rounds", "speedup"],
        [
            [f"{BURST_CLIENTS} cold CLI invocations", f"{data['cli'].seconds:.2f}", "-", "1.00x"],
            [
                f"{BURST_CLIENTS}-client daemon burst",
                f"{data['serve'].seconds:.2f}",
                rounds,
                f"{speedup:.2f}x",
            ],
        ],
        title="S2b: 32-client burst, daemon vs cold CLI",
    )
