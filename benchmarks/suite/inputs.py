"""Benchmark-owned inputs, built from the seed through ``FlowNetwork.add_link``.

Nothing here imports ``repro.graph.generators``, ``repro.graph.builders``
or ``repro.bench.workloads``: a change to those modules must not change
what the suite measures.  Every network has a sha256 digest of its
canonical ``repro.graph.io.to_dict`` JSON, which the runner prints so
two runs can show they measured the same inputs.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.graph.io import to_dict
from repro.graph.network import FlowNetwork

#: Every bottleneck in the suite has k = 2 links and demand d = 2, so
#: the §III-B assignment set is {(2,0), (1,1), (0,2)}.
K = 2
DEMAND = 2
#: Failure probabilities of the side links of the exact workloads.
P_RANGE = (0.05, 0.3)
#: Uniform link failure probability of the rare-event net (five nines).
RARE_P = 1e-5


def digest(net: FlowNetwork) -> str:
    """sha256 of the canonical JSON of ``to_dict(net)``."""
    text = json.dumps(to_dict(net), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def print_digests(nets: list[FlowNetwork]) -> None:
    for net in nets:
        print(f"input {net.name} links={net.num_links} sha256={digest(net)}")


def _probability(rng: np.random.Generator) -> float:
    return float(rng.uniform(*P_RANGE))


def _side(
    net: FlowNetwork,
    rng: np.random.Generator,
    *,
    terminal: str,
    ports: list[str],
    links: int,
    prefix: str,
    outward: bool,
) -> None:
    """One connected side: a feeder per port, relays, random chords.

    ``outward`` orients the feeders and relay attachments away from the
    terminal (the source side); the sink side mirrors them.  The
    feeders carry at least the demand, so the all-alive network
    realizes every assignment.
    """
    def link(tail: str, head: str, capacity: int) -> None:
        if outward:
            net.add_link(tail, head, capacity, _probability(rng))
        else:
            net.add_link(head, tail, capacity, _probability(rng))

    for port in ports:
        link(terminal, port, max(DEMAND, int(rng.integers(1, 4))))
    budget = links - len(ports)
    relays = [f"{prefix}{i}" for i in range(max(0, min(budget, links // 2 - len(ports))))]
    nodes = [terminal, *ports]
    for relay in relays:
        link(nodes[int(rng.integers(0, len(nodes)))], relay, int(rng.integers(1, 4)))
        nodes.append(relay)
    for _ in range(budget - len(relays)):
        i, j = rng.choice(len(nodes), size=2, replace=False)
        net.add_link(nodes[int(i)], nodes[int(j)], int(rng.integers(1, 4)), _probability(rng))


def bottlenecked(
    rng: np.random.Generator, source_links: int, sink_links: int, name: str
) -> FlowNetwork:
    """Two random sides joined by the k = 2 bottleneck links ``x_i -> y_i``.

    The bottleneck links come first (indices 0 and 1) with capacity d.
    """
    net = FlowNetwork(name=name)
    xs = [f"x{i}" for i in range(K)]
    ys = [f"y{i}" for i in range(K)]
    for x, y in zip(xs, ys):
        net.add_link(x, y, DEMAND, _probability(rng))
    _side(net, rng, terminal="s", ports=xs, links=source_links, prefix="a", outward=True)
    _side(net, rng, terminal="t", ports=ys, links=sink_links, prefix="b", outward=False)
    return net


def fig4() -> FlowNetwork:
    """The paper's Fig. 4 / Example 3 graph: 9 links, cut {e1, e2}."""
    net = FlowNetwork(name="fig4")
    for tail, head, capacity in [
        ("x1", "y1", 2),
        ("x2", "y2", 2),
        ("s", "x1", 1),
        ("s", "x1", 1),
        ("s", "x2", 1),
        ("s", "x2", 1),
        ("y1", "t", 1),
        ("y2", "t", 2),
        ("y1", "y2", 1),
    ]:
        net.add_link(tail, head, capacity, 0.1)
    return net


def chained(segments: int) -> tuple[FlowNetwork, list[list[int]]]:
    """``segments`` blocks in series, joined by 2-link cuts, all at ``RARE_P``.

    Each block wires every entry node to every exit node with capacity
    d (2 + 4 * (segments - 2) + 2 links), so with six segments the net
    has 30 links and 2^30 configurations.  Returns the network and the
    cut link indices in chain order, the input ``chain_reliability``
    needs for the exact value.
    """
    net = FlowNetwork(name=f"chained-{segments}")
    last = segments - 1
    cuts = [
        [net.add_link(f"o{j}_{i}", f"n{j}_{i}", DEMAND, RARE_P) for i in range(K)]
        for j in range(last)
    ]
    for seg in range(segments):
        entry = ["s"] if seg == 0 else [f"n{seg - 1}_{i}" for i in range(K)]
        exits = ["t"] if seg == last else [f"o{seg}_{i}" for i in range(K)]
        for a in entry:
            for b in exits:
                net.add_link(a, b, DEMAND, RARE_P)
    return net, cuts
