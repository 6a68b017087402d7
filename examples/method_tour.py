#!/usr/bin/env python
"""Method tour: which algorithm for which network?

Walks one network family per exact paradigm, at a size chosen so that
the *wrong* method would be hopeless — the practical decision guide of
docs/ALGORITHMS.md as a runnable script.

Run:  python examples/method_tour.py
"""

from repro import FlowDemand, FlowNetwork
from repro.bench.harness import time_call
from repro.bench.reporting import print_table
from repro.core import (
    bottleneck_reliability,
    directed_frontier_reliability,
    factoring_reliability,
    frontier_reliability,
    rare_reliability,
)
from repro.graph import bottlenecked_network


def ladder(sections: int) -> FlowNetwork:
    net = FlowNetwork(name="ladder")
    nodes = ["s"] + [f"m{i}" for i in range(sections - 1)] + ["t"]
    for a, b in zip(nodes, nodes[1:]):
        net.add_link(a, b, 1, 0.05)
        net.add_link(a, b, 1, 0.05)
    return net


def undirected_grid(rows: int, cols: int) -> FlowNetwork:
    net = FlowNetwork(name="grid")
    def name(r, c):
        if (r, c) == (0, 0):
            return "s"
        if (r, c) == (rows - 1, cols - 1):
            return "t"
        return f"n{r}_{c}"
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                net.add_link(name(r, c), name(r, c + 1), 1, 0.08, directed=False)
            if r + 1 < rows:
                net.add_link(name(r, c), name(r + 1, c), 1, 0.08, directed=False)
    return net


def relay_chain(sections: int) -> FlowNetwork:
    net = FlowNetwork(name="relay-chain")
    prev = "s"
    for i in range(sections):
        nxt = f"c{i}" if i < sections - 1 else "t"
        net.add_link(prev, f"a{i}", 1, 0.06)
        net.add_link(prev, f"b{i}", 1, 0.06)
        net.add_link(f"a{i}", nxt, 1, 0.06)
        net.add_link(f"b{i}", nxt, 1, 0.06)
        prev = nxt
    return net


def dense_blob() -> FlowNetwork:
    """No structure to exploit: dense, no small cut, demand 2."""
    from repro.graph import layered_network

    return layered_network([3, 3], seed=7, max_capacity=2, p_range=(0.05, 0.2))


def main() -> None:
    rows = []

    # 1. directed ladder: frontier sweep, linear in its length
    net = ladder(200)  # 400 links
    demand = FlowDemand("s", "t", 1)
    timed = time_call(directed_frontier_reliability, net, demand)
    rows.append([net.name, net.num_links, "frontier-directed", f"{timed.seconds * 1e3:.1f}",
                 timed.value.value])

    # 2. undirected grid: frontier sweep (partition states)
    net = undirected_grid(4, 10)
    timed = time_call(frontier_reliability, net, FlowDemand("s", "t", 1))
    rows.append([net.name, net.num_links, "frontier", f"{timed.seconds * 1e3:.1f}",
                 timed.value.value])

    # 3. directed relay chain: frontier sweep (relation states)
    net = relay_chain(50)  # 200 directed links
    timed = time_call(directed_frontier_reliability, net, FlowDemand("s", "t", 1))
    rows.append([net.name, net.num_links, "frontier-directed", f"{timed.seconds * 1e3:.1f}",
                 timed.value.value])

    # 4. bottlenecked network: the paper's algorithm
    net = bottlenecked_network(
        source_side_links=11, sink_side_links=11, num_bottlenecks=2, demand=2, seed=5
    )
    timed = time_call(bottleneck_reliability, net, FlowDemand("s", "t", 2), cut=[0, 1])
    rows.append([net.name, net.num_links, "bottleneck (paper)", f"{timed.seconds * 1e3:.1f}",
                 timed.value.value])

    # 5. dense unstructured: factoring
    net = dense_blob()
    timed = time_call(factoring_reliability, net, FlowDemand("s", "t", 2))
    rows.append([net.name, net.num_links, "factoring", f"{timed.seconds * 1e3:.1f}",
                 timed.value.value])

    # 6. too big for anything exact: permutation Monte-Carlo
    big = bottlenecked_network(
        source_side_links=30, sink_side_links=30, num_bottlenecks=3, demand=2, seed=9
    )
    timed = time_call(
        rare_reliability, big, FlowDemand("s", "t", 2),
        num_samples=2000, seed=0, repeats=1,
    )
    rows.append([big.name, big.num_links, "permutation MC (estimate)",
                 f"{timed.seconds * 1e3:.1f}", timed.value.value])

    print_table(
        ["network", "|E|", "method", "ms", "R"],
        rows,
        title="One method per structure — each would be intractable elsewhere",
    )
    print(
        "Rules of thumb: a frontier sweep for d = 1 on elongated topologies\n"
        "(the undirected one on undirected links), the paper's bottleneck\n"
        "algorithm when a small cut splits the graph, factoring for everything\n"
        "exact, permutation Monte-Carlo (method=\"rare\") when nothing exact fits."
    )


if __name__ == "__main__":
    main()
