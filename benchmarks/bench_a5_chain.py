"""A5 — extension: chain decomposition (multi-cut series composition).

The single-cut bottleneck algorithm's exponent is the larger side; a
series of r cuts drops it to the largest *segment*.  The table shows
flow-call counts as segments are added at (roughly) constant total
size — the chain's cost stays near-flat while naive explodes.  Every
segment, middles included, is settled by the §III-C cut-certificate
kernel, so chain spends no max-flow solve.  The last rows have wide
middle segments at d = 2 (14, 16 + 16 and 18 links), each a relation
cover of a few dozen cubes: naive's 2^26+ configurations are out of
reach, so they are checked against the single-cut bottleneck value on
the middle cut."""

import pytest

from repro.bench.harness import time_call
from repro.bench.workloads import chain_workload
from repro.core import bottleneck_reliability, chain_reliability, naive_reliability
from repro.core.demand import FlowDemand
from repro.graph.generators import chained_network


def _chain_rows():
    rows = []
    for segments in (2, 3, 4):
        workload = chain_workload(segments, 4, demand=1, cut_size=2, seed=9)
        net, demand = workload.network, workload.demand
        cuts = net._chain_cut_indices
        chain = time_call(chain_reliability, net, demand, cuts, repeats=1)
        naive = time_call(naive_reliability, net, demand, repeats=1)
        assert chain.value.value == pytest.approx(naive.value.value, abs=1e-9)
        rows.append(
            [
                segments,
                net.num_links,
                len(cuts),
                chain.value.flow_calls,
                naive.value.flow_calls,
                f"{chain.seconds * 1e3:.1f}",
                f"{naive.seconds * 1e3:.1f}",
            ]
        )
    return rows


#: Chains with wide middle segments (d = 2, cut size 2).
WIDE_MIDDLES = ([4, 14, 4], [4, 16, 16, 4], [4, 18, 4])


def _wide_middle_rows():
    rows = []
    for sizes in WIDE_MIDDLES:
        net = chained_network(sizes, cut_sizes=2, demand=2, seed=1)
        demand = FlowDemand("s", "t", 2)
        cuts = net._chain_cut_indices
        chain = time_call(chain_reliability, net, demand, cuts)
        bneck = bottleneck_reliability(net, demand, cut=cuts[len(cuts) // 2])
        assert chain.value.value == pytest.approx(bneck.value, abs=1e-9)
        rows.append(
            [
                f"{len(sizes)} ({sizes}, d=2)",
                net.num_links,
                len(cuts),
                chain.value.flow_calls,
                "—",
                f"{chain.seconds * 1e3:.1f}",
                "—",
            ]
        )
    return rows


def test_a5_chain_table(benchmark, show):
    rows = benchmark.pedantic(
        lambda: _chain_rows() + _wide_middle_rows(), rounds=1, iterations=1
    )
    show(
        ["segments", "|E|", "cuts", "chain calls", "naive calls", "chain ms", "naive ms"],
        rows,
        title="A5: chain decomposition vs naive (segment size 4, cut size 2)",
    )
    # Every segment comes from the cut-certificate kernel: no solves.
    assert all(row[3] == 0 for row in rows)
    # Shape: naive's call count explodes with |E|.
    assert rows[0][4] < rows[1][4] < rows[2][4]


def test_a5_chain_benchmark(benchmark):
    workload = chain_workload(3, 4, demand=1, cut_size=2, seed=9)
    cuts = workload.network._chain_cut_indices
    result = benchmark(chain_reliability, workload.network, workload.demand, cuts)
    assert 0 <= result.value <= 1
