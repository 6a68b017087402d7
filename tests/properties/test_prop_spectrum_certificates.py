"""Property: certificate-settled critical numbers equal the walk's.

``repro.core.rare`` settles each sampled failure order's critical number
from learned supports and cuts, querying the oracle only where they
leave the order open.  Over random nets with directed, undirected,
parallel and self-loop links, demands 1-3 and small
batches (so certificates learned in one batch settle rows of the next),
the numbers must equal the one-kill-at-a-time walk of
``tests/reference_spectrum.py`` row for row, and no order may spend more
queries than the walk's ``min(B, m)``.  The walk runs on a cold oracle
or a repairing one (``walk``): either way it is the reference.  A
certificate store capped at 2 per kind must give the same numbers.

The bookkeeping itself is pinned against the earlier all-numpy one kept
in ``tests/reference_spectrum.py``: under the same ``certify`` both must
settle every row to the same number with the same queries, also when a
batch spans several chunks, when the clipped capacities within one cut
differ and when the store is capped.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import certificate, rare
from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.rare import (
    _Certificates,
    _critical_numbers,
    destruction_spectrum,
    sample_failure_orders,
    spawn_streams,
)
from repro.graph.builders import fujita_fig4, parallel_links
from repro.graph.network import FlowNetwork
from tests import reference_spectrum
from tests.reference_spectrum import critical_numbers

#: The reference walk's oracle: one cold solve per query, or repaired flow.
WALKS = ["cold", "warm"]

@st.composite
def nets(draw, max_nodes=6, max_links=12, capacities=st.integers(0, 3)):
    """Multigraphs on 2-6 nodes, mixed directions, capacities 0-3."""
    num_nodes = draw(st.integers(2, max_nodes))
    nodes = ["s", "t"] + [f"v{i}" for i in range(num_nodes - 2)]
    net = FlowNetwork()
    net.add_nodes(nodes)
    endpoint = st.sampled_from(nodes)
    for _ in range(draw(st.integers(1, max_links))):
        net.add_link(
            draw(endpoint),
            draw(endpoint),
            draw(capacities),
            0.1,
            directed=draw(st.booleans()),
        )
    return net


def _walk_and_settle(net, rate, seed, batch_size, num_permutations, walk):
    """Per batch: the walk's criticals and queries, and the settled
    criticals and per-row queries from one store shared across batches."""
    m = net.num_links
    rng = spawn_streams(seed)[0]["spectrum.permutations"]
    walk_oracle = FeasibilityOracle(net, "s", "t", rate, incremental=walk == "warm")
    oracle = FeasibilityOracle(net, "s", "t", rate, incremental=True)
    store = _Certificates(net, rate)
    batches = []
    drawn = 0
    while drawn < num_permutations:
        batch = min(batch_size, num_permutations - drawn)
        orders = sample_failure_orders(m, batch, rng)
        walked, walk_queries = critical_numbers(walk_oracle, orders, (1 << m) - 1)
        settled, row_queries = _critical_numbers(oracle, orders, store)
        batches.append((walked, walk_queries, settled, row_queries))
        drawn += batch
    return batches


def _check(net, rate, seed, batch_size, num_permutations=24, walk="cold"):
    m = net.num_links
    batches = _walk_and_settle(net, rate, seed, batch_size, num_permutations, walk)
    walked = np.concatenate([b[0] for b in batches])
    settled = np.concatenate([b[2] for b in batches])
    row_queries = np.concatenate([b[3] for b in batches])
    np.testing.assert_array_equal(settled, walked)
    walk_queries = sum(b[1] for b in batches)
    assert walk_queries == int(np.minimum(walked, m).sum())
    assert np.all(row_queries <= np.minimum(walked, m))
    assert int(row_queries.sum()) <= walk_queries

    spectrum = destruction_spectrum(
        net,
        FlowDemand("s", "t", rate),
        num_permutations=num_permutations,
        seed=seed,
        batch_size=batch_size,
    )
    np.testing.assert_array_equal(spectrum.counts, np.bincount(walked, minlength=m + 2))
    assert spectrum.queries == int(row_queries.sum())
    assert spectrum.certified == int(np.count_nonzero(row_queries == 0))


@settings(max_examples=150, deadline=None)
@given(
    net=nets(),
    rate=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    batch_size=st.integers(1, 7),
    walk=st.sampled_from(WALKS),
)
def test_settled_equals_walk(net, rate, seed, batch_size, walk):
    _check(net, rate, seed, batch_size, walk=walk)


@settings(max_examples=80, deadline=None)
@given(
    net=nets(),
    rate=st.integers(1, 3),
    seed=st.integers(0, 2**16),
    batch_size=st.integers(1, 7),
    walk=st.sampled_from(WALKS),
)
def test_full_store_stays_exact(net, rate, seed, batch_size, walk):
    """Past the cap, rows settle by queries alone, with the same values."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 2)
        _check(net, rate, seed, batch_size, walk=walk)


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("seed", [3, 11])
def test_fig4_orders_equal_walk(seed, walk):
    _check(fujita_fig4(), 2, seed=seed, batch_size=64, num_permutations=400, walk=walk)


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("batch_size", [1, 8])
def test_all_alive_infeasible_gives_one(batch_size, walk):
    """``destruction_spectrum`` has no all-alive pre-check: the first
    kill is already infeasible, so every critical number is 1."""
    net = parallel_links(2, capacity=1, failure_probability=0.1)
    spectrum = destruction_spectrum(
        net, FlowDemand("s", "t", 3), num_permutations=50, seed=1
    )
    assert spectrum.counts[1] == 50
    assert spectrum.queries <= 50
    _check(net, 3, seed=1, batch_size=batch_size, walk=walk)


@pytest.mark.parametrize("walk", WALKS)
@pytest.mark.parametrize("seed", [0, 1])
def test_zero_demand_never_fails(seed, walk):
    """A zero demand is feasible with every link dead: ``B = m + 1``,
    settled by the empty support after one query."""
    net = fujita_fig4()
    m = net.num_links
    orders = sample_failure_orders(m, 40, np.random.default_rng(seed))
    walked, walk_queries = critical_numbers(
        FeasibilityOracle(net, "s", "t", 0, incremental=walk == "warm"),
        orders,
        (1 << m) - 1,
    )
    settled, row_queries = _critical_numbers(
        FeasibilityOracle(net, "s", "t", 0, incremental=True),
        orders,
        _Certificates(net, 0),
    )
    np.testing.assert_array_equal(settled, walked)
    assert np.all(settled == m + 1)
    assert walk_queries == 40 * m
    assert int(row_queries.sum()) == 1


@settings(max_examples=150, deadline=None)
@given(
    net=nets(capacities=st.integers(1, 3)),
    rate=st.integers(2, 3),
    seed=st.integers(0, 2**16),
    batch_size=st.integers(1, 12),
    chunk_rows=st.integers(1, 4),
    block_entries=st.sampled_from([1, 7, 1 << 18]),
    capped=st.booleans(),
)
def test_bookkeeping_equals_reference(
    net, rate, seed, batch_size, chunk_rows, block_entries, capped
):
    """Same critical numbers and per-row queries as the all-numpy
    bookkeeping, batch after batch over one store per side."""
    m = net.num_links
    rng = spawn_streams(seed)[0]["spectrum.permutations"]
    reference_oracle = FeasibilityOracle(net, "s", "t", rate, incremental=True)
    oracle = FeasibilityOracle(net, "s", "t", rate, incremental=True)
    with pytest.MonkeyPatch.context() as patch:
        for module in (rare, reference_spectrum):
            patch.setattr(module, "_CHUNK_ROWS", chunk_rows)
            patch.setattr(module, "_BLOCK_ENTRIES", block_entries)
        if capped:
            patch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 2)
        reference_store = reference_spectrum._Certificates(net, rate)
        store = _Certificates(net, rate)
        for _ in range(3):
            orders = sample_failure_orders(m, batch_size, rng)
            expected, expected_queries = reference_spectrum._critical_numbers(
                reference_oracle, orders, reference_store
            )
            settled, row_queries = _critical_numbers(oracle, orders, store)
            np.testing.assert_array_equal(settled, expected)
            np.testing.assert_array_equal(row_queries, expected_queries)
            assert np.all(row_queries <= np.minimum(settled, m))
    assert oracle.calls == reference_oracle.calls
