"""Property: certificate-settled critical numbers equal the walk's.

``repro.core.rare`` settles each sampled failure order's critical number
from learned supports and cuts, querying the oracle only where they
leave the order open.  Over random nets with directed, undirected,
parallel and self-loop links, demands 1-3, every solver and small
batches (so certificates learned in one batch settle rows of the next),
the numbers must equal the one-kill-at-a-time walk of
``tests/reference_spectrum.py`` row for row, and no order may spend more
queries than the walk's ``min(B, m)``.  A certificate store capped at 2
per kind must give the same numbers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import certificate
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
from tests.reference_spectrum import critical_numbers

SOLVERS = ["dinic", "edmonds_karp", "capacity_scaling", "push_relabel"]


@st.composite
def nets(draw, max_nodes=6, max_links=12):
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
            draw(st.integers(0, 3)),
            0.1,
            directed=draw(st.booleans()),
        )
    return net


def _walk_and_settle(net, rate, solver, seed, batch_size, num_permutations):
    """Per batch: the walk's criticals and queries, and the settled
    criticals and per-row queries from one store shared across batches."""
    m = net.num_links
    rng = spawn_streams(seed)[0]["spectrum.permutations"]
    walk_oracle = FeasibilityOracle(net, "s", "t", rate, solver=solver, incremental=True)
    oracle = FeasibilityOracle(net, "s", "t", rate, solver=solver, incremental=True)
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


def _check(net, rate, solver, seed, batch_size, num_permutations=24):
    m = net.num_links
    batches = _walk_and_settle(net, rate, solver, seed, batch_size, num_permutations)
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
        solver=solver,
        batch_size=batch_size,
    )
    np.testing.assert_array_equal(spectrum.counts, np.bincount(walked, minlength=m + 2))
    assert spectrum.queries == int(row_queries.sum())
    assert spectrum.certified == int(np.count_nonzero(row_queries == 0))


@settings(max_examples=150, deadline=None)
@given(
    net=nets(),
    rate=st.integers(1, 3),
    solver=st.sampled_from(SOLVERS),
    seed=st.integers(0, 2**16),
    batch_size=st.integers(1, 7),
)
def test_settled_equals_walk(net, rate, solver, seed, batch_size):
    _check(net, rate, solver, seed, batch_size)


@settings(max_examples=80, deadline=None)
@given(
    net=nets(),
    rate=st.integers(1, 3),
    solver=st.sampled_from(SOLVERS),
    seed=st.integers(0, 2**16),
    batch_size=st.integers(1, 7),
)
def test_full_store_stays_exact(net, rate, solver, seed, batch_size):
    """Past the cap, rows settle by queries alone, with the same values."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 2)
        _check(net, rate, solver, seed, batch_size)


@pytest.mark.parametrize("solver", SOLVERS)
def test_fig4_orders_equal_walk(solver):
    _check(fujita_fig4(), 2, solver, seed=3, batch_size=64, num_permutations=400)


@pytest.mark.parametrize("solver", SOLVERS)
def test_all_alive_infeasible_gives_one(solver):
    """``destruction_spectrum`` has no all-alive pre-check: the first
    kill is already infeasible, so every critical number is 1."""
    net = parallel_links(2, capacity=1, failure_probability=0.1)
    spectrum = destruction_spectrum(
        net, FlowDemand("s", "t", 3), num_permutations=50, seed=1, solver=solver
    )
    assert spectrum.counts[1] == 50
    assert spectrum.queries <= 50
    _check(net, 3, solver, seed=1, batch_size=8)


@pytest.mark.parametrize("solver", SOLVERS)
def test_zero_demand_never_fails(solver):
    """A zero demand is feasible with every link dead: ``B = m + 1``,
    settled by the empty support after one query."""
    net = fujita_fig4()
    m = net.num_links
    orders = sample_failure_orders(m, 40, np.random.default_rng(0))
    walked, walk_queries = critical_numbers(
        FeasibilityOracle(net, "s", "t", 0, solver=solver, incremental=True),
        orders,
        (1 << m) - 1,
    )
    settled, row_queries = _critical_numbers(
        FeasibilityOracle(net, "s", "t", 0, solver=solver, incremental=True),
        orders,
        _Certificates(net, 0),
    )
    np.testing.assert_array_equal(settled, walked)
    assert np.all(settled == m + 1)
    assert walk_queries == 40 * m
    assert int(row_queries.sum()) == 1
