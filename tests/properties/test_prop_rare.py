"""Property suite for the rare-event engine.

Two contracts, pinned across seeds and topologies:

* **agreement** — on every small fixture, and on a strongly
  heterogeneous 30-link chained net, the exact value (naive /
  bottleneck / chain) lies inside the estimator's reported confidence
  interval, and homogeneous spectrum weights collapse to the
  Poisson-binomial failure tail;
* **replayability** — same seed + inputs reproduce the estimate
  bit-for-bit, value *and* details, under every accepted variant name.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bottleneck import bottleneck_reliability
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.core.rare import (
    destruction_spectrum,
    poisson_binomial,
    rare_reliability,
    sample_failure_orders,
)
from repro.graph.builders import (
    diamond,
    fujita_fig2_bridge,
    fujita_fig4,
    parallel_links,
)
from repro.graph.generators import chained_network

SEEDS = [0, 7, 23, 101]

#: Exact engines accumulate in a different order than the estimator's
#: analytic conditioning; degenerate (zero-width) intervals can differ
#: from the exact value by float rounding alone.
_ULP_SLACK = 1e-9

#: (name, network factory, demand) — every small fixture with an exact
#: answer cheap enough to recompute per case.
FIXTURES = [
    ("diamond", lambda: diamond(), FlowDemand("s", "t", 1)),
    ("fig2", lambda: fujita_fig2_bridge(), FlowDemand("s", "t", 1)),
    ("fig4", lambda: fujita_fig4(), FlowDemand("s", "t", 2)),
    ("par3", lambda: parallel_links(3, capacity=1, failure_probability=0.2),
     FlowDemand("s", "t", 1)),
]


@pytest.mark.parametrize("name,factory,demand", FIXTURES)
@pytest.mark.parametrize("seed", SEEDS)
def test_permutation_interval_contains_exact(name, factory, demand, seed):
    net = factory()
    exact = naive_reliability(net, demand).value
    est = rare_reliability(net, demand, num_samples=3000, seed=seed)
    assert est.low - _ULP_SLACK <= exact <= est.high + _ULP_SLACK, (
        name, seed, exact, est,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_permutation_interval_contains_exact_on_heterogeneous_chain(seed):
    """Link failure probabilities spread over four decades, 30 links:
    the exact value comes from the chain engine on the generator's cuts."""
    net = chained_network(
        [2, 4, 4, 4, 4, 2], cut_sizes=2, demand=2, seed=5, p_range=(1e-6, 1e-2)
    )
    demand = FlowDemand("s", "t", 2)
    exact = chain_reliability(net, demand, net._chain_cut_indices).value
    est = rare_reliability(net, demand, num_samples=4096, seed=seed)
    assert not est.details["homogeneous"]
    assert est.low <= exact <= est.high, (seed, exact, est)


@pytest.mark.parametrize("variant", ["auto", "permutation", "spectrum"])
@pytest.mark.parametrize("seed", SEEDS)
def test_replay_bit_identical(variant, seed):
    net = fujita_fig4()
    demand = FlowDemand("s", "t", 2)
    kwargs = dict(variant=variant, num_samples=500, seed=seed)
    a = rare_reliability(net, demand, **kwargs)
    b = rare_reliability(net, demand, **kwargs)
    assert a.value == b.value
    assert (a.low, a.high, a.num_samples, a.hits) == (b.low, b.high, b.num_samples, b.hits)
    assert a.details == b.details


def test_agreement_against_bottleneck_engine():
    """Cross-check against the paper's exact engine, not just naive."""
    net = fujita_fig4()
    demand = FlowDemand("s", "t", 2)
    exact = bottleneck_reliability(net, demand).value
    est = rare_reliability(net, demand, num_samples=4000, seed=13)
    assert est.low <= exact <= est.high


# -- hypothesis: spectrum invariants ---------------------------------------


@settings(max_examples=30, deadline=None)
@given(
    num_links=st.integers(min_value=1, max_value=10),
    batch=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_failure_orders_are_permutations(num_links, batch, seed):
    rng = np.random.default_rng(seed)
    orders = sample_failure_orders(num_links, batch, rng)
    assert orders.shape == (batch, num_links)
    expected = np.arange(num_links)
    assert np.array_equal(np.sort(orders, axis=1), np.tile(expected, (batch, 1)))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rate=st.integers(min_value=1, max_value=3),
)
def test_spectrum_sums_to_one_and_critical_monotone(seed, rate):
    """The spectrum is a probability distribution over critical numbers,
    and no critical number can undercut the min-cut cardinality."""
    net = fujita_fig4()
    demand = FlowDemand("s", "t", rate)
    spec = destruction_spectrum(net, demand, num_permutations=150, seed=seed)
    pmf = spec.pmf()
    assert pmf.sum() == pytest.approx(1.0)
    assert np.all(pmf >= 0.0)
    cdf = spec.cdf()
    assert np.all(np.diff(cdf) >= -1e-12)
    # Higher demand -> earlier deaths: the cdf for rate r dominates the
    # cdf for rate r' < r pointwise (same seed = same permutations).
    if rate > 1:
        easier = destruction_spectrum(
            net, FlowDemand("s", "t", rate - 1), num_permutations=150, seed=seed
        )
        assert np.all(spec.cdf() >= easier.cdf() - 1e-12)


@settings(max_examples=15, deadline=None)
@given(
    p=st.floats(min_value=1e-6, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_homogeneous_weights_equal_poisson_binomial_tail(p, seed):
    """With identical link probabilities the general IS-weight formula
    must agree with the Poisson-binomial failure-tail lookup — the two
    code paths compute the same conditional probability."""
    from repro.core.rare import (
        _failure_tail,
        _log_binomials,
        _spectrum_weights,
    )

    m = 6
    rng = np.random.default_rng(seed)
    orders = sample_failure_orders(m, 25, rng)
    criticals = rng.integers(1, m + 2, size=25)
    probs = np.full(m, p)
    tail = _failure_tail(probs)
    assert tail is not None
    fast = _spectrum_weights(
        orders, criticals, probs, failure_tail=tail, log_binom=_log_binomials(m)
    )
    general = _spectrum_weights(
        orders, criticals, probs, failure_tail=None, log_binom=_log_binomials(m)
    )
    np.testing.assert_allclose(general, fast, rtol=1e-9, atol=1e-300)


@settings(max_examples=20, deadline=None)
@given(
    probs=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8
    )
)
def test_failure_tail_matches_poisson_binomial(probs):
    """tail[b] = P(#failed >= b) derived from the alive-count DP."""
    from repro.core.rare import _failure_tail

    arr = np.full(len(probs), probs[0])  # homogeneous by construction
    tail = _failure_tail(arr)
    assert tail is not None
    alive = poisson_binomial(arr)
    m = len(arr)
    for b in range(m + 2):
        expected = float(alive[: m - b + 1].sum()) if b <= m else 0.0
        assert tail[b] == pytest.approx(expected, abs=1e-12)
    assert tail[0] == pytest.approx(1.0)
    assert np.all(np.diff(tail) <= 1e-12)  # monotone non-increasing


def test_exact_value_on_series_min_cut_one():
    """One critical link: the permutation estimate is *exact* for any
    sample count, because every order's weight integrates the same
    analytic tail (variance comes only from the spectrum, which is
    degenerate here)."""
    net = parallel_links(1, capacity=2, failure_probability=0.3)
    demand = FlowDemand("s", "t", 1)
    est = rare_reliability(net, demand, num_samples=50, seed=0)
    assert est.value == pytest.approx(0.7, abs=1e-12)
    assert est.details["relative_error"] == pytest.approx(0.0, abs=1e-12)
    assert math.isclose(est.details["unreliability"], 0.3, rel_tol=1e-12)
