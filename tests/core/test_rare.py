"""Unit tests for the rare-event estimation engine (`repro.core.rare`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.api import compute_reliability
from repro.core.demand import FlowDemand
from repro.core.montecarlo import montecarlo_reliability, z_quantile
from repro.core.naive import naive_reliability
from repro.core.rare import (
    STREAM_NAMES,
    destruction_spectrum,
    poisson_binomial,
    rare_reliability,
    sample_failure_orders,
    spawn_streams,
    validate_probabilities,
)
from repro.core.result import EstimateResult
from repro.exceptions import EstimationError, ReproValueError
from repro.graph.builders import fujita_fig4, parallel_links
from repro.graph.generators import chained_network
from repro.graph.network import FlowNetwork
from repro.probability.bitset import popcount
from repro.probability.enumeration import configuration_probabilities


class TestPoissonBinomial:
    def test_sums_to_one(self):
        dist = poisson_binomial([0.1, 0.2, 0.3, 0.4])
        assert dist.sum() == pytest.approx(1.0)

    def test_uniform_half_is_binomial(self):
        dist = poisson_binomial([0.5] * 4)
        assert dist.tolist() == pytest.approx([1 / 16, 4 / 16, 6 / 16, 4 / 16, 1 / 16])

    def test_matches_enumeration(self):
        probs = [0.1, 0.35, 0.6]
        table = configuration_probabilities(probs)
        dist = poisson_binomial(probs)
        for j in range(4):
            expected = sum(table[m] for m in range(8) if popcount(m) == j)
            assert dist[j] == pytest.approx(expected)

    def test_empty(self):
        assert poisson_binomial([]).tolist() == [1.0]


class TestValidateProbabilities:
    def test_passes_through_valid_vectors(self):
        out = validate_probabilities([0.0, 0.5, 1.0])
        assert out.dtype == np.float64
        assert out.tolist() == [0.0, 0.5, 1.0]
        assert validate_probabilities([]).shape == (0,)

    @pytest.mark.parametrize("bad", [[1.5], [-0.1], [0.2, float("nan")], [2.0, 0.5]])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(ReproValueError, match=r"outside \[0, 1\]"):
            validate_probabilities(bad)

    def test_rejects_non_vector(self):
        with pytest.raises(ReproValueError, match="one-dimensional"):
            validate_probabilities([[0.1, 0.2]])

    def test_poisson_binomial_shares_the_gate(self):
        with pytest.raises(ReproValueError):
            poisson_binomial([0.1, 1.0001])


class TestSpawnStreams:
    def test_streams_named_and_deterministic(self):
        streams, entropy = spawn_streams(42)
        again, entropy2 = spawn_streams(42)
        assert tuple(streams) == STREAM_NAMES
        assert entropy == entropy2 == 42
        for name in STREAM_NAMES:
            assert streams[name].random() == again[name].random()

    def test_streams_are_independent(self):
        streams, _ = spawn_streams(0)
        draws = {name: streams[name].random() for name in STREAM_NAMES}
        assert len(set(draws.values())) == len(STREAM_NAMES)

    def test_none_seed_records_replayable_entropy(self):
        streams, entropy = spawn_streams(None)
        replay, _ = spawn_streams(entropy)
        name = STREAM_NAMES[0]
        assert streams[name].random() == replay[name].random()


class TestFailureOrders:
    def test_shape_and_permutation(self):
        rng = np.random.default_rng(3)
        orders = sample_failure_orders(7, 50, rng)
        assert orders.shape == (50, 7)
        expected = np.arange(7)
        for row in np.sort(orders, axis=1):
            assert np.array_equal(row, expected)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tied_clocks_order_as_the_stable_sort(self, seed):
        """Clocks on a coarse grid tie in some rows and not in others;
        every order must equal the stable argsort's."""

        class CoarseClocks:
            def __init__(self):
                self.clocks = None

            def standard_exponential(self, shape):
                self.clocks = np.random.default_rng(seed).integers(0, 24, shape) / 4.0
                return self.clocks.copy()

        rng = CoarseClocks()
        orders = sample_failure_orders(5, 300, rng)
        ranked = np.sort(rng.clocks, axis=1)
        tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        assert tied.any() and not tied.all()
        assert np.array_equal(orders, np.argsort(rng.clocks, axis=1, kind="stable"))

    def test_untied_clocks_order_as_before(self):
        orders = sample_failure_orders(30, 2048, np.random.default_rng(5))
        clocks = np.random.default_rng(5).standard_exponential((2048, 30))
        assert np.array_equal(orders, np.argsort(clocks, axis=1, kind="stable"))

    def test_rejects_degenerate_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(EstimationError):
            sample_failure_orders(0, 10, rng)
        with pytest.raises(EstimationError):
            sample_failure_orders(5, 0, rng)


class TestDestructionSpectrum:
    def test_pmf_sums_to_one_and_cdf_monotone(self, fig4_net):
        spec = destruction_spectrum(
            fig4_net, FlowDemand("s", "t", 2), num_permutations=400, seed=11
        )
        assert spec.pmf().sum() == pytest.approx(1.0)
        cdf = spec.cdf()
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[-1] == pytest.approx(1.0)

    def test_spectrum_is_probability_free(self, fig4_net):
        """The spectrum is combinatorial: changing link probabilities
        must not change it (same topology, same seed)."""
        demand = FlowDemand("s", "t", 2)
        a = destruction_spectrum(fig4_net, demand, num_permutations=200, seed=5)
        hi = fujita_fig4(failure_probability=1e-5)
        b = destruction_spectrum(hi, demand, num_permutations=200, seed=5)
        assert np.array_equal(a.counts, b.counts)

    def test_critical_numbers_at_least_min_cut(self):
        """parallel_links(3) with demand 1 dies only after all 3 links
        fail: every critical number is exactly 3."""
        net = parallel_links(3, capacity=1, failure_probability=0.3)
        spec = destruction_spectrum(
            net, FlowDemand("s", "t", 1), num_permutations=100, seed=2
        )
        assert spec.counts[3] == 100
        assert spec.counts[:3].sum() == 0


class TestPermutationEstimator:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_matches_exact_within_interval(self, fig4_net, seed):
        demand = FlowDemand("s", "t", 2)
        exact = naive_reliability(fig4_net, demand).value
        est = rare_reliability(
            fig4_net, demand, num_samples=4000, seed=seed
        )
        assert est.low <= exact <= est.high
        assert est.method == "rare-permutation"

    def test_heterogeneous_probabilities_unbiased(self):
        """The IS-weighted estimator stays correct when links are not
        identically distributed (the PB-tail fast path must not fire)."""
        net = FlowNetwork()
        net.add_link("s", "a", 1, 0.05)
        net.add_link("s", "b", 1, 0.2)
        net.add_link("a", "t", 1, 0.1)
        net.add_link("b", "t", 1, 0.3)
        demand = FlowDemand("s", "t", 1)
        exact = naive_reliability(net, demand).value
        est = rare_reliability(net, demand, num_samples=6000, seed=1)
        assert est.details["homogeneous"] is False
        assert est.low <= exact <= est.high

    def test_five_nines_relative_error(self):
        """The headline: bounded relative error where crude MC sees
        nothing at all."""
        net = fujita_fig4(failure_probability=1e-5)
        demand = FlowDemand("s", "t", 2)
        exact_u = 1.0 - naive_reliability(net, demand).value
        est = rare_reliability(net, demand, num_samples=4000, seed=7)
        u = est.details["unreliability"]
        assert abs(u - exact_u) / exact_u < 0.10
        assert est.details["relative_error"] < 0.10

    def test_replay_is_bit_identical(self, fig4_net):
        demand = FlowDemand("s", "t", 2)
        a = rare_reliability(fig4_net, demand, num_samples=1500, seed=9)
        b = rare_reliability(fig4_net, demand, num_samples=1500, seed=9)
        assert a.value == b.value
        assert a.low == b.low and a.high == b.high
        assert a.details == b.details

    def test_target_relative_error_stops_early(self, fig4_net):
        demand = FlowDemand("s", "t", 2)
        est = rare_reliability(
            fig4_net,
            demand,
            num_samples=50_000,
            target_relative_error=0.25,
            batch_size=512,
            seed=3,
        )
        assert est.details["stopped_early"] is True
        assert est.num_samples < 50_000
        assert est.details["relative_error"] <= 0.25

    def test_infeasible_demand_short_circuits(self):
        net = parallel_links(2, capacity=1, failure_probability=0.1)
        est = rare_reliability(
            net, FlowDemand("s", "t", 3), num_samples=100, seed=0
        )
        assert est.value == 0.0
        assert est.details["degenerate"] == "infeasible-at-full-capacity"

    def test_input_validation(self, fig4_net):
        demand = FlowDemand("s", "t", 2)
        with pytest.raises(EstimationError):
            rare_reliability(fig4_net, demand, num_samples=0)
        with pytest.raises(EstimationError):
            rare_reliability(
                fig4_net, demand, target_relative_error=-0.1
            )
        with pytest.raises(EstimationError):
            rare_reliability(fig4_net, demand, batch_size=0)


def _suite_chained_net():
    """The estimate-rare workload's net: six segments joined by five
    2-link cuts, every link of capacity 2 at p = 1e-5 (30 links)."""
    net = FlowNetwork(name="chained-6")
    for j in range(5):
        for i in range(2):
            net.add_link(f"o{j}_{i}", f"n{j}_{i}", 2, 1e-5)
    for seg in range(6):
        entry = ["s"] if seg == 0 else [f"n{seg - 1}_{i}" for i in range(2)]
        exits = ["t"] if seg == 5 else [f"o{seg}_{i}" for i in range(2)]
        for a in entry:
            for b in exits:
                net.add_link(a, b, 2, 1e-5)
    return net


class TestGoldenPins:
    """Values taken from the one-kill-at-a-time walk, before critical
    numbers were settled by learned certificates; only the query and
    solve counts may differ."""

    def test_fig4(self, fig4_net):
        est = rare_reliability(
            fig4_net, FlowDemand("s", "t", 2), num_samples=4000, seed=0
        )
        assert est.value.hex() == "0x1.af44536aeb7fdp-1"
        assert est.low.hex() == "0x1.ac61e4af0f660p-1"
        assert est.high.hex() == "0x1.b226c226c799ap-1"
        assert est.details["spectrum_counts"] == [
            0, 438, 1247, 1421, 752, 117, 25, 0, 0, 0, 0
        ]

    def test_chained_net_at_the_suite_seed(self):
        net = _suite_chained_net()
        assert net.num_links == 30
        seed = int(np.random.SeedSequence(0).generate_state(1)[0])
        est = rare_reliability(
            net,
            FlowDemand("s", "t", 2),
            variant="permutation",
            target_relative_error=0.2,
            num_samples=65536,
            seed=seed,
        )
        assert est.details["unreliability"].hex() == "0x1.29c5854bc8278p-30"
        assert est.num_samples == 4096
        assert est.details["batches"] == 2
        assert est.details["stopped_early"] is True
        assert est.value.hex() == "0x1.fffffff6b1d3dp-1"
        assert est.low.hex() == "0x1.fffffff4e95e9p-1"
        assert est.high.hex() == "0x1.fffffff87a492p-1"
        # Settled from certificates: far fewer queries than the walk's
        # ~28,000 at this seed.
        assert est.details["spectrum_solves"] < 1000

    def test_ci_smoke_net_query_ceiling(self):
        """CI's rare-smoke net: certificates settle 4096 orders with
        231 queries, the count since ``certify`` returns the smaller of
        its two residual cuts (316 with the source-shore cut alone)."""
        net = chained_network(
            [2, 4, 4, 4, 4, 2], cut_sizes=2, demand=2, seed=5, p_range=(1e-5, 1e-5)
        )
        est = rare_reliability(net, FlowDemand("s", "t", 2), num_samples=4096, seed=0)
        assert est.value.hex() == "0x1.fffffff76c9b3p-1"
        assert est.details["spectrum_solves"] <= 231


class TestFrontDoor:
    def test_variant_aliases(self, fig4_net):
        demand = FlowDemand("s", "t", 2)
        perm = rare_reliability(fig4_net, demand, num_samples=300, seed=1)
        spec = rare_reliability(
            fig4_net, demand, variant="spectrum", num_samples=300, seed=1
        )
        named = rare_reliability(
            fig4_net, demand, variant="permutation", num_samples=300, seed=1
        )
        assert perm.value == spec.value == named.value

    def test_unknown_variant_rejected(self, fig4_net):
        with pytest.raises(EstimationError, match="variant"):
            rare_reliability(fig4_net, FlowDemand("s", "t", 2), variant="quantum")

    def test_too_many_links_rejected(self):
        net = parallel_links(64, capacity=1, failure_probability=0.1)
        with pytest.raises(EstimationError, match="at most 63"):
            rare_reliability(net, FlowDemand("s", "t", 1), num_samples=10)


class TestApiDispatch:
    def test_explicit_method_rare(self, fig4_net):
        result = compute_reliability(
            fig4_net, "s", "t", 2, method="rare", num_samples=500, seed=3
        )
        assert isinstance(result, EstimateResult)
        assert result.method == "rare-permutation"

    def test_rare_listed_in_available_methods(self):
        from repro.core.api import available_methods

        assert "rare" in available_methods()

    def test_auto_escalates_to_rare_beyond_enumeration_guard(self):
        """30 parallel links: no admissible bottleneck cut, past the
        naive guard — auto must estimate rather than grind factoring."""
        net = parallel_links(30, capacity=1, failure_probability=0.05)
        result = compute_reliability(net, "s", "t", 1, num_samples=400, seed=5)
        assert isinstance(result, EstimateResult)
        assert result.method == "rare-permutation"
        # All 30 links must fail: U = 0.05^30 ~ 1e-39; the estimate is
        # exact here because every permutation has critical number 30.
        assert result.details["unreliability"] == pytest.approx(0.05**30, rel=1e-9)

    def test_auto_still_exact_on_small_networks(self, fig4_net):
        result = compute_reliability(fig4_net, "s", "t", 2)
        assert result.method != "rare-permutation"


class TestMonteCarloDedup:
    def test_hit_count_identical_to_per_sample_loop(self, fig4_net):
        """The np.unique dedup is pure mechanics: same masks, same
        verdicts, same Wilson interval for a fixed seed."""
        from repro.core.feasibility import FeasibilityOracle
        from repro.probability.sampling import sample_alive_masks

        demand = FlowDemand("s", "t", 2)
        est = montecarlo_reliability(fig4_net, demand, num_samples=3000, seed=17)

        rng = np.random.default_rng(17)
        oracle = FeasibilityOracle(fig4_net, "s", "t", 2)
        cache: dict[int, bool] = {}
        hits = 0
        drawn = 0
        while drawn < 3000:
            batch = min(4096, 3000 - drawn)
            masks = sample_alive_masks(fig4_net, batch, rng=rng)
            for mask_np in masks:  # the reference per-sample loop
                mask = int(mask_np)
                verdict = cache.get(mask)
                if verdict is None:
                    verdict = oracle.feasible(mask)
                    cache[mask] = verdict
                if verdict:
                    hits += 1
            drawn += batch
        assert est.hits == hits
        assert est.details["distinct_configurations"] == len(cache)

    def test_solves_bounded_by_distinct_masks(self, fig4_net):
        demand = FlowDemand("s", "t", 2)
        est = montecarlo_reliability(fig4_net, demand, num_samples=5000, seed=1)
        assert est.details["flow_calls"] == est.details["distinct_configurations"]
        assert est.details["flow_calls"] < 5000


class TestZQuantile:
    def test_known_value(self):
        assert z_quantile(0.95) == pytest.approx(1.959963984540054)

    def test_unsupported_confidence(self):
        with pytest.raises(EstimationError, match="unsupported confidence"):
            z_quantile(0.5)


class TestObservability:
    def test_counters_and_spans_recorded(self, fig4_net):
        from repro.obs import record

        demand = FlowDemand("s", "t", 2)
        with record() as rec:
            est = rare_reliability(
                fig4_net, demand, num_samples=600, seed=0
            )
        totals = rec.counter_totals()
        assert totals["mc_samples"] == 600
        assert totals["samples_vectorized"] == 600
        assert totals["spectrum_solves"] == est.details["spectrum_solves"]
        assert any(child.name == "rare.spectrum" for child in rec.root.children)

    def test_flow_calls_match_oracle_accounting(self, fig4_net):
        from repro.obs import record

        demand = FlowDemand("s", "t", 2)
        with record() as rec:
            est = rare_reliability(fig4_net, demand, num_samples=400, seed=0)
        # The repairing oracle counts repair-engine solver invocations,
        # which can exceed or undercut the query count; every one of them
        # is a flow_solves count.
        assert est.details["flow_calls"] == rec.counter_totals()["flow_solves"]

    def test_certified_and_queried_orders_sum_to_drawn(self, fig4_net, monkeypatch):
        from repro.core import rare
        from repro.core.feasibility import FeasibilityOracle
        from repro.obs import record

        demand = FlowDemand("s", "t", 2)
        queried_rows = []
        settle = rare._critical_numbers

        def counting(oracle, orders, certificates):
            criticals, row_queries = settle(oracle, orders, certificates)
            queried_rows.append(int(np.count_nonzero(row_queries)))
            return criticals, row_queries

        certify_calls = []
        certify = FeasibilityOracle.certify

        def counting_certify(oracle, alive):
            certify_calls.append(alive)
            return certify(oracle, alive)

        monkeypatch.setattr(rare, "_critical_numbers", counting)
        monkeypatch.setattr(FeasibilityOracle, "certify", counting_certify)
        with record() as rec:
            est = rare_reliability(
                fig4_net, demand, num_samples=1500, seed=4, batch_size=512
            )
        totals = rec.counter_totals()
        assert totals["spectrum_certified"] == est.details["spectrum_certified"]
        assert est.details["spectrum_certified"] + sum(queried_rows) == est.num_samples
        assert totals["spectrum_solves"] == est.details["spectrum_solves"]
        assert est.details["spectrum_solves"] == len(certify_calls)
        assert est.details["spectrum_certified"] > 0
