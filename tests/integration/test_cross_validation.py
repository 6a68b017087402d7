"""Integration: every exact method must agree on shared instances, and
Monte-Carlo must converge to them.

This is the backbone of the reproduction: the paper's algorithm
(bottleneck), its Eq. (1) special case (bridge), the extension (chain),
and two independent exact baselines (naive enumeration, factoring) are
implemented with disjoint machinery — agreement across dozens of
randomized instances is strong evidence each one is right.
"""

import pytest

from repro.core.bottleneck import bottleneck_reliability
from repro.core.bridge import bridge_reliability
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.factoring import factoring_reliability
from repro.core.montecarlo import montecarlo_reliability
from repro.core.naive import naive_reliability
from repro.graph.builders import fujita_fig2_bridge, fujita_fig4
from repro.graph.cuts import find_bottleneck
from repro.graph.generators import bottlenecked_network, chained_network
from repro.graph.network import FlowNetwork
from tests.conftest import random_small_network

TOL = 1e-10


class TestExactMethodsAgree:
    @pytest.mark.parametrize("seed", range(12))
    def test_naive_vs_factoring_on_adversarial_networks(self, seed):
        net = random_small_network(seed)
        for rate in (1, 2):
            demand = FlowDemand("s", "t", rate)
            a = naive_reliability(net, demand).value
            b = factoring_reliability(net, demand).value
            assert a == pytest.approx(b, abs=TOL), f"seed={seed} rate={rate}"

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [1, 2])
    def test_bottleneck_vs_naive_vs_factoring(self, seed, k):
        net = bottlenecked_network(
            source_side_links=6,
            sink_side_links=5,
            num_bottlenecks=k,
            demand=2,
            seed=seed,
        )
        demand = FlowDemand("s", "t", 2)
        naive = naive_reliability(net, demand).value
        fact = factoring_reliability(net, demand).value
        bneck = bottleneck_reliability(net, demand, cut=list(range(k))).value
        chain = chain_reliability(net, demand, [list(range(k))]).value
        assert naive == pytest.approx(fact, abs=TOL)
        assert naive == pytest.approx(bneck, abs=TOL)
        assert chain.hex() == bneck.hex()

    @pytest.mark.parametrize("seed", range(6))
    def test_discovered_cut_matches_supplied_cut(self, seed):
        net = bottlenecked_network(
            source_side_links=6, sink_side_links=6, num_bottlenecks=2, demand=2, seed=seed
        )
        demand = FlowDemand("s", "t", 2)
        auto = bottleneck_reliability(net, demand).value
        manual = bottleneck_reliability(net, demand, cut=[0, 1]).value
        assert auto == pytest.approx(manual, abs=TOL)

    @pytest.mark.parametrize("seed", range(5))
    def test_chain_on_multi_segment_instances(self, seed):
        net = chained_network([3, 4, 3], cut_sizes=[1, 2], demand=1, seed=seed)
        demand = FlowDemand("s", "t", 1)
        naive = naive_reliability(net, demand).value
        chain = chain_reliability(net, demand, net._chain_cut_indices).value
        fact = factoring_reliability(net, demand).value
        assert chain == pytest.approx(naive, abs=TOL)
        assert fact == pytest.approx(naive, abs=TOL)

    def test_bridge_chain_bottleneck_trio_on_fig2(self):
        net = fujita_fig2_bridge(failure_probability=0.15, bridge_failure_probability=0.05)
        demand = FlowDemand("s", "t", 2)
        bneck = bottleneck_reliability(net, demand, cut=[8]).value
        chain = chain_reliability(net, demand, [[8]]).value
        values = [
            naive_reliability(net, demand).value,
            bridge_reliability(net, demand).value,
            bneck,
            factoring_reliability(net, demand).value,
        ]
        assert max(values) - min(values) < TOL
        assert chain.hex() == bneck.hex()

    @pytest.mark.parametrize("rate", [1, 2, 3, 4])
    def test_all_demands_on_fig4(self, rate):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", rate)
        naive = naive_reliability(net, demand).value
        bneck = bottleneck_reliability(net, demand, cut=[0, 1]).value
        assert bneck == pytest.approx(naive, abs=TOL)

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.6, 0.9])
    def test_extreme_failure_probabilities(self, p):
        net = fujita_fig4(failure_probability=p)
        demand = FlowDemand("s", "t", 2)
        naive = naive_reliability(net, demand).value
        bneck = bottleneck_reliability(net, demand, cut=[0, 1]).value
        assert bneck == pytest.approx(naive, abs=TOL)

    def test_heterogeneous_probabilities(self):
        net = fujita_fig4()
        probs = [0.05, 0.35, 0.1, 0.2, 0.3, 0.15, 0.25, 0.4, 0.01]
        net = net.with_failure_probabilities(probs)
        demand = FlowDemand("s", "t", 2)
        assert bottleneck_reliability(net, demand, cut=[0, 1]).value == pytest.approx(
            naive_reliability(net, demand).value, abs=TOL
        )


class TestMonteCarloConvergence:
    @pytest.mark.parametrize("seed", range(3))
    def test_interval_covers_exact(self, seed):
        net = bottlenecked_network(
            source_side_links=5, sink_side_links=5, num_bottlenecks=2, demand=2, seed=seed
        )
        demand = FlowDemand("s", "t", 2)
        exact = naive_reliability(net, demand).value
        est = montecarlo_reliability(net, demand, num_samples=30_000, seed=seed, confidence=0.99)
        assert est.contains(exact)

    def test_error_shrinks_with_samples(self):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        exact = naive_reliability(net, demand).value
        errors = []
        for n in (200, 2000, 20000):
            est = montecarlo_reliability(net, demand, num_samples=n, seed=1)
            errors.append(est.half_width)
        assert errors[0] > errors[1] > errors[2]
        est = montecarlo_reliability(net, demand, num_samples=20000, seed=1)
        assert abs(est.value - exact) < 0.02


class TestAutoDiscovery:
    @pytest.mark.parametrize("seed", range(4))
    def test_find_bottleneck_yields_valid_algorithm_input(self, seed):
        net = bottlenecked_network(
            source_side_links=7, sink_side_links=5, num_bottlenecks=2, demand=2, seed=seed
        )
        split = find_bottleneck(net, "s", "t")
        assert split is not None
        demand = FlowDemand("s", "t", 2)
        value = bottleneck_reliability(net, demand, cut=split.cut).value
        assert value == pytest.approx(naive_reliability(net, demand).value, abs=TOL)


class TestUnitDemandAgreement:
    """For d = 1 the library has five independent exact engines: naive
    enumeration, factoring, bottleneck (when a cut exists), and the
    directed and undirected frontiers.  One instance agreeing across
    all of them is the strongest correctness statement the suite
    makes; the undirected frontier runs on the same net with every
    link made undirected, against naive on that net."""

    @pytest.mark.parametrize("seed", range(8))
    def test_all_engines_agree(self, seed):
        from repro.core.frontier import (
            directed_frontier_reliability,
            frontier_reliability,
        )

        net = random_small_network(seed)
        demand = FlowDemand("s", "t", 1)
        reference = naive_reliability(net, demand).value
        values = {
            "factoring": factoring_reliability(net, demand).value,
            "frontier-directed": directed_frontier_reliability(net, demand).value,
        }
        split = find_bottleneck(net, "s", "t", max_size=2)
        if split is not None:
            try:
                values["bottleneck"] = bottleneck_reliability(
                    net, demand, cut=split.cut
                ).value
            except Exception:
                pass
        for name, value in values.items():
            assert value == pytest.approx(reference, abs=TOL), f"{name} seed={seed}"

        undirected = FlowNetwork(name=f"{net.name}-undirected")
        undirected.add_nodes(net.nodes())
        for link in net.links():
            undirected.add_link(
                link.tail,
                link.head,
                link.capacity,
                link.failure_probability,
                directed=False,
            )
        reference = naive_reliability(undirected, demand).value
        for name, engine in (
            ("frontier", frontier_reliability),
            ("frontier-directed", directed_frontier_reliability),
        ):
            value = engine(undirected, demand).value
            assert value == pytest.approx(reference, abs=TOL), f"{name} seed={seed}"
