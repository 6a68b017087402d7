"""Unit tests for the cheap bounds and the high-level API."""

import pytest

from repro import obs
from repro.core import sweep
from repro.core.api import available_methods, compute_reliability
from repro.core.bounds import cut_upper_bound, reliability_bounds, route_lower_bound
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.core.result import EstimateResult, ReliabilityResult
from repro.exceptions import DecompositionError, ReproError, ReproValueError
from repro.graph.builders import (
    diamond,
    fujita_fig2_bridge,
    fujita_fig4,
    parallel_links,
    series_chain,
)
from repro.graph.generators import bottlenecked_network, random_network
from repro.graph.network import FlowNetwork


class TestCutUpperBound:
    def test_series_chain_exact(self):
        # every link is a cut; the bound equals the true reliability
        net = series_chain(3, capacity=1, failure_probability=0.1)
        demand = FlowDemand("s", "t", 1)
        assert cut_upper_bound(net, demand) == pytest.approx(0.9)

    def test_parallel_exact(self):
        net = parallel_links(3, 1, 0.1)
        demand = FlowDemand("s", "t", 2)
        exact = naive_reliability(net, demand).value
        assert cut_upper_bound(net, demand, max_cut_size=3) == pytest.approx(exact)

    def test_is_upper_bound(self):
        for seed in range(5):
            net = random_network(6, 10, seed=seed)
            demand = FlowDemand("s", "t", 1)
            exact = naive_reliability(net, demand).value
            assert cut_upper_bound(net, demand) >= exact - 1e-12

    def test_disconnected_zero(self):
        net = FlowNetwork()
        net.add_node("s")
        net.add_node("t")
        assert cut_upper_bound(net, FlowDemand("s", "t", 1)) == 0.0

    def test_infeasible_demand_zero(self):
        assert cut_upper_bound(diamond(), FlowDemand("s", "t", 5)) == 0.0


class TestRouteLowerBound:
    def test_single_path(self):
        net = series_chain(3, capacity=1, failure_probability=0.1)
        demand = FlowDemand("s", "t", 1)
        assert route_lower_bound(net, demand) == pytest.approx(0.9**3)

    def test_diamond_two_families(self):
        demand = FlowDemand("s", "t", 1)
        bound = route_lower_bound(diamond(), demand, max_families=2)
        # both disjoint 2-hop paths found: IE gives the exact value here
        assert bound == pytest.approx(1 - (1 - 0.81) ** 2)

    def test_is_lower_bound(self):
        for seed in range(5):
            net = random_network(6, 10, seed=seed)
            demand = FlowDemand("s", "t", 1)
            exact = naive_reliability(net, demand).value
            assert route_lower_bound(net, demand) <= exact + 1e-12

    def test_infeasible_zero(self):
        assert route_lower_bound(diamond(), FlowDemand("s", "t", 5)) == 0.0

    def test_more_families_never_worse(self):
        demand = FlowDemand("s", "t", 1)
        one = route_lower_bound(diamond(), demand, max_families=1)
        two = route_lower_bound(diamond(), demand, max_families=2)
        assert two >= one - 1e-12

    def test_rejects_zero_families(self):
        with pytest.raises(ReproError):
            route_lower_bound(diamond(), FlowDemand("s", "t", 1), max_families=0)


class TestReliabilityBounds:
    @pytest.mark.parametrize("seed", range(5))
    def test_brackets_exact(self, seed):
        net = bottlenecked_network(
            source_side_links=5, sink_side_links=5, num_bottlenecks=2, demand=2, seed=seed
        )
        demand = FlowDemand("s", "t", 2)
        low, high = reliability_bounds(net, demand)
        exact = naive_reliability(net, demand).value
        assert low - 1e-10 <= exact <= high + 1e-10


class TestComputeReliability:
    def test_positional_triple(self):
        result = compute_reliability(diamond(), "s", "t", 1)
        assert isinstance(result, ReliabilityResult)

    def test_demand_keyword(self):
        result = compute_reliability(diamond(), demand=FlowDemand("s", "t", 1))
        assert 0 < result.value < 1

    def test_both_forms_rejected(self):
        with pytest.raises(ReproError):
            compute_reliability(diamond(), "s", "t", 1, demand=FlowDemand("s", "t", 1))

    def test_neither_form_rejected(self):
        with pytest.raises(ReproError):
            compute_reliability(diamond())

    def test_explicit_methods_agree(self):
        net = fujita_fig4()
        values = {}
        for method in ("naive", "factoring"):
            values[method] = compute_reliability(net, "s", "t", 2, method=method).value
        values["bottleneck"] = compute_reliability(
            net, "s", "t", 2, method="bottleneck", cut=[0, 1]
        ).value
        values["chain"] = compute_reliability(
            net, "s", "t", 2, method="chain", cuts=[[0, 1]]
        ).value
        assert len({round(v, 10) for v in values.values()}) == 1

    def test_bridge_method(self):
        result = compute_reliability(fujita_fig2_bridge(), "s", "t", 2, method="bridge")
        assert result.method == "bridge"

    def test_montecarlo_method(self):
        result = compute_reliability(
            diamond(), "s", "t", 1, method="montecarlo", num_samples=500, seed=0
        )
        assert isinstance(result, EstimateResult)

    def test_chain_requires_cuts(self):
        with pytest.raises(ReproValueError, match="requires cuts"):
            compute_reliability(fujita_fig4(), "s", "t", 2, method="chain")

    def test_unknown_method(self):
        with pytest.raises(ReproError):
            compute_reliability(diamond(), "s", "t", 1, method="magic")

    @pytest.mark.parametrize(
        "method, options",
        [("series-parallel", {}), ("minpaths", {}), ("rare", {"variant": "splitting"})],
    )
    def test_removed_engines_raise_with_pointer(self, method, options):
        assert method == "rare" or method not in available_methods()
        with pytest.raises(ReproValueError, match='"Removed engines"'):
            compute_reliability(diamond(), "s", "t", 1, method=method, **options)

    def test_auto_prefers_bottleneck(self):
        net = fujita_fig2_bridge()
        assert compute_reliability(net, "s", "t", 2).method == "bottleneck"

    def test_auto_falls_back_without_cut(self):
        result = compute_reliability(parallel_links(5), "s", "t", 2)
        assert result.method in ("naive", "factoring")
        exact = naive_reliability(parallel_links(5), FlowDemand("s", "t", 2)).value
        assert result.value == pytest.approx(exact)

    def test_auto_propagates_cut_search_bugs(self, monkeypatch):
        """A programming error in the cut search used to be swallowed and
        the query silently answered by a whole-graph engine."""

        def broken(*args, **kwargs):
            raise RuntimeError("cut search bug")

        monkeypatch.setattr(sweep, "find_bottleneck", broken)
        with pytest.raises(RuntimeError, match="cut search bug"):
            compute_reliability(fujita_fig4(), "s", "t", 2)

    def test_auto_falls_back_on_decomposition_error(self, monkeypatch):
        def no_split(*args, **kwargs):
            raise DecompositionError("no admissible cut")

        monkeypatch.setattr(sweep, "find_bottleneck", no_split)
        result = compute_reliability(fujita_fig4(), "s", "t", 2)
        assert result.method == "naive"
        exact = naive_reliability(fujita_fig4(), FlowDemand("s", "t", 2)).value
        assert result.value == pytest.approx(exact)

    def test_auto_runs_the_cut_search_once(self, monkeypatch):
        """``auto`` runs the paper's algorithm on the split its one
        search found, without verifying that cut a second time."""
        calls = {"find": 0, "verify": 0}
        find, verify = sweep.find_bottleneck, sweep.verify_bottleneck

        def spy_find(*args, **kwargs):
            calls["find"] += 1
            return find(*args, **kwargs)

        def spy_verify(*args, **kwargs):
            calls["verify"] += 1
            return verify(*args, **kwargs)

        monkeypatch.setattr(sweep, "find_bottleneck", spy_find)
        monkeypatch.setattr(sweep, "verify_bottleneck", spy_verify)
        for net in (fujita_fig4(), fujita_fig2_bridge()):
            calls.update(find=0, verify=0)
            result = compute_reliability(net, "s", "t", 2)
            assert result.method == "bottleneck"
            assert calls == {"find": 1, "verify": 0}

    def test_auto_traces_one_cut_search(self):
        with obs.record() as rec:
            compute_reliability(fujita_fig4(), "s", "t", 2)
        names = [span.name for span in rec.root.iter_spans()]
        assert names.count("bottleneck.cut_search") == 1

    def test_auto_factoring_for_larger_cutless_networks(self):
        net = parallel_links(14, 1, 0.1)
        result = compute_reliability(net, "s", "t", 2)
        assert result.method == "factoring"

    def test_auto_rejects_options_it_would_drop(self):
        """``auto`` used to ignore anything it did not forward; a typo
        such as ``strategy="bogus"`` silently returned a value."""
        with pytest.raises(ReproValueError, match="cut, prune, strategy"):
            compute_reliability(
                fujita_fig4(), "s", "t", 2, strategy="bogus", prune="x", cut=[0]
            )

    @pytest.mark.parametrize("option", ["workers", "block_bits", "screen", "incremental"])
    def test_auto_rejects_removed_build_options(self, option):
        with pytest.raises(ReproValueError, match=option):
            compute_reliability(fujita_fig4(), "s", "t", 2, **{option: 2})

    def test_auto_accepts_its_forwarded_options(self):
        result = compute_reliability(
            fujita_fig4(),
            "s",
            "t",
            2,
            solver="dinic",
            cache=None,
            max_cut_size=2,
            seed=0,
            num_samples=None,
        )
        assert f"{result.value:.10f}" == "0.8426357910"

    def test_available_methods(self):
        assert "bottleneck" in available_methods()
        assert "auto" in available_methods()
        assert "naive-parallel" not in available_methods()

    def test_float_protocol(self):
        assert 0 < float(compute_reliability(diamond(), "s", "t", 1)) < 1
