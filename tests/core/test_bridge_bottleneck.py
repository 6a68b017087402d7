"""Unit tests for the Eq. (1) bridge case and the headline bottleneck
algorithm."""

import pytest

from repro.core import certificate
from repro.core.bottleneck import (
    bottleneck_reliability,
    pattern_probabilities,
    pattern_probability,
)
from repro.core.bridge import bridge_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.exceptions import DecompositionError, ReproValueError
from repro.graph.builders import (
    diamond,
    fujita_fig2_bridge,
    fujita_fig4,
    parallel_links,
    series_chain,
)
from repro.graph.generators import bottlenecked_network
from repro.graph.network import FlowNetwork
from repro.graph.transforms import split_on_cut


class TestPatternProbability:
    def test_sums_to_one(self):
        net = fujita_fig4()
        total = sum(pattern_probability(net, (0, 1), p) for p in range(4))
        assert total == pytest.approx(1.0)

    def test_all_alive(self):
        net = fujita_fig4(failure_probability=0.1)
        assert pattern_probability(net, (0, 1), 0b11) == pytest.approx(0.81)

    def test_all_dead(self):
        net = fujita_fig4(failure_probability=0.1)
        assert pattern_probability(net, (0, 1), 0) == pytest.approx(0.01)

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_vectorized_table_is_ulp_identical(self, seed):
        """The doubling table multiplies in the same left-to-right order
        as the scalar product, so every entry must be *bit*-equal — the
        Eq. (3) terms (and hence the prob_fsum total) are unchanged by
        the vectorization."""
        net = bottlenecked_network(
            source_side_links=4,
            sink_side_links=3,
            num_bottlenecks=3,
            demand=2,
            seed=seed,
        )
        cut = tuple(range(3))
        table = pattern_probabilities(net, cut)
        assert len(table) == 8
        for pattern in range(8):
            assert float(table[pattern]) == pattern_probability(net, cut, pattern)

    def test_vectorized_table_empty_cut(self):
        net = fujita_fig4()
        table = pattern_probabilities(net, ())
        assert list(table) == [1.0]

    @pytest.mark.parametrize("pattern", [-1, 4, 1 << 10])
    def test_pattern_out_of_range(self, pattern):
        net = fujita_fig4()
        with pytest.raises(ReproValueError, match="out of range for a 2-link cut"):
            pattern_probability(net, (0, 1), pattern)

    @pytest.mark.parametrize("index", [-1, 99])
    def test_cut_index_out_of_range(self, index):
        net = fujita_fig4()
        with pytest.raises(ReproValueError, match="out of range"):
            pattern_probability(net, (0, index), 0)
        with pytest.raises(ReproValueError, match="out of range"):
            pattern_probabilities(net, (0, index))

    def test_cut_index_not_an_integer(self):
        net = fujita_fig4()
        with pytest.raises(ReproValueError, match="not an integer"):
            pattern_probability(net, (0, "e1"), 0)
        with pytest.raises(ReproValueError, match="not an integer"):
            pattern_probabilities(net, (0.5,))


def _eq1(net, demand, bridge):
    """Eq. (1) from its three factors: naive on each ``split_on_cut``
    side (a side whose terminal is the bridge endpoint imposes no
    constraint) times the bridge's availability."""
    split = split_on_cut(net, demand.source, demand.sink, [bridge])

    def side(side_net, source, sink):
        if source == sink:
            return 1.0
        return naive_reliability(side_net, FlowDemand(source, sink, demand.rate)).value

    x, y = split.source_ports[0], split.sink_ports[0]
    r_s = side(split.source_side.network, demand.source, x)
    r_t = side(split.sink_side.network, y, demand.sink)
    return r_s * net.link(bridge).availability * r_t


#: (network factory, demand, bridge) — every bridge fixture below.
BRIDGE_FIXTURES = [
    (lambda: fujita_fig2_bridge(), FlowDemand("s", "t", 2), 8),
    (lambda: fujita_fig2_bridge(), FlowDemand("s", "t", 1), 8),
    (
        lambda: fujita_fig2_bridge(
            failure_probability=0.2, bridge_failure_probability=0.3
        ),
        FlowDemand("s", "t", 1),
        8,
    ),
    (lambda: fujita_fig2_bridge(bridge_capacity=1), FlowDemand("s", "t", 2), 8),
    (lambda: series_chain(3, capacity=1, failure_probability=0.1), FlowDemand("s", "t", 1), 1),
    (lambda: series_chain(1, capacity=2, failure_probability=0.25), FlowDemand("s", "t", 1), 0),
]


class TestBridgeReliability:
    def test_fig2_matches_naive(self):
        net = fujita_fig2_bridge()
        demand = FlowDemand("s", "t", 2)
        assert bridge_reliability(net, demand).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-12
        )

    def test_eq1_product_structure(self):
        net = fujita_fig2_bridge(failure_probability=0.2, bridge_failure_probability=0.3)
        demand = FlowDemand("s", "t", 1)
        result = bridge_reliability(net, demand)
        assert result.value == pytest.approx(_eq1(net, demand, 8), abs=1e-12)

    @pytest.mark.parametrize("factory, demand, bridge", BRIDGE_FIXTURES)
    def test_is_bottleneck_on_the_bridge(self, factory, demand, bridge):
        """Hex-identical to Eq. 3 on the one-link cut, and equal to naive."""
        net = factory()
        result = bridge_reliability(net, demand, bridge=bridge)
        reference = bottleneck_reliability(net, demand, cut=[bridge])
        assert result.value.hex() == reference.value.hex()
        assert result.method == "bridge"
        assert result.details["bridge"] == bridge
        assert result.details["alpha"] == reference.details["alpha"]
        assert result.value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-12
        )

    def test_capacity_below_demand_trivially_zero(self):
        net = fujita_fig2_bridge(bridge_capacity=1)
        result = bridge_reliability(net, FlowDemand("s", "t", 2))
        assert result.value == 0.0
        assert "capacity" in result.details["reason"]

    def test_auto_discovers_bridge(self):
        net = fujita_fig2_bridge()
        result = bridge_reliability(net, FlowDemand("s", "t", 1))
        assert result.details["bridge"] == 8

    def test_no_bridge_raises(self):
        with pytest.raises(DecompositionError):
            bridge_reliability(diamond(), FlowDemand("s", "t", 1))

    def test_chain_of_bridges(self):
        # every link is a bridge; decomposing at the middle one works
        net = series_chain(3, capacity=1, failure_probability=0.1)
        demand = FlowDemand("s", "t", 1)
        result = bridge_reliability(net, demand, bridge=1)
        assert result.value == pytest.approx(0.9**3, abs=1e-12)

    def test_terminal_on_bridge_endpoint(self):
        # s -> t single link: both sides are trivial
        net = series_chain(1, capacity=2, failure_probability=0.25)
        result = bridge_reliability(net, FlowDemand("s", "t", 1))
        assert result.value == pytest.approx(0.75, abs=1e-12)


class TestBottleneckReliability:
    def test_fig4_matches_naive(self):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        assert bottleneck_reliability(net, demand, cut=[0, 1]).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-12
        )

    def test_fig4_demand_one(self):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 1)
        assert bottleneck_reliability(net, demand).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-12
        )

    def test_fig4_demand_three(self):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 3)
        assert bottleneck_reliability(net, demand, cut=[0, 1]).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-12
        )

    def test_bridge_special_case(self):
        # k=1 goes through the same machinery and must match Eq. (1)
        net = fujita_fig2_bridge()
        demand = FlowDemand("s", "t", 2)
        assert bottleneck_reliability(net, demand, cut=[8]).value == pytest.approx(
            bridge_reliability(net, demand).value, abs=1e-12
        )

    def test_cut_discovery(self):
        net = fujita_fig4()
        result = bottleneck_reliability(net, FlowDemand("s", "t", 2))
        assert result.details["cut"] == (0, 1)

    def test_cut_capacity_below_demand(self):
        net = fujita_fig4()
        result = bottleneck_reliability(net, FlowDemand("s", "t", 5), cut=[0, 1])
        assert result.value == 0.0
        assert result.details["reason"] == "cut capacity below demand"

    def test_no_cut_raises(self):
        with pytest.raises(DecompositionError):
            bottleneck_reliability(parallel_links(5), FlowDemand("s", "t", 1))

    def test_invalid_cut_rejected(self):
        with pytest.raises(DecompositionError):
            bottleneck_reliability(fujita_fig4(), FlowDemand("s", "t", 2), cut=[0])

    def test_fig4_value(self):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        value = bottleneck_reliability(net, demand, cut=[0, 1]).value
        assert value == pytest.approx(0.8426357910000003, abs=1e-12)

    def test_flow_call_count_bound(self, monkeypatch):
        """Cost matches §III-C: past the certificate guard the max-flow
        fallback spends at most |D| (2^{|E_s|} + 2^{|E_t|}) solves."""
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        net = fujita_fig4()
        result = bottleneck_reliability(net, FlowDemand("s", "t", 2), cut=[0, 1])
        assert 0 < result.flow_calls <= 3 * (2**4 + 2**3)

    def test_fallback_does_not_change_value(self, monkeypatch):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        a = bottleneck_reliability(net, demand, cut=[0, 1])
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        b = bottleneck_reliability(net, demand, cut=[0, 1])
        assert a.value == pytest.approx(b.value, abs=1e-15)
        assert a.flow_calls == 0 < b.flow_calls

    @pytest.mark.parametrize("seed", range(6))
    def test_random_bottlenecked_instances(self, seed):
        net = bottlenecked_network(
            source_side_links=6, sink_side_links=6, num_bottlenecks=2, demand=2, seed=seed
        )
        demand = FlowDemand("s", "t", 2)
        assert bottleneck_reliability(net, demand).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-10
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_varying_bottleneck_count(self, k):
        net = bottlenecked_network(
            source_side_links=max(4, k + 2),
            sink_side_links=max(4, k + 2),
            num_bottlenecks=k,
            demand=2,
            seed=11,
        )
        demand = FlowDemand("s", "t", 2)
        assert bottleneck_reliability(net, demand, cut=list(range(k))).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-10
        )

    def test_shared_port_cut_links(self):
        """Two bottleneck links sharing the same source-side endpoint."""
        net = FlowNetwork()
        net.add_link("x", "y1", 1, 0.1)  # 0 (cut)
        net.add_link("x", "y2", 1, 0.1)  # 1 (cut)
        net.add_link("s", "x", 2, 0.1)  # 2
        net.add_link("y1", "t", 1, 0.1)  # 3
        net.add_link("y2", "t", 1, 0.1)  # 4
        demand = FlowDemand("s", "t", 2)
        assert bottleneck_reliability(net, demand, cut=[0, 1]).value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-12
        )

    def test_alpha_reported(self):
        result = bottleneck_reliability(fujita_fig4(), FlowDemand("s", "t", 2), cut=[0, 1])
        assert result.details["alpha"] == pytest.approx(4 / 9)
