"""Model boundaries, documented as executable facts.

The paper's algorithm models delivery as sub-streams pushed forward
across the bottleneck.  With *undirected* cut links of three or more
there exist networks where a max-flow routes through the far side and
back — crossing the cut backwards — which the assignment model does not
count.  This module pins the canonical counterexample: the cut is
refused (``check_forward_cut``), so the bottleneck engine raises instead
of returning the sub-stream model's value, and ``auto`` answers with a
whole-graph engine.

(The library's generators only produce forward cut links; README's
"Model notes" states the restriction; `split_on_cut` rejects *directed*
backward cut links outright.)
"""

import pytest

from repro.core.api import compute_reliability
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.exceptions import ReproValueError
from repro.flow.base import max_flow_value
from repro.graph.cuts import is_minimal_cut
from repro.graph.network import FlowNetwork
from repro.graph.transforms import split_on_cut


def back_routing_network() -> FlowNetwork:
    """The minimal back-routing construction.

    The only s-t route is
    ``s -> x1 =e1=> y1 -> y2 <=e2= x2 -> x3 =e3=> y3 -> t``:
    it crosses the (undirected) cut *backwards* on ``e2``, using the
    sink side as a shortcut between two source-side nodes.  No
    forward-only assignment of the single sub-stream is feasible.
    """
    net = FlowNetwork(name="back-routing")
    net.add_link("x1", "y1", 1, 0.1, directed=False)  # 0: e1 (cut)
    net.add_link("x2", "y2", 1, 0.1, directed=False)  # 1: e2 (cut)
    net.add_link("x3", "y3", 1, 0.1, directed=False)  # 2: e3 (cut)
    net.add_link("s", "x1", 1, 0.1)  # 3
    net.add_link("x2", "x3", 1, 0.1)  # 4
    net.add_link("x3", "x1", 1, 0.1)  # 5: G_s connector (forward-useless)
    net.add_link("y1", "y2", 1, 0.1)  # 6
    net.add_link("y3", "t", 1, 0.1)  # 7
    net.add_link("y3", "y2", 1, 0.1)  # 8: G_t connector (forward-useless)
    return net


class TestBackRoutingBoundary:
    def test_cut_is_minimal_but_refused(self):
        net = back_routing_network()
        assert is_minimal_cut(net, "s", "t", [0, 1, 2])
        with pytest.raises(ReproValueError, match="model note"):
            split_on_cut(net, "s", "t", [0, 1, 2])

    def test_true_max_flow_uses_back_routing(self):
        assert max_flow_value(back_routing_network(), "s", "t") == 1

    def test_bottleneck_refuses_where_the_models_diverge(self):
        """Naive (true max-flow semantics) sees positive reliability,
        where the forward-sub-stream model would see zero: the
        bottleneck engine refuses the cut instead of answering."""
        net = back_routing_network()
        demand = FlowDemand("s", "t", 1)
        assert naive_reliability(net, demand).value > 0.3  # 9 links at p = 0.1
        with pytest.raises(ReproValueError, match="model note"):
            bottleneck_reliability(net, demand, cut=[0, 1, 2])

    def test_auto_follows_flow_semantics(self):
        net = back_routing_network()
        demand = FlowDemand("s", "t", 1)
        auto = compute_reliability(net, demand=demand)
        assert auto.value == pytest.approx(
            naive_reliability(net, demand).value, abs=1e-12
        )

    def test_orienting_the_cut_forward_restores_agreement(self):
        """The same topology with forward-directed cut links has no
        back-route, so both semantics coincide (at zero: the only
        delivery route needed e2 backwards)."""
        net = back_routing_network()
        directed = FlowNetwork(name="forward-only")
        for link in net.links():
            directed.add_link(
                link.tail, link.head, link.capacity, link.failure_probability,
                directed=True,
            )
        demand = FlowDemand("s", "t", 1)
        assert max_flow_value(directed, "s", "t") == 0
        assert naive_reliability(directed, demand).value == 0.0
        assert bottleneck_reliability(directed, demand, cut=[0, 1, 2]).value == 0.0

    def test_directed_frontier_follows_flow_semantics(self):
        """The frontier methods implement reachability (flow) semantics,
        so they agree with naive, not with the sub-stream model."""
        from repro.core.frontier import directed_frontier_reliability

        net = back_routing_network()
        demand = FlowDemand("s", "t", 1)
        expected = naive_reliability(net, demand).value
        assert directed_frontier_reliability(net, demand).value == pytest.approx(
            expected, abs=1e-10
        )
