"""Property: cut-certificate masks equal the max-flow kernel's masks.

The certificate kernel (:mod:`repro.core.certificate`) answers every
§III-C realization question by max-flow/min-cut duality instead of a
solve.  These tests pin it bit-for-bit against the Dinic kernel on
generated sides covering every shape the side builder accepts:
directed, undirected and mixed links; parallel and antiparallel links;
self-loops and zero-capacity links; repeated ports and a port equal to
the terminal; both roles; and demands past 255, where the table widens
from ``uint8``.  A side over a guard falls back to the max-flow kernel
and must agree too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import certificate
from repro.core.arrays import build_side_array
from repro.core.certificate import certificate_masks, side_cut_family
from repro.graph.network import FlowNetwork
from repro.graph.transforms import SubnetworkView


def _compositions(total, parts):
    """Every tuple of ``parts`` non-negative ints summing to ``total``."""
    if parts == 1:
        return [(total,)]
    return [
        (head,) + tail
        for head in range(total + 1)
        for tail in _compositions(total - head, parts - 1)
    ]


ORIENTATIONS = st.sampled_from(["directed", "undirected", "mixed"])


@st.composite
def sides(draw, orientation=ORIENTATIONS):
    """A side network, its role, terminal, ports, assignments and demand."""
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"v{i}" for i in range(num_nodes)]
    mode = draw(orientation)
    scale = draw(st.sampled_from([1, 1, 1, 70, 100]))
    net = FlowNetwork(name="side")
    net.add_nodes(nodes)
    node = st.sampled_from(nodes)
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        tail, head = draw(node), draw(node)
        directed = {"directed": True, "undirected": False}.get(mode)
        if directed is None:
            directed = draw(st.booleans())
        capacity = draw(st.integers(min_value=0, max_value=4)) * scale
        net.add_link(tail, head, capacity, 0.1, directed=directed)
    num_ports = draw(st.integers(min_value=1, max_value=3))
    ports = [draw(node) for _ in range(num_ports)]
    demand = draw(st.integers(min_value=1, max_value=3))
    assignments = [
        tuple(a * scale for a in parts) for parts in _compositions(demand, num_ports)
    ]
    role = draw(st.sampled_from(["source", "sink"]))
    side = SubnetworkView(network=net, link_map=tuple(range(net.num_links)))
    return side, dict(
        role=role,
        terminal=nodes[0],
        ports=ports,
        assignments=assignments,
        demand=demand * scale,
    )


def _dinic_masks(side, request):
    return build_side_array(side, solver="dinic", **request).masks


class TestCertificateMatchesMaxFlow:
    @settings(max_examples=300, deadline=None)
    @given(drawn=sides())
    def test_masks_bit_identical(self, drawn):
        side, request = drawn
        family = side_cut_family(
            side.network,
            role=request["role"],
            terminal=request["terminal"],
            ports=request["ports"],
        )
        assert family is not None
        masks = certificate_masks(family, request["assignments"], request["demand"])
        assert masks.dtype == np.uint64
        assert np.array_equal(masks, _dinic_masks(side, request))

    @settings(max_examples=60, deadline=None)
    @given(drawn=sides())
    def test_default_builder_is_solver_free_and_identical(self, drawn):
        side, request = drawn
        built = build_side_array(side, **request)
        assert built.flow_calls == 0
        assert np.array_equal(built.masks, _dinic_masks(side, request))

    @settings(max_examples=40, deadline=None)
    @given(drawn=sides(orientation=st.just("mixed")))
    def test_over_the_guard_falls_back_and_agrees(self, drawn):
        side, request = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
            fallback = build_side_array(side, **request)
        assert np.array_equal(fallback.masks, _dinic_masks(side, request))


def test_demand_past_255_widens_the_table():
    """Capacities and demand of a few hundred units: the uint16 table."""
    net = FlowNetwork(name="wide")
    net.add_link("s", "a", 300, 0.1)
    net.add_link("s", "b", 200, 0.1)
    net.add_link("a", "b", 150, 0.1, directed=False)
    net.add_link("a", "x", 250, 0.1)
    net.add_link("b", "x", 120, 0.1)
    side = SubnetworkView(network=net, link_map=tuple(range(net.num_links)))
    request = dict(
        role="source",
        terminal="s",
        ports=["x", "b"],
        assignments=[(300, 100), (400, 0), (200, 200), (0, 400)],
        demand=400,
    )
    built = build_side_array(side, **request)
    assert built.flow_calls == 0
    assert built.masks.any()
    assert np.array_equal(built.masks, _dinic_masks(side, request))
