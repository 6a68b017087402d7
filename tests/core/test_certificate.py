"""The cut-certificate kernel and the §III-C kernel-choice rule.

``build_side_cover`` builds with the certificate kernel unless the
side's bond family is over a guard (free nodes or cut count); then it
factors on segment max-flows.  No option chooses: each guard is pinned by
one test here, and both kernels are checked against the reference
oracle in ``tests/reference_arrays.py``.
"""

import numpy as np
import pytest

from repro.core import certificate
from repro.core.arrays import build_side_cover
from repro.core.assignments import enumerate_assignments
from repro.core.bottleneck import bottleneck_reliability
from repro.core.certificate import MAX_CERTIFICATE_FREE_NODES, side_cut_family
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.exceptions import SolverError
from repro.graph.builders import fujita_fig4
from repro.graph.cuts import find_bottleneck
from repro.graph.network import FlowNetwork
from repro.graph.transforms import SubnetworkView
from repro.obs import record
from repro.obs.recorder import CERTIFICATE_CUTS, COVER_CUBES_BUILT, FLOW_SOLVES
from tests.reference_arrays import reference_side_masks

DEMAND = FlowDemand("s", "t", 2)


def _fig4_request():
    net = fujita_fig4(failure_probability=0.1)
    split = find_bottleneck(net, "s", "t")
    assignments = enumerate_assignments([net.link(i).capacity for i in split.cut], 2)
    request = dict(
        role="source",
        terminal="s",
        ports=split.source_ports,
        assignments=assignments,
        demand=2,
    )
    return split.source_side, request


def _wide_side():
    """A side with more free nodes than the guard but only nine links.

    The terminal reaches one port node; eight disjoint node pairs hang
    off nothing.  Every pair still counts as free nodes of the bond
    enumeration, so the family is over the free-node guard.
    """
    net = FlowNetwork(name="wide")
    net.add_link("s", "x", 2, 0.1)
    for i in range(MAX_CERTIFICATE_FREE_NODES // 2):
        net.add_link(f"b{i}", f"c{i}", 1, 0.1, directed=False)
    side = SubnetworkView(network=net, link_map=tuple(range(net.num_links)))
    request = dict(
        role="source", terminal="s", ports=["x"], assignments=[(2,)], demand=2
    )
    return side, request


class TestKernelChoice:
    def test_default_builds_without_solves(self):
        side, request = _fig4_request()
        with record() as recorder:
            built = build_side_cover(side, **request)
        assert built.flow_calls == 0
        assert np.array_equal(built.expand(), reference_side_masks(side, **request))
        totals = recorder.counter_totals()
        assert totals[CERTIFICATE_CUTS] > 0
        assert FLOW_SOLVES not in totals
        assert totals[COVER_CUBES_BUILT] == len(built.cubes)

    def test_free_node_guard_falls_back_to_max_flow(self):
        side, request = _wide_side()
        assert side_cut_family(side.network, "s", None, (), ["x"]) is None
        built = build_side_cover(side, **request)
        assert built.flow_calls > 0
        assert np.array_equal(built.expand(), reference_side_masks(side, **request))

    def test_cut_count_guard_falls_back_to_max_flow(self, monkeypatch):
        side, request = _fig4_request()
        family = side_cut_family(side.network, "s", None, (), request["ports"])
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", family.size - 1)
        built = build_side_cover(side, **request)
        assert built.flow_calls > 0
        assert np.array_equal(built.expand(), reference_side_masks(side, **request))
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", family.size)
        assert build_side_cover(side, **request).flow_calls == 0

    def test_bottleneck_reliability_kernel_follows_the_guard(self, monkeypatch):
        net = fujita_fig4(failure_probability=0.1)
        default = bottleneck_reliability(net, DEMAND)
        assert default.flow_calls == 0
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        solved = bottleneck_reliability(net, DEMAND)
        assert solved.flow_calls > 0
        assert solved.value == default.value
        assert solved.details == default.details

    def test_details_name_no_kernel_or_strategy(self):
        details = bottleneck_reliability(fujita_fig4(), DEMAND).details
        assert "incremental" not in details
        assert "accumulation_strategy" not in details


class TestCertificateKernel:
    def test_fig4_values_agree_with_naive_and_chain(self):
        net = fujita_fig4(failure_probability=0.1)
        split = find_bottleneck(net, "s", "t")
        bottleneck = bottleneck_reliability(net, DEMAND)
        naive = naive_reliability(net, DEMAND)
        chain = chain_reliability(net, DEMAND, [split.cut])
        assert bottleneck.flow_calls == 0 and chain.flow_calls == 0
        assert bottleneck.value == pytest.approx(naive.value, abs=1e-12)
        assert chain.value == pytest.approx(naive.value, abs=1e-12)

    def test_bond_family_is_small_and_inclusion_minimal(self):
        side, request = _fig4_request()
        family = side_cut_family(side.network, "s", None, (), request["ports"])
        crossing = np.vstack([family.link_weights > 0, family.port_crossing])
        assert 0 < family.size <= 1 << side.network.num_nodes
        for i in range(family.size):
            for j in range(family.size):
                if i != j:
                    assert not np.all(crossing[:, j] <= crossing[:, i])

    def test_unknown_port_is_rejected_like_the_solver_path(self):
        side, request = _fig4_request()
        with pytest.raises(SolverError, match="not inside this side"):
            build_side_cover(side, **{**request, "ports": ["nowhere"] * 2})

    def test_no_assignments_gives_empty_masks(self):
        side, request = _fig4_request()
        cover = build_side_cover(side, **{**request, "assignments": []})
        assert cover.cubes.tolist() == [[0, 0, 0]]
        assert not cover.expand().any()

    def test_evaluation_blocks_do_not_change_the_cover(self, monkeypatch):
        side, request = _fig4_request()
        whole = build_side_cover(side, **request)
        monkeypatch.setattr(certificate, "_BLOCK_ENTRIES", 4)
        blocked = build_side_cover(side, **request)
        assert np.array_equal(whole.cubes, blocked.cubes)
