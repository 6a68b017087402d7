"""The cut-certificate kernel and the §III-C kernel-choice rule.

``build_side_array`` builds with the certificate kernel unless one of
three things holds, each pinned by one test here:

* the side's bond family is over a guard (free nodes or cut count);
* the caller names a solver;
* the caller forces ``incremental=`` either way.
"""

import numpy as np
import pytest

from repro.core import certificate
from repro.core.arrays import build_side_array
from repro.core.assignments import enumerate_assignments
from repro.core.bottleneck import bottleneck_reliability
from repro.core.certificate import (
    MAX_CERTIFICATE_FREE_NODES,
    certificate_masks,
    side_cut_family,
)
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.exceptions import SolverError
from repro.graph.builders import fujita_fig4
from repro.graph.cuts import find_bottleneck
from repro.graph.network import FlowNetwork
from repro.graph.transforms import SubnetworkView
from repro.obs import record
from repro.obs.recorder import ARRAY_ENTRIES_BUILT, CERTIFICATE_CUTS, FLOW_SOLVES

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
            built = build_side_array(side, **request)
        reference = build_side_array(side, solver="dinic", **request)
        assert built.flow_calls == 0 and reference.flow_calls > 0
        assert np.array_equal(built.masks, reference.masks)
        totals = recorder.counter_totals()
        assert totals[CERTIFICATE_CUTS] > 0
        assert FLOW_SOLVES not in totals
        assert totals[ARRAY_ENTRIES_BUILT] == len(request["assignments"]) << (
            side.network.num_links
        )

    def test_free_node_guard_falls_back_to_max_flow(self):
        side, request = _wide_side()
        assert side_cut_family(side.network, role="source", terminal="s", ports=["x"]) is None
        built = build_side_array(side, **request)
        reference = build_side_array(side, solver="dinic", incremental=False, **request)
        assert built.flow_calls > 0
        assert np.array_equal(built.masks, reference.masks)

    def test_cut_count_guard_falls_back_to_max_flow(self, monkeypatch):
        side, request = _fig4_request()
        family = side_cut_family(side.network, role="source", terminal="s",
                                 ports=request["ports"])
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", family.size - 1)
        built = build_side_array(side, **request)
        assert built.flow_calls > 0
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", family.size)
        assert build_side_array(side, **request).flow_calls == 0

    def test_named_solver_selects_max_flow(self):
        side, request = _fig4_request()
        assert build_side_array(side, solver="edmonds_karp", **request).flow_calls > 0

    @pytest.mark.parametrize("incremental", [False, True])
    def test_forced_incremental_selects_max_flow(self, incremental):
        side, request = _fig4_request()
        built = build_side_array(side, incremental=incremental, **request)
        assert built.flow_calls > 0

    @pytest.mark.parametrize(
        "options, solves",
        [({}, False), ({"solver": "dinic"}, True), ({"incremental": True}, True),
         ({"incremental": False}, True)],
    )
    def test_bottleneck_reliability_decides_on_raw_arguments(self, options, solves):
        net = fujita_fig4(failure_probability=0.1)
        result = bottleneck_reliability(net, DEMAND, **options)
        assert (result.flow_calls > 0) is solves
        assert result.value == bottleneck_reliability(net, DEMAND, solver="dinic").value


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
        family = side_cut_family(side.network, role="source", terminal="s",
                                 ports=request["ports"])
        crossing = np.vstack([family.link_weights > 0, family.port_crossing])
        assert 0 < family.size <= 1 << side.network.num_nodes
        for i in range(family.size):
            for j in range(family.size):
                if i != j:
                    assert not np.all(crossing[:, j] <= crossing[:, i])

    def test_unknown_port_is_rejected_like_the_solver_path(self):
        side, request = _fig4_request()
        with pytest.raises(SolverError, match="not inside this side"):
            build_side_array(side, **{**request, "ports": ["nowhere"] * 2})

    def test_no_assignments_gives_empty_masks(self):
        side, request = _fig4_request()
        family = side_cut_family(side.network, role="source", terminal="s",
                                 ports=request["ports"])
        masks = certificate_masks(family, [], 2)
        assert masks.shape == (1 << side.network.num_links,) and not masks.any()

    def test_blocks_tile_the_lattice(self, monkeypatch):
        side, request = _fig4_request()
        family = side_cut_family(side.network, role="source", terminal="s",
                                 ports=request["ports"])
        whole = certificate_masks(family, request["assignments"], 2)
        monkeypatch.setattr(certificate, "_BLOCK_ENTRIES", 4)
        blocked = certificate_masks(family, request["assignments"], 2)
        assert np.array_equal(whole, blocked)
