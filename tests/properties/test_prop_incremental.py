"""Property: the incremental Gray-walk kernels are bit-identical.

Naive's Gray walk always repairs flow.  These tests prove the repair
invisible: feasibility tables and values are the *same bits* as one
cold oracle query per mask (``tests/reference_tables.py``).  The §III-C
side arrays' Gray walk is the fallback past the cut-certificate guards, reached here through a
monkeypatched guard and checked against the reference oracle
(``tests/reference_arrays.py``) and the certificate kernel.  Not
approximately: ``==`` on floats and arrays.
"""

import numpy as np
import pytest

from repro.core import certificate
from repro.core.arrays import build_side_cover
from repro.core.assignments import enumerate_assignments
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import feasibility_table, naive_reliability
from repro.probability.enumeration import configuration_probabilities
from repro.graph.builders import fujita_fig4
from repro.graph.cuts import find_bottleneck
from repro.graph.generators import bottlenecked_network
from tests.reference_arrays import reference_side_masks
from tests.reference_tables import reference_feasibility_table

SEEDS = [0, 1, 7, 23, 101]


def _instance(seed):
    net = bottlenecked_network(
        source_side_links=5,
        sink_side_links=4,
        num_bottlenecks=2,
        demand=2,
        seed=seed,
    )
    split = find_bottleneck(net, "s", "t", max_size=3)
    assert split is not None
    capacities = [net.link(i).capacity for i in split.cut]
    assignments = enumerate_assignments(capacities, 2)
    return net, split, assignments


class TestNaiveTableBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prune", [True, False])
    def test_tables_identical(self, seed, prune):
        net = bottlenecked_network(
            source_side_links=4, sink_side_links=3, num_bottlenecks=2, demand=2, seed=seed
        )
        demand = FlowDemand("s", "t", 2)
        warm, oracle = feasibility_table(net, demand, prune=prune)
        assert oracle.incremental
        np.testing.assert_array_equal(warm, reference_feasibility_table(net, demand))

    @pytest.mark.parametrize("prune", [True, False])
    def test_fig4_value_identical(self, prune):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        warm = naive_reliability(net, demand, prune=prune)
        cold = reference_feasibility_table(net, demand)
        assert warm.value == float(configuration_probabilities(net)[cold].sum())
        assert warm.details["incremental"] is True


@pytest.fixture
def gray_walk(monkeypatch):
    """Push every side past the cut-count guard onto the Gray walk."""
    monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)


class TestSideArrayBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_walk_masks_match_reference(self, seed, gray_walk):
        _, split, assignments = _instance(seed)
        for role, side, terminal, ports in (
            ("source", split.source_side, "s", split.source_ports),
            ("sink", split.sink_side, "t", split.sink_ports),
        ):
            request = dict(
                role=role, terminal=terminal, ports=ports,
                assignments=assignments, demand=2,
            )
            walked = build_side_cover(side, **request)
            assert walked.flow_calls > 0
            np.testing.assert_array_equal(
                walked.expand(), reference_side_masks(side, **request)
            )


class TestReliabilityValueBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bottleneck_value_identical(self, seed, monkeypatch):
        net, split, _ = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        default = bottleneck_reliability(net, demand, cut=split.cut)
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        walked = bottleneck_reliability(net, demand, cut=split.cut)
        assert walked.flow_calls > 0
        assert walked.value == default.value

    @pytest.mark.parametrize("walk", [False, True])
    def test_fig4_pinned_value(self, walk, monkeypatch):
        if walk:
            monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
        net = fujita_fig4()
        result = bottleneck_reliability(net, FlowDemand("s", "t", 2))
        assert (result.flow_calls > 0) is walk
        assert f"{result.value:.10f}" == "0.8426357910"


class TestObsPartition:
    def test_flow_solves_still_partition_flow_calls(self, gray_walk):
        """The Gray-walk fallback reports its solver invocations as
        FLOW_SOLVES, so the recorder total must still equal the result's
        ``flow_calls`` exactly."""
        from repro.obs import Recorder, record

        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        recorder = Recorder()
        with record(recorder):
            result = bottleneck_reliability(net, demand)
        totals = recorder.counter_totals()
        assert result.flow_calls > 0
        assert totals.get("flow_solves", 0) == result.flow_calls
