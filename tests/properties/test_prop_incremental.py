"""Property: the incremental Gray-walk kernels are bit-identical.

The escape hatch (``incremental=``) defaults to the new path only
because these tests prove equivalence: on the paper's figures and on
random bottlenecked instances, every kernel — naive table and side
arrays — must produce the *same bits* (feasibility tables, ``uint64`` realization
masks, ``ReliabilityResult.value``) with the incremental engine on as
with cold solves.  Not approximately: ``==`` on floats and arrays.
"""

import numpy as np
import pytest

from repro.core.arrays import build_side_array
from repro.core.assignments import enumerate_assignments
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import feasibility_table, naive_reliability
from repro.graph.builders import fujita_fig4
from repro.graph.cuts import find_bottleneck
from repro.graph.generators import bottlenecked_network

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
        cold, _ = feasibility_table(net, demand, prune=prune, incremental=False)
        warm, _ = feasibility_table(net, demand, prune=prune, incremental=True)
        np.testing.assert_array_equal(cold, warm)

    @pytest.mark.parametrize("prune", [True, False])
    def test_fig4_value_identical(self, prune):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        cold = naive_reliability(net, demand, prune=prune, incremental=False)
        warm = naive_reliability(net, demand, prune=prune, incremental=True)
        assert warm.value == cold.value
        assert warm.details["incremental"] is True
        assert cold.details["incremental"] is False


class TestSideArrayBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("prune", [True, False])
    def test_serial_masks_identical(self, seed, prune):
        _, split, assignments = _instance(seed)
        for role, side, terminal, ports in (
            ("source", split.source_side, "s", split.source_ports),
            ("sink", split.sink_side, "t", split.sink_ports),
        ):
            cold = build_side_array(
                side, role=role, terminal=terminal, ports=ports,
                assignments=assignments, demand=2, prune=prune, incremental=False,
            )
            warm = build_side_array(
                side, role=role, terminal=terminal, ports=ports,
                assignments=assignments, demand=2, prune=prune, incremental=True,
            )
            np.testing.assert_array_equal(cold.masks, warm.masks)
            np.testing.assert_allclose(
                cold.probabilities, warm.probabilities, rtol=0, atol=0
            )


class TestReliabilityValueBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bottleneck_value_identical(self, seed):
        net, split, _ = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        cold = bottleneck_reliability(net, demand, cut=split.cut, incremental=False)
        warm = bottleneck_reliability(net, demand, cut=split.cut, incremental=True)
        assert warm.value == cold.value

    def test_fig4_pinned_value(self):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        for incremental in (False, True):
            result = bottleneck_reliability(net, demand, incremental=incremental)
            assert f"{result.value:.10f}" == "0.8426357910"


class TestObsPartition:
    def test_flow_solves_still_partition_flow_calls(self):
        """The incremental engines report their solver invocations as
        FLOW_SOLVES, so the recorder total must still equal the result's
        ``flow_calls`` exactly."""
        from repro.obs import Recorder, record

        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        recorder = Recorder()
        with record(recorder):
            result = bottleneck_reliability(net, demand, incremental=True)
        totals = recorder.counter_totals()
        assert totals.get("flow_solves", 0) == result.flow_calls
