"""The one Eq. 2/3 pipeline: pointwise calls and sweeps share every piece.

``bottleneck_reliability`` is the one-row call of
:func:`repro.core.sweep.split_reliability` and a probability sweep its
many-row call.  These tests pin what that sharing promises: one span
vocabulary, one weighing of each side cover per call and one memoised
doubling table.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.bottleneck import (
    bottleneck_reliability,
    pattern_probabilities,
    pattern_probability,
)
from repro.core.assignments import enumerate_assignments
from repro.core.demand import FlowDemand
from repro.core.sweep import (
    ArrayCache,
    SweepSpec,
    cached_side_cover,
    compute_reliability_sweep,
)
from repro.graph.cuts import find_bottleneck
from repro.graph.builders import fujita_fig4
from repro.graph.generators import bottlenecked_network
from repro.probability.enumeration import (
    configuration_probabilities,
    probability_grid,
)

#: The pipeline's spans, in the order a call opens them.
PIPELINE_SPANS = [
    "bottleneck.cut_search",
    "bottleneck.assignments",
    "bottleneck.source_array",
    "bottleneck.sink_array",
    "bottleneck.accumulate",
]


def _span_names(record):
    return [child.name for child in record.children]


class TestSpanVocabulary:
    def test_pointwise_call_records_the_five_spans(self):
        with obs.record() as rec:
            bottleneck_reliability(fujita_fig4(), FlowDemand("s", "t", 2))
        assert _span_names(rec.root) == PIPELINE_SPANS

    def test_sweep_nests_the_same_spans_under_sweep_run(self):
        with obs.record() as rec:
            compute_reliability_sweep(
                fujita_fig4(),
                FlowDemand("s", "t", 2),
                sweep=SweepSpec.availability([0.8, 0.9, 0.99]),
            )
        (run,) = rec.root.children
        assert run.name == "sweep.run"
        assert _span_names(run) == PIPELINE_SPANS
        (accumulate,) = [s for s in run.children if s.name == "bottleneck.accumulate"]
        assert accumulate.attrs["points"] == 3

    def test_cached_pointwise_call_records_the_same_spans(self):
        with obs.record() as rec:
            bottleneck_reliability(
                fujita_fig4(), FlowDemand("s", "t", 2), cache=ArrayCache()
            )
        assert _span_names(rec.root) == PIPELINE_SPANS

    @pytest.mark.parametrize(
        "name",
        [
            "bottleneck.arrays",
            "sweep.cut_search",
            "sweep.assignments",
            "sweep.arrays",
            "sweep.accumulate",
        ],
    )
    def test_removed_spans_leave_the_catalogue(self, name):
        assert name not in obs.KNOWN_SPANS


def _cubes(net, demand):
    """Cubes in the two side covers of ``net``'s bottleneck split."""
    split = find_bottleneck(net, demand.source, demand.sink)
    capacities = [net.link(i).capacity for i in split.cut]
    request = dict(assignments=enumerate_assignments(capacities, demand.rate), demand=2)
    source = cached_side_cover(
        split.source_side, role="source", terminal="s", ports=split.source_ports, **request
    )
    sink = cached_side_cover(
        split.sink_side, role="sink", terminal="t", ports=split.sink_ports, **request
    )
    return len(source.cubes) + len(sink.cubes)


class TestConfigurationsCountedOnce:
    """Each side cover is weighed once per call, one term per cube; the
    result still reports every configuration of both sides."""

    @pytest.mark.parametrize("cache_state", ["none", "cold", "warm"])
    def test_fig4_counter_equals_result_configurations(self, cache_state):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        cache = None if cache_state == "none" else ArrayCache()
        if cache_state == "warm":
            bottleneck_reliability(net, demand, cache=cache)
        with obs.record() as rec:
            result = bottleneck_reliability(net, demand, cache=cache)
        assert result.configurations == 24
        assert rec.counter_total(obs.CONFIGURATIONS_ENUMERATED) == _cubes(net, demand)

    @pytest.mark.parametrize("cache_state", ["none", "cold", "warm"])
    def test_bottlenecked_net_counter_equals_result_configurations(self, cache_state):
        net = bottlenecked_network(
            source_side_links=6,
            sink_side_links=5,
            num_bottlenecks=2,
            demand=2,
            seed=3,
        )
        demand = FlowDemand("s", "t", 2)
        cache = None if cache_state == "none" else ArrayCache()
        if cache_state == "warm":
            bottleneck_reliability(net, demand, cache=cache)
        with obs.record() as rec:
            result = bottleneck_reliability(net, demand, cache=cache)
        assert result.configurations == 2**6 + 2**5
        assert rec.counter_total(obs.CONFIGURATIONS_ENUMERATED) == _cubes(net, demand)

    def test_cold_sweep_counts_each_side_once(self):
        net, demand = fujita_fig4(), FlowDemand("s", "t", 2)
        with obs.record() as rec:
            swept = compute_reliability_sweep(
                net,
                demand,
                sweep=SweepSpec.availability(list(np.linspace(0.7, 0.99, 33))),
            )
        assert rec.counter_total(obs.CONFIGURATIONS_ENUMERATED) == _cubes(net, demand)
        assert all(r.configurations == 24 for r in swept)


class TestOneDoublingTable:
    def test_one_row_grid_is_the_memoised_configuration_table(self):
        probs = [0.1, 0.25, 0.05, 0.4, 0.3]
        table = configuration_probabilities(probs)
        with obs.record() as rec:
            row = probability_grid(np.array([probs]))
        assert row.shape == (1, 32)
        assert np.array_equal(row[0], table)
        assert [v.hex() for v in row[0].tolist()] == [v.hex() for v in table.tolist()]
        # Served from the memo: the very same read-only buffer, no build.
        assert np.shares_memory(row, table)
        assert not row.flags.writeable
        # Only configuration_probabilities counts enumerations.
        assert rec.counter_total(obs.CONFIGURATIONS_ENUMERATED) == 0

    def test_multi_row_grid_is_built_fresh(self):
        grid = np.array([[0.1, 0.2], [0.3, 0.4]])
        table = probability_grid(grid)
        assert table.flags.writeable
        for s in range(2):
            assert np.array_equal(table[s], configuration_probabilities(grid[s]))

    def test_pattern_table_entries_equal_the_scalar(self):
        net = fujita_fig4(failure_probability=0.13)
        table = pattern_probabilities(net, (0, 1))
        for pattern in range(4):
            assert pattern_probability(net, (0, 1), pattern) == float(table[pattern])
        assert float(table[0b11]) == (1.0 * (1.0 - 0.13)) * (1.0 - 0.13)
