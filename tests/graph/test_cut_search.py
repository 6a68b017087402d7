"""Path-branching cut search: ``limit`` handling and probe accounting."""

from math import comb

import pytest

from repro.exceptions import ReproValueError
from repro.graph.builders import diamond, fujita_fig4, parallel_links, series_chain
from repro.graph.cuts import find_bottleneck, minimal_st_cuts
from repro.graph.generators import bottlenecked_network
from repro.graph.network import FlowNetwork
from repro.obs.recorder import CUT_PROBES, record
from tests.reference_cuts import reference_minimal_st_cuts

#: Probes of ``minimal_st_cuts(fujita_fig4(), "s", "t", 3)``.
FIG4_CUT_PROBES = 34


def probes(net, max_size=3, **kwargs):
    with record() as rec:
        minimal_st_cuts(net, "s", "t", max_size, **kwargs)
    return rec.counter_total(CUT_PROBES)


class TestLimit:
    def test_zero_limit_returns_no_cut(self):
        assert minimal_st_cuts(fujita_fig4(), "s", "t", 3, limit=0) == []

    @pytest.mark.parametrize("limit", [-1, -5])
    def test_negative_limit_rejected(self, limit):
        with pytest.raises(ReproValueError, match="limit"):
            minimal_st_cuts(fujita_fig4(), "s", "t", 3, limit=limit)

    def test_negative_max_candidates_rejected(self):
        with pytest.raises(ReproValueError, match="max_candidates"):
            find_bottleneck(fujita_fig4(), "s", "t", max_candidates=-1)

    def test_limit_keeps_the_first_cuts_in_order(self):
        full = minimal_st_cuts(fujita_fig4(), "s", "t", 3)
        assert full == sorted(full, key=lambda cut: (len(cut), cut))
        for limit in range(len(full) + 2):
            assert minimal_st_cuts(fujita_fig4(), "s", "t", 3, limit=limit) == full[:limit]


class TestAgainstReference:
    @pytest.mark.parametrize(
        "net",
        [fujita_fig4(), diamond(), series_chain(4), parallel_links(3)]
        + [
            bottlenecked_network(source_side_links=8, sink_side_links=8, seed=seed)
            for seed in range(3)
        ],
        ids=lambda net: f"{net.name}-{net.num_links}",
    )
    @pytest.mark.parametrize("max_size", [1, 2, 3])
    def test_fixture_cut_lists_equal_exhaustive(self, net, max_size):
        expected = reference_minimal_st_cuts(net, "s", "t", max_size)
        assert minimal_st_cuts(net, "s", "t", max_size) == expected

    def test_disconnected_terminals(self):
        net = FlowNetwork()
        net.add_link("s", "a", 1)
        net.add_link("b", "t", 1)
        assert minimal_st_cuts(net, "s", "t", 3) == []
        assert probes(net) == 1


class TestCutProbes:
    def test_fig4_count_pinned(self):
        assert probes(fujita_fig4()) == FIG4_CUT_PROBES

    def test_counted_once_per_call_with_its_total(self):
        with record() as rec:
            minimal_st_cuts(fujita_fig4(), "s", "t", 3)
            minimal_st_cuts(fujita_fig4(), "s", "t", 3)
        assert rec.root.counters[CUT_PROBES] == 2 * FIG4_CUT_PROBES

    def test_no_probe_when_nothing_can_be_returned(self):
        assert probes(fujita_fig4(), max_size=0) == 0
        assert probes(fujita_fig4(), limit=0) == 0

    def test_thirty_link_net_is_not_searched_exhaustively(self):
        """A timing-free guard: exhaustive search would spend
        sum(C(30, i) for i <= 3) = 4526 probes on this net."""
        net = bottlenecked_network(source_side_links=14, sink_side_links=14, seed=3)
        assert net.num_links == 30
        split = find_bottleneck(net, "s", "t")
        assert split is not None and split.cut == (0, 1)
        assert len(split.source_side.link_map) == len(split.sink_side.link_map) == 14
        assert probes(net) < 200 < sum(comb(30, i) for i in range(4))
