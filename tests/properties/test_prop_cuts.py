"""Property tests: the path-branching cut enumerator and the bottleneck
search against the exhaustive oracles in ``tests/reference_cuts.py``."""

from itertools import combinations
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.cuts import find_bottleneck, is_minimal_cut, minimal_st_cuts
from repro.graph.network import FlowNetwork
from repro.obs.recorder import CUT_PROBES, record
from tests.reference_cuts import (
    reference_find_bottleneck,
    reference_is_disconnecting,
    reference_minimal_st_cuts,
)

limits = st.sampled_from([None, 0, 1, 3, 256])


@st.composite
def multigraphs(draw, max_nodes=10, max_links=18):
    """Multigraphs on 2-10 nodes with parallel links, self-loops, mixed
    directions, isolated nodes and (sometimes) disconnected terminals."""
    num_nodes = draw(st.integers(2, max_nodes))
    nodes = ["s", "t"] + [f"v{i}" for i in range(num_nodes - 2)]
    net = FlowNetwork()
    net.add_nodes(nodes)
    endpoint = st.sampled_from(nodes)
    for _ in range(draw(st.integers(0, max_links))):
        net.add_link(
            draw(endpoint),
            draw(endpoint),
            draw(st.integers(0, 3)),
            0.1,
            directed=draw(st.booleans()),
        )
    return net


def _minimal_by_definition(net, cut) -> bool:
    """No repeated link, disconnecting, and no proper subset disconnects."""
    if len(set(cut)) != len(cut):
        return False
    return reference_is_disconnecting(net, "s", "t", cut) and not any(
        reference_is_disconnecting(net, "s", "t", smaller)
        for size in range(len(cut))
        for smaller in combinations(cut, size)
    )


def _probe_bound(num_links: int, max_size: int) -> int:
    return sum(comb(num_links, i) for i in range(max_size + 1))


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # compare failures too: same type, same text
        return type(exc), str(exc)


def _split_view(split):
    if split is None or isinstance(split, tuple):
        return split
    return (
        split.cut,
        split.source_ports,
        split.sink_ports,
        split.source_side.link_map,
        split.sink_side.link_map,
        split.alpha,
    )


class TestMinimalStCuts:
    @settings(max_examples=120, deadline=None)
    @given(multigraphs(), st.integers(1, 4), limits)
    def test_equals_exhaustive_reference(self, net, max_size, limit):
        expected = reference_minimal_st_cuts(net, "s", "t", max_size, limit=limit)
        assert minimal_st_cuts(net, "s", "t", max_size, limit=limit) == expected

    @settings(max_examples=80, deadline=None)
    @given(multigraphs(), st.integers(1, 4))
    def test_probes_within_exhaustive_bound(self, net, max_size):
        with record() as rec:
            minimal_st_cuts(net, "s", "t", max_size)
        probes = rec.counter_total(CUT_PROBES)
        assert 1 <= probes <= _probe_bound(net.num_links, max_size)

    @settings(max_examples=60, deadline=None)
    @given(multigraphs(max_nodes=6, max_links=8), st.integers(1, 3))
    def test_results_are_the_minimal_cuts_by_definition(self, net, max_size):
        """Every returned cut disconnects and no proper subset does; every
        such link set of size <= ``max_size`` is returned."""
        indices = [link.index for link in net.links()]
        by_definition = [
            subset
            for size in range(1, max_size + 1)
            for subset in combinations(indices, size)
            if _minimal_by_definition(net, subset)
        ]
        assert minimal_st_cuts(net, "s", "t", max_size) == by_definition


class TestFindBottleneck:
    @settings(max_examples=120, deadline=None)
    @given(multigraphs(), st.integers(1, 4), limits)
    def test_same_split_as_the_reference_search(self, net, max_size, limit):
        """Scoring candidates by their terminal components and splitting
        in score order picks the split that splitting every candidate
        picks, capped enumeration included."""
        options = {"max_size": max_size, "max_candidates": 256 if limit is None else limit}
        got = _split_view(_outcome(lambda: find_bottleneck(net, "s", "t", **options)))
        expected = _split_view(
            _outcome(lambda: reference_find_bottleneck(net, "s", "t", **options))
        )
        assert got == expected


class TestIsMinimalCut:
    @settings(max_examples=120, deadline=None)
    @given(multigraphs(), st.data())
    def test_agrees_with_subset_definition(self, net, data):
        indices = st.integers(-1, net.num_links)  # includes unknown indices
        cut = data.draw(st.lists(indices, max_size=4))
        assert is_minimal_cut(net, "s", "t", cut) == _minimal_by_definition(net, cut)
