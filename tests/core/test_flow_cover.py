"""Segment covers past the certificate guards, factored on max-flows.

A side with more than ``MAX_CERTIFICATE_FREE_NODES`` free nodes has no
cut family, so ``build_side_cover`` factors it on side max-flows: one
solve per configuration and load the factoring leaves open, never a
``2^m`` table.  The sides here are far past the guard, where the
``2^m`` oracle cannot run, so their masks are spot-checked at seeded
configurations against one cold solve each
(``tests/reference_arrays.py``).  A chain middle forced past the cut
guard checks the relation cover (``W > 1``) against the certificate's
cubes and the full oracle.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro import obs
from repro.core import certificate
from repro.core.arrays import build_relation_cover, build_side_cover
from repro.core.assignments import enumerate_assignments
from repro.core.certificate import side_cut_family
from repro.graph.generators import bottlenecked_network, chained_network
from repro.graph.transforms import split_on_cut, split_on_cuts
from tests.reference_arrays import reference_segment_masks, reference_side_masks

#: 20 + 20 links over 18 + 18 nodes: both sides past the free-node guard.
PAST_GUARD = dict(
    source_side_links=20,
    sink_side_links=20,
    num_bottlenecks=3,
    demand=2,
    seed=0,
    source_side_nodes=18,
    sink_side_nodes=18,
)

#: Seeded configurations checked per side.
SPOT_CHECKS = 4096


@lru_cache(maxsize=None)
def _past_guard(seed=0):
    """``{role: (side, request)}`` of the designed 3-link cut."""
    net = bottlenecked_network(**{**PAST_GUARD, "seed": seed})
    split = split_on_cut(net, "s", "t", [0, 1, 2])
    assignments = enumerate_assignments([net.link(i).capacity for i in split.cut], 2)
    return {
        "source": (
            split.source_side,
            dict(role="source", terminal="s", ports=split.source_ports,
                 assignments=assignments, demand=2),
        ),
        "sink": (
            split.sink_side,
            dict(role="sink", terminal="t", ports=split.sink_ports,
                 assignments=assignments, demand=2),
        ),
    }


def _segment(request):
    if request["role"] == "source":
        return request["terminal"], None, (), request["ports"]
    return None, request["terminal"], request["ports"], ()


def _masks_at(cover, configurations):
    """The mask of each configuration, read from the one cube holding it."""
    alive, dead, mask = cover.cubes.T
    hit = (configurations[:, None] & (alive | dead)) == alive
    assert (hit.sum(axis=1) == 1).all()
    return mask[hit.argmax(axis=1)]


@pytest.mark.parametrize("seed", [0, 3])
def test_both_sides_are_past_the_free_node_guard(seed):
    for side, request in _past_guard(seed).values():
        assert side.network.num_links == 20
        assert side_cut_family(side.network, *_segment(request)) is None


def test_both_covers_spend_few_solves():
    """A 2^20 Gray-walk table spent 156,488 solves on these two sides."""
    with obs.record() as rec:
        covers = [build_side_cover(side, **request) for side, request in _past_guard().values()]
    spent = sum(cover.flow_calls for cover in covers)
    assert 0 < spent <= 2000
    assert rec.counter_total(obs.FLOW_SOLVES) == spent


@pytest.mark.parametrize("role", ["source", "sink"])
@pytest.mark.parametrize("seed", [0, 3])
def test_masks_match_cold_solves_at_seeded_configurations(seed, role):
    """Seed 0's sides are 8 cubes each; seed 3's are 24 and 10."""
    side, request = _past_guard(seed)[role]
    cover = build_side_cover(side, **request)
    rng = np.random.default_rng([seed, role == "sink"])
    configurations = rng.integers(0, 1 << 20, SPOT_CHECKS, dtype=np.uint64)
    expected = reference_side_masks(side, **request, configurations=configurations.tolist())
    assert np.array_equal(_masks_at(cover, configurations), expected)


def test_relation_cover_past_the_cut_guard(monkeypatch):
    """A chain middle with 6 x 6 loads, W = 6 words, forced past the guard."""
    net = chained_network([4, 9, 4], cut_sizes=3, demand=2, seed=0)
    split = split_on_cuts(net, "s", "t", net._chain_cut_indices)
    in_cut, out_cut = split.cuts
    ins = enumerate_assignments([net.link(i).capacity for i in in_cut], 2)
    outs = enumerate_assignments([net.link(i).capacity for i in out_cut], 2)
    segment = split.segments[1]
    request = dict(
        in_ports=split.in_ports[0], out_ports=split.out_ports[1],
        in_assignments=ins, out_assignments=outs, demand=2,
    )
    certified = build_relation_cover(segment, **request)
    monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
    solved = build_relation_cover(segment, **request)
    assert solved.words == len(ins) > 1
    assert certified.flow_calls == 0 < solved.flow_calls
    assert np.array_equal(solved.cubes, certified.cubes)
    expected = np.column_stack(
        [
            reference_segment_masks(
                segment, source=None, sink=None,
                in_ports=request["in_ports"], out_ports=request["out_ports"],
                loads=[(*a, *b) for b in outs], demand=2,
            )
            for a in ins
        ]
    )
    assert np.array_equal(solved.expand(), expected)
