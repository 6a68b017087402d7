"""Property: chain middle-segment relation covers equal the reference oracle.

A chain middle segment asks the §III-C realization question with two
virtual terminals: does the alive segment absorb exactly ``a`` at its
in-ports while emitting exactly ``b`` at its out-ports?
``build_relation_cover`` answers it with the same builder as the end
sides, one mask word per in-assignment, so both kernels — the cut
certificate and, past its guard, segment max-flows — are pinned bit for bit
against the segment oracle of ``tests/reference_arrays.py`` (one cold
max-flow per configuration and load ``(a, b)``) over generated chains,
demands 1–3 and cut sizes 1–3, and give the same cubes.  At cut size 3
and demand 3 a middle has 10 x 10 loads, more than one word holds.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.core import certificate
from repro.core.arrays import build_relation_cover
from repro.core.assignments import enumerate_assignments
from repro.graph.generators import chained_network
from repro.graph.transforms import split_on_cuts
from tests.reference_arrays import reference_segment_masks

SEEDS = range(3)
DEMANDS = (1, 2, 3)
CUT_SIZES = (1, 2, 3)


def _middle(seed, demand, cut):
    """The middle segment of a three-segment chain and its relation request."""
    net = chained_network(
        [cut, max(cut * cut, 4), cut], cut_sizes=cut, demand=demand, seed=seed
    )
    split = split_on_cuts(net, "s", "t", net._chain_cut_indices)
    in_cut, out_cut = split.cuts
    return split.segments[1], dict(
        in_ports=split.in_ports[0],
        out_ports=split.out_ports[1],
        in_assignments=enumerate_assignments(
            [net.link(i).capacity for i in in_cut], demand
        ),
        out_assignments=enumerate_assignments(
            [net.link(i).capacity for i in out_cut], demand
        ),
        demand=demand,
    )


@lru_cache(maxsize=None)
def _reference(seed, demand, cut):
    segment, request = _middle(seed, demand, cut)
    return np.column_stack(
        [
            reference_segment_masks(
                segment,
                source=None,
                sink=None,
                in_ports=request["in_ports"],
                out_ports=request["out_ports"],
                loads=[(*a, *b) for b in request["out_assignments"]],
                demand=demand,
            )
            for a in request["in_assignments"]
        ]
    )


@pytest.mark.parametrize("kernel", ["certificate", "max-flow"])
@pytest.mark.parametrize("cut", CUT_SIZES)
@pytest.mark.parametrize("demand", DEMANDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_relation_matches_reference(seed, demand, cut, kernel, monkeypatch):
    segment, request = _middle(seed, demand, cut)
    if kernel == "max-flow":
        monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
    relation = build_relation_cover(segment, **request)
    assert relation.cubes.dtype == np.uint64
    assert relation.words == len(request["in_assignments"])
    assert relation.num_assignments == len(request["out_assignments"])
    assert (relation.flow_calls == 0) == (kernel == "certificate")
    expanded = relation.expand().reshape(1 << segment.network.num_links, -1)
    assert np.array_equal(expanded, _reference(seed, demand, cut))


@pytest.mark.parametrize("cut", CUT_SIZES)
@pytest.mark.parametrize("demand", DEMANDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_both_kernels_give_one_cover(seed, demand, cut, monkeypatch):
    """The branching reads masks only, so the max-flow masks factor into
    the certificate's cubes, in the same order."""
    segment, request = _middle(seed, demand, cut)
    certified = build_relation_cover(segment, **request)
    monkeypatch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
    solved = build_relation_cover(segment, **request)
    assert solved.flow_calls > 0
    assert np.array_equal(solved.cubes, certified.cubes)
