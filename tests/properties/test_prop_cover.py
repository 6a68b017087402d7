"""Property: a side cover is an exact, compressed §III-C array.

:func:`repro.core.arrays.build_side_cover` describes a side as disjoint
cubes ``(alive, dead, mask)`` (:mod:`repro.core.cover`).  These tests
pin, over generated sides of every shape the side builder accepts
(``tests/properties/test_prop_certificate.py``'s strategy) and over
bottlenecked networks with k = 1-3 cut links and demands 1-3:

* expanding the cover reproduces the fast certificate oracle
  (``tests/reference_certificate.py``) bit for bit;
* with the certificate guards monkeypatched low, the max-flow kernel
  gives the same masks, cube for cube the same cover;
* the cubes are pairwise disjoint and their sizes sum to ``2^m``;
* the weights of each row sum to 1, and a row's weights are ``==``
  whether it is weighed alone or in a batch.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import certificate
from repro.core.arrays import build_side_cover
from repro.core.assignments import enumerate_assignments
from repro.core.certificate import side_cut_family
from repro.core.cover import is_partition
from repro.graph.cuts import find_bottleneck
from repro.graph.generators import bottlenecked_network
from repro.probability.enumeration import configuration_probabilities
from tests.properties.test_prop_certificate import sides
from tests.reference_arrays import reference_side_masks
from tests.reference_certificate import certificate_masks


@st.composite
def bottlenecked_sides(draw):
    """One side of a generated bottlenecked network's split."""
    k = draw(st.integers(min_value=1, max_value=3))
    demand = draw(st.integers(min_value=1, max_value=3))
    net = bottlenecked_network(
        source_side_links=draw(st.integers(min_value=k + 1, max_value=9)),
        sink_side_links=draw(st.integers(min_value=k + 1, max_value=9)),
        num_bottlenecks=k,
        demand=demand,
        seed=draw(st.integers(min_value=0, max_value=10_000)),
    )
    split = find_bottleneck(net, "s", "t", max_size=3)
    assume(split is not None)
    assignments = enumerate_assignments(
        [net.link(i).capacity for i in split.cut], demand
    )
    assume(assignments)
    if draw(st.sampled_from(["source", "sink"])) == "source":
        return split.source_side, dict(
            role="source",
            terminal="s",
            ports=split.source_ports,
            assignments=assignments,
            demand=demand,
        )
    return split.sink_side, dict(
        role="sink",
        terminal="t",
        ports=split.sink_ports,
        assignments=assignments,
        demand=demand,
    )


ANY_SIDE = st.one_of(sides(), bottlenecked_sides())


def _segment(request):
    if request["role"] == "source":
        return request["terminal"], None, (), request["ports"]
    return None, request["terminal"], request["ports"], ()


class TestExpansion:
    @settings(max_examples=200, deadline=None)
    @given(drawn=ANY_SIDE)
    def test_reproduces_certificate_masks(self, drawn):
        side, request = drawn
        family = side_cut_family(side.network, *_segment(request))
        assume(family is not None)
        expected = certificate_masks(family, request["assignments"], request["demand"])
        cover = build_side_cover(side, **request)
        assert cover.flow_calls == 0
        assert np.array_equal(cover.expand(), expected)

    @settings(max_examples=60, deadline=None)
    @given(drawn=ANY_SIDE)
    def test_reproduces_the_max_flow_masks(self, drawn):
        side, request = drawn
        certified = build_side_cover(side, **request)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(certificate, "MAX_CERTIFICATE_CUTS", 0)
            cover = build_side_cover(side, **request)
        family = side_cut_family(side.network, *_segment(request))
        if family is None:
            expected = reference_side_masks(side, **request)
        else:
            expected = certificate_masks(family, request["assignments"], request["demand"])
        assert np.array_equal(cover.expand(), expected)
        # The branching reads masks only: both kernels give one cover.
        assert np.array_equal(cover.cubes, certified.cubes)


class TestPartition:
    @settings(max_examples=200, deadline=None)
    @given(drawn=ANY_SIDE)
    def test_cubes_are_disjoint_and_fill_the_lattice(self, drawn):
        side, request = drawn
        cover = build_side_cover(side, **request)
        m = side.network.num_links
        alive, dead = cover.cubes[:, 0].tolist(), cover.cubes[:, 1].tolist()
        sizes = [1 << (m - bin(a | d).count("1")) for a, d in zip(alive, dead)]
        assert sum(sizes) == 1 << m
        for i in range(len(alive)):
            assert alive[i] & dead[i] == 0
            for j in range(i):
                assert (alive[i] & dead[j]) | (alive[j] & dead[i])
        assert is_partition(cover.cubes, m, len(request["assignments"]))
        assert not (cover.cubes[:, 2] >> np.uint64(len(request["assignments"]))).any()


class TestWeights:
    @settings(max_examples=120, deadline=None)
    @given(
        drawn=ANY_SIDE,
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rows=st.integers(min_value=1, max_value=7),
    )
    def test_rows_sum_to_one_and_do_not_depend_on_the_batch(self, drawn, seed, rows):
        side, request = drawn
        cover = build_side_cover(side, **request)
        grid = np.random.default_rng(seed).uniform(
            0.0, 0.99, size=(rows, side.network.num_links)
        )
        batch = cover.weights(grid)
        assert batch.shape == (rows, len(cover.distinct))
        np.testing.assert_allclose(batch.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        for s in range(rows):
            alone = cover.weights(grid[s : s + 1])[0]
            assert [w.hex() for w in alone.tolist()] == [
                w.hex() for w in batch[s].tolist()
            ]

    @settings(max_examples=60, deadline=None)
    @given(drawn=ANY_SIDE)
    def test_weights_equal_the_configuration_sum(self, drawn):
        side, request = drawn
        cover = build_side_cover(side, **request)
        masks = cover.expand()
        probabilities = configuration_probabilities(side.network)
        weights = cover.weights(
            np.asarray([side.network.failure_probabilities()], dtype=np.float64)
        )[0]
        for mask, weight in zip(cover.distinct.tolist(), weights.tolist()):
            expected = float(probabilities[masks == mask].sum())
            assert weight == pytest.approx(expected, rel=1e-12, abs=1e-15)
