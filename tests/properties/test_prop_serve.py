"""Property: served answers are pinned to the pointwise path.

The serving twin of ``test_prop_sweep``: for any round of queries, the
planner must (a) answer every query bit-identically to a fresh
:func:`bottleneck_reliability` call on the point network, (b) merge
N concurrent identical queries into **one** array build, and (c) emit
byte-identical response lines for identical queries — the canonical-
encoding invariant the protocol promises.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.core.sweep import ArrayCache
from repro.exceptions import ReproValueError
from repro.graph.builders import fujita_fig4
from repro.graph.generators import bottlenecked_network
from repro.graph.io import to_dict
from repro.serve.planner import answer_queries
from repro.serve.protocol import ERROR_COMPUTE, QUERY_SCHEMA, decode_query, encode_line

SEEDS = [0, 1, 7, 23]


def _instance(seed):
    return bottlenecked_network(
        source_side_links=5,
        sink_side_links=4,
        num_bottlenecks=2,
        demand=2,
        seed=seed,
    )


def _query(net, qid=None, **extra):
    payload = {
        "schema": QUERY_SCHEMA,
        "op": "query",
        "network": to_dict(net),
        "source": "s",
        "sink": "t",
        "rate": 2,
    }
    if qid is not None:
        payload["id"] = qid
    payload.update(extra)
    return decode_query(json.dumps(payload).encode("utf-8"))


class TestCoalescingInvariants:
    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_n_identical_queries_build_arrays_exactly_once(self, n):
        """The tentpole invariant: concurrency must not multiply work."""
        solo_cache = ArrayCache()
        answer_queries([_query(fujita_fig4())], cache=solo_cache)

        batch_cache = ArrayCache()
        queries = [_query(fujita_fig4()) for _ in range(n)]
        payloads = answer_queries(queries, cache=batch_cache)

        assert batch_cache.stats()["stores"] == solo_cache.stats()["stores"]
        assert all(p["batch"]["queries"] == n for p in payloads)

    @pytest.mark.parametrize("n", [2, 8])
    def test_identical_queries_get_byte_identical_responses(self, n):
        cache = ArrayCache()
        queries = [_query(fujita_fig4(), availability=[0.9, 0.99]) for _ in range(n)]
        lines = {encode_line(p) for p in answer_queries(queries, cache=cache)}
        assert len(lines) == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_batched_values_bit_identical_to_pointwise(self, seed):
        net = _instance(seed)
        demand = FlowDemand("s", "t", 2)
        cache = ArrayCache()
        grid = [0.85, 0.9, 0.95, 0.99]
        # Two riders on the same topology plus a no-axis point query.
        queries = [
            _query(net, qid="grid", availability=grid),
            _query(net, qid="scale", failure_scale=[0.5, 1.0]),
            _query(net, qid="point"),
        ]
        by_id = {p["id"]: p for p in answer_queries(queries, cache=cache)}

        for query, payload in ((queries[0], by_id["grid"]),):
            for index, point in enumerate(payload["points"]):
                fresh = bottleneck_reliability(
                    query.spec.point_network(net, index), demand
                )
                assert point["reliability"] == fresh.value

        scale_query = queries[1]
        for index, point in enumerate(by_id["scale"]["points"]):
            fresh = bottleneck_reliability(
                scale_query.spec.point_network(net, index), demand
            )
            assert point["reliability"] == fresh.value

        fresh = bottleneck_reliability(net, demand)
        assert by_id["point"]["points"][0]["reliability"] == fresh.value

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_warm_round_spends_zero_solves_and_stays_identical(self, seed):
        net = _instance(seed)
        cache = ArrayCache()
        cold = answer_queries([_query(net, availability=[0.9, 0.95])], cache=cache)
        warm = answer_queries([_query(net, availability=[0.9, 0.95])], cache=cache)
        again = answer_queries([_query(net, availability=[0.9, 0.95])], cache=cache)
        assert warm[0]["flow_calls"] == 0 and warm[0]["warm"]
        # Values never drift between cold and warm serving...
        assert warm[0]["points"] == cold[0]["points"]
        # ...and two warm rounds are byte-identical end to end.
        assert encode_line(warm[0]) == encode_line(again[0])


_TOPOLOGIES = [fujita_fig4(), _instance(0), _instance(1)]

_axes = st.one_of(
    st.builds(
        lambda v: {"availability": v},
        st.lists(st.floats(0.5, 1.0, exclude_min=True), min_size=1, max_size=4),
    ),
    st.builds(
        lambda v: {"failure_scale": v},
        st.lists(st.floats(0.0, 12.0), min_size=1, max_size=3),
    ),
    st.builds(
        lambda v: {"overrides": v},
        st.lists(
            st.dictionaries(st.integers(0, 8).map(str), st.floats(0.0, 0.9), max_size=3),
            min_size=1,
            max_size=3,
        ),
    ),
    st.just({}),
)

_round = st.lists(
    st.tuples(
        st.integers(0, len(_TOPOLOGIES) - 1),
        st.sampled_from([1, 2]),
        _axes,
        st.sampled_from([None, None, None, "naive"]),
    ),
    min_size=1,
    max_size=7,
)


class TestMixedRounds:
    @settings(max_examples=30, deadline=None)
    @given(members=_round)
    def test_every_query_matches_its_pointwise_answer_by_hex(self, members):
        """Mixed axes, repeated topologies, two rates and a
        non-coalescible method in one round: each query's values equal
        a pointwise call on its point networks, bit for bit, cold and
        warm; a query whose grid is invalid fails alone."""
        queries = []
        for qid, (topology, rate, axis, method) in enumerate(members):
            extra = dict(axis, rate=rate)
            if method is not None:
                extra["method"] = method
            queries.append(_query(_TOPOLOGIES[topology], qid=qid, **extra))
        cache = ArrayCache()
        cold = answer_queries(queries, cache=cache)
        warm = answer_queries(queries, cache=cache)
        assert [p.get("points") for p in warm] == [p.get("points") for p in cold]
        for query, payload in zip(queries, cold):
            assert payload["id"] == query.qid
            try:
                query.spec.failure_matrix(query.net)
            except ReproValueError:
                assert payload["error"]["code"] == ERROR_COMPUTE
                continue
            expected = []
            for index in range(len(query.spec)):
                point = query.spec.point_network(query.net, index)
                if query.method == "naive":
                    value = naive_reliability(point, query.demand).value
                else:
                    value = bottleneck_reliability(point, query.demand).value
                expected.append(value.hex())
            assert [p["reliability"].hex() for p in payload["points"]] == expected
