"""Planner unit tests: coalescing, warm answers, fallback isolation."""

import json

from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.sweep import ArrayCache, network_fingerprint, plan_batch
from repro.graph.builders import diamond, fujita_fig4
from repro.graph.io import to_dict
from repro.obs import record
from repro.obs.recorder import SERVE_WARM_HITS
from repro.serve.planner import answer_queries
from repro.serve.protocol import QUERY_SCHEMA, decode_query


def _query(net=None, qid=None, **extra):
    payload = {
        "schema": QUERY_SCHEMA,
        "op": "query",
        "network": to_dict(net if net is not None else fujita_fig4()),
        "source": "s",
        "sink": "t",
        "rate": 2,
    }
    if qid is not None:
        payload["id"] = qid
    payload.update(extra)
    return decode_query(json.dumps(payload).encode("utf-8"))


class TestPlanBatch:
    def test_same_topology_merges_to_one_plan(self):
        net = fujita_fig4()
        demand = FlowDemand("s", "t", 2)
        plans = plan_batch([(net, demand)] * 4)
        assert len(plans) == 1
        assert plans[0].indices == (0, 1, 2, 3)
        assert len(plans[0].spec) == 4

    def test_probability_changes_share_a_fingerprint(self):
        net = fujita_fig4()
        shifted = net.with_failure_probabilities({0: 0.5})
        assert network_fingerprint(net) == network_fingerprint(shifted)
        demand = FlowDemand("s", "t", 2)
        plans = plan_batch([(net, demand), (shifted, demand)])
        assert len(plans) == 1

    def test_different_rates_split_plans(self):
        net = fujita_fig4()
        plans = plan_batch(
            [(net, FlowDemand("s", "t", 2)), (net, FlowDemand("s", "t", 3))]
        )
        assert len(plans) == 2


class TestAnswerQueries:
    def test_identical_queries_coalesce_into_one_batch(self):
        cache = ArrayCache()
        queries = [_query(qid=i) for i in range(4)]
        payloads = answer_queries(queries, cache=cache)
        assert [p["id"] for p in payloads] == [0, 1, 2, 3]
        assert all(p["batch"] == {"queries": 4, "points": 4} for p in payloads)
        # One merged plan: every response reports the same batch solves.
        assert len({p["flow_calls"] for p in payloads}) == 1

    def test_warm_cache_answers_with_zero_solves(self):
        cache = ArrayCache()
        first = answer_queries([_query()], cache=cache)
        assert not first[0]["warm"]
        second = answer_queries([_query(availability=[0.9, 0.99])], cache=cache)
        assert second[0]["flow_calls"] == 0 and second[0]["warm"]

    def test_never_seen_topology_answers_cold_without_solves(self):
        cache = ArrayCache()
        with record() as recorder:
            [cold] = answer_queries([_query()], cache=cache)
        # The cut-certificate kernel built every column without a solve,
        # yet none came from the cache: the answer is cold.
        assert cold["flow_calls"] == 0
        assert cold["warm"] is False
        assert recorder.counter_total(SERVE_WARM_HITS) == 0
        with record() as recorder:
            [warm] = answer_queries([_query()], cache=cache)
        assert warm["warm"] is True
        assert recorder.counter_total(SERVE_WARM_HITS) == 1

    def test_values_match_fresh_bottleneck_reliability(self):
        cache = ArrayCache()
        net = fujita_fig4()
        [payload] = answer_queries([_query(net=net)], cache=cache)
        fresh = bottleneck_reliability(net, FlowDemand("s", "t", 2))
        assert payload["points"][0]["reliability"] == fresh.value

    def test_non_coalescible_method_falls_back_and_matches(self):
        cache = ArrayCache()
        net = diamond()
        batched, naive = answer_queries(
            [_query(net=net), _query(net=net, method="naive")], cache=cache
        )
        assert naive["method"] == "naive"
        assert naive["batch"]["queries"] == 1
        assert (
            abs(batched["points"][0]["reliability"] - naive["points"][0]["reliability"])
            < 1e-12
        )

    def test_mixed_topologies_answer_in_submission_order(self):
        cache = ArrayCache()
        queries = [
            _query(net=fujita_fig4(), qid="a"),
            _query(net=diamond(), qid="b"),
            _query(net=fujita_fig4(), qid="c"),
        ]
        payloads = answer_queries(queries, cache=cache)
        assert [p["id"] for p in payloads] == ["a", "b", "c"]
        # The two fig4 queries merged; diamond rode its own plan.
        assert payloads[0]["batch"]["queries"] == 2
        assert payloads[1]["batch"]["queries"] == 1
