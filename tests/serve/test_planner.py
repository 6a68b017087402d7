"""Planner unit tests: coalescing, warm answers, fallback isolation."""

import json

import pytest

from repro.core.api import compute_reliability
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.sweep import ArrayCache, network_fingerprint, plan_batch
from repro.graph.builders import diamond, fujita_fig2_bridge, fujita_fig4, parallel_links
from repro.graph.network import FlowNetwork
from repro.graph.io import to_dict
from repro.obs import record
from repro.obs.recorder import SERVE_WARM_HITS
from repro.serve.planner import answer_queries
from repro.serve.protocol import ERROR_INTERNAL, QUERY_SCHEMA, decode_query


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

    def test_refused_plan_falls_back_pointwise(self):
        """``auto`` on a topology with no bottleneck cut leaves the sweep
        and is answered pointwise."""
        net = parallel_links(5)
        [payload] = answer_queries([_query(net=net, rate=2)], cache=ArrayCache())
        assert payload["ok"]
        assert payload["batch"]["queries"] == 1


def _undirected_diamond() -> FlowNetwork:
    net = FlowNetwork(name="undirected-diamond")
    for tail, head in [("s", "a"), ("s", "b"), ("a", "t"), ("b", "t"), ("a", "b")]:
        net.add_link(tail, head, 1, 0.1, directed=False)
    return net


class TestSolverFreeEngines:
    @pytest.mark.parametrize("method", ["bridge", "frontier", "frontier-directed"])
    def test_answered_pointwise(self, method):
        """These engines raise ``TypeError`` for any option the fallback
        might add; a served query must still get its answer."""
        if method == "frontier":
            net, rate = _undirected_diamond(), 1
        else:
            net, rate = fujita_fig2_bridge(), 2 if method == "bridge" else 1
        [payload] = answer_queries(
            [_query(net=net, method=method, rate=rate)],
            cache=ArrayCache(),
        )
        assert payload["ok"], payload
        expected = compute_reliability(net, "s", "t", rate, method=method)
        assert payload["points"][0]["reliability"] == expected.value
        assert payload["method"] == method


def _engine_bug(*args, **kwargs):
    raise RuntimeError("engine bug")


class TestUnexpectedFailures:
    """An exception that is not a ``ReproError`` fails one query or one
    plan, never the round."""

    def test_failing_engine_answers_internal_and_spares_the_round(
        self, monkeypatch, capsys
    ):
        import repro.core.api as api

        monkeypatch.setattr(api, "factoring_reliability", _engine_bug)
        net = fujita_fig4()
        broken, auto, naive = answer_queries(
            [
                _query(net=net, method="factoring", qid=1),
                _query(net=net, qid=2),
                _query(net=net, method="naive", qid=3),
            ],
            cache=ArrayCache(),
        )
        assert broken["ok"] is False and broken["id"] == 1
        assert broken["error"] == {
            "code": ERROR_INTERNAL,
            "message": "RuntimeError: engine bug",
        }
        demand = FlowDemand("s", "t", 2)
        assert auto["ok"] and auto["points"][0]["reliability"] == (
            bottleneck_reliability(net, demand).value
        )
        assert naive["ok"] and naive["points"][0]["reliability"] == (
            compute_reliability(net, demand=demand, method="naive").value
        )
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: engine bug" in err

    def test_failing_plan_falls_back_per_query(self, monkeypatch):
        import repro.serve.planner as planner

        monkeypatch.setattr(planner, "compute_reliability_sweep", _engine_bug)
        net = fujita_fig4()
        payloads = answer_queries(
            [_query(net=net, qid=1), _query(net=net, qid=2, availability=0.95)],
            cache=ArrayCache(),
        )
        assert [p["ok"] for p in payloads] == [True, True]
        assert payloads[0]["points"][0]["reliability"] == (
            compute_reliability(net, "s", "t", 2).value
        )
        assert payloads[1]["points"][0]["reliability"] == (
            compute_reliability(
                net.with_failure_probabilities([1 - 0.95] * net.num_links), "s", "t", 2
            ).value
        )
