"""Planner unit tests: coalescing, warm answers, fallback isolation."""

import json

import numpy as np
import pytest

from repro.core import sweep
from repro.core.api import compute_reliability
from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.sweep import ArrayCache, SweepSpec, network_fingerprint, plan_batch
from repro.graph.builders import diamond, fujita_fig2_bridge, fujita_fig4, parallel_links
from repro.graph.network import FlowNetwork
from repro.graph.io import to_dict
from repro.obs import record
from repro.obs.recorder import SERVE_WARM_HITS
from repro.serve.planner import answer_queries
from repro.serve.protocol import ERROR_COMPUTE, ERROR_INTERNAL, QUERY_SCHEMA, decode_query


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


def _member(net, rate=2, spec=None):
    """One ``plan_batch`` entry: ``(net, demand, failure grid)``."""
    spec = spec if spec is not None else SweepSpec.overrides([{}])
    return net, FlowDemand("s", "t", rate), spec.failure_matrix(net)


class TestPlanBatch:
    def test_same_topology_merges_to_one_plan(self):
        net = fujita_fig4()
        plans = plan_batch([_member(net)] * 4)
        assert len(plans) == 1
        assert plans[0].indices == (0, 1, 2, 3)
        assert plans[0].failure_grid.shape == (4, net.num_links)
        assert plans[0].rows == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_probability_changes_share_a_fingerprint(self):
        net = fujita_fig4()
        shifted = net.with_failure_probabilities({0: 0.5})
        assert network_fingerprint(net) == network_fingerprint(shifted)
        plans = plan_batch([_member(net), _member(shifted)])
        assert len(plans) == 1
        assert plans[0].fingerprint == network_fingerprint(net)

    def test_different_rates_split_plans(self):
        net = fujita_fig4()
        plans = plan_batch([_member(net, rate=2), _member(net, rate=3)])
        assert len(plans) == 2

    def test_member_grids_stack_in_order(self):
        net = fujita_fig4()
        grid = _member(net, spec=SweepSpec.availability([0.9, 0.95, 0.99]))
        scale = _member(net, spec=SweepSpec.failure_scale([0.5]))
        [plan] = plan_batch([grid, scale])
        assert plan.rows == ((0, 3), (3, 4))
        assert np.array_equal(plan.failure_grid, np.concatenate([grid[2], scale[2]]))

    def test_one_fingerprint_per_query(self, monkeypatch):
        calls = []

        def counting(net):
            calls.append(net)
            return fingerprint(net)

        fingerprint = sweep.network_fingerprint
        monkeypatch.setattr(sweep, "network_fingerprint", counting)
        plan_batch([_member(fujita_fig4()), _member(diamond()), _member(fujita_fig4())])
        assert len(calls) == 3


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

        monkeypatch.setattr(planner, "grid_reliability", _engine_bug)
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


class TestBadQueries:
    """A query whose failure grid cannot be built fails alone."""

    def test_overscaled_query_gets_compute_error_and_siblings_answers(self):
        net = fujita_fig4()
        bad, sibling, other = answer_queries(
            [
                _query(net=net, qid="bad", failure_scale=[50.0]),
                _query(net=net, qid="sibling", failure_scale=[0.5]),
                _query(net=diamond(), qid="other"),
            ],
            cache=ArrayCache(),
        )
        assert bad["ok"] is False and bad["id"] == "bad"
        assert bad["error"]["code"] == ERROR_COMPUTE
        assert "pushes a link failure probability" in bad["error"]["message"]
        demand = FlowDemand("s", "t", 2)
        scaled = SweepSpec.failure_scale([0.5]).point_network(net, 0)
        assert sibling["ok"] and sibling["points"][0]["reliability"] == (
            bottleneck_reliability(scaled, demand).value
        )
        assert sibling["batch"] == {"queries": 1, "points": 1}
        assert other["ok"]

    @pytest.mark.parametrize(
        "axis",
        [
            {"failure_scale": [50.0]},
            {"failure_scale": [0.5, 50.0]},
            {"overrides": [{"99": 0.5}]},
        ],
        ids=["overscaled", "second-point-overscaled", "bad-link"],
    )
    def test_never_raises(self, axis):
        net = fujita_fig4()
        payloads = answer_queries(
            [_query(net=net, qid=1, **axis), _query(net=net, qid=2)],
            cache=ArrayCache(),
        )
        assert [p["id"] for p in payloads] == [1, 2]
        assert payloads[0]["ok"] is False
        assert payloads[0]["error"]["code"] == ERROR_COMPUTE
        assert payloads[1]["ok"]

    def test_unexpected_grid_failure_answers_internal(self, monkeypatch, capsys):
        broken = _query(qid="broken", failure_scale=[0.5])
        failure_matrix = SweepSpec.failure_matrix

        def buggy(spec, net):
            return _engine_bug() if spec is broken.spec else failure_matrix(spec, net)

        monkeypatch.setattr(SweepSpec, "failure_matrix", buggy)
        payloads = answer_queries([broken, _query(qid="fine")], cache=ArrayCache())
        assert payloads[0]["error"] == {
            "code": ERROR_INTERNAL,
            "message": "RuntimeError: engine bug",
        }
        assert payloads[1]["ok"]
        assert "RuntimeError: engine bug" in capsys.readouterr().err


class TestWarmRoundCost:
    def test_no_networks_one_fingerprint_per_query_no_side_digests(self, monkeypatch):
        """A warm round builds no ``FlowNetwork`` after decode, fingerprints
        each query's topology once and never re-serializes a side."""
        cache = ArrayCache()
        nets = [fujita_fig4(), diamond()]
        answer_queries([_query(net=net) for net in nets], cache=cache)
        queries = [
            _query(net=nets[0], availability=[0.9, 0.95]),
            _query(net=nets[1], failure_scale=[0.5, 2.0]),
            _query(net=nets[0], overrides=[{"0": 0.2}]),
        ]
        calls = {"networks": 0, "fingerprints": 0, "side_digests": 0}

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            FlowNetwork, "__init__", counted("networks", FlowNetwork.__init__)
        )
        monkeypatch.setattr(
            sweep, "network_fingerprint", counted("fingerprints", sweep.network_fingerprint)
        )
        monkeypatch.setattr(
            sweep, "side_fingerprint", counted("side_digests", sweep.side_fingerprint)
        )
        payloads = answer_queries(queries, cache=cache)
        assert all(p["ok"] and p["warm"] for p in payloads)
        assert calls == {"networks": 0, "fingerprints": 3, "side_digests": 0}
