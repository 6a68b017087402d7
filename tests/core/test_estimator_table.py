"""The estimator tier against the committed time-to-accuracy table.

``benchmarks/BENCH_estimators.json`` (bench X9) timed every estimator to
a reported 10% CI relative error on the unreliability.  An estimator
stays only while it wins a row there, and every surviving estimator's
interval holds the exact value on every net of the table.
"""

import json
from pathlib import Path

import pytest

from repro.core.api import (
    REMOVED_METHODS,
    REMOVED_POINTER,
    available_methods,
    compute_reliability,
)
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.naive import naive_reliability
from repro.exceptions import ReproValueError
from repro.graph.builders import fujita_fig4, parallel_links
from repro.graph.generators import bottlenecked_network

TABLE = Path(__file__).resolve().parents[2] / "benchmarks" / "BENCH_estimators.json"
DEMAND = FlowDemand("s", "t", 2)
ESTIMATORS = ("montecarlo", "rare")
SEEDS = (1, 2, 3)
BUDGET = 4000
#: Thirty intervals are checked, so each is a 99% one: at 95% about 1.5
#: of them would miss by chance (at 95%, crude MC on the second 8 + 8
#: net misses at seed 2, with 2 failures seen in 4000 samples).
CONFIDENCE = 0.99


def _eight_by_eight(p_range):
    return bottlenecked_network(
        source_side_links=8, sink_side_links=8, seed=0, p_range=p_range
    )


#: The table's nets, by their row name, with the engine giving the exact value.
NETS = {
    "fig4 @ p=0.1": (lambda: fujita_fig4(failure_probability=0.1), "naive"),
    "fig4 @ p=1e-3": (lambda: fujita_fig4(failure_probability=1e-3), "naive"),
    "8 + 8 @ p in [0.05, 0.3]": (lambda: _eight_by_eight((0.05, 0.3)), "chain"),
    "8 + 8 @ p in [1e-3, 1e-2]": (lambda: _eight_by_eight((1e-3, 1e-2)), "chain"),
    "parallel_links(6, 1, 0.02)": (lambda: parallel_links(6, 1, 0.02), "naive"),
}


def _table() -> dict:
    return json.loads(TABLE.read_text())


def _exact(net, engine: str) -> float:
    if engine == "chain":
        return chain_reliability(net, DEMAND, [[0, 1]]).value
    return naive_reliability(net, DEMAND).value


class TestCommittedTable:
    def test_rows_are_the_nets_tested_here(self):
        assert [row["net"] for row in _table()["summary"]] == list(NETS)

    def test_exact_values_match_the_table(self):
        for row in _table()["summary"]:
            build, engine = NETS[row["net"]]
            assert 1.0 - _exact(build(), engine) == row["exact_unreliability"]

    def test_an_estimator_stays_exactly_when_it_wins_a_row(self):
        table = _table()
        winners = {row["winner"] for row in table["summary"]}
        for estimator in table["summary"][0]["median_ms"]:
            if estimator in winners:
                assert estimator in available_methods()
            else:
                assert estimator not in available_methods()
                assert estimator in REMOVED_METHODS

    def test_stratified_won_no_row(self):
        winners = [row["winner"] for row in _table()["summary"]]
        assert winners == ["montecarlo", "rare", "rare", "rare", "rare"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("name", list(NETS))
def test_interval_contains_the_exact_value(name, estimator, seed):
    build, engine = NETS[name]
    net = build()
    exact = _exact(net, engine)
    estimate = compute_reliability(
        net,
        demand=DEMAND,
        method=estimator,
        num_samples=BUDGET,
        seed=seed,
        confidence=CONFIDENCE,
    )
    # 1e-12 absorbs round-off only: permutation MC's interval on the
    # parallel links is zero-width (every order has critical number 5).
    assert estimate.low - 1e-12 <= exact <= estimate.high + 1e-12


@pytest.mark.parametrize("method", sorted(REMOVED_METHODS))
def test_removed_method_raises_with_its_reason_and_pointer(method):
    with pytest.raises(ReproValueError) as info:
        compute_reliability(fujita_fig4(), demand=DEMAND, method=method)
    message = str(info.value)
    assert f"method {method!r} was removed: {REMOVED_METHODS[method]}" in message
    assert REMOVED_POINTER in message


def test_removed_reasons_are_per_method():
    assert "frontier-directed" not in REMOVED_METHODS["montecarlo-stratified"]
    assert "10% CI" in REMOVED_METHODS["montecarlo-stratified"]
