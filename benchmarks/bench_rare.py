"""R1 — rare-event estimation: permutation MC vs crude MC.

Crude Monte-Carlo needs ``~1/U`` samples to *see* a single failure, so
at five-nines availability a realistic budget returns ``U = 0`` and a
relative error of 1.  The permutation estimator (``repro.core.rare``)
integrates the failure probability analytically per sampled failure
order, so every sample contributes; its error at the same budget is
orders of magnitude smaller.

Two workloads:

* **fig4 five-nines** — ``fujita_fig4`` at link availability 0.99999
  (``p = 1e-5``), where naive enumeration still yields the exact value.
  Asserted bar: permutation MC's observed relative error is >= 100x
  smaller than crude MC's at the *equal* budget.
* **beyond enumeration** — a 30-link chained network (the paper's
  topology: segments joined by 2-link bottleneck cuts; ``2^30``
  configurations, out of naive enumeration's reach) at ``p = 1e-5``,
  with a relative-error-vs-budget curve for crude MC and permutation
  MC.  Asserted bar: <= 10% CI relative error at the committed budget,
  and an interval that contains the chain engine's exact value.

The committed snapshot lives in ``benchmarks/BENCH_rare.json``; its
splitting rows are the last ones measured before fixed-effort
splitting was removed (docs/PERFORMANCE.md "Removed engines").
"""

import pytest

from repro.bench.harness import time_call
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.montecarlo import montecarlo_reliability
from repro.core.naive import naive_reliability
from repro.core.rare import rare_reliability
from repro.graph.builders import fujita_fig4
from repro.graph.generators import chained_network

#: Committed budget for the fig4 acceptance point (equal for every
#: estimator — the comparison is at equal budget by construction).
FIG4_BUDGET = 4000
FIG4_SEED = 7

#: Committed budget at which permutation MC must reach <= 10% relative
#: error on the beyond-enumeration workload.
CHAIN_BUDGET = 32_000
CHAIN_CURVE = [2000, 8000, 32_000]

_ESTIMATORS = [
    ("crude MC", montecarlo_reliability),
    ("permutation MC", rare_reliability),
]


def _chain_net():
    """30 links, 5 two-link bottleneck cuts, availability 0.99999."""
    return chained_network(
        [2, 4, 4, 4, 4, 2],
        cut_sizes=2,
        demand=2,
        seed=5,
        p_range=(1e-5, 1e-5),
    )


def _unreliability(estimate):
    """The rare-event estimators track U in full precision in details;
    ``1 - value`` would round it away below ~1e-12."""
    return estimate.details.get("unreliability", 1.0 - estimate.value)


def _ci_relative_error(estimate):
    """CI-based relative error on the unreliability (half-width / point)."""
    reported = estimate.details.get("relative_error")
    if reported is not None:
        return reported
    u = 1.0 - estimate.value
    if u <= 0.0:
        return 1.0  # saw nothing: the estimate carries no information
    return (estimate.high - estimate.low) / 2.0 / u


def _row(label, fn, net, demand, budget, seed):
    timing = time_call(fn, net, demand, num_samples=budget, seed=seed, repeats=1)
    est = timing.value
    return {
        "estimator": label,
        "budget": budget,
        "ms": round(timing.seconds * 1e3, 2),
        "unreliability": _unreliability(est),
        "ci_relative_error": round(_ci_relative_error(est), 6),
        "flow_calls": est.details.get("flow_calls"),
    }, est


def test_r1_five_nines_fig4(benchmark, show):
    """Fig. 4 at p=1e-5: >= 100x over crude MC at equal budget."""
    net = fujita_fig4(failure_probability=1e-5)
    demand = FlowDemand("s", "t", 2)
    exact_u = 1.0 - naive_reliability(net, demand).value

    def measure():
        rows = []
        for label, fn in _ESTIMATORS:
            row, est = _row(label, fn, net, demand, FIG4_BUDGET, FIG4_SEED)
            row["observed_error"] = round(
                abs(_unreliability(est) - exact_u) / exact_u, 6
            )
            rows.append(row)
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    by = {r["estimator"]: r for r in rows}

    # The acceptance point: <= 10% error at five nines at budget, and
    # >= 100x less observed error than crude MC at the same budget.
    assert by["permutation MC"]["observed_error"] <= 0.10
    assert by["permutation MC"]["ci_relative_error"] <= 0.10
    ratio = by["crude MC"]["observed_error"] / by["permutation MC"]["observed_error"]
    assert ratio >= 100.0, rows

    show(
        ["estimator", "ms", "unreliability", "obs. rel. err", "CI rel. err", "flow calls"],
        [
            [
                r["estimator"],
                f"{r['ms']:.1f}",
                f"{r['unreliability']:.3e}",
                f"{r['observed_error']:.4f}",
                f"{r['ci_relative_error']:.4f}",
                r["flow_calls"],
            ]
            for r in rows
        ],
        title=(
            f"R1: fujita_fig4 @ p=1e-5, budget {FIG4_BUDGET} "
            f"(exact U = {exact_u:.4e}, crude/perm error ratio {ratio:.0f}x)"
        ),
    )


@pytest.mark.parametrize("budget", CHAIN_CURVE)
def test_r1_beyond_exact_reach_curve(benchmark, show, budget):
    """30-link chained net: relative error vs budget."""
    net = _chain_net()
    assert net.num_links == 30
    demand = FlowDemand("s", "t", 2)

    rows = benchmark.pedantic(
        lambda: [
            _row(label, fn, net, demand, budget, 0)[0]
            for label, fn in _ESTIMATORS
        ],
        rounds=1,
        iterations=1,
    )
    by = {r["estimator"]: r for r in rows}
    # Crude MC sees nothing at any of these budgets (U ~ 1e-9); the
    # permutation estimator must resolve the event at every budget.
    assert by["crude MC"]["unreliability"] == 0.0
    assert by["permutation MC"]["unreliability"] > 0.0

    show(
        ["estimator", "ms", "unreliability", "CI rel. err", "flow calls"],
        [
            [
                r["estimator"],
                f"{r['ms']:.1f}",
                f"{r['unreliability']:.3e}",
                f"{r['ci_relative_error']:.4f}",
                r["flow_calls"],
            ]
            for r in rows
        ],
        title=f"R1: chained 2-link cuts (30 links, 2^30 configs), budget {budget}",
    )


def test_r1_beyond_exact_reach_committed_budget(benchmark, show):
    """The <=10% bar on the beyond-enumeration workload, asserted."""
    net = _chain_net()
    demand = FlowDemand("s", "t", 2)

    def measure():
        return rare_reliability(
            net, demand, num_samples=CHAIN_BUDGET, seed=0
        )

    perm = benchmark.pedantic(measure, rounds=1, iterations=1)
    exact = chain_reliability(net, demand, net._chain_cut_indices).value

    # Acceptance bar: <= 10% relative error at the committed budget.
    assert _ci_relative_error(perm) <= 0.10
    # Cross-validation against the exact chain engine.
    assert perm.low <= exact <= perm.high

    show(
        ["estimator", "unreliability", "CI rel. err"],
        [
            [
                "permutation MC",
                f"{_unreliability(perm):.3e}",
                f"{_ci_relative_error(perm):.4f}",
            ],
            ["chain (exact)", f"{1.0 - exact:.3e}", "-"],
        ],
        title=f"R1: committed budget {CHAIN_BUDGET} on the 30-link chained net",
    )
