"""E8 — speedup vs α: the exponent is the *larger* side.

Regenerates: at fixed |E|, sweeping the split ratio α from balanced to
lopsided.  The bottleneck algorithm costs |D| (2^{|E_s|} + 2^{|E_t|}),
so its cost should grow roughly 2^{α|E|} while naive stays flat."""

from repro.bench.harness import time_call
from repro.bench.workloads import alpha_workload
from repro.core import bottleneck_reliability, naive_reliability

TOTAL_SIDE_LINKS = 12
ALPHAS = (0.5, 0.67, 0.83)


def _alpha_rows():
    rows = []
    cost_series = []
    for alpha in ALPHAS:
        workload = alpha_workload(TOTAL_SIDE_LINKS, alpha, demand=2, k=2, seed=2)
        net, demand = workload.network, workload.demand
        bneck = time_call(bottleneck_reliability, net, demand, cut=[0, 1], repeats=1)
        naive = time_call(naive_reliability, net, demand, repeats=1)
        assert abs(naive.value.value - bneck.value.value) < 1e-9
        achieved = bneck.value.details["alpha"]
        cost_series.append(bneck.value.configurations)
        rows.append(
            [
                f"{alpha:.2f}",
                f"{achieved:.2f}",
                bneck.value.configurations,
                f"{bneck.seconds * 1e3:.2f}",
                naive.value.flow_calls,
                f"{naive.seconds * 1e3:.2f}",
            ]
        )
    return rows, cost_series


def test_e8_alpha_series(benchmark, show):
    rows, cost_series = benchmark.pedantic(_alpha_rows, rounds=1, iterations=1)
    show(
        ["target alpha", "achieved", "bneck configs", "bneck ms", "naive calls", "naive ms"],
        rows,
        title=f"E8: alpha sweep at {TOTAL_SIDE_LINKS} side links (k=2, d=2)",
    )
    # Shape: bottleneck cost, the 2^{|E_s|} + 2^{|E_t|} configurations its
    # arrays enumerate, strictly grows with alpha.
    assert cost_series[0] < cost_series[1] < cost_series[2]


def test_e8_worst_alpha(benchmark):
    workload = alpha_workload(TOTAL_SIDE_LINKS, ALPHAS[-1], demand=2, k=2, seed=2)
    result = benchmark(
        bottleneck_reliability, workload.network, workload.demand, cut=[0, 1]
    )
    assert 0 <= result.value <= 1
