"""OBS — the instrumentation layer's disabled-path overhead guard.

The `repro.obs` contract: with no recorder installed, every span /
counter / ticker call the kernels make degrades to a ContextVar read
and an early return, so tier-1 timings are unaffected.  This bench
quantifies that claim and fails if it drifts:

1. run the naive kernel on Fig. 4 under a recorder and *count* the
   instrumentation call volume it generates (spans opened, counter
   events, progress ticks);
2. time that same volume of disabled-path calls (no recorder);
3. assert the disabled-path cost is **< 5%** of the kernel's own
   best-of-N wall time.
"""

from repro import obs
from repro.bench.harness import time_call
from repro.core import FlowDemand, naive_reliability
from repro.graph import fujita_fig4

#: Acceptance threshold: disabled-path instrumentation cost as a
#: fraction of the kernel's own runtime.
MAX_OVERHEAD_FRACTION = 0.05


def _call_volume(net, demand):
    """Spans / counter events / ticks of one instrumented naive run."""
    with obs.record() as rec:
        result = naive_reliability(net, demand)
    spans = sum(1 for _ in rec.root.iter_spans()) - 1  # minus the root
    # Counter events: one per oracle solve (flow_solves), two per
    # residual solve (solver.dinic.solves + .seconds), one per
    # probability table.  Read the event multiplicities off the totals.
    totals = rec.counter_totals()
    solver_events = 2 * sum(
        int(v) for k, v in totals.items()
        if k.startswith("solver.") and k.endswith(".solves")
    )
    counter_events = int(totals.get("flow_solves", 0)) + solver_events + 1
    ticks = int(
        sum(
            s.gauges.get("naive.configurations.items", 0)
            for s in rec.root.iter_spans()
        )
    )
    return result, spans, counter_events, ticks


def _disabled_path(spans, counts, ticks):
    """The same call mix, with no recorder installed (all no-ops)."""
    ticker = obs.progress_ticker("obs.noop")  # NULL_TICKER
    for _ in range(spans):
        with obs.span("obs.noop", mask=0):
            pass
    for _ in range(counts):
        obs.count("flow_solves")
    for _ in range(ticks):
        ticker.tick()
    ticker.finish()


def test_obs_disabled_overhead_under_5_percent(benchmark, show):
    net = fujita_fig4()
    demand = FlowDemand("s", "t", 2)
    assert obs.current_recorder() is None

    result, spans, counter_events, ticks = _call_volume(net, demand)
    assert result.flow_calls > 0

    kernel = time_call(naive_reliability, net, demand, repeats=5)
    benchmark(_disabled_path, spans, counter_events, ticks)
    noop_seconds = time_call(
        _disabled_path, spans, counter_events, ticks, repeats=5
    ).seconds

    fraction = noop_seconds / kernel.seconds
    show(
        ["quantity", "value"],
        [
            ["kernel best-of-5 (s)", kernel.seconds],
            ["spans per run", spans],
            ["counter events per run", counter_events],
            ["progress ticks per run", ticks],
            ["disabled-path cost (s)", noop_seconds],
            ["overhead fraction", fraction],
            ["budget", MAX_OVERHEAD_FRACTION],
        ],
        title="OBS: disabled-instrumentation overhead (naive on Fig. 4)",
    )
    assert fraction < MAX_OVERHEAD_FRACTION, (
        f"disabled obs path costs {fraction:.1%} of the kernel "
        f"(budget {MAX_OVERHEAD_FRACTION:.0%})"
    )


# -- enabled-sink budget ----------------------------------------------------

#: Acceptance threshold for the *enabled* durable-telemetry path: a run
#: streaming events/v1 JSONL through a telemetry session may cost at
#: most this fraction extra over the same run with a plain in-memory
#: recorder (PR 7 tentpole budget).
MAX_SINK_OVERHEAD_FRACTION = 0.10


#: Kernel runs timed inside one session: the budget polices the
#: *streaming* cost (per-event encode + bounded-buffer flush), so the
#: session's fixed setup (mkdir, file open) is
#: amortised the way a real sweep amortises it over its whole grid.
SINK_BENCH_RUNS = 30


def test_obs_enabled_sink_overhead_under_10_percent(tmp_path, show):
    from repro.obs import telemetry_session
    from repro.obs.sink import PARENT_SPOOL_NAME, read_events

    net = fujita_fig4()
    demand = FlowDemand("s", "t", 2)

    def plain():
        with obs.record():
            for _ in range(SINK_BENCH_RUNS):
                naive_reliability(net, demand)

    def streamed(directory):
        with telemetry_session(directory):
            for _ in range(SINK_BENCH_RUNS):
                naive_reliability(net, demand)

    # Interleave best-of-N so machine drift hits both variants equally.
    plain_best = float("inf")
    streamed_best = float("inf")
    for repeat in range(5):
        plain_best = min(plain_best, time_call(plain, repeats=1).seconds)
        directory = tmp_path / f"ev-{repeat}"
        streamed_best = min(
            streamed_best, time_call(streamed, directory, repeats=1).seconds
        )

    events = read_events(tmp_path / "ev-4" / PARENT_SPOOL_NAME)
    overhead = streamed_best / plain_best - 1.0
    show(
        ["quantity", "value"],
        [
            ["kernel runs per session", SINK_BENCH_RUNS],
            ["recorder-only best-of-5 (s)", plain_best],
            ["telemetry-session best-of-5 (s)", streamed_best],
            ["events streamed per session", len(events)],
            ["sink overhead fraction", overhead],
            ["budget", MAX_SINK_OVERHEAD_FRACTION],
        ],
        title="OBS: enabled JSONL-sink overhead (naive on Fig. 4)",
    )
    assert events[0]["ev"] == "start" and events[-1]["ev"] == "finish"
    assert overhead < MAX_SINK_OVERHEAD_FRACTION, (
        f"streaming telemetry costs {overhead:.1%} extra "
        f"(budget {MAX_SINK_OVERHEAD_FRACTION:.0%})"
    )
