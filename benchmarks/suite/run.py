"""One command for the end-to-end and per-layer benchmark suite.

Run from the repository root::

    python3 benchmarks/suite/run.py --workload exact-cold --seed 0
    python3 benchmarks/suite/run.py --workload exact-cold --seed 0 --trace 1 --spans spans.json
    python3 benchmarks/suite/run.py --seed 0            # every workload, one fresh process each
    python3 benchmarks/suite/run.py --check             # medians of 5 runs vs baseline.json
    python3 benchmarks/suite/run.py --quick             # tiny inputs, same code paths

With ``--trace 0`` a run prints every end-to-end metric of
``BENCHMARK.json``; with ``--trace 1`` it prints every per-layer metric
from a layered replay of the same inputs.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every output is checked against an exact oracle outside
the timed window; a wrong output makes the run exit with status 1.
The program is imported from the ``src/`` of the checkout this file is
in; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
#: Set-ups measured in fresh processes per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Seed-0 runs per workload whose medians ``--check`` compares.
CHECK_RUNS = 5
#: Per-layer counts that repeat exactly for one seed on the closed-loop
#: workloads (serve-mix rounds depend on arrival timing).
DETERMINISTIC = [
    "cuts.calls", "assignments.count", "arrays.flow_solves", "arrays.entries_built",
    "arrays.screened", "arrays.repairs", "arrays.paths_saved", "flow.solves", "flow.paths",
    "cache.hits", "cache.misses", "cache.bytes", "probability.configurations",
    "rare.spectrum_solves", "rare.samples",
]
#: Layers timed by the replay but not part of the request being modelled.
PROBE_LAYERS = {"rare.spectrum"}


def _fail(message: str) -> None:
    print(f"run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def _benchmark() -> dict[str, Any]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path} is missing")
    return json.loads(path.read_text())


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        _fail(f"imported repro from {repro.__file__}, not from this checkout")


# -- statistics ------------------------------------------------------------


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


# -- one workload in this process -----------------------------------------


def _make(name: str, seed: int, quick: bool, **options: Any) -> Any:
    if name == "serve-mix":
        from serve_mix import ServeMix

        return ServeMix(seed, quick, ROOT, **options)
    from workloads import EstimateRare, ExactCold, SweepWarm

    cls = {"exact-cold": ExactCold, "sweep-warm": SweepWarm, "estimate-rare": EstimateRare}[name]
    workload = cls(seed, quick)
    workload.warm_up()
    return workload


def _setup_only(name: str, seed: int, quick: bool) -> None:
    workload = _make(name, seed, quick)
    print("ready", flush=True)
    if name == "serve-mix":
        workload.close()


def _setup_seconds(name: str, seed: int, quick: bool) -> float:
    """Median wall time from process spawn to "ready" over fresh processes."""
    samples = []
    for _ in range(1 if quick else SETUP_REPEATS):
        command = [sys.executable, str(SUITE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--setup-only"] + (["--quick"] if quick else [])
        start = time.perf_counter()
        child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            assert child.stdout is not None
            ready, _, _ = select.select([child.stdout], [], [], 120.0)
            line = child.stdout.readline() if ready else b""
            samples.append(time.perf_counter() - start)
            if line.strip() != b"ready":
                raise RuntimeError(f"set-up of {name} failed")
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if child.returncode != 0:
            raise RuntimeError(f"set-up of {name} exited with {child.returncode}")
    return statistics.median(samples)


def _closed_loop(
    workload: Any, seconds: float
) -> tuple[list[tuple[int, Any]], list[float], list[float]]:
    """Calls in turn for ``seconds``, each right after one calibration job.

    Returns the outputs, each call's latency, and each latency in ``cal``.
    """
    import calibrate

    outputs: list[tuple[int, Any]] = []
    latencies: list[float] = []
    cals: list[float] = []
    start = time.perf_counter()
    while not outputs or time.perf_counter() - start < seconds:
        i = len(outputs)
        cal = calibrate.seconds()
        t0 = time.perf_counter()
        out = workload.request(i)
        latencies.append(time.perf_counter() - t0)
        cals.append(latencies[-1] / cal)
        outputs.append((i, out))
    return outputs, latencies, cals


def _measure(
    name: str, seed: int, seconds: float, quick: bool
) -> tuple[dict[str, float], int, list[str]]:
    """End-to-end metrics, tracing off."""
    from inputs import print_digests
    from serve_mix import OPEN_SHARE, failures, peak_rss_mb

    setup = _setup_seconds(name, seed, quick)
    workload = _make(name, seed, quick)
    print_digests(workload.inputs())
    if name == "serve-mix":
        try:
            open_samples = workload.open_phase(seconds * OPEN_SHARE)
            burst_samples, busy = workload.burst_phase(seconds * (1 - OPEN_SHARE))
            rss = workload.daemon.peak_rss_mb()
        finally:
            workload.close()
        cold = workload.stream.cold_digest.hexdigest()
        print(f"input cold-topologies sha256={cold}")
        samples = open_samples + burst_samples
        bad = failures(samples)
        answered = [s for s in open_samples if s.received is not None]
        lat = [s.received - s.due for s in answered]
        cals = [(s.received - s.due) / s.calibration for s in answered]
        per_s = len(burst_samples) / sum(b for b, _ in busy)
        per_cal = len(burst_samples) / sum(c for _, c in busy)
        attempted = len(samples)
    else:
        outputs, lat, cals = _closed_loop(workload, seconds)
        rss = peak_rss_mb()
        per_s = len(lat) / sum(lat)
        per_cal = len(cals) / sum(cals)
        bad = workload.check(outputs)
        attempted = len(outputs)
    # Seconds are printed but not bounded: host speed moves them by tens
    # of percent between runs (see calibrate.py and the README).
    print(f"samples {len(lat)} timed, {attempted} attempted; latency p50 "
          f"{statistics.median(lat):.6g} s, p90 {_p90(lat):.6g} s; throughput {per_s:.6g} 1/s")
    metrics = {
        "latency_p50_cal": statistics.median(cals),
        "throughput_per_cal": per_cal,
        "peak_rss_mb": rss,
        "setup_s": setup,
    }
    return metrics, attempted, bad


def _layer_metrics(tracer: Any, per: int) -> dict[str, float]:
    """Per-request self seconds and program counters of the replay."""
    self_s = tracer.self_seconds()
    counters = tracer.counters(exclude=PROBE_LAYERS)
    arrays = tracer.counters(layers={"arrays"})

    def solver(suffix: str) -> float:
        return sum(v for k, v in counters.items() if k.startswith("solver.") and k.endswith(suffix))

    hits = counters.get("array_cache_hits", 0)
    misses = counters.get("array_cache_misses", 0)
    spectrum = self_s.get("rare.spectrum", 0.0)
    raw = {
        "cuts.self_s": self_s.get("cuts", 0.0),
        "cuts.calls": tracer.span_count("cuts"),
        "assignments.self_s": self_s.get("assignments", 0.0),
        "assignments.count": counters.get("assignments_enumerated", 0),
        "arrays.self_s": self_s.get("arrays", 0.0),
        "arrays.flow_solves": arrays.get("flow_solves", 0),
        "arrays.entries_built": arrays.get("array_entries_built", 0),
        "arrays.screened": arrays.get("screened_solves", 0),
        "arrays.repairs": arrays.get("flow_repairs", 0),
        "arrays.paths_saved": arrays.get("augmenting_paths_saved", 0),
        "flow.solves": solver(".solves"),
        "flow.paths": solver(".paths"),
        "flow.self_s": solver(".seconds"),
        "cache.hits": hits,
        "cache.misses": misses,
        "cache.bytes": counters.get("array_cache_bytes", 0),
        "accumulate.self_s": self_s.get("accumulate", 0.0),
        "probability.configurations": counters.get("configurations_enumerated", 0),
        "rare.spectrum_s": spectrum,
        "rare.condition_s": self_s.get("rare.estimate", spectrum) - spectrum,
        "rare.spectrum_solves": counters.get("spectrum_solves", 0),
        "serve.decode_s": self_s.get("serve.decode", 0.0),
        "serve.plan_s": self_s.get("serve.plan", 0.0),
        "serve.encode_s": self_s.get("serve.encode", 0.0),
    }
    out = {key: value / per for key, value in raw.items()}
    out["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def _traced(
    name: str, seed: int, seconds: float, quick: bool
) -> tuple[dict[str, float], int, list[str], Any]:
    """Per-layer metrics from the layered replay."""
    from inputs import print_digests
    from spans import Tracer

    tracer = Tracer()
    if name == "serve-mix":
        import serve_mix

        extra, per, attempted, bad = serve_mix.traced(seed, quick, ROOT, seconds, tracer)
    else:
        workload = _make(name, seed, quick)
        print_digests(workload.inputs())
        # A fixed request list, so the counts repeat exactly.  Each replay
        # follows the untraced call of the same request.
        outputs, replayed, plain = [], [], []
        for i in range(workload.replay_count):
            t0 = time.perf_counter()
            outputs.append((i, workload.request(i)))
            plain.append(time.perf_counter() - t0)
            with tracer.request(i, name):
                replayed.append((i, workload.replay(tracer, i)))
        per = len(replayed)
        bad = workload.check(outputs) + workload.check(replayed)
        attempted = len(outputs) + len(replayed)
        skip = PROBE_LAYERS | {"request"}
        by_request = tracer.self_seconds_by_request()
        modelled = [
            sum(v for layer, v in by_request[i].items() if layer not in skip) for i in range(per)
        ]
        extra = dict(workload.extra_metrics(replayed))
        # The median of per-request ratios: neither machine drift nor one
        # preempted call can swing it.
        extra["trace.overhead_frac"] = statistics.median(
            m / p for m, p in zip(modelled, plain)
        ) - 1.0
    metrics = _layer_metrics(tracer, per)
    metrics.update(extra)
    return metrics, attempted, bad, tracer


def run_one(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    sys.path.insert(0, str(SUITE))
    if args.setup_only:
        _setup_only(args.workload, args.seed, args.quick)
        return 0
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.quick and args.seconds is None:
        seconds = 1.0
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    tracer = None
    if args.trace:
        # A layer this workload never enters reads 0.
        values = {m["name"]: 0.0 for m in declared}
        traced, attempted, bad, tracer = _traced(args.workload, args.seed, seconds, args.quick)
        values.update(traced)
    else:
        values, attempted, bad = _measure(args.workload, args.seed, seconds, args.quick)
    mismatch = set(values) ^ {m["name"] for m in declared}
    if mismatch:
        raise RuntimeError(f"metrics do not match BENCHMARK.json: {sorted(mismatch)}")
    for message in bad:
        print(f"FAILED {message}")
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        print(f"{args.workload} {m['name']} {value:.6g} {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    if tracer is not None and args.spans:
        payload = {"workload": args.workload, "seed": args.seed, "spans": tracer.to_json()}
        Path(args.spans).write_text(json.dumps(payload))
    result = {"correct": not bad, "attempted": attempted, "failed": len(bad), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not bad else 1


# -- several workloads, one fresh process each -----------------------------


def _child(
    workload: str, seed: int, trace: int, quick: bool, seconds: float | None
) -> dict[str, Any]:
    command = [sys.executable, str(SUITE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--trace", str(trace)]
    if quick:
        command.append("--quick")
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} exited with {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-1])


def _names(bench: dict[str, Any]) -> list[str]:
    return [w["name"] for w in bench["workloads"]]


def run_all(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    status = 0
    for workload in _names(bench):
        result = _child(workload, args.seed, args.trace, args.quick, args.seconds)
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} {entry['value']:.6g} {entry['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def _worse_by(entry: dict[str, Any], value: float, base: float) -> float:
    """How much worse ``value`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if value == base else float("inf")
    change = (value - base) / abs(base)
    return change if entry["better"] == "lower" else -change


def check(args: argparse.Namespace, bench: dict[str, Any]) -> int:
    """Median of ``CHECK_RUNS`` seed-0 runs vs ``baseline.json``, per metric bound;
    the deterministic per-layer counts of one traced run must match exactly."""
    path = SUITE / "baseline.json"
    baseline = {} if args.update_baseline else json.loads(path.read_text())
    status = 0
    for workload in _names(bench):
        runs = [_child(workload, 0, 0, args.quick, args.seconds) for _ in range(CHECK_RUNS)]
        traced = _child(workload, 0, 1, args.quick, args.seconds)
        if not all(r["correct"] for r in runs + [traced]):
            print(f"{workload}: incorrect outputs")
            status = 1
        medians = {
            m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
            for m in bench["end_to_end"]
        }
        counts = {} if workload == "serve-mix" else {
            name: traced["metrics"][name]["value"] for name in DETERMINISTIC
        }
        if args.update_baseline:
            baseline[workload] = {"end_to_end": medians, "per_layer": counts}
            continue
        base = baseline[workload]
        for m in bench["end_to_end"]:
            worse = _worse_by(m, medians[m["name"]], base["end_to_end"][m["name"]])
            verdict = "ok" if worse <= m["bound"] else "REGRESSED"
            status |= verdict != "ok"
            print(f"{workload} {m['name']} median {medians[m['name']]:.6g} vs "
                  f"{base['end_to_end'][m['name']]:.6g} {m['unit']}: worse by {worse:+.1%} "
                  f"(bound {m['bound']:.0%}) {verdict}")
        for name, value in counts.items():
            verdict = "ok" if value == base["per_layer"][name] else "CHANGED"
            status |= verdict != "ok"
            print(f"{workload} {name} {value:g} vs {base['per_layer'][name]:g}: {verdict}")
    if args.update_baseline:
        path.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    return status


def main(argv: list[str] | None = None) -> int:
    bench = _benchmark()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=_names(bench),
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0, help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: per-layer metrics from the layered replay")
    parser.add_argument("--spans", metavar="PATH", help="with --trace 1, write the spans here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and a 1 s window: a smoke test of every path")
    parser.add_argument("--check", action="store_true",
                        help="compare seed-0 medians with baseline.json")
    parser.add_argument("--update-baseline", action="store_true",
                        help="with --check, write the medians to baseline.json instead")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_program()
    if args.check:
        return check(args, bench)
    if args.workload is None:
        return run_all(args, bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())
