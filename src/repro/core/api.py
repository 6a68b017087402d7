"""High-level entry point: :func:`compute_reliability`.

Dispatches to the right algorithm:

* ``method="auto"`` — search for a bottleneck cut once; if one exists
  whose sides are enumerable, run the paper's algorithm on that split
  (its kernels are picked by the input, so no engine option reaches
  it); otherwise fall back
  to factoring (exact on any network) for moderate link counts, to the
  rare-event estimator tier (:mod:`repro.core.rare`) once the network
  outgrows every exact engine's enumeration guard, and to naive only
  for tiny instances where it is just as cheap.
* explicit ``method`` — any name from :func:`available_methods`:
  the exact engines (``naive``, ``bottleneck``, ``bridge``,
  ``chain``, ``factoring``, ``frontier``, ``frontier-directed``) and
  the estimators (``montecarlo``, ``rare``).  ``series-parallel``,
  ``minpaths`` and ``montecarlo-stratified`` were removed and raise
  :class:`ReproValueError` with a pointer to the tables that removed
  them.

All exact methods return a
:class:`~repro.core.result.ReliabilityResult`; the estimators return an
:class:`~repro.core.result.EstimateResult` (same ``float(...)``
protocol).
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.bridge import bridge_reliability
from repro.core.bottleneck import bottleneck_reliability
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.factoring import factoring_reliability
from repro.core.montecarlo import montecarlo_reliability
from repro.core.naive import MAX_NAIVE_BITS, naive_reliability
from repro.core.result import EstimateResult, ReliabilityResult
from repro.core.sweep import bottleneck_split, point_reliability
from repro.exceptions import DecompositionError, ReproError, ReproValueError
from repro.graph.network import FlowNetwork, Node
from repro.obs.export import phase_summary
from repro.obs.recorder import current_recorder

__all__ = [
    "COALESCIBLE_METHODS",
    "REMOVED_METHODS",
    "REMOVED_POINTER",
    "available_methods",
    "compute_reliability",
    "dispatch_query",
    "is_coalescible",
    "removed_method_message",
]

#: Methods the serving daemon (:mod:`repro.serve`) may merge into one
#: coalesced sweep batch: only the bottleneck pipeline separates the
#: combinatorial phase (cacheable realization arrays) from the
#: probability phase, which is what :func:`repro.core.sweep.plan_batch`
#: exploits.  ``None`` (no explicit method) coalesces as ``"auto"``.
COALESCIBLE_METHODS = frozenset({"auto", "bottleneck"})
#: Where a removed engine's error points: the tables that removed it.
REMOVED_POINTER = 'see docs/PERFORMANCE.md "Removed engines"'

#: "auto" only picks naive below this many links (it is never *better*
#: than factoring, just simpler to predict).
_AUTO_NAIVE_BITS = 12
#: "auto" only accepts a bottleneck split whose larger side stays below
#: this many links.
_AUTO_SIDE_BITS = 20
#: Past this many links (with no enumerable bottleneck split) "auto"
#: stops pretending an exact answer is reachable and hands the query to
#: the rare-event estimator tier instead of factoring.
_AUTO_ESTIMATE_LINKS = 24
#: The estimator tier's bitmask-packing ceiling (shared with
#: ``repro.probability.bitset``); beyond it "auto" has no path and the
#: explicit engines' own guards apply.
_AUTO_ESTIMATE_MAX_LINKS = 63
#: Options ``method="auto"`` accepts; it forwards each to the engines
#: of the dispatch that take it and rejects everything else rather than
#: dropping it.
_AUTO_OPTIONS = frozenset({"cache", "max_cut_size", "seed", "num_samples"})
#: Deleted engines, by their former method name, each with the reason
#: its table gave (the CLI's ``--method`` pointers and the serving
#: daemon's ``bad-request`` are built from this table too).
REMOVED_METHODS = {
    "series-parallel": "the series-parallel reduction engine never beat "
    "frontier-directed",
    "minpaths": "minpath inclusion-exclusion never beat frontier-directed",
    "montecarlo-stratified": "stratified Monte-Carlo was never the first "
    "to a 10% CI relative error on U",
}


def removed_method_message(method: str) -> str:
    """Why ``method`` is gone and where its table lives."""
    return f"method {method!r} was removed: {REMOVED_METHODS[method]}; {REMOVED_POINTER}"


def available_methods() -> list[str]:
    """Names accepted by :func:`compute_reliability`."""
    return [
        "auto",
        "naive",
        "bottleneck",
        "bridge",
        "factoring",
        "chain",
        "frontier",
        "frontier-directed",
        "montecarlo",
        "rare",
    ]


def compute_reliability(
    net: FlowNetwork,
    source: Node | None = None,
    sink: Node | None = None,
    rate: int | None = None,
    *,
    demand: FlowDemand | None = None,
    method: str = "auto",
    **options: Any,
) -> ReliabilityResult | EstimateResult:
    """Compute (or estimate) the reliability of ``net`` for a demand.

    The demand is given either as a :class:`FlowDemand` via ``demand=``
    or as the positional triple ``source, sink, rate``.

    ``options`` are forwarded to the chosen algorithm (e.g. ``cut=``,
    ``num_samples=``, ``cuts=`` for chain, ``cache=`` an
    :class:`repro.core.sweep.ArrayCache` for realization-array reuse);
    an engine that does not take an option raises ``TypeError``.
    ``method="auto"`` accepts only ``cache=``, ``max_cut_size=``,
    ``seed=`` and ``num_samples=`` and raises :class:`ReproValueError`
    for any other option.  It forwards ``cache=`` to the bottleneck
    engine and its cut-search memo, ``max_cut_size=`` to the cut
    search, and ``seed=`` and ``num_samples=`` to the rare-event tier.
    Every engine solves max flow with Dinic, and flow repair is never an
    option: the naive and rare-event engines always repair.

    A missing or doubled demand and an unknown ``method`` raise
    :class:`ReproValueError`.

    Examples
    --------
    >>> from repro.graph import diamond
    >>> result = compute_reliability(diamond(), "s", "t", 1)
    >>> 0.0 < result.value < 1.0
    True
    """
    if demand is None:
        if source is None or sink is None or rate is None:
            raise ReproValueError(
                "provide either demand= or the (source, sink, rate) triple"
            )
        demand = FlowDemand(source, sink, rate)
    elif (source, sink, rate) != (None, None, None):
        raise ReproValueError("pass demand= or the positional triple, not both")
    demand.validate_against(net)

    result = _dispatch(net, demand, method, options)
    recorder = current_recorder()
    if recorder is not None:
        # The phase accounting of the trace so far (for a recorder
        # installed around exactly this call: this call's phases) —
        # benches and dashboards read it off the result directly.
        result.details["obs"] = phase_summary(recorder)
    return result


def is_coalescible(method: str | None) -> bool:
    """Whether a served query with ``method`` may join a coalesced batch.

    The daemon routes everything else (explicit naive, factoring,
    Monte-Carlo, ...) through :func:`dispatch_query` individually.
    """
    return method is None or method in COALESCIBLE_METHODS


def dispatch_query(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    method: str | None = None,
    **options: Any,
) -> ReliabilityResult | EstimateResult:
    """Engine dispatch for one served query.

    The per-query back door of the serving daemon: queries that cannot
    ride a coalesced sweep batch — an explicit non-bottleneck method, or
    a topology with no admissible bottleneck cut — are answered here,
    through exactly the same dispatch chain as the CLI's ``repro
    compute`` (so served values stay pinned to the pointwise path).
    """
    return compute_reliability(
        net, demand=demand, method=method if method is not None else "auto", **options
    )


def _dispatch(
    net: FlowNetwork,
    demand: FlowDemand,
    method: str,
    options: dict[str, Any],
) -> ReliabilityResult | EstimateResult:
    if method == "naive":
        return naive_reliability(net, demand, **options)
    if method == "bottleneck":
        return bottleneck_reliability(net, demand, **options)
    if method == "bridge":
        return bridge_reliability(net, demand, **options)
    if method == "factoring":
        return factoring_reliability(net, demand, **options)
    if method == "frontier":
        from repro.core.frontier import frontier_reliability

        return frontier_reliability(net, demand, **options)
    if method == "frontier-directed":
        from repro.core.frontier import directed_frontier_reliability

        return directed_frontier_reliability(net, demand, **options)
    if method == "montecarlo":
        return montecarlo_reliability(net, demand, **options)
    if method == "rare":
        from repro.core.rare import rare_reliability

        return rare_reliability(net, demand, **options)
    if method == "chain":
        cuts: Sequence[Sequence[int]] | None = options.pop("cuts", None)
        if cuts is None:
            raise ReproValueError("method='chain' requires cuts=[[...], ...]")
        return chain_reliability(net, demand, cuts, **options)
    if method in REMOVED_METHODS:
        raise ReproValueError(removed_method_message(method))
    if method != "auto":
        raise ReproValueError(
            f"unknown method {method!r}; available: {available_methods()}"
        )

    # --- auto dispatch -------------------------------------------------
    unknown = sorted(set(options) - _AUTO_OPTIONS)
    if unknown:
        raise ReproValueError(
            f"method='auto' does not accept option(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(sorted(_AUTO_OPTIONS))}"
        )
    cache = options.get("cache")
    try:
        split = bottleneck_split(
            net, demand, None, options.get("max_cut_size", 3), cache=cache
        )
    except ReproError:
        # No usable split (e.g. a DecompositionError): fall back to the
        # whole-graph engines.  A bug in the cut search still raises.
        split = None
    if split is not None:
        side = max(len(split.source_side.link_map), len(split.sink_side.link_map))
        if side <= _AUTO_SIDE_BITS:
            try:
                return point_reliability(net, demand, split, cache=cache)
            except DecompositionError:
                pass
    if net.num_links <= _AUTO_NAIVE_BITS:
        return naive_reliability(net, demand)
    if _AUTO_ESTIMATE_LINKS < net.num_links <= _AUTO_ESTIMATE_MAX_LINKS:
        # No enumerable bottleneck split and a state space past every
        # exact engine's guard: estimate instead of grinding factoring
        # through an exponential recursion.  Bounded relative error even
        # at five-nines availability, bit-replayable via seed=.
        from repro.core.rare import rare_reliability

        return rare_reliability(
            net,
            demand,
            seed=options.get("seed", 0),
            num_samples=options.get("num_samples"),
        )
    return factoring_reliability(net, demand)
