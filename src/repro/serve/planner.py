"""The query planner: coalesce a round of queries into sweep batches.

Every query expands to its sweep points (one ``(network, demand)`` pair
per point), the whole round is merged by
:func:`repro.core.sweep.plan_batch` — queries sharing a topology
fingerprint, terminals and rate collapse into **one** plan: one cut
search, one cached array build, one vectorized Eq. 2/3 grid — and each
plan runs as a single :func:`repro.core.sweep.compute_reliability_sweep`
against the shared :class:`~repro.core.sweep.ArrayCache`.  A plan that
misses no cached column is *warm*: that is what the ``warm`` response
flag and the ``serve_warm_hits`` counter report.  Both read the cache
misses of the answering plan, not its solve count — a cold column built
by the cut-certificate kernel spends no max-flow solve either.

Queries that cannot ride a batch — an explicit non-bottleneck method,
or a topology the sweep engine refuses (no admissible bottleneck cut,
intractable sides) — fall back per point to
:func:`repro.core.api.dispatch_query`, the same dispatch chain as the
CLI, so served values stay pinned to the pointwise path either way.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.api import dispatch_query, is_coalescible
from repro.core.sweep import ArrayCache, compute_reliability_sweep, plan_batch
from repro.exceptions import ReproError
from repro.flow.base import MaxFlowSolver
from repro.obs.recorder import (
    SERVE_COALESCED,
    SERVE_QUERIES,
    SERVE_WARM_HITS,
    count,
    span,
)
from repro.serve.protocol import (
    ERROR_COMPUTE,
    Query,
    error_payload,
    response_payload,
)

__all__ = ["answer_queries"]


def _fallback_values(
    query: Query, solver: str | MaxFlowSolver | None, cache: ArrayCache | None
) -> tuple[list[float], int, bool]:
    """Answer one query point-by-point through the API dispatch chain.

    Returns the values, the solves spent and whether every point was
    answered from cached realization columns alone.
    """
    assert query.net is not None and query.demand is not None and query.spec is not None
    values: list[float] = []
    flow_calls = 0
    warm = is_coalescible(query.method)
    with span("serve.query", method=query.method or "auto", points=len(query.spec)):
        for index in range(len(query.spec)):
            point_net = query.spec.point_network(query.net, index)
            result = dispatch_query(
                point_net,
                query.demand,
                method=query.method,
                solver=solver,
                **({"cache": cache} if warm else {}),
            )
            values.append(result.value)
            flow_calls += getattr(result, "flow_calls", 0)
            traffic = result.details.get("array_cache")
            warm = warm and traffic is not None and traffic["misses"] == 0
    return values, flow_calls, warm


def answer_queries(
    queries: Sequence[Query],
    *,
    cache: ArrayCache,
    solver: str | MaxFlowSolver | None = None,
) -> list[dict[str, Any]]:
    """Answer one round of ``op="query"`` queries, preserving order.

    Returns one response payload per query (success or
    ``compute-error``); protocol-level errors never reach this function.
    A failing merged plan degrades to per-query fallback instead of
    failing its batch siblings.
    """
    count(SERVE_QUERIES, len(queries))
    payloads: list[dict[str, Any] | None] = [None] * len(queries)

    # -- split: batchable queries expand into flat sweep points ------------
    flat_points = []  # (net, demand) per point, across batchable queries
    point_owner: list[int] = []  # flat point -> query index
    fallback: list[int] = []
    for qi, query in enumerate(queries):
        assert query.spec is not None and query.net is not None
        assert query.demand is not None
        if not is_coalescible(query.method):
            fallback.append(qi)
            continue
        for pi in range(len(query.spec)):
            flat_points.append((query.spec.point_network(query.net, pi), query.demand))
            point_owner.append(qi)

    with span("serve.batch", queries=len(queries), points=len(flat_points)):
        plans = plan_batch(flat_points)
        point_values: dict[int, float] = {}
        query_flow_calls: dict[int, int] = {}
        query_warm: dict[int, bool] = {}
        query_batch: dict[int, tuple[int, int]] = {}
        for plan in plans:
            members = sorted({point_owner[i] for i in plan.indices})
            try:
                swept = compute_reliability_sweep(
                    plan.net,
                    plan.demand,
                    sweep=plan.spec,
                    solver=solver,
                    cache=cache,
                )
            except ReproError:
                # The whole plan is un-sweepable (no admissible cut,
                # intractable sides): its members fall back individually
                # without poisoning the rest of the round.
                fallback.extend(members)
                continue
            for position, result in zip(plan.indices, swept.results):
                point_values[position] = result.value
            if len(members) > 1:
                count(SERVE_COALESCED, len(members) - 1)
            for qi in members:
                query_flow_calls[qi] = swept.flow_calls
                query_warm[qi] = swept.cache_stats["misses"] == 0
                query_batch[qi] = (len(members), len(plan.indices))

        # -- scatter batch answers back per query -------------------------
        flat_index = 0
        for qi, query in enumerate(queries):
            assert query.spec is not None
            if not is_coalescible(query.method):
                continue
            indices = range(flat_index, flat_index + len(query.spec))
            flat_index += len(query.spec)
            if qi in fallback:
                continue
            if query_warm[qi]:
                count(SERVE_WARM_HITS, 1)
            batch_queries, batch_points = query_batch[qi]
            payloads[qi] = response_payload(
                query,
                [point_values[i] for i in indices],
                flow_calls=query_flow_calls[qi],
                warm=query_warm[qi],
                batch_queries=batch_queries,
                batch_points=batch_points,
                method="bottleneck",
            )

        # -- the pointwise back door --------------------------------------
        for qi in fallback:
            query = queries[qi]
            try:
                values, flow_calls, warm = _fallback_values(query, solver, cache)
            except ReproError as exc:
                payloads[qi] = error_payload(ERROR_COMPUTE, str(exc), query.qid)
                continue
            if warm:
                count(SERVE_WARM_HITS, 1)
            assert query.spec is not None
            payloads[qi] = response_payload(
                query,
                values,
                flow_calls=flow_calls,
                warm=warm,
                batch_queries=1,
                batch_points=len(query.spec),
                method=query.method or "auto",
            )

    complete = [p for p in payloads if p is not None]
    if len(complete) != len(queries):  # pragma: no cover - every path fills one
        raise ReproError("planner failed to answer every query")
    return complete
