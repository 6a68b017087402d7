"""The query planner: coalesce a round of queries into failure grids.

Every batchable query brings one ``(network, demand, failure grid)``,
its grid from :meth:`repro.core.sweep.SweepSpec.failure_matrix` (built
inside the query's own guard, so a query whose grid is invalid gets a
``compute-error`` and its siblings their answers).  The round is merged
by :func:`repro.core.sweep.plan_batch` — queries sharing a topology
fingerprint, terminals and rate collapse into **one** plan with their
grids stacked: one cut search (none once the shared cache memoizes the
topology's split), one cached cover build, one vectorized Eq. 2/3
grid — and each plan runs as a single
:func:`repro.core.sweep.grid_reliability` against the shared
:class:`~repro.core.sweep.ArrayCache`, each member reading its own row
range.  No per-point network is built.  A plan that misses no cached
side cover is *warm*: that is what the ``warm`` response flag and the
``serve_warm_hits`` counter report.  Both read the cache misses of the
answering plan, not its solve count — a cold cover built by the
cut-certificate kernel spends no max-flow solve either.

Queries that cannot ride a batch — an explicit non-bottleneck method,
or a topology the sweep engine refuses (no admissible bottleneck cut,
intractable sides) — fall back per point to
:func:`repro.core.api.dispatch_query`, the same dispatch chain as the
CLI, so served values stay pinned to the pointwise path either way.
"""

from __future__ import annotations

import traceback
from typing import Any, Sequence

import numpy as np

from repro.core.api import dispatch_query, is_coalescible
from repro.core.demand import FlowDemand
from repro.core.sweep import ArrayCache, grid_reliability, plan_batch
from repro.exceptions import ReproError
from repro.graph.network import FlowNetwork
from repro.obs.recorder import (
    SERVE_COALESCED,
    SERVE_QUERIES,
    SERVE_WARM_HITS,
    count,
    span,
)
from repro.serve.protocol import (
    ERROR_COMPUTE,
    ERROR_INTERNAL,
    Query,
    error_payload,
    response_payload,
)

__all__ = ["answer_queries"]


def _fallback_values(
    query: Query, cache: ArrayCache | None
) -> tuple[list[float], int, bool]:
    """Answer one query point-by-point through the API dispatch chain.

    A coalescible query (``auto``/``bottleneck`` on a plan the sweep
    refused) gets the shared ``cache``; any other method gets no
    option.  Returns the values, the solves spent and whether every
    point was answered from cached side covers alone.
    """
    assert query.net is not None and query.demand is not None and query.spec is not None
    values: list[float] = []
    flow_calls = 0
    warm = is_coalescible(query.method)
    options: dict[str, Any] = {"cache": cache} if warm else {}
    with span("serve.query", method=query.method or "auto", points=len(query.spec)):
        for index in range(len(query.spec)):
            point_net = query.spec.point_network(query.net, index)
            result = dispatch_query(
                point_net,
                query.demand,
                method=query.method,
                **options,
            )
            values.append(result.value)
            flow_calls += getattr(result, "flow_calls", 0)
            traffic = result.details.get("array_cache")
            warm = warm and traffic is not None and traffic["misses"] == 0
    return values, flow_calls, warm


def _failed(query: Query, exc: Exception) -> dict[str, Any]:
    """The error reply of one query whose computation raised ``exc``:
    ``compute-error`` for a :class:`~repro.exceptions.ReproError`,
    ``internal`` (traceback on stderr) for anything else."""
    if isinstance(exc, ReproError):
        return error_payload(ERROR_COMPUTE, str(exc), query.qid)
    traceback.print_exc()
    return error_payload(ERROR_INTERNAL, f"{type(exc).__name__}: {exc}", query.qid)


def answer_queries(
    queries: Sequence[Query],
    *,
    cache: ArrayCache,
) -> list[dict[str, Any]]:
    """Answer one round of ``op="query"`` queries, preserving order.

    Returns one response payload per query (success,
    ``compute-error`` for a :class:`~repro.exceptions.ReproError` or
    ``internal`` for any other exception, whose traceback goes to
    stderr); protocol-level errors never reach this function, and it
    never raises for one query's sake.  A query whose failure grid
    cannot be built fails alone; a failing merged plan, whatever it
    raises, degrades to per-query fallback instead of failing its batch
    siblings.
    """
    count(SERVE_QUERIES, len(queries))
    payloads: list[dict[str, Any] | None] = [None] * len(queries)

    # -- split: batchable queries bring their failure grids ----------------
    batched: list[tuple[FlowNetwork, FlowDemand, np.ndarray]] = []
    owner: list[int] = []  # batched entry -> query index
    fallback: list[int] = []
    for qi, query in enumerate(queries):
        assert query.spec is not None and query.net is not None
        assert query.demand is not None
        if not is_coalescible(query.method):
            fallback.append(qi)
            continue
        try:
            grid = query.spec.failure_matrix(query.net)
        except Exception as exc:  # one bad query must not end the round
            payloads[qi] = _failed(query, exc)
            continue
        batched.append((query.net, query.demand, grid))
        owner.append(qi)

    points = sum(len(grid) for _, _, grid in batched)
    with span("serve.batch", queries=len(queries), points=points):
        for plan in plan_batch(batched):
            members = [owner[i] for i in plan.indices]
            try:
                results, flow_calls, cache_stats = grid_reliability(
                    plan.net,
                    plan.demand,
                    plan.failure_grid,
                    cache=cache,
                    fingerprint=plan.fingerprint,
                )
            except Exception:
                # The whole plan is un-sweepable (no admissible cut,
                # intractable sides) or hit a bug: its members fall back
                # individually without poisoning the rest of the round.
                fallback.extend(members)
                continue
            if len(members) > 1:
                count(SERVE_COALESCED, len(members) - 1)
            warm = cache_stats["misses"] == 0
            for qi, (start, stop) in zip(members, plan.rows):
                if warm:
                    count(SERVE_WARM_HITS, 1)
                payloads[qi] = response_payload(
                    queries[qi],
                    [result.value for result in results[start:stop]],
                    flow_calls=flow_calls,
                    warm=warm,
                    batch_queries=len(members),
                    batch_points=len(results),
                    method="bottleneck",
                )

        # -- the pointwise back door --------------------------------------
        for qi in fallback:
            query = queries[qi]
            try:
                values, flow_calls, warm = _fallback_values(query, cache)
            except Exception as exc:  # one bad query must not end the daemon
                payloads[qi] = _failed(query, exc)
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
