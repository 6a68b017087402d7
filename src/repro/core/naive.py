"""The naive exact algorithm (paper §I, Fig. 1).

Enumerate all ``2^|E|`` failure configurations; for each, decide with a
max-flow computation whether the alive subgraph admits the demand; sum
the probabilities of the feasible ones.  ``O(2^|E| |V||E|)`` — the
baseline the bottleneck algorithm is measured against.

Three refinements:

* configuration probabilities come from the vectorized doubling table
  (:func:`repro.probability.configuration_probabilities`) instead of a
  per-configuration product;
* the lattice is walked in Gray-code order
  (:func:`repro.core.latticewalk.gray_walk_table`), and a long-lived
  :class:`repro.flow.incremental.IncrementalMaxFlow` *repairs* the
  previous configuration's flow across each one-link step instead of
  cold-solving;
* *monotone pruning* (ablated in benchmark A3): s-t flow feasibility is
  monotone in the alive set, so a visited infeasible one-link superset
  dooms a configuration and a visited feasible one-link subset blesses
  it, skipping the max-flow call entirely.

The table is bit-identical with or without repair or pruning — only
the solve accounting changes.  :func:`_lattice_table` is the one filler of
every ``2^m`` boolean feasibility table (:mod:`repro.core.multisink`
uses it too).
"""

from __future__ import annotations

import numpy as np

from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.latticewalk import gray_walk_table
from repro.core.result import ReliabilityResult
from repro.flow.incremental import plan_gray_order
from repro.graph.network import FlowNetwork
from repro.obs.progress import progress_ticker
from repro.obs.recorder import AUGMENTING_PATHS_SAVED, FLOW_REPAIRS, count, span
from repro.probability.enumeration import check_enumerable, configuration_probabilities

__all__ = ["naive_reliability", "feasibility_table"]

#: Hard cap for the naive method specifically (each configuration costs
#: a max-flow solve, so the practical budget is tighter than the
#: probability-table budget).
MAX_NAIVE_BITS = 24


def feasibility_table(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    prune: bool = True,
) -> tuple[np.ndarray, FeasibilityOracle]:
    """Boolean feasibility of every configuration, plus the oracle used.

    ``table[mask]`` is true iff the subgraph of links in ``mask``
    admits the demand.  With ``prune=True`` monotone pruning is applied;
    the oracle's ``calls`` attribute then reports how many max-flow
    solves were actually needed.  The table is identical either way.
    """
    demand.validate_against(net)
    m = net.num_links
    oracle = FeasibilityOracle(
        net, demand.source, demand.sink, demand.rate, incremental=True
    )
    with span("naive.enumerate", links=m, prune=bool(prune)):
        table = _lattice_table(oracle, m, prune=prune)
    return table, oracle


def _lattice_table(
    oracle: FeasibilityOracle, m: int, *, prune: bool, always_alive: int = 0
) -> np.ndarray:
    """Fill the ``2^m`` feasibility table of ``oracle`` by one Gray walk.

    Bit ``i`` of a mask is template link ``i``; ``always_alive`` links
    (failure-free virtual arcs above bit ``m``) are added to every
    query.  Consecutive queries differ in one link, so a repairing
    oracle carries its flow across the whole walk; a cold one solves
    each query afresh.  Pruning consults only visited neighbours
    (:func:`~repro.core.latticewalk.gray_walk_table`), so the table is
    exact either way.
    """
    check_enumerable(m, limit=MAX_NAIVE_BITS)
    size = 1 << m
    table = np.zeros(size, dtype=bool)
    order = plan_gray_order(
        oracle.template, oracle._s, oracle._t, m, limit=oracle.demand or None
    )
    with span("incremental.walk", kernel="naive", links=m):
        with progress_ticker("naive.configurations", total=size) as ticker:
            gray_walk_table(
                table,
                m,
                lambda mask: oracle.feasible(mask | always_alive),
                order=order,
                prune=prune,
                tick=ticker.tick,
            )
        engine = oracle.engine
        if engine is not None:
            if engine.repairs:
                count(FLOW_REPAIRS, engine.repairs)
            if engine.paths_saved:
                count(AUGMENTING_PATHS_SAVED, engine.paths_saved)
    return table


def naive_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    prune: bool = True,
) -> ReliabilityResult:
    """Exact reliability by full configuration enumeration.

    Parameters
    ----------
    net, demand:
        The problem instance.
    prune:
        Enable monotone pruning (identical result, fewer solves).

    Flow is always repaired across the walk: ``flow_calls`` counts the
    repair engine's solver invocations.
    """
    table, oracle = feasibility_table(net, demand, prune=prune)
    with span("naive.accumulate"):
        probabilities = configuration_probabilities(net)
        value = float(probabilities[table].sum())
    return ReliabilityResult(
        value=value,
        method="naive" if prune else "naive-unpruned",
        flow_calls=oracle.calls,
        configurations=len(table),
        details={
            "pruned": bool(prune),
            "incremental": bool(oracle.incremental),
            "feasible_configurations": int(table.sum()),
        },
    )
