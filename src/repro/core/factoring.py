"""Factoring (conditioning) — the classic exact baseline.

Condition on one undecided link ``e``:

    R = (1 − p(e)) · R[e alive] + p(e) · R[e dead]

and recurse, short-circuiting whole subtrees:

* if the demand is infeasible even with **every** undecided link alive,
  the subtree contributes 0;
* if the demand is feasible with **only** the decided-alive links, every
  completion is feasible (monotonicity) and the subtree contributes 1.

With the max-flow feasibility oracle those two tests make factoring
dramatically cheaper than full enumeration on most instances while
remaining exact on *any* network — no bottleneck structure required.
It is the strongest general-purpose baseline in the library (ablation
A4) and the default for networks without a usable bottleneck cut.

Branching heuristic: prefer links that carry flow in the optimistic
max-flow solution — deciding them actually changes feasibility, whereas
branching on an unused link just doubles the tree.
"""

from __future__ import annotations

from repro.core.demand import FlowDemand
from repro.core.feasibility import FeasibilityOracle
from repro.core.result import ReliabilityResult
from repro.exceptions import IntractableError
from repro.graph.network import FlowNetwork

__all__ = ["factoring_reliability"]

#: Safety valve: refuse instances that could recurse deeper than this.
MAX_FACTORING_LINKS = 40


def factoring_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    use_flow_heuristic: bool = True,
) -> ReliabilityResult:
    """Exact reliability by conditioning with feasibility short-circuits.

    ``use_flow_heuristic`` toggles the carried-flow branching rule
    (disabled it falls back to lowest-index-first, which the A4
    ablation shows is markedly worse).
    """
    demand.validate_against(net)
    m = net.num_links
    if m > MAX_FACTORING_LINKS:
        raise IntractableError(
            f"factoring over {m} links may branch 2^{m} times",
            required=m,
            limit=MAX_FACTORING_LINKS,
        )
    oracle = FeasibilityOracle(net, demand.source, demand.sink, demand.rate)
    probabilities = net.failure_probabilities()
    # Links that never fail are decided alive up front — branching on
    # them would double the tree for a zero-probability branch.
    sure_mask = 0
    for index, p in enumerate(probabilities):
        if p == 0.0:
            sure_mask |= 1 << index
    full_mask = (1 << m) - 1
    nodes_visited = 0

    def recurse(alive: int, undecided: int) -> float:
        """Reliability conditioned on links outside ``alive | undecided``
        being dead and links in ``alive`` being up."""
        nonlocal nodes_visited
        nodes_visited += 1
        if not oracle.feasible(alive | undecided):
            return 0.0
        if oracle.feasible(alive):
            return 1.0
        # Both tests failed, so at least one undecided link matters.
        branch = -1
        if use_flow_heuristic:
            for index in oracle.used_links(alive | undecided, limit=demand.rate):
                if (undecided >> index) & 1:
                    branch = index
                    break
        if branch < 0:
            branch = (undecided & -undecided).bit_length() - 1
        bit = 1 << branch
        rest = undecided & ~bit
        p = probabilities[branch]
        return (1.0 - p) * recurse(alive | bit, rest) + p * recurse(alive, rest)

    value = recurse(sure_mask, full_mask & ~sure_mask)
    return ReliabilityResult(
        value=value,
        method="factoring",
        flow_calls=oracle.calls,
        configurations=nodes_visited,
        details={
            "branch_nodes": nodes_visited,
            "flow_heuristic": bool(use_flow_heuristic),
        },
    )
