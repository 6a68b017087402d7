"""Bridge decomposition — the paper's Eq. (1) special case (``k = 1``).

If a single link ``e' = (x, y)`` separates ``s`` from ``t``, then

    r(G) = r(G_s) · (1 − p(e')) · r(G_t)

where ``r(G_s)`` is the reliability of the source side for demand
``(s, x, d)`` and ``r(G_t)`` that of the sink side for ``(y, t, d)``.
With one bottleneck link the assignment set of Eq. 3 is the single
assignment ``(d)`` (or empty when ``c(e') < d``, making the reliability
zero), so Eq. 3 over the cut ``[e']`` *is* Eq. 1.  This module finds
the bridge and runs the bottleneck pipeline on it; Eq. 1's product
stays a test identity.
"""

from __future__ import annotations

import dataclasses

from repro.core.bottleneck import bottleneck_reliability
from repro.core.demand import FlowDemand
from repro.core.result import ReliabilityResult
from repro.exceptions import DecompositionError
from repro.graph.cuts import bridges_between
from repro.graph.network import FlowNetwork

__all__ = ["bridge_reliability"]


def bridge_reliability(
    net: FlowNetwork,
    demand: FlowDemand,
    *,
    bridge: int | None = None,
) -> ReliabilityResult:
    """Exact reliability via Eq. (1): ``bottleneck_reliability`` on the
    one-link cut ``[bridge]``, relabelled ``method="bridge"``.

    ``bridge`` names the separating link; when omitted the first
    s-t-separating bridge (Tarjan) is used.  Raises
    :class:`DecompositionError` when the network has none (or the given
    link does not separate the terminals).
    """
    demand.validate_against(net)
    if bridge is None:
        candidates = bridges_between(net, demand.source, demand.sink)
        if not candidates:
            raise DecompositionError("network has no s-t separating bridge")
        bridge = candidates[0]
    result = bottleneck_reliability(net, demand, cut=[bridge])
    return dataclasses.replace(
        result, method="bridge", details={**result.details, "bridge": bridge}
    )
