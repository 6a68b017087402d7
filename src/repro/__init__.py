"""repro — exact reliability calculation of P2P streaming flow networks
with bottleneck links.

Reproduction of Satoshi Fujita, *Reliability Calculation of P2P
Streaming Systems with Bottleneck Links*, IEEE IPDPSW 2017.

Quickstart
----------
>>> from repro import FlowNetwork, compute_reliability
>>> net = FlowNetwork()
>>> net.add_link("s", "m", 2, 0.1)
0
>>> net.add_link("m", "t", 2, 0.1)
1
>>> round(compute_reliability(net, "s", "t", 2).value, 4)
0.81

Subpackages
-----------
``repro.graph``
    The :class:`FlowNetwork` structure, builders/generators,
    connectivity, cut enumeration and bottleneck discovery.
``repro.flow``
    A from-scratch Dinic max-flow solver, min-cut extraction
    and flow decomposition into unit-rate sub-streams.
``repro.probability``
    Failure-configuration enumeration, subset-lattice transforms,
    inclusion–exclusion, Bernoulli sampling.
``repro.core``
    The algorithms: naive, bridge (Eq. 1), bottleneck (the paper),
    chain (multi-cut extension), factoring, Monte-Carlo, bounds.
``repro.p2p``
    The motivating substrate: peers, churn, overlay builders
    (single-tree / multi-tree / mesh), streaming simulation.
``repro.obs``
    Opt-in tracing/metrics/progress for the kernels: ``record()``,
    ``span()``, counters, ``repro profile`` (zero-cost when off).
"""

from repro import obs
from repro._version import __version__
from repro.core.api import available_methods, compute_reliability
from repro.core.demand import FlowDemand
from repro.core.result import EstimateResult, ReliabilityResult
from repro.core.sweep import ArrayCache, SweepResult, SweepSpec, compute_reliability_sweep
from repro.graph.network import FlowNetwork, Link

__all__ = [
    "__version__",
    "FlowNetwork",
    "Link",
    "FlowDemand",
    "ReliabilityResult",
    "EstimateResult",
    "compute_reliability",
    "available_methods",
    "ArrayCache",
    "SweepSpec",
    "SweepResult",
    "compute_reliability_sweep",
    "obs",
]
