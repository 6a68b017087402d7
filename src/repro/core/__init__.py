"""The paper's algorithms: naive, bridge, bottleneck, chain, factoring,
Monte-Carlo and bounds, plus the dispatching :func:`compute_reliability`."""

from repro.core.api import available_methods, compute_reliability
from repro.core.arrays import build_relation_cover, build_side_cover
from repro.core.assignments import (
    classify_by_support,
    count_assignments,
    describe_assignment,
    enumerate_assignments,
    iter_support_classes,
    support_mask,
    supported_assignment_indices,
    supports,
)
from repro.core.bottleneck import bottleneck_reliability, pattern_probability
from repro.core.bounds import cut_upper_bound, reliability_bounds, route_lower_bound
from repro.core.bridge import bridge_reliability
from repro.core.chain import chain_reliability
from repro.core.demand import FlowDemand
from repro.core.factoring import factoring_reliability
from repro.core.feasibility import FeasibilityOracle
from repro.core.frontier import (
    bfs_link_order,
    directed_frontier_reliability,
    frontier_reliability,
    frontier_width,
)
from repro.core.distribution import (
    FlowValueDistribution,
    flow_value_distribution,
    sampled_flow_value_distribution,
)
from repro.core.importance import (
    LinkImportance,
    link_importances,
    most_important_link,
)
from repro.core.montecarlo import montecarlo_reliability, wilson_interval, z_quantile
from repro.core.multisink import (
    CoverageReport,
    broadcast_reliability,
    coverage_curve,
    coverage_distribution,
)
from repro.core.naive import feasibility_table, naive_reliability
from repro.core.polynomial import ReliabilityPolynomial, reliability_polynomial
from repro.core.transient import LinkDynamics, availability_at, reliability_over_time
from repro.core.rare import (
    DestructionSpectrum,
    destruction_spectrum,
    poisson_binomial,
    rare_reliability,
    validate_probabilities,
)
from repro.core.result import EstimateResult, ReliabilityResult
from repro.core.sweep import (
    ArrayCache,
    SweepResult,
    SweepSpec,
    cached_side_cover,
    compute_reliability_sweep,
)

__all__ = [
    "FlowDemand",
    "ReliabilityResult",
    "EstimateResult",
    "FeasibilityOracle",
    "compute_reliability",
    "available_methods",
    "naive_reliability",
    "feasibility_table",
    "bridge_reliability",
    "bottleneck_reliability",
    "pattern_probability",
    "chain_reliability",
    "factoring_reliability",
    "montecarlo_reliability",
    "wilson_interval",
    "z_quantile",
    "DestructionSpectrum",
    "destruction_spectrum",
    "rare_reliability",
    "cut_upper_bound",
    "route_lower_bound",
    "reliability_bounds",
    "enumerate_assignments",
    "count_assignments",
    "support_mask",
    "supports",
    "supported_assignment_indices",
    "classify_by_support",
    "iter_support_classes",
    "describe_assignment",
    "build_side_cover",
    "build_relation_cover",
    "ArrayCache",
    "SweepSpec",
    "SweepResult",
    "cached_side_cover",
    "compute_reliability_sweep",
    # extensions
    "FlowValueDistribution",
    "flow_value_distribution",
    "sampled_flow_value_distribution",
    "CoverageReport",
    "broadcast_reliability",
    "coverage_curve",
    "coverage_distribution",
    "poisson_binomial",
    "validate_probabilities",
    "frontier_reliability",
    "directed_frontier_reliability",
    "LinkImportance",
    "link_importances",
    "most_important_link",
    "ReliabilityPolynomial",
    "reliability_polynomial",
    "LinkDynamics",
    "availability_at",
    "reliability_over_time",
    "bfs_link_order",
    "frontier_width",
]
