"""Max-flow substrate: the Dinic solver, residual machinery, cuts,
decomposition."""

from repro.flow.base import is_feasible, max_flow, max_flow_value
from repro.flow.decomposition import SubStream, decompose
from repro.flow.dinic import DinicSolver, MaxFlowResult
from repro.flow.incremental import IncrementalMaxFlow
from repro.flow.mincut import min_cut_capacity, min_cut_links, minimum_cut
from repro.flow.residual import (
    INFINITE_CAPACITY,
    ResidualGraph,
    ResidualTemplate,
    build_template,
)

__all__ = [
    "MaxFlowResult",
    "is_feasible",
    "max_flow",
    "max_flow_value",
    "DinicSolver",
    "IncrementalMaxFlow",
    "SubStream",
    "decompose",
    "min_cut_capacity",
    "min_cut_links",
    "minimum_cut",
    "INFINITE_CAPACITY",
    "ResidualGraph",
    "ResidualTemplate",
    "build_template",
]
