"""Max-flow substrate: solvers, residual machinery, cuts, decomposition.

Import this package (not the individual solver modules) — importing it
registers every solver with the registry in :mod:`repro.flow.base`.
"""

from repro.flow.base import (
    DEFAULT_SOLVER,
    MaxFlowResult,
    MaxFlowSolver,
    available_solvers,
    get_solver,
    is_feasible,
    max_flow,
    max_flow_value,
    register_solver,
)
from repro.flow.capacity_scaling import CapacityScalingSolver
from repro.flow.decomposition import SubStream, decompose
from repro.flow.dinic import DinicSolver
from repro.flow.edmonds_karp import EdmondsKarpSolver
from repro.flow.incremental import IncrementalMaxFlow
from repro.flow.mincut import min_cut_capacity, min_cut_links, minimum_cut
from repro.flow.push_relabel import PushRelabelSolver
from repro.flow.residual import (
    INFINITE_CAPACITY,
    ResidualGraph,
    ResidualTemplate,
    build_template,
)

__all__ = [
    "DEFAULT_SOLVER",
    "MaxFlowResult",
    "MaxFlowSolver",
    "available_solvers",
    "get_solver",
    "is_feasible",
    "max_flow",
    "max_flow_value",
    "register_solver",
    "DinicSolver",
    "EdmondsKarpSolver",
    "PushRelabelSolver",
    "CapacityScalingSolver",
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
