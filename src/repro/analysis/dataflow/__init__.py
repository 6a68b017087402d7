"""Flow-sensitive analysis infrastructure for the dataflow rule tier.

The syntax tier (RR101–RR110) judges one AST node at a time; the rules
in the dataflow tier (RR201–RR204) reason about *paths*: does unseeded
randomness reach this ``return``, is a cached array mutated after
retrieval on some branch, is a span closed on the exception edge too?
Three layers make that possible:

:mod:`~repro.analysis.dataflow.cfg`
    An intraprocedural control-flow graph per Python function —
    branches, loops with ``else``, ``try/except/finally`` (with
    conservative exception edges), ``with``, ``match``, ``break`` /
    ``continue`` / ``return`` / ``raise``.

:mod:`~repro.analysis.dataflow.fixpoint`
    A generic monotone worklist solver: forward or backward, with the
    lattice (bottom / join / transfer) supplied per analysis.

:mod:`~repro.analysis.dataflow.reaching`
    Reaching-definitions and taint building blocks shared by the
    concrete rules: which names a statement binds, whether an
    expression derives from a tainted name, source/sink matching.
"""

from __future__ import annotations

from repro.analysis.dataflow.cfg import CFG, CFGNode, Edge, build_cfg, function_cfgs
from repro.analysis.dataflow.fixpoint import DataflowAnalysis, solve_fixpoint
from repro.analysis.dataflow.reaching import (
    TaintState,
    assigned_names,
    call_name,
    expression_names,
    is_taint_derived,
)

__all__ = [
    "CFG",
    "CFGNode",
    "DataflowAnalysis",
    "Edge",
    "TaintState",
    "assigned_names",
    "build_cfg",
    "call_name",
    "expression_names",
    "function_cfgs",
    "is_taint_derived",
    "solve_fixpoint",
]
