"""Reaching-definitions / taint building blocks for the dataflow rules.

The RR201–RR204 rules all reduce to one shape: a *source* seeds a set
of variable names, assignments propagate or kill membership along CFG
paths, and a *sink* reached by a member is a finding.  This module
holds the shared pieces: which names a statement binds, whether an
expression derives from a tainted name, and a ready-made forward
may-taint analysis parameterised by a source predicate.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator

from repro.analysis.dataflow.cfg import CFGNode
from repro.analysis.dataflow.fixpoint import DataflowAnalysis

__all__ = [
    "TaintState",
    "NameTaint",
    "assigned_names",
    "call_name",
    "expression_names",
    "is_taint_derived",
    "iter_assign_pairs",
    "own_exprs",
]

#: The state of the ready-made taint analysis: tainted variable names.
TaintState = frozenset


def call_name(node: ast.AST) -> str | None:
    """The rightmost identifier of a call's callee, or ``None``."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def expression_names(node: ast.AST) -> set[str]:
    """Every plain variable name read anywhere under ``node``."""
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
    }


def own_exprs(stmt: ast.AST) -> list[ast.AST]:
    """The parts evaluated *at* a CFG node.

    A compound statement's CFG node carries its whole subtree, but only
    the header expression executes there — the body statements have
    their own nodes.  Walking ``own_exprs`` instead of the raw ``stmt``
    keeps transfer functions and sink scans from attributing nested
    statements to the header (wrong state, duplicate findings).  Simple
    statements are their own single part.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(
        stmt, (ast.Try, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    ):
        return []
    return [stmt]


def _target_names(target: ast.expr) -> Iterator[str]:
    """Plain names bound by one assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def assigned_names(stmt: ast.AST) -> set[str]:
    """Plain variable names bound by one statement.

    Covers ``=`` / ``+=`` / annotated assignments (tuple targets
    unpacked), ``for`` targets, ``with ... as`` names, walrus
    assignments anywhere in the statement's expressions, and names
    bound by ``except ... as``.  Attribute/subscript stores bind no
    plain name and are excluded by design.
    """
    names: set[str] = set()
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            names.update(_target_names(target))
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        names.update(_target_names(stmt.target))
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        names.update(_target_names(stmt.target))
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                names.update(_target_names(item.optional_vars))
    elif isinstance(stmt, ast.ExceptHandler):
        if stmt.name:
            names.add(stmt.name)
    for part in own_exprs(stmt):
        for sub in ast.walk(part):
            if isinstance(sub, ast.NamedExpr) and isinstance(sub.target, ast.Name):
                names.add(sub.target.id)
    return names


def iter_assign_pairs(stmt: ast.AST) -> Iterator[tuple[set[str], ast.expr]]:
    """``(bound names, value expression)`` pairs of one statement.

    One pair per assignment statement; ``for`` loops pair their targets
    with the iterable, walrus expressions pair their single name with
    their value.
    """
    if isinstance(stmt, ast.Assign):
        names: set[str] = set()
        for target in stmt.targets:
            names.update(_target_names(target))
        yield names, stmt.value
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        yield set(_target_names(stmt.target)), stmt.value
    elif isinstance(stmt, ast.AugAssign):
        yield set(_target_names(stmt.target)), stmt.value
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield set(_target_names(stmt.target)), stmt.iter
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                yield set(_target_names(item.optional_vars)), item.context_expr
    for part in own_exprs(stmt):
        for sub in ast.walk(part):
            if isinstance(sub, ast.NamedExpr) and isinstance(sub.target, ast.Name):
                yield {sub.target.id}, sub.value


def is_taint_derived(
    expr: ast.expr,
    tainted: frozenset[str],
    is_source: Callable[[ast.expr], bool],
) -> bool:
    """Whether an expression's value derives from taint.

    True when the expression mentions a tainted name or contains a
    source expression anywhere (conservative data dependence: any
    function of a tainted value is tainted).
    """
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and sub.id in tainted:
            return True
        if is_source(sub):
            return True
    return False


class NameTaint(DataflowAnalysis[frozenset]):
    """Forward may-taint over variable names.

    ``is_source`` marks expressions whose value is tainted at birth;
    assignments propagate (RHS derived from taint → targets tainted)
    and kill (clean RHS → targets cleaned).  ``seed`` names are tainted
    from function entry (used for parameter-derived taints).  The state
    is a frozenset of names; join is set union (may-analysis).
    """

    direction = "forward"

    def __init__(
        self,
        is_source: Callable[[ast.expr], bool],
        seed: frozenset[str] = frozenset(),
    ) -> None:
        self.is_source = is_source
        self.seed = frozenset(seed)

    def bottom(self) -> frozenset:
        return frozenset()

    def initial(self) -> frozenset:
        return self.seed

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, node: CFGNode, state: frozenset) -> frozenset:
        stmt = node.stmt
        if stmt is None:
            return state
        result = set(state)
        for names, value in iter_assign_pairs(stmt):
            if isinstance(stmt, ast.AugAssign):
                # ``x += e`` keeps x's own taint and adds e's.
                if is_taint_derived(value, state, self.is_source):
                    result.update(names)
            elif is_taint_derived(value, state, self.is_source):
                result.update(names)
            else:
                result.difference_update(names)
        return frozenset(result)
