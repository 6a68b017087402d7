"""RR202 — cache-owned arrays must not be mutated in place (dataflow tier).

The content-addressed :class:`~repro.core.sweep.ArrayCache` (its cube
arrays), the :func:`~repro.core.sweep.cached_side_cover` dispatch that
serves them, and the memoised
:func:`~repro.probability.bitset.popcount_array` table all hand the
*same* numpy buffer to every caller.  An in-place store through any
alias silently poisons every later cache hit — the worst possible
failure mode for a bit-identity project, because the corruption only
shows up at the *next* sweep point.  The rule tracks direct aliases
(plain copies, slices, views) of cache-owned arrays flow-sensitively
and flags in-place mutation through any of them; ``.copy()`` (or any
value-producing operation) breaks the alias and is the sanctioned way
to get a writable array.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.dataflow.cfg import CFGNode
from repro.analysis.dataflow.fixpoint import DataflowAnalysis, solve_fixpoint
from repro.analysis.dataflow.reaching import call_name, iter_assign_pairs, own_exprs
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule

__all__ = ["CacheAliasMutation"]

#: Functions whose return value is a shared, cache-owned buffer.
_SOURCE_FUNCTIONS = frozenset({"cached_side_cover", "popcount_array"})

#: ndarray methods that return a *view* of the receiver (alias survives).
_VIEW_METHODS = frozenset({"view", "reshape", "ravel", "transpose", "squeeze"})

#: ndarray methods that mutate the receiver in place.
_MUTATING_METHODS = frozenset(
    {"fill", "sort", "partition", "itemset", "resize", "byteswap", "setfield"}
)


def _is_cache_get(node: ast.AST) -> bool:
    """``<cache>.get(key, num_links, num_assignments)`` — the
    three-argument ArrayCache read (dict-style ``.get(key)`` and
    ``.get(key, default)`` probes are not arrays)."""
    if not isinstance(node, ast.Call) or len(node.args) != 3:
        return False
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "get"
        and isinstance(func.value, ast.Name)
        and "cache" in func.value.id.lower()
    )


def _is_source(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call) and call_name(node) in _SOURCE_FUNCTIONS
    ) or _is_cache_get(node)


def _alias_base(expr: ast.expr) -> str | None:
    """The root variable name when ``expr`` is a direct alias chain.

    Covers the shapes that share memory with the root: the bare name, a
    subscript/slice, ``.T``, and the view-producing ndarray methods.
    Anything else (``.copy()``, ``.astype()``, arithmetic, ``np.where``)
    yields a fresh array and returns ``None``.
    """
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Subscript):
        return _alias_base(expr.value)
    if isinstance(expr, ast.Attribute) and expr.attr == "T":
        return _alias_base(expr.value)
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in _VIEW_METHODS
    ):
        return _alias_base(expr.func.value)
    return None


class _DirectAlias(DataflowAnalysis[frozenset]):
    """Forward may-analysis: names that alias a cache-owned buffer."""

    direction = "forward"

    def bottom(self) -> frozenset:
        return frozenset()

    def initial(self) -> frozenset:
        return frozenset()

    def join(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, node: CFGNode, state: frozenset) -> frozenset:
        stmt = node.stmt
        if stmt is None or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return state
        result = set(state)
        for names, value in iter_assign_pairs(stmt):
            if isinstance(stmt, ast.AugAssign):
                continue  # mutation, not rebinding — judged as a sink
            base = _alias_base(value)
            if _is_source(value) or (base is not None and base in state):
                result.update(names)
            else:
                result.difference_update(names)
        return frozenset(result)


@register_rule
class CacheAliasMutation(Rule):
    code = "RR202"
    name = "cache-alias-mutation"
    tier = "dataflow"
    rationale = (
        "arrays from ArrayCache.get / cached_side_cover / popcount_array are "
        "shared buffers; mutating one in place poisons every later cache hit "
        "— call .copy() first to get a private writable array"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for qualname, _func, cfg in ctx.function_cfgs():
            if not any(
                _is_source(sub)
                for node in cfg.nodes
                if node.stmt is not None
                for sub in ast.walk(node.stmt)
            ):
                continue
            states = solve_fixpoint(cfg, _DirectAlias())
            for node in cfg.nodes:
                stmt = node.stmt
                if stmt is None or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                state = states[node.index][0]
                yield from self._check_stmt(ctx, qualname, stmt, state)

    def _check_stmt(
        self, ctx: ModuleContext, qualname: str, stmt: ast.AST, state: frozenset
    ) -> Iterator[Finding]:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                base = _alias_base(target) if isinstance(target, ast.Subscript) else None
                if base is not None and base in state:
                    yield self._finding(ctx, qualname, stmt, base, "subscript store into")
        elif isinstance(stmt, ast.AugAssign):
            base = _alias_base(stmt.target)
            if base is not None and base in state:
                yield self._finding(ctx, qualname, stmt, base, "augmented assignment to")
        for call in (
            sub for part in own_exprs(stmt) for sub in ast.walk(part)
        ):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
            ):
                base = _alias_base(func.value)
                if base is not None and base in state:
                    yield self._finding(
                        ctx, qualname, call, base, f"in-place .{func.attr}() on"
                    )
            for keyword in call.keywords:
                if (
                    keyword.arg == "out"
                    and isinstance(keyword.value, ast.Name)
                    and keyword.value.id in state
                ):
                    yield self._finding(
                        ctx, qualname, call, keyword.value.id, "out= write into"
                    )

    def _finding(
        self, ctx: ModuleContext, qualname: str, node: ast.AST, name: str, what: str
    ) -> Finding:
        return ctx.finding(
            node,
            self.code,
            f"{qualname}(): {what} {name!r}, which aliases a cache-owned "
            "array; the shared buffer would poison later cache hits — "
            "take a .copy() before mutating",
        )
