"""RR203 — spans and tickers must close on every path (dataflow tier).

``obs.span()`` / ``progress_ticker()`` instrumentation left open on an
exception path corrupts the trace for the rest of the process: gauges
are never flushed and nested spans mis-parent.  The rule tracks
resource handles bound outside a ``with`` and checks — on the CFG,
including the conservative exception edges — that every path to the
function exit closes, returns, or hands off the handle.  Both handle
types are context managers, so the fix is always the one-line
``with progress_ticker(...) as t:`` form.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.dataflow.cfg import EXIT, CFGNode
from repro.analysis.dataflow.fixpoint import DataflowAnalysis, solve_fixpoint
from repro.analysis.dataflow.reaching import call_name, own_exprs
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule

__all__ = ["SpanTickerLeak"]

#: Calls whose return value is an open instrumentation handle.
_ACQUIRERS = frozenset({"progress_ticker", "ProgressTicker", "span"})

#: Methods that close a handle.
_CLOSERS = frozenset({"finish", "close", "__exit__"})


def _acquired_call(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and call_name(value) in _ACQUIRERS


class _OpenHandles(DataflowAnalysis[frozenset]):
    """Forward may-analysis: ``(name, line)`` handles possibly open."""

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

        def release(name: str) -> None:
            result.difference_update({e for e in result if e[0] == name})

        # Closing calls and ownership hand-offs release the handle.  Only
        # the statement's own expressions count — a compound statement's
        # body executes at its own CFG nodes, not at the header.
        for part in own_exprs(stmt):
            for sub in ast.walk(part):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _CLOSERS
                    and isinstance(func.value, ast.Name)
                ):
                    release(func.value.id)
                    continue
                # A handle passed to any call escapes (stored/managed there).
                if not _acquired_call(sub):
                    for arg in list(sub.args) + [kw.value for kw in sub.keywords]:
                        if isinstance(arg, ast.Name):
                            release(arg.id)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            # ``with t:`` delegates closing to the context manager.
            for item in stmt.items:
                if isinstance(item.context_expr, ast.Name):
                    release(item.context_expr.id)
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            # Returning the handle transfers ownership to the caller.
            for sub in ast.walk(stmt.value):
                if isinstance(sub, ast.Name):
                    release(sub.id)
        if isinstance(stmt, ast.Assign):
            # Storing the handle into an object/container hands it off;
            # ``u = t`` renames the obligation; rebinding a name drops
            # its old handle; a fresh acquisition opens one.
            value = stmt.value
            plain_targets = [t for t in stmt.targets if isinstance(t, ast.Name)]
            if isinstance(value, ast.Name) and any(
                not isinstance(t, ast.Name) for t in stmt.targets
            ):
                release(value.id)
            moved = (
                {entry for entry in result if entry[0] == value.id}
                if isinstance(value, ast.Name)
                else set()
            )
            if isinstance(value, ast.Name) and plain_targets and moved:
                release(value.id)
            for target in plain_targets:
                release(target.id)
                if _acquired_call(value):
                    result.add((target.id, stmt.lineno))
                for _name, line in moved:
                    result.add((target.id, line))
        return frozenset(result)


@register_rule
class SpanTickerLeak(Rule):
    code = "RR203"
    name = "span-ticker-leak"
    tier = "dataflow"
    rationale = (
        "a progress_ticker()/span() handle not closed on every CFG path "
        "(exception edges included) leaves the trace unflushed and "
        "mis-parented; acquire it with `with` instead"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for qualname, _func, cfg in ctx.function_cfgs():
            if not any(
                _acquired_call(sub)
                for node in cfg.nodes
                if node.stmt is not None and isinstance(node.stmt, ast.Assign)
                for sub in ast.walk(node.stmt)
            ):
                continue
            states = solve_fixpoint(cfg, _OpenHandles())
            # Judge each edge into exit separately: an exception edge
            # leaving the *acquiring* statement itself does not leak —
            # if the acquire call raised, the handle never existed.
            open_at_exit: set[tuple[str, int]] = set()
            for edge in cfg.preds[EXIT]:
                source = cfg.nodes[edge.src]
                for name, line in states[edge.src][1]:
                    if edge.kind == "exception" and source.line == line:
                        continue
                    open_at_exit.add((name, line))
            leaked = sorted(open_at_exit, key=lambda e: (e[1], e[0]))
            for name, line in leaked:
                anchor = ast.stmt()
                anchor.lineno = line  # type: ignore[attr-defined]
                anchor.col_offset = 0  # type: ignore[attr-defined]
                yield ctx.finding(
                    anchor,
                    self.code,
                    f"{qualname}(): handle {name!r} acquired here may stay open "
                    "on some path to the function exit (exception paths count); "
                    f"use `with` so {name}.finish() runs on every path",
                )
