"""RR110 — realization arrays must not be rebuilt inside loops.

The §III-C realization arrays are purely combinatorial: the bits depend
on side topology, capacities, ports and the assignment set — never on
failure probabilities.  A ``build_side_array`` call inside a loop (the
rebuild-per-sweep-point anti-pattern) therefore repeats the
``|D| * 2^{m_side}`` entries whose answers cannot change.
Inside :mod:`repro.core`, repeated builds must go through the
content-addressed cache (:func:`repro.core.sweep.cached_side_array` with
an :class:`~repro.core.sweep.ArrayCache`) — or carry a
``# repro: noqa[RR110] <why>`` justifying why the rebuild is real work
(e.g. the topology or assignment set genuinely changes per iteration).

The rule flags builder calls whose call site sits inside a ``for`` /
``while`` body (without descending into nested function scopes) or
inside a comprehension.  Calls at straight-line function scope — build
once, use many times — are the sanctioned shape.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule

__all__ = ["UncachedArrayRebuild"]

#: The §III-C builder whose output is loop-invariant for a fixed split.
_BUILDERS = frozenset({"build_side_array"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _builder_calls(nodes: Iterator[ast.AST]) -> Iterator[tuple[ast.Call, str]]:
    for node in nodes:
        if isinstance(node, ast.Call):
            name = Rule.terminal_name(node.func)
            if name in _BUILDERS:
                yield node, name


@register_rule
class UncachedArrayRebuild(Rule):
    code = "RR110"
    name = "uncached-array-rebuild"
    rationale = (
        "rebuilding a realization array inside a loop repeats |D| * 2^m "
        "max-flow solves whose bits cannot change; route repeated builds "
        "through repro.core.sweep.cached_side_array / ArrayCache (or noqa "
        "with justification)"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("core")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        seen: set[tuple[int, int]] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                sites = _builder_calls(Rule.walk_scope(node.body + node.orelse))
            elif isinstance(node, _COMPREHENSIONS):
                sites = _builder_calls(ast.walk(node))
            else:
                continue
            for call, name in sites:
                site = (call.lineno, call.col_offset)
                if site in seen:
                    continue
                seen.add(site)
                yield ctx.finding(
                    call,
                    self.code,
                    f"{name}() called inside a loop; the realization bits are "
                    "loop-invariant for a fixed split — hoist the build or go "
                    "through repro.core.sweep.cached_side_array",
                )
