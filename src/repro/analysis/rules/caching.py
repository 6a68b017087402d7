"""RR110 — side and relation covers must not be rebuilt inside loops.

The §III-C realization masks are purely combinatorial: the bits depend
on segment topology, capacities, ports and the assignment set — never on
failure probabilities.  A ``build_side_cover`` or ``build_relation_cover``
call inside a loop (the rebuild-per-sweep-point anti-pattern) therefore
repeats work whose answers cannot change.
Inside :mod:`repro.core`, repeated builds must go through the
content-addressed cache (:func:`repro.core.sweep.cached_side_cover` with
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

#: The §III-C builders whose output is loop-invariant for a fixed split.
_BUILDERS = frozenset({"build_side_cover", "build_relation_cover"})

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
        "rebuilding a side or relation cover inside a loop repeats "
        "work whose bits cannot change; route repeated builds through "
        "repro.core.sweep.cached_side_cover / ArrayCache (or noqa with "
        "justification)"
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
                    "through repro.core.sweep.cached_side_cover",
                )
