"""RR107 / RR111 — instrumentation discipline rules.

RR107: every duration the repository reports — bench tables, trace
spans, solver solve times — must come from the one sanctioned
clock, :func:`repro.obs.wallclock`, and ideally through the
:class:`repro.obs.Recorder` span machinery.  A stray
``time.perf_counter()`` (or ``time.time()``) call measures something no
trace can see: its numbers silently disagree with the phase tree, and
the timed region is invisible to ``repro profile``.  Only
:mod:`repro.obs` itself may touch the stdlib clock.

RR111: metric and span names passed to ``span()`` / ``count()`` /
``gauge()`` / ``progress_ticker()`` must be string literals drawn from
the obs catalogues (``KNOWN_SPANS`` / ``KNOWN_COUNTERS`` /
``KNOWN_TICKER_LABELS``) — never f-strings, concatenations or
``.format()`` calls.  A dynamically built name is an open vocabulary:
the live metrics endpoint, the run ledger diff and the docs tables can
no longer enumerate what a trace may contain, and one typo'd family
silently forks a counter.  A plain name or attribute argument is let
through, assumed catalogued at its definition site: the solver's
``solver.dinic.*`` counters, like every other family, are literal
constants in :mod:`repro.obs.recorder` passed by name.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.context import ModuleContext
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, register_rule
from repro.obs.recorder import KNOWN_COUNTERS, KNOWN_SPANS, KNOWN_TICKER_LABELS

__all__ = ["DirectClockRead", "UncataloguedMetricName"]

#: ``time`` module attributes that read a clock.  ``sleep`` and the
#: struct/format helpers are deliberately absent — RR107 polices time
#: *measurement*, not time formatting or waiting.
_CLOCK_READS = frozenset(
    {
        "perf_counter",
        "perf_counter_ns",
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)


def _time_module_aliases(tree: ast.Module) -> set[str]:
    """Names bound to the stdlib ``time`` module by import statements."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    aliases.add(alias.asname or "time")
    return aliases


@register_rule
class DirectClockRead(Rule):
    code = "RR107"
    name = "direct-clock-read"
    rationale = (
        "durations must be measured through repro.obs (wallclock / spans) so "
        "bench tables and trace output agree; only repro.obs touches time.*"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.in_package("repro") and not ctx.in_package("obs")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        aliases = _time_module_aliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            # ``from time import perf_counter`` — flagged at the import:
            # everything it binds is a raw clock read.
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                offending = [a.name for a in node.names if a.name in _CLOCK_READS]
                if offending:
                    yield ctx.finding(
                        node,
                        self.code,
                        f"import of {', '.join(offending)} from the time module; "
                        "measure through repro.obs (wallclock / span) instead",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _CLOCK_READS
                and isinstance(func.value, ast.Name)
                and func.value.id in aliases
            ):
                yield ctx.finding(
                    node,
                    self.code,
                    f"direct call to time.{func.attr}(); instrumentation must go "
                    "through the repro.obs recorder (wallclock / span)",
                )


# -- RR111 ----------------------------------------------------------------

#: The obs entry points whose first argument names a metric, mapped to
#: the catalogue that closes their vocabulary (``None`` = no catalogue,
#: only dynamic construction is policed — gauges derive their names
#: from ticker labels, which are catalogued at the ticker call).
_METRIC_CALLS: dict[str, frozenset[str] | None] = {
    "span": KNOWN_SPANS,
    "count": KNOWN_COUNTERS,
    "gauge": None,
    "progress_ticker": KNOWN_TICKER_LABELS,
}

_CATALOGUE_NAMES = {
    "span": "KNOWN_SPANS",
    "count": "KNOWN_COUNTERS",
    "progress_ticker": "KNOWN_TICKER_LABELS",
}

#: Modules whose import binds the metric entry points.
_OBS_MODULES = frozenset(
    {"repro.obs", "repro.obs.recorder", "repro.obs.progress"}
)

#: Attribute-call receivers recognised as recorder-like.  Restricting
#: the receiver set keeps unrelated ``.count()`` methods (``list``,
#: ``str``, ``bin(...)``) out of scope.
_RECORDER_RECEIVERS = frozenset({"obs", "recorder", "rec"})


def _obs_call_bindings(tree: ast.Module) -> dict[str, str]:
    """Local name -> obs entry point, from ``from repro.obs... import``."""
    bindings: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in _OBS_MODULES:
            for alias in node.names:
                if alias.name in _METRIC_CALLS:
                    bindings[alias.asname or alias.name] = alias.name
    return bindings


def _is_dynamic_string(node: ast.expr) -> str | None:
    """A short description of how ``node`` builds a string, or ``None``."""
    if isinstance(node, ast.JoinedStr):
        return "an f-string"
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
        return "string concatenation" if isinstance(node.op, ast.Add) else "%-formatting"
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("format", "join")
    ):
        return f"a .{node.func.attr}() call"
    return None


@register_rule
class UncataloguedMetricName(Rule):
    code = "RR111"
    name = "uncatalogued-metric-name"
    rationale = (
        "span/counter/gauge names must be literals from the obs catalogue "
        "(KNOWN_SPANS / KNOWN_COUNTERS / KNOWN_TICKER_LABELS) so the metrics "
        "endpoint, ledger diffs and docs enumerate a closed vocabulary"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        # repro.obs itself is exempt: it *implements* the machinery and
        # derives ticker gauge names from already-catalogued labels.
        return ctx.in_package("repro") and not ctx.in_package("obs")

    def _entry_point(self, node: ast.Call, bindings: dict[str, str]) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            return bindings.get(func.id)
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _METRIC_CALLS
            and self.terminal_name(func.value) in _RECORDER_RECEIVERS
        ):
            return func.attr
        return None

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        bindings = _obs_call_bindings(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            entry = self._entry_point(node, bindings)
            if entry is None:
                continue
            name_arg = node.args[0]
            how = _is_dynamic_string(name_arg)
            if how is not None:
                yield ctx.finding(
                    node,
                    self.code,
                    f"{entry}() name built with {how}; metric names must be "
                    "string literals from the obs catalogue (or a constant "
                    "bound to one)",
                )
                continue
            catalogue = _METRIC_CALLS[entry]
            if (
                catalogue is not None
                and isinstance(name_arg, ast.Constant)
                and isinstance(name_arg.value, str)
                and name_arg.value not in catalogue
            ):
                yield ctx.finding(
                    node,
                    self.code,
                    f"{entry}() name {name_arg.value!r} is not in "
                    f"repro.obs.{_CATALOGUE_NAMES[entry]}; add it to the "
                    "catalogue or use a catalogued name",
                )
