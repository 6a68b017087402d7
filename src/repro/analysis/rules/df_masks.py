"""RR112 — mask arrays must be consumed array-at-a-time (dataflow tier).

The realization kernels' hot currency is the uint64 *mask array*: one
word per assignment (or per lattice level), one bit per entity.  Every
primitive a consumer could want — weighting by popcount, per-bit
gather, packing — exists vectorized in
:mod:`repro.probability.bitset` (``mask_weights``, ``bitplanes``,
``pack_bitplanes``) or as plain numpy (``np.bitwise_count``, broadcast
shifts).  A per-element Python loop over such an array re-introduces
exactly the interpreter overhead the vectorized kernels exist to
remove, and it does so silently: the result is still correct, just
100-1000x slower at ``2^m`` scale.

The rule tracks mask-array values flow-sensitively from their producers
(:func:`~repro.probability.sampling.sample_alive_masks`,
:func:`~repro.probability.bitset.pack_bitplanes`, a ``.masks``
attribute read, an ``.astype(np.uint64)`` cast) through direct aliases
(slices, views, bitwise arithmetic) and flags any Python-level
per-element iteration over a tracked name: a ``for`` over it, over
``enumerate(...)``/``range(len(...))`` of it, or a comprehension
generator drawing from it.  Rebinding a name to anything that is not
itself a mask array kills the track, and loops over *derived* scalars
(``range(n_bits)``, popcount tables) are out of scope by construction.
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

__all__ = ["ScalarMaskLoop"]

#: Functions whose return value is a uint64 mask array.
_SOURCE_FUNCTIONS = frozenset({"sample_alive_masks", "pack_bitplanes"})

#: Attribute reads that hand out a mask array.
_SOURCE_ATTRIBUTES = frozenset({"masks"})

#: ndarray methods that return a view/recast of the receiver — the
#: result is still the same mask words.
_VIEW_METHODS = frozenset({"view", "reshape", "ravel", "copy"})

#: Operators under which mask words stay mask words.
_BITWISE_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.LShift, ast.RShift, ast.Invert)


def _is_uint64_cast(node: ast.AST) -> bool:
    """``<x>.astype(np.uint64)`` (or ``.astype(numpy.uint64)``)."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "astype"
        and len(node.args) == 1
        and Rule.terminal_name(node.args[0]) == "uint64"
    )


def _is_mask_expr(expr: ast.AST, state: frozenset) -> bool:
    """Whether ``expr`` evaluates to a (view of a) tracked mask array.

    Deliberately *not* the conservative any-function-of-taint closure:
    ``mask_weights(masks)`` returns float weights and
    ``np.bitwise_count(masks)`` returns small ints — looping over those
    is a different (and much cheaper) sin.  Only shapes that keep the
    uint64 words intact propagate.
    """
    if isinstance(expr, ast.Name):
        return expr.id in state
    if isinstance(expr, ast.Attribute):
        return expr.attr in _SOURCE_ATTRIBUTES
    if isinstance(expr, ast.Subscript):
        return _is_mask_expr(expr.value, state)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, _BITWISE_OPS):
        return _is_mask_expr(expr.left, state) or _is_mask_expr(expr.right, state)
    if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Invert):
        return _is_mask_expr(expr.operand, state)
    if _is_uint64_cast(expr):
        return True
    if isinstance(expr, ast.Call):
        if call_name(expr) in _SOURCE_FUNCTIONS:
            return True
        if (
            isinstance(expr.func, ast.Attribute)
            and expr.func.attr in _VIEW_METHODS
        ):
            return _is_mask_expr(expr.func.value, state)
    return False


class _MaskArrays(DataflowAnalysis[frozenset]):
    """Forward may-analysis: names currently bound to a mask array."""

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
                continue  # ``x &= m`` mutates in place; x keeps its status
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                continue  # the loop variable holds one *element*, not the array
            if _is_mask_expr(value, state):
                result.update(names)
            else:
                result.difference_update(names)
        return frozenset(result)


def _loop_witness(iterable: ast.expr, state: frozenset) -> tuple[str, str] | None:
    """``(name, how)`` when ``iterable`` draws elements from a tracked array.

    Recognises the three per-element idioms: the array itself (a name,
    a ``.masks`` read or a producer call inline), ``enumerate(array)``,
    and ``range(len(array))`` (indexed access).
    """
    if isinstance(iterable, ast.Name) and iterable.id in state:
        return iterable.id, "for loop over"
    if not isinstance(iterable, ast.Call) and _is_mask_expr(iterable, state):
        return ast.unparse(iterable), "for loop over"
    if isinstance(iterable, ast.Call) and (
        call_name(iterable) in _SOURCE_FUNCTIONS or _is_uint64_cast(iterable)
    ):
        return f"{ast.unparse(iterable.func)}(...)", "for loop over"
    if isinstance(iterable, ast.Call):
        name = call_name(iterable)
        if name == "enumerate" and iterable.args:
            arg = iterable.args[0]
            if isinstance(arg, ast.Name) and arg.id in state:
                return arg.id, "enumerate() over"
        if name == "range" and len(iterable.args) == 1:
            arg = iterable.args[0]
            if (
                isinstance(arg, ast.Call)
                and call_name(arg) == "len"
                and arg.args
                and isinstance(arg.args[0], ast.Name)
                and arg.args[0].id in state
            ):
                return arg.args[0].id, "range(len()) over"
    return None


@register_rule
class ScalarMaskLoop(Rule):
    code = "RR112"
    name = "scalar-mask-loop"
    tier = "dataflow"
    rationale = (
        "per-element Python loops over uint64 mask arrays forfeit the "
        "bit-parallel kernels; use the vectorized bitset primitives "
        "(mask_weights, bitplanes, pack_bitplanes, np.bitwise_count) "
        "or whole-array numpy expressions"
    )

    def applies_to(self, ctx: ModuleContext) -> bool:
        # bitset.py is the vocabulary itself: its per-bit assembly loops
        # (over range(n_bits), never over elements) are the primitives
        # everyone else is being pointed at.
        return ctx.in_package("core", "probability") and not ctx.path.endswith(
            "bitset.py"
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for qualname, _func, cfg in ctx.function_cfgs():
            states = solve_fixpoint(cfg, _MaskArrays())
            for node in cfg.nodes:
                stmt = node.stmt
                if stmt is None or isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                state = states[node.index][0]
                yield from self._check_stmt(ctx, qualname, stmt, state)

    def _check_stmt(
        self, ctx: ModuleContext, qualname: str, stmt: ast.AST, state: frozenset
    ) -> Iterator[Finding]:
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            witness = _loop_witness(stmt.iter, state)
            if witness is not None:
                yield self._finding(ctx, qualname, stmt, *witness)
        for part in own_exprs(stmt):
            for sub in ast.walk(part):
                if not isinstance(
                    sub, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    continue
                for gen in sub.generators:
                    witness = _loop_witness(gen.iter, state)
                    if witness is not None:
                        name, _how = witness
                        yield self._finding(
                            ctx, qualname, sub, name, "comprehension over"
                        )

    def _finding(
        self, ctx: ModuleContext, qualname: str, node: ast.AST, name: str, how: str
    ) -> Finding:
        return ctx.finding(
            node,
            self.code,
            f"{qualname}(): per-element {how} uint64 mask array {name!r}; "
            "use the vectorized bitset primitives (mask_weights, bitplanes, "
            "pack_bitplanes, np.bitwise_count) or a whole-array numpy "
            "expression",
        )
