"""Python-source emission for interstate control-flow expressions.

The compiled whole-program backend (:mod:`repro.backends.compiled`) lowers
interstate edge conditions and symbol assignments to *inline* Python
expressions inside the one generated dispatch driver, instead of re-``eval``-ing
them against a freshly built namespace on every state transition (the
interpreter's behaviour, and the dominant cost of loop-nest programs).

The sole transformation is name routing.  The interpreter evaluates these
expressions with ``eval(code, _EVAL_GLOBALS, ns)`` where ``ns`` holds the
program symbols with scalar containers shadowing same-named symbols
(:meth:`repro.interpreter.executor.SDFGExecutor._interstate_namespace`).
The emitted source reproduces that lookup order statically:

* a name bound to a scalar container becomes ``__store['name'][0]``
  (scalars shadow symbols, mirroring the namespace construction order),
* a name in the interstate evaluation vocabulary (``min``/``max``/``abs``/
  ... -- the interpreter's ``_EVAL_GLOBALS``) becomes
  ``__sym['name'] if 'name' in __sym else name``: ``eval`` resolves locals
  before globals, so a program symbol may shadow the builtin,
* every other name becomes ``__sym['name']`` -- symbols, loop counters,
  and anything unknown, whose ``KeyError`` the driver wraps into the same
  :class:`~repro.interpreter.errors.ExecutionError` the interpreter raises
  for a ``NameError``.

Only name *loads* are rewritten; the expression language has no stores.
"""

from __future__ import annotations

import ast
from typing import AbstractSet, FrozenSet

__all__ = [
    "ExpressionCodegenError",
    "INTERSTATE_GLOBAL_NAMES",
    "emit_interstate_expression",
    "expression_names",
]

#: Callable vocabulary of interstate evaluation -- must mirror the callable
#: bindings of :data:`repro.interpreter.executor._EVAL_GLOBALS` (``True`` /
#: ``False`` are keywords and never parse as names; a test pins the match).
#: Not imported from the interpreter to keep :mod:`repro.symbolic`
#: dependency-free.
INTERSTATE_GLOBAL_NAMES: FrozenSet[str] = frozenset(
    {"Min", "Max", "min", "max", "abs", "int"}
)


class ExpressionCodegenError(Exception):
    """The expression cannot be lowered to inline Python source."""


class _NameRouter(ast.NodeTransformer):
    """Rewrites name loads to the interpreter's namespace lookup order."""

    def __init__(self, scalar_names: AbstractSet[str]) -> None:
        self.scalar_names = scalar_names

    @staticmethod
    def _lookup(var: str, key: str) -> ast.Subscript:
        return ast.Subscript(
            value=ast.Name(id=var, ctx=ast.Load()),
            slice=ast.Constant(value=key),
            ctx=ast.Load(),
        )

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if not isinstance(node.ctx, ast.Load):
            raise ExpressionCodegenError(
                f"Name '{node.id}' is not a plain load in an expression"
            )
        # Scalar containers shadow same-named symbols, mirroring the
        # interpreter's namespace construction order.
        if node.id in self.scalar_names:
            return ast.Subscript(
                value=self._lookup("__store", node.id),
                slice=ast.Constant(value=0),
                ctx=ast.Load(),
            )
        if node.id in INTERSTATE_GLOBAL_NAMES:
            # eval() resolves locals (the symbol namespace) before globals,
            # so a symbol may shadow the builtin vocabulary at runtime.
            return ast.IfExp(
                test=ast.Compare(
                    left=ast.Constant(value=node.id),
                    ops=[ast.In()],
                    comparators=[ast.Name(id="__sym", ctx=ast.Load())],
                ),
                body=self._lookup("__sym", node.id),
                orelse=node,
            )
        return self._lookup("__sym", node.id)


def emit_interstate_expression(expr: str, scalar_names: AbstractSet[str]) -> str:
    """Emit Python source evaluating ``expr`` with routed name lookups.

    The source reads symbols from ``__sym`` and scalar containers from
    ``__store``, the generated driver's locals.  Raises
    :class:`ExpressionCodegenError` when the expression does not parse as a
    single Python expression; callers fall back to the interpreter's
    dynamic evaluation path for exact error parity.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ExpressionCodegenError(
            f"Cannot parse interstate expression {expr!r}: {exc}"
        ) from exc
    rewritten = ast.fix_missing_locations(_NameRouter(scalar_names).visit(tree))
    return ast.unparse(rewritten)


def expression_names(expr: str) -> set:
    """All names loaded by a Python expression (via :mod:`ast`).

    Unlike regex-based identifier scraping this never reports attribute
    names, keyword-argument names, ``True``/``False``/``None`` or operator
    keywords (``and``/``or``/``not``/``in``/``if``/``else``).  Raises
    :class:`ExpressionCodegenError` on malformed input.
    """
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ExpressionCodegenError(
            f"Cannot parse expression {expr!r}: {exc}"
        ) from exc
    return {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
