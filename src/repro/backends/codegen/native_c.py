"""The ``native-c`` emitter: plans -> C kernels for scopes and fused chains.

Lowers eligible bound scopes and fused chains (the structures the
``numpy-eager`` emitter binds) to C source: one function per kernel, an
explicit loop nest over the iteration grid, scalarized chain handoffs, and
WCR tails accumulated in iteration order.  The execute layer
(:mod:`repro.backends.native`) compiles the assembled translation unit and
calls the kernels through zero-copy buffer pointers; every scope this
module rejects -- and any compile or load failure -- falls back to the
Python path per scope, bitwise identically.

Bitwise parity is the design constraint, not an aspiration:

* arithmetic is double-only (all touched containers must be ``float64``;
  integer map parameters and symbols are exact in a double up to ``2**53``,
  which the runtime verifies before packing geometry);
* ``math.*`` calls compile to the very libm calls CPython's ``math`` module
  makes, wrapped in guards reproducing CPython's error taxonomy (domain /
  range / NaN-to-integer); a firing guard aborts the kernel with
  ``1 + guard_index`` and the runtime raises the exact exception the
  interpreter would have raised;
* ``np.maximum`` / ``np.minimum`` (and the ``max`` / ``min`` WCR tails)
  use NumPy's exact NaN- and signed-zero propagation rule
  (``a > b || a != a ? a : b`` -- ties, including ``+0`` vs ``-0``, keep
  the *second* operand), not C ``fmax``;
* non-WCR writes must cover every map axis (bijective stores): reduced
  plain writes keep NumPy's first-slab semantics, which a C loop would not
  reproduce, so they are rejected;
* chain stores are all emitted at the *end* of the loop body in member
  order, mirroring the Python path's deferred writes; any chain that
  gathers a container it also writes (beyond the bijective identical-subset
  case) or writes one container from two members is rejected.

Every rejection carries a ``native-*`` reason string, surfaced through the
executor's build diagnostics.  Emitters never import from
:mod:`repro.backends.execute`, and this module never loads shared objects
(both enforced by ``make lint-arch``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.backends.codegen.numpy_eager import (
    BoundChain,
    BoundOutput,
    BoundScope,
)
from repro.sdfg.sdfg import SDFG

__all__ = [
    "NativeCEmitter",
    "NativeGuard",
    "NativeKernel",
    "C_PREAMBLE",
]

#: Shared helpers for every generated translation unit.  ``__r_max`` /
#: ``__r_min`` reproduce NumPy's maximum/minimum exactly: NaN in ``a``
#: propagates, and ties -- including ``+0`` vs ``-0`` -- keep the *second*
#: operand (strict comparison, matching NumPy's C loop; ``fmax`` would
#: drop NaNs and ``a >= b`` would keep the first operand on ties).
C_PREAMBLE = """\
#include <math.h>
#include <stdint.h>

static double __r_max(double a, double b) { return (a > b || a != a) ? a : b; }
static double __r_min(double a, double b) { return (a < b || a != a) ? a : b; }
"""

#: The shared kernel signature (kept in sync with the ctypes bridge).
_SIGNATURE = (
    "int64_t {fn}(double **bufs, const int64_t *counts, const int64_t *geom,\n"
    "             const double *scalars, int64_t nbatch, const int64_t *bstrides)"
)

#: 1-argument libm functions CPython's ``math`` module wraps with the
#: generic ``math_1`` guards; the value is the ``can_overflow`` flag
#: (whether an infinite result from finite input is a range error rather
#: than a domain error).
_MATH_1 = {
    "sqrt": False,
    "log": False,
    "log10": False,
    "log2": False,
    "log1p": False,
    "exp": True,
    "expm1": True,
    "sin": False,
    "cos": False,
    "tan": False,
    "asin": False,
    "acos": False,
    "atan": False,
    "sinh": True,
    "cosh": True,
    "tanh": False,
    "asinh": False,
    "acosh": False,
    "atanh": False,
}

#: 2-argument libm functions behind CPython's generic ``math_2`` guards.
_MATH_2 = ("atan2", "copysign", "fmod")

#: ``math`` functions that convert to an integer (NaN/Inf raise dedicated
#: conversion errors in CPython, *before* libm is consulted).
_MATH_INT = ("floor", "ceil", "trunc")

#: ``np.*`` calls that are exactly one exactly-rounded libm call on
#: doubles and never raise (NumPy is warning-silent on their edge cases).
#: Transcendental NumPy funcs (np.exp, np.log, ...) stay rejected: NumPy's
#: SIMD implementations may differ from libm in the last ulp.
_NP_PLAIN = {
    "abs": "fabs",
    "absolute": "fabs",
    "fabs": "fabs",
    "floor": "floor",
    "ceil": "ceil",
    "trunc": "trunc",
    "copysign": "copysign",
}

_NP_2 = {"maximum": "__r_max", "minimum": "__r_min"}

_WCR_STORE = {"sum": "+=", "prod": "*="}
_WCR_FUNC = {"max": "__r_max", "min": "__r_min"}

#: Largest integer magnitude a double represents exactly.
EXACT_INT_LIMIT = 2**53


@dataclass
class NativeGuard:
    """One runtime-error exit of a kernel (``return 1 + index``)."""

    label: str  #: tasklet label to attribute the error to
    exc: str  #: "ValueError" | "OverflowError"
    message: str


@dataclass
class NativeKernel:
    """One emitted C kernel plus the manifest the runtime binds it with.

    ``accesses`` fixes the order the runtime must walk when packing
    geometry: ``("gather", spec, buf)`` and ``("write", spec, buf)`` own
    one geometry slot each (base element offset + one coefficient per map
    axis); ``("check", spec, None)`` entries are chain-internal outputs
    that are bounds-checked at setup but never touched by the C code.
    """

    kind: str  #: "scope" | "chain"
    fn_name: str
    nparams: int
    buffers: List[str]  #: container name per ``bufs`` slot
    accesses: List[Tuple[str, Any, Optional[int]]]
    extras: List[str]  #: scalar names, in ``scalars`` array order
    guards: List[NativeGuard]
    count_guids: List[int]  #: tasklet guids credited with ``iterations``
    setup_deps: Tuple[str, ...]
    source: str  #: this kernel's C function source
    bound: Any  #: the BoundScope / BoundChain it was emitted from
    #: Cleared permanently on a load-level failure at runtime.
    usable: bool = True
    #: Containers with "check" accesses only (no buffer slot); their
    #: layouts join the runtime's geometry-cache signature.
    check_data: Tuple[str, ...] = ()


class _Reject(Exception):
    """Internal: the construct cannot be lowered natively."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


# ---------------------------------------------------------------------- #
# Expression translation (Python tasklet AST -> C, with error guards)
# ---------------------------------------------------------------------- #
class _Translator:
    """Translates straight-line tasklet statements into C body lines.

    Emission order follows Python's left-to-right evaluation order, so
    guarded calls fire in the same per-element sequence the interpreter's
    scalar execution would.
    """

    def __init__(self, env: Dict[str, str], cast_names: Set[str]) -> None:
        #: Python name -> C identifier (inputs, params, assigned locals).
        self.env = env
        self.cast_names = cast_names
        self.lines: List[str] = []
        self.extras: List[str] = []
        self._extra_idx: Dict[str, int] = {}
        self.guards: List[NativeGuard] = []
        self.label = ""
        self._tmp = 0

    # .................................................................. #
    def statement(self, stmt: ast.stmt, label: str) -> None:
        if (
            not isinstance(stmt, ast.Assign)
            or len(stmt.targets) != 1
            or not isinstance(stmt.targets[0], ast.Name)
        ):
            raise _Reject("native-unsupported-stmt")
        self.label = label
        value = self.expr(stmt.value)
        var = self._fresh("l")
        self.lines.append(f"const double {var} = {value};")
        self.env[stmt.targets[0].id] = var

    # .................................................................. #
    def expr(self, node: ast.expr) -> str:
        if isinstance(node, ast.Name):
            return self._name(node.id)
        if isinstance(node, ast.Constant):
            return self._constant(node.value)
        if isinstance(node, ast.BinOp):
            op = {
                ast.Add: "+",
                ast.Sub: "-",
                ast.Mult: "*",
                ast.Div: "/",
            }.get(type(node.op))
            if op is None:
                raise _Reject("native-unsupported-op")
            left = self.expr(node.left)
            right = self.expr(node.right)
            return f"({left} {op} {right})"
        if isinstance(node, ast.UnaryOp):
            if isinstance(node.op, ast.USub):
                return f"(-{self.expr(node.operand)})"
            if isinstance(node.op, ast.UAdd):
                return f"(+{self.expr(node.operand)})"
            raise _Reject("native-unsupported-op")
        if isinstance(node, ast.Call):
            return self._call(node)
        raise _Reject("native-unsupported-expr")

    def _name(self, name: str) -> str:
        mapped = self.env.get(name)
        if mapped is not None:
            return mapped
        if name in ("math", "np", "numpy"):
            raise _Reject("native-unsupported-expr")
        idx = self._extra_idx.get(name)
        if idx is None:
            idx = len(self.extras)
            self._extra_idx[name] = idx
            self.extras.append(name)
        return f"__x{idx}"

    def _constant(self, value: Any) -> str:
        if isinstance(value, bool):
            return "1.0" if value else "0.0"
        if isinstance(value, int):
            if abs(value) > EXACT_INT_LIMIT:
                raise _Reject("native-unsupported-const")
            return float(value).hex()
        if isinstance(value, float):
            if value != value or value in (float("inf"), float("-inf")):
                raise _Reject("native-unsupported-const")
            return value.hex()
        raise _Reject("native-unsupported-const")

    # .................................................................. #
    def _call(self, node: ast.Call) -> str:
        if node.keywords:
            raise _Reject("native-unsupported-call")
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self.cast_names:
                # Chain-handoff dtype cast: identity (all containers are
                # float64 -- verified by the kernel-level dtype walk).
                if len(node.args) != 1:
                    raise _Reject("native-unsupported-call")
                return self.expr(node.args[0])
            if func.id == "abs" and len(node.args) == 1:
                return f"fabs({self.expr(node.args[0])})"
            raise _Reject("native-unsupported-call")
        if not (
            isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
        ):
            raise _Reject("native-unsupported-call")
        mod, name = func.value.id, func.attr
        if mod == "math":
            return self._math_call(name, node.args)
        if mod in ("np", "numpy"):
            return self._np_call(name, node.args)
        raise _Reject("native-unsupported-call")

    def _math_call(self, name: str, args: Sequence[ast.expr]) -> str:
        if name == "fabs" and len(args) == 1:
            return f"fabs({self.expr(args[0])})"
        if name in _MATH_INT and len(args) == 1:
            a = self._temp("a", self.expr(args[0]))
            g_nan = self._guard(
                "ValueError", "cannot convert float NaN to integer"
            )
            self.lines.append(f"if ({a} != {a}) return {g_nan};")
            g_inf = self._guard(
                "OverflowError", "cannot convert float infinity to integer"
            )
            self.lines.append(f"if (isinf({a})) return {g_inf};")
            return f"{name}({a})"
        if name in _MATH_1 and len(args) == 1:
            a = self._temp("a", self.expr(args[0]))
            r = self._temp("r", f"{name}({a})")
            g_dom = self._guard("ValueError", "math domain error")
            self.lines.append(
                f"if ({r} != {r} && {a} == {a}) return {g_dom};"
            )
            if _MATH_1[name]:
                g_inf = self._guard("OverflowError", "math range error")
            else:
                g_inf = self._guard("ValueError", "math domain error")
            self.lines.append(
                f"if (isinf({r}) && !isinf({a}) && {a} == {a}) "
                f"return {g_inf};"
            )
            return r
        if name in _MATH_2 and len(args) == 2:
            a = self._temp("a", self.expr(args[0]))
            b = self._temp("a", self.expr(args[1]))
            r = self._temp("r", f"{name}({a}, {b})")
            g_dom = self._guard("ValueError", "math domain error")
            self.lines.append(
                f"if ({r} != {r} && {a} == {a} && {b} == {b}) "
                f"return {g_dom};"
            )
            g_rng = self._guard("OverflowError", "math range error")
            self.lines.append(
                f"if (isinf({r}) && !isinf({a}) && {a} == {a} && "
                f"!isinf({b}) && {b} == {b}) return {g_rng};"
            )
            return r
        raise _Reject("native-unsupported-call")

    def _np_call(self, name: str, args: Sequence[ast.expr]) -> str:
        if name in _NP_PLAIN and len(args) == 1:
            return f"{_NP_PLAIN[name]}({self.expr(args[0])})"
        if name in _NP_2 and len(args) == 2:
            a = self.expr(args[0])
            b = self.expr(args[1])
            return f"{_NP_2[name]}({a}, {b})"
        raise _Reject("native-unsupported-call")

    # .................................................................. #
    def _fresh(self, prefix: str) -> str:
        self._tmp += 1
        return f"__{prefix}{self._tmp}"

    def _temp(self, prefix: str, expr: str) -> str:
        var = self._fresh(prefix)
        self.lines.append(f"const double {var} = {expr};")
        return var

    def _guard(self, exc: str, message: str) -> int:
        self.guards.append(NativeGuard(self.label, exc, message))
        return len(self.guards)  # return code = 1 + guard index


# ---------------------------------------------------------------------- #
# Kernel emission
# ---------------------------------------------------------------------- #
class NativeCEmitter:
    """Lowers bound scopes and fused chains to C.  Stateless."""

    name = "native-c"

    # .................................................................. #
    def scope_kernel(
        self, sdfg: SDFG, bound: BoundScope, fn_name: str
    ) -> Tuple[Optional[NativeKernel], Optional[str]]:
        """Lower one vectorized scope, or ``(None, reason)``."""
        try:
            return self._emit_scope(sdfg, bound, fn_name), None
        except _Reject as rej:
            return None, rej.reason
        except Exception:  # noqa: BLE001 - never fail preparation
            return None, "native-emit-error"

    def chain_kernel(
        self, sdfg: SDFG, chain: BoundChain, fn_name: str
    ) -> Tuple[Optional[NativeKernel], Optional[str]]:
        """Lower one fused chain, or ``(None, reason)``."""
        try:
            return self._emit_chain(sdfg, chain, fn_name), None
        except _Reject as rej:
            return None, rej.reason
        except Exception:  # noqa: BLE001 - never fail preparation
            return None, "native-emit-error"

    @staticmethod
    def assemble_source(kernels: Sequence[NativeKernel]) -> str:
        """The complete translation unit (deterministic for one plan)."""
        return C_PREAMBLE + "\n" + "\n".join(k.source for k in kernels)

    # .................................................................. #
    def _emit_scope(
        self, sdfg: SDFG, bound: BoundScope, fn_name: str
    ) -> NativeKernel:
        nparams = len(bound.domain)
        self._check_containers(
            sdfg,
            [spec.data for spec in bound.inputs]
            + [spec.data for spec in bound.outputs],
        )
        self._check_writes(
            [spec for spec in bound.outputs], nparams
        )
        self._check_hazards(
            gathers=[(spec.data, spec.subset_str) for spec in bound.inputs],
            writes=[
                (spec.data, spec.subset_str, spec.wcr)
                for spec in bound.outputs
            ],
        )

        env: Dict[str, str] = {}
        accesses: List[Tuple[str, Any, Optional[int]]] = []
        buffers: List[str] = []
        buf_of: Dict[str, int] = {}
        loads: List[Tuple[str, int]] = []  # (C name, geom-access position)
        ngeom = 0
        for j, spec in enumerate(bound.inputs):
            bi = self._buffer(spec.data, buffers, buf_of)
            accesses.append(("gather", spec, bi))
            env[spec.conn] = f"__in{j}"
            loads.append((f"__in{j}", ngeom))
            ngeom += 1

        tr = _Translator(env, cast_names=set())
        for param_axis, axis in enumerate(bound.domain):
            env[axis.param] = f"__pv{param_axis}"
        tree = ast.parse(bound.plan.code if bound.plan else "")
        if not tree.body:
            raise _Reject("native-unsupported-stmt")
        for stmt in tree.body:
            tr.statement(stmt, bound.tasklet.label)

        stores: List[Tuple[BoundOutput, int, str]] = []
        for spec in bound.outputs:
            value = env.get(spec.conn)
            if value is None:
                raise _Reject("native-unassigned-output")
            bi = self._buffer(spec.data, buffers, buf_of)
            accesses.append(("write", spec, bi))
            stores.append((spec, ngeom, value))
            ngeom += 1

        source = self._render(
            fn_name, nparams, buffers, accesses, loads, tr, stores
        )
        return NativeKernel(
            kind="scope",
            fn_name=fn_name,
            nparams=nparams,
            buffers=buffers,
            accesses=accesses,
            extras=tr.extras,
            guards=tr.guards,
            count_guids=[bound.tasklet.guid],
            setup_deps=tuple(bound.setup_deps),
            source=source,
            bound=bound,
        )

    def _emit_chain(
        self, sdfg: SDFG, chain: BoundChain, fn_name: str
    ) -> NativeKernel:
        nparams = len(chain.domain)
        datas: List[str] = []
        gathers: List[Tuple[str, str]] = []
        writes: List[Tuple[str, str, Optional[str]]] = []
        for member in chain.members:
            for spec, _name in member.gathers:
                datas.append(spec.data)
                gathers.append((spec.data, spec.subset_str))
            for kind, spec, _name in member.outputs:
                datas.append(spec.data)
                if kind == "write":
                    writes.append((spec.data, spec.subset_str, spec.wcr))
        self._check_containers(sdfg, datas)
        self._check_writes(
            [
                spec
                for member in chain.members
                for kind, spec, _name in member.outputs
                if kind == "write"
            ],
            nparams,
        )
        if len({d for d, _s, _w in writes}) != len(writes):
            raise _Reject("native-chain-multi-writer")
        self._check_hazards(gathers=gathers, writes=writes)

        env: Dict[str, str] = {}
        accesses: List[Tuple[str, Any, Optional[int]]] = []
        buffers: List[str] = []
        buf_of: Dict[str, int] = {}
        loads: List[Tuple[str, int]] = []
        store_plan: List[Tuple[BoundOutput, int, str]] = []  # name resolved later
        ngeom = 0
        nin = 0
        deferred: List[Tuple[BoundOutput, int, str]] = []
        for member in chain.members:
            for spec, name in member.gathers:
                bi = self._buffer(spec.data, buffers, buf_of)
                accesses.append(("gather", spec, bi))
                env[name] = f"__in{nin}"
                loads.append((f"__in{nin}", ngeom))
                nin += 1
                ngeom += 1
            for kind, spec, out_name in member.outputs:
                if kind == "write":
                    bi = self._buffer(spec.data, buffers, buf_of)
                    accesses.append(("write", spec, bi))
                    deferred.append((spec, ngeom, out_name))
                    ngeom += 1
                else:
                    accesses.append(("check", spec, None))

        cast_names = set(chain.cast_bindings)
        tr = _Translator(env, cast_names=cast_names)
        for param_axis, axis in enumerate(chain.domain):
            env[axis.param] = f"__pv{param_axis}"
        tree = ast.parse(chain.source)
        if not tree.body:
            raise _Reject("native-unsupported-stmt")
        for stmt in tree.body:
            tr.statement(stmt, self._label_at(chain, stmt.lineno))

        for spec, geom_pos, out_name in deferred:
            value = env.get(out_name)
            if value is None:
                raise _Reject("native-unassigned-output")
            store_plan.append((spec, geom_pos, value))

        source = self._render(
            fn_name, nparams, buffers, accesses, loads, tr, store_plan
        )
        return NativeKernel(
            kind="chain",
            fn_name=fn_name,
            nparams=nparams,
            buffers=buffers,
            accesses=accesses,
            extras=tr.extras,
            guards=tr.guards,
            count_guids=[m.plan.tasklet.guid for m in chain.members],
            setup_deps=tuple(chain.setup_deps),
            source=source,
            bound=chain,
        )

    # .................................................................. #
    # Legality checks (each raises _Reject with a native-* reason)
    # .................................................................. #
    @staticmethod
    def _check_containers(sdfg: SDFG, datas: Sequence[str]) -> None:
        for data in datas:
            desc = sdfg.arrays.get(data)
            if desc is None:
                raise _Reject("native-unknown-container")
            if np.dtype(desc.dtype.as_numpy()) != np.float64:
                raise _Reject("native-non-float64")

    @staticmethod
    def _check_writes(specs: Sequence[BoundOutput], nparams: int) -> None:
        """Non-WCR writes must be bijective (every map axis indexed): a C
        loop's last-store-wins would not reproduce NumPy's first-slab
        semantics for reduced plain writes.  WCR must be a known tail."""
        for spec in specs:
            axes = {
                payload[0]
                for kind, payload in spec.dims
                if kind == "param"
            }
            if spec.wcr is None:
                if axes != set(range(nparams)):
                    raise _Reject("native-reduced-write")
            elif spec.wcr not in _WCR_STORE and spec.wcr not in _WCR_FUNC:
                raise _Reject("native-unsupported-wcr")

    @staticmethod
    def _check_hazards(
        gathers: Sequence[Tuple[str, str]],
        writes: Sequence[Tuple[str, str, Optional[str]]],
    ) -> None:
        """A container both gathered and written interleaves in C (stores
        land before later iterations' loads), which only matches the Python
        path's pre-scope gather snapshot when every store targets the very
        element the same iteration loaded: identical subsets, non-WCR (and
        bijectivity, enforced by :meth:`_check_writes`)."""
        written: Dict[str, List[Tuple[str, Optional[str]]]] = {}
        for data, subset, wcr in writes:
            written.setdefault(data, []).append((subset, wcr))
        for data, subset in gathers:
            for wsubset, wcr in written.get(data, ()):
                if wcr is not None or wsubset != subset:
                    raise _Reject("native-rw-hazard")

    @staticmethod
    def _buffer(data: str, buffers: List[str], buf_of: Dict[str, int]) -> int:
        bi = buf_of.get(data)
        if bi is None:
            bi = len(buffers)
            buf_of[data] = bi
            buffers.append(data)
        return bi

    @staticmethod
    def _label_at(chain: BoundChain, lineno: int) -> str:
        label = chain.line_labels[0][1]
        for start, candidate in chain.line_labels:
            if start <= lineno:
                label = candidate
        return label

    # .................................................................. #
    # C rendering
    # .................................................................. #
    @staticmethod
    def _offset_expr(pos: int, nparams: int) -> str:
        terms = [f"__o{pos}"]
        terms += [f"__s{pos}_{a} * __i{a}" for a in range(nparams)]
        return " + ".join(terms)

    def _render(
        self,
        fn_name: str,
        nparams: int,
        buffers: List[str],
        accesses: List[Tuple[str, Any, Optional[int]]],
        loads: List[Tuple[str, int]],
        tr: _Translator,
        stores: List[Tuple[BoundOutput, int, str]],
    ) -> str:
        out: List[str] = [_SIGNATURE.format(fn=fn_name), "{"]
        out.append("    (void)counts; (void)geom; (void)scalars; "
                   "(void)bstrides;")
        # Hoist every geometry slot into a named local once per call: the
        # compiler then strength-reduces the per-iteration address math.
        for a in range(nparams):
            out.append(f"    const int64_t __pb{a} = geom[{2 * a}];")
            out.append(f"    const int64_t __ps{a} = geom[{2 * a + 1}];")
        pos = 0
        for kind, _spec, _bi in accesses:
            if kind == "check":
                continue
            slot = 2 * nparams + pos * (1 + nparams)
            out.append(f"    const int64_t __o{pos} = geom[{slot}];")
            for a in range(nparams):
                out.append(
                    f"    const int64_t __s{pos}_{a} = geom[{slot + 1 + a}];"
                )
            pos += 1
        for a in range(nparams):
            out.append(f"    const int64_t __c{a} = counts[{a}];")
        for i in range(len(tr.extras)):
            out.append(f"    const double __x{i} = scalars[{i}];")
        out.append("    for (int64_t __bt = 0; __bt < nbatch; ++__bt) {")
        for bi in range(len(buffers)):
            out.append(
                f"        double *__b{bi} = bufs[{bi}] + __bt * bstrides[{bi}];"
            )
        indent = "        "
        for a in range(nparams):
            out.append(
                f"{indent}for (int64_t __i{a} = 0; __i{a} < __c{a}; "
                f"++__i{a}) {{"
            )
            indent += "    "
        for a in range(nparams):
            out.append(
                f"{indent}const double __pv{a} = "
                f"(double)(__pb{a} + __ps{a} * __i{a});"
            )
        geom_buf: Dict[int, int] = {}
        pos = 0
        for kind, _spec, bi in accesses:
            if kind == "check":
                continue
            geom_buf[pos] = bi
            pos += 1
        for name, gpos in loads:
            off = self._offset_expr(gpos, nparams)
            out.append(
                f"{indent}const double {name} = __b{geom_buf[gpos]}[{off}];"
            )
        for line in tr.lines:
            out.append(f"{indent}{line}")
        for spec, gpos, value in stores:
            off = self._offset_expr(gpos, nparams)
            target = f"__b{geom_buf[gpos]}"
            if spec.wcr is None:
                out.append(f"{indent}{target}[{off}] = {value};")
            elif spec.wcr in _WCR_STORE:
                out.append(
                    f"{indent}{target}[{off}] {_WCR_STORE[spec.wcr]} {value};"
                )
            else:
                func = _WCR_FUNC[spec.wcr]
                out.append(
                    f"{indent}{{ const int64_t __w{gpos} = {off}; "
                    f"{target}[__w{gpos}] = "
                    f"{func}({target}[__w{gpos}], {value}); }}"
                )
        for a in range(nparams):
            indent = indent[:-4]
            out.append(f"{indent}}}")
        out.append("    }")
        out.append("    return 0;")
        out.append("}")
        return "\n".join(out) + "\n"
