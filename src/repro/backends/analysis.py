"""Scope legality and fusion analysis (the *analyze* layer).

First stage of the backend lowering pipeline (analyze -> codegen ->
execute): decides, per map scope, whether the scope can execute as whole-
array NumPy operations -- and per elementwise scope chain (discovered
structurally by :func:`repro.sdfg.analysis.elementwise_scope_chains`),
whether the chain can fuse into one straight-line kernel.  A scope is read
through its normalised form (:mod:`repro.backends.normalize`: perfect nests
flattened, tiles and vector blocks densified), so the rules below only ever
see one tasklet under a flat domain.  The result is the record the runtime
executes (:mod:`repro.backends.codegen.numpy_eager`): a ``BoundScope``
holding the live nodes and compiled code of each accepted scope, a
composed ``BoundChain`` per fused chain and one ``StateTable`` per state.
Nothing is executed here.

Rejections carry a *reason* string (recorded in
``StateTable.fallback_reasons``) so a sweep can report why a scope
interprets instead of vectorizing.

Fusion legality routes each member input either to the pre-chain store
(``gather``) or to an earlier member's in-flight value (``chain``); reads of
WCR-written or subset-mismatched intermediates truncate the chain.  A
member that *writes* with WCR is legal -- accumulate-into-chain -- but
terminates the chain: deferred writes and pre-chain gathers only reproduce
the interpreter when no later member can observe (or race with) the
accumulation.
"""

from __future__ import annotations

import ast
import functools
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.backends.codegen.numpy_eager import (
    BoundChain,
    BoundInput,
    BoundOutput,
    BoundScope,
    StateTable,
    compose_chain,
)
from repro.backends.normalize import normalize_scope, unit_affine_offset
from repro.interpreter.tasklet_exec import compile_code, compile_expression
from repro.sdfg.analysis import elementwise_scope_chains
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.symbolic.expressions import Symbol
from repro.telemetry import TRACER, inc as _metric_inc, observe as _metric_observe

__all__ = [
    "unit_affine_offset",
    "classify_index",
    "analyze_scope",
    "analyze_chain",
    "analyze_state",
    "container_private_to_chain",
    "ALLOWED_NP_FUNCS",
]

#: Element-wise NumPy functions allowed inside vectorized tasklet code.
ALLOWED_NP_FUNCS = frozenset(
    {
        "exp", "expm1", "log", "log1p", "log2", "log10", "sqrt", "cbrt",
        "abs", "absolute", "fabs", "sign", "floor", "ceil", "trunc", "rint",
        "sin", "cos", "tan", "arcsin", "arccos", "arctan", "arctan2",
        "sinh", "cosh", "tanh", "power", "maximum", "minimum", "fmod",
        "hypot", "copysign", "where",
    }
)

_ALLOWED_BINOPS = (
    ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
)
_ALLOWED_UNARYOPS = (ast.USub, ast.UAdd)

_RAISING_BINOPS = (ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


@functools.lru_cache(maxsize=4096)  # a sweep analyzes the same few tasklets over and over
def _vectorizable_names(code: str, np_names: frozenset) -> Optional[frozenset]:
    """The names vectorizable tasklet code reads, ``None`` when the code
    does not stay element-wise under array substitution.

    Accepts straight-line assignments built from arithmetic, ``abs``,
    ``math.*`` (via the shim) and a whitelist of element-wise ``np`` / ``numpy``
    functions.  Control flow, comparisons, subscripts and anything else that
    changes meaning between scalars and arrays is rejected -- the scope then
    falls back to the interpreter.  Augmented assignment is rejected too:
    after ``b = a``, ``b += c`` would mutate the *aliased* gathered input
    array in place, whereas the scalar path rebinds ``b``.

    ``np_names`` are the names bound to NumPy values in the interpreter's
    scalar path (the input connectors).  ``/ // % **`` are only accepted
    when an operand is NumPy-typed there as well: with pure-Python operands
    (map parameters, constants, ``math.*`` results) the interpreter raises
    (``ZeroDivisionError``, ...) where NumPy arrays would warn and continue,
    so such scopes must fall back to keep crash classification identical.
    """
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return None
    np_locals = set(np_names)
    loaded: Set[str] = set()

    def np_typed(node: ast.AST) -> bool:
        """Whether the interpreter's scalar path yields a NumPy value here."""
        if isinstance(node, ast.Name):
            return node.id in np_locals
        if isinstance(node, ast.BinOp):
            return np_typed(node.left) or np_typed(node.right)
        if isinstance(node, ast.UnaryOp):
            return np_typed(node.operand)
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id == "abs":
                return any(np_typed(a) for a in node.args)
            if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
                # np.* returns NumPy scalars even for Python inputs;
                # math.* returns plain Python floats.
                return fn.value.id in ("np", "numpy")
        return False

    def expr_ok(node: ast.AST) -> bool:
        if isinstance(node, ast.BinOp):
            if not (
                isinstance(node.op, _ALLOWED_BINOPS)
                and expr_ok(node.left)
                and expr_ok(node.right)
            ):
                return False
            if isinstance(node.op, _RAISING_BINOPS):
                return np_typed(node.left) or np_typed(node.right)
            return True
        if isinstance(node, ast.UnaryOp):
            return isinstance(node.op, _ALLOWED_UNARYOPS) and expr_ok(node.operand)
        if isinstance(node, ast.Name):
            loaded.add(node.id)
            return True
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float, bool))
        if isinstance(node, ast.Call):
            if node.keywords:
                return False
            if not all(expr_ok(a) for a in node.args):
                return False
            fn = node.func
            if isinstance(fn, ast.Name):
                return fn.id == "abs"
            if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
                if fn.value.id == "math":
                    return True
                if fn.value.id in ("np", "numpy"):
                    return fn.attr in ALLOWED_NP_FUNCS
            return False
        return False

    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            return None
        if len(stmt.targets) != 1 or not isinstance(stmt.targets[0], ast.Name):
            return None
        if not expr_ok(stmt.value):
            return None
        if np_typed(stmt.value):
            np_locals.add(stmt.targets[0].id)
        else:
            np_locals.discard(stmt.targets[0].id)
    return frozenset(loaded)


def classify_index(
    expr, params: List[str], used: List[str]
) -> Optional[Tuple[str, Any]]:
    """The closed-form class of one point index: ``("const", code)`` (the
    compiled index) when free of map parameters, ``("param", (axis,
    offset))`` when unit-slope affine in one parameter not in ``used``
    (which it then joins), ``None`` for everything else."""
    if isinstance(expr, Symbol):  # the common case, without a tree walk
        p, offset = expr.name, 0
        if p not in params:
            return "const", compile_expression(p)
    else:
        candidates = expr.free_symbols.intersection(params)
        if not candidates:
            return "const", compile_expression(str(expr).strip())
        if len(candidates) != 1:
            return None
        (p,) = candidates
        offset = unit_affine_offset(expr, p)
    if offset is None or p in used:
        return None
    used.append(p)
    return "param", (params.index(p), offset)


# ---------------------------------------------------------------------- #
# Scope analysis
# ---------------------------------------------------------------------- #
def analyze_scope(
    state: SDFGState, entry: MapEntry
) -> Tuple[Optional[BoundScope], Optional[str]]:
    """Lower one map scope to its vectorized record, or explain the refusal.

    Returns ``(scope, None)`` on success and ``(None, reason)``
    otherwise; the reason slug names the first legality rule that failed.
    The rules read the scope through its normalised form
    (:func:`repro.backends.normalize.normalize_scope`): a flat domain whose
    innermost map entry / exit carry the tasklet's edges.
    """
    flat, reason = normalize_scope(state, entry)
    if flat is None:
        return None, reason
    tasklet = flat.tasklet
    if tasklet.side_effect_callback:
        return None, "side-effect-tasklet"
    params = flat.params
    inner = flat.levels[-1]

    inputs: List[BoundInput] = []
    for edge in state.in_edges(tasklet):
        memlet: Memlet = edge.data
        if memlet is None or memlet.is_empty:
            if edge.src is not inner:
                return None, "non-entry-dependency-edge"
            continue
        if edge.src is not inner or edge.dst_conn is None:
            return None, "input-not-from-map-entry"
        if memlet.dynamic or memlet.other_subset is not None:
            return None, "dynamic-or-copy-input-subset"
        index = flat.point_indices(memlet) if memlet.subset is not None else None
        if index is None:
            return None, "non-point-input-subset"
        used: List[str] = []
        dims = [
            classify_index(e, params, used) or ("expr", compile_expression(str(e)))
            for e in index
        ]
        idx_code = None
        if any(kind == "expr" for kind, _ in dims):
            idx_code = [compile_expression(str(e)) for e in index]
        inputs.append(
            BoundInput(edge.dst_conn, memlet.data, dims, idx_code, str(memlet.subset))
        )

    outputs: List[BoundOutput] = []
    for edge in state.out_edges(tasklet):
        memlet = edge.data
        if memlet is None or memlet.is_empty:
            if isinstance(edge.dst, MapExit) and edge.dst.map is inner.map:
                continue
            return None, "empty-output-not-to-map-exit"
        if not isinstance(edge.dst, MapExit) or edge.dst.map is not inner.map:
            return None, "output-not-to-own-map-exit"
        if edge.src_conn is None or memlet.dynamic or memlet.other_subset is not None:
            return None, "dynamic-or-copy-output-subset"
        if memlet.subset is None:
            return None, "missing-output-subset"
        index = flat.point_indices(memlet)
        if index is None:
            return None, "non-point-output-subset"
        dims: List[Tuple[str, Any]] = []
        used_params: List[str] = []
        for e in index:
            # A unit-slope index (``i``, ``i + 1``) lowers to a slice
            # offset; the shift keeps the write a bijection, so the plain /
            # WCR write paths apply unchanged.
            dim = classify_index(e, params, used_params)
            if dim is None:
                if str(e).strip() in used_params:
                    # Same parameter indexing two dimensions.
                    return None, "parameter-reused-across-dims"
                return None, "non-affine-output-index"
            dims.append(dim)
        if memlet.wcr is None:
            # Without a reduction, the write must be a bijection on the
            # iteration space (every parameter appears as its own
            # dimension), otherwise iteration order would matter.
            if set(used_params) != set(params):
                return None, "non-bijective-write"
        elif memlet.wcr not in ("sum", "prod", "min", "max"):
            return None, "unsupported-wcr"
        elif flat.tiled and len(params) - len(used_params) > 1:
            # The nest meets an output element tile by tile, the flat domain
            # axis by axis: with two reduction axes the orders differ.
            return None, "tile-reorders-reduction"
        outputs.append(
            BoundOutput(edge.src_conn, memlet.data, dims, memlet.wcr, str(memlet.subset))
        )

    # Two output edges into the same container interleave their writes
    # per iteration in the interpreter but would run as two full-array
    # passes here; only vectorize single-writer containers.
    out_data = [o.data for o in outputs]
    if len(out_data) != len(set(out_data)):
        return None, "multi-writer-container"
    # An iteration must never observe another iteration's write: reading
    # a container that the scope also writes is only safe when read and
    # write subsets are textually identical (pure element-wise update).
    for spec in inputs:
        for other in outputs:
            if other.data != spec.data:
                continue
            if other.wcr is not None or spec.subset_str != other.subset_str:
                return None, "read-write-overlap"

    names = _vectorizable_names(tasklet.code, frozenset(s.conn for s in inputs))
    if names is None:
        return None, "non-vectorizable-code"
    for name, slug in flat.unread.items():
        if name in names:
            return None, slug
    needs_grids = bool(names & set(params)) or any(
        kind == "expr" for spec in inputs for kind, _ in spec.dims
    )

    # Setup dependencies: every non-parameter name the iteration grids,
    # gather indices and write geometry read.  Executions with unchanged
    # values for these names reuse the cached setup (loop hoisting).
    deps: Set[str] = set(flat.deps)
    for edge in state.in_edges(tasklet):
        if edge.data is not None and not edge.data.is_empty and edge.data.subset is not None:
            deps |= edge.data.subset.free_symbols
    for edge in state.out_edges(tasklet):
        if edge.data is not None and not edge.data.is_empty and edge.data.subset is not None:
            deps |= edge.data.subset.free_symbols
    deps -= set(params)
    return (
        BoundScope(
            entry=entry,
            tasklet=tasklet,
            code_obj=compile_code(tasklet.code),
            inputs=inputs,
            outputs=outputs,
            setup_deps=tuple(sorted(deps)),
            needs_grids=needs_grids,
            levels=flat.levels,
            domain=flat.axes,
        ),
        None,
    )


# ---------------------------------------------------------------------- #
# Fusion analysis
# ---------------------------------------------------------------------- #
def container_private_to_chain(
    sdfg: SDFG, state: SDFGState, data: str, chain_nodes: Set[Any]
) -> bool:
    """Whether every use of ``data`` in the whole program is inside the chain.

    Only then may the fused kernel skip materializing the container: nothing
    else -- no other state, no non-chain node in this state, no final-output
    copy -- can observe the missing write.
    """
    for other in sdfg.states():
        for node in other.nodes():
            if not isinstance(node, AccessNode) or node.data != data:
                continue
            if other is not state:
                return False
            for edge in other.in_edges(node):
                if edge.src not in chain_nodes:
                    return False
            for edge in other.out_edges(node):
                if edge.dst not in chain_nodes:
                    return False
    return True


def analyze_chain(
    sdfg: SDFG,
    state: SDFGState,
    entries: List[MapEntry],
    scopes: Dict[int, Optional[BoundScope]],
) -> Optional[BoundChain]:
    """Fuse the longest legal prefix of a candidate chain (or refuse).

    ``entries`` is a structural candidate from
    :func:`repro.sdfg.analysis.elementwise_scope_chains`; members without a
    vectorized scope, or whose memlets violate the fusion preconditions
    (mismatched intermediate subsets, reads of WCR-written containers,
    overlapping-write hazards), truncate the chain at that point.  A member
    writing with WCR may join -- but only as the chain's *tail*: with the
    accumulation target unread inside the chain, the deferred write is
    indistinguishable from the interpreter's, while any later member would
    reorder against the accumulation.  The accepted members are composed by
    :func:`~repro.backends.codegen.numpy_eager.compose_chain`.
    """
    from repro.sdfg.data import Array

    # Candidates share the head's *outermost* map; members of a chain run
    # over one domain, so a normalised scope must match the head's axis for
    # axis.
    def domain(scope: BoundScope) -> List[Tuple]:
        return [
            (axis.param, axis.width, axis.clamp, axis.per_block, axis.range)
            for axis in scope.domain
        ]

    lowered: List[BoundScope] = []
    head_domain: Optional[List[Tuple]] = None
    for entry in entries:
        scope = scopes.get(entry.guid)
        if scope is None:
            break
        if head_domain is None:
            head_domain = domain(scope)
        elif domain(scope) != head_domain:
            break
        lowered.append(scope)

    # Legality walk: route each input either to the store (gather) or to an
    # earlier member's value (chain); any read of an intra-chain write that
    # is not an exact elementwise match truncates the chain.
    accepted: List[BoundScope] = []
    routes: List[List[str]] = []
    written: Dict[str, BoundOutput] = {}
    gathered: Set[str] = set()
    deps: Set[str] = set()
    for scope in lowered:
        member_routes: List[str] = []
        legal = True
        for spec in scope.inputs:
            prev = written.get(spec.data)
            if prev is None:
                member_routes.append("gather")
                gathered.add(spec.data)
            elif prev.wcr is None and prev.subset_str == spec.subset_str:
                member_routes.append("chain")
            else:
                legal = False  # WCR-fed or subset-mismatched intermediate read
                break
        if not legal:
            break
        accepted.append(scope)
        routes.append(member_routes)
        deps.update(scope.setup_deps)
        for spec in scope.outputs:
            written[spec.data] = spec
        if any(spec.wcr is not None for spec in scope.outputs):
            # Accumulate-into-chain: a WCR writer is only legal as the tail.
            break
    if len(accepted) < 2:
        return None

    # Intermediates used nowhere outside the chain are never materialized.
    chain_nodes: Set[Any] = set()
    for scope in accepted:
        chain_nodes.add(scope.entry)
        chain_nodes.add(scope.tasklet)
    for node in state.nodes():
        if isinstance(node, MapExit) and any(
            node.map is scope.entry.map for scope in accepted
        ):
            chain_nodes.add(node)
    internal: Set[str] = set()
    for data in written:
        desc = sdfg.arrays.get(data)
        if (
            desc is not None
            and desc.transient
            and isinstance(desc, Array)
            # A container the chain also *gathers* (reads before any chain
            # write) carries a loop-borne dependence: the next execution of
            # this state must see the materialized value, so the write
            # cannot be skipped even when every use site is in the chain.
            and data not in gathered
            and container_private_to_chain(sdfg, state, data, chain_nodes)
        ):
            internal.add(data)

    return compose_chain(sdfg, accepted, routes, internal, tuple(sorted(deps)))


# ---------------------------------------------------------------------- #
# State analysis
# ---------------------------------------------------------------------- #
def analyze_state(sdfg: SDFG, state: SDFGState) -> StateTable:
    """Analyze one state: every map scope, then every fusable chain.

    Telemetry: lowering outcomes count into
    ``repro_scope_lowering_total{outcome=...}``, rejections additionally
    into ``repro_scope_fallback_total{reason=...}`` keyed by the same
    reason slugs recorded in :attr:`StateTable.fallback_reasons`, and
    fused chains observe their member count into the
    ``repro_fusion_chain_length`` histogram.
    """
    with TRACER.span("analyze", "prepare") as span:
        span.set("state", state.label)
        table = StateTable(scopes={}, fallback_reasons={})
        flattened: Set[MapEntry] = set()  # inner entries a lowered nest covers
        for node in state.topological_sort():
            if not isinstance(node, MapEntry) or node in flattened:
                continue
            scope, reason = analyze_scope(state, node)
            table.scopes[node.guid] = scope
            if scope is not None:
                flattened.update(scope.levels[1:])
            if reason is not None:
                table.fallback_reasons[node.guid] = reason
                _metric_inc(
                    "repro_scope_lowering_total", labels={"outcome": "fallback"}
                )
                _metric_inc("repro_scope_fallback_total", labels={"reason": reason})
            else:
                _metric_inc(
                    "repro_scope_lowering_total", labels={"outcome": "vectorized"}
                )
        for candidate in elementwise_scope_chains(state):
            chain = analyze_chain(sdfg, state, candidate, table.scopes)
            if chain is not None:
                table.heads[chain.members[0].scope.entry.guid] = chain
                table.members.update(m.scope.entry.guid for m in chain.members[1:])
                _metric_observe("repro_fusion_chain_length", len(chain.members))
    return table
