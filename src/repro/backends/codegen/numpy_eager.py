"""The lowering records and the ``numpy-eager`` chain composer.

The compiled backend lowers a state in two stages (see
:mod:`repro.backends`): the analyzer (:mod:`repro.backends.analysis`)
decides, and its output is already what the runtime
(:mod:`repro.backends.execute`) executes -- the records below.  A
:class:`BoundScope` holds its program's live nodes and compiled code
objects (tasklet code, ``const``/``expr`` index dimensions, densified-axis
clamps); a :class:`BoundChain` holds the member tasklets of a fused chain
composed by :func:`compose_chain` into one straight-line code object with
member-unique locals; a :class:`StateTable` holds one state's scopes and
chains, keyed by map-entry guid.  Nothing here runs any program code (the
runtime asks a :class:`BoundAxis` for its iteration sequence under the
run's symbols).

Codegen must not import from :mod:`repro.backends.execute` -- the layer
direction is enforced by ``make lint-arch``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.backends.geometry import Triple, axis_triple
from repro.interpreter.errors import ExecutionError
from repro.interpreter.executor import _EVAL_GLOBALS
from repro.sdfg.nodes import MapEntry, Tasklet
from repro.sdfg.sdfg import SDFG

__all__ = [
    "BoundAxis",
    "BoundInput",
    "BoundOutput",
    "BoundScope",
    "BoundMember",
    "BoundChain",
    "StateTable",
    "compose_chain",
]


class BoundAxis:
    """One axis of the flat iteration domain a scope was lowered over
    (:mod:`repro.backends.normalize`), bound to the map range it iterates:
    range ``dim`` of the map under ``entry``."""

    __slots__ = ("param", "label", "range", "width", "clamp", "per_block")

    def __init__(
        self,
        param: str,
        entry: MapEntry,
        dim: int,
        width: int = 0,
        clamp: Any = None,
        per_block: bool = False,
    ) -> None:
        self.param = param
        self.label = entry.label
        self.range = entry.map.ranges[dim]
        #: A densified axis: the range has step ``width`` and each of its
        #: values ``t`` stood for the block ``t : t + width - 1``, cut off at
        #: ``clamp`` (a compiled expression) when there is one; the axis
        #: iterates the union of the blocks with unit step.  0 for an axis
        #: taken as it is.
        self.width = width
        self.clamp = clamp
        #: The block was a memlet range of the range's own parameter
        #: (Vectorization), so the tasklet ran once per block, not per element.
        self.per_block = per_block

    def resolve(self, bindings: Dict[str, Any]) -> Triple:
        """The axis's ``(first, step, count)`` under ``bindings``."""
        begin, end, step = self.range.evaluate(bindings)
        if step == 0:
            raise ExecutionError(f"Map '{self.label}' has a zero step")
        triple = axis_triple(begin, end, step)
        first, _, blocks = triple
        if not self.width or not blocks:
            return triple
        # Densified: the union of the width-``width`` blocks that start at
        # the strided values, cut off at the clamp.
        last = first + step * (blocks - 1)
        end = last + self.width - 1
        if self.clamp is not None:
            clamp = int(eval(self.clamp, _EVAL_GLOBALS, bindings))  # noqa: S307
            if self.per_block and last > clamp:
                # An empty block still runs its tasklet in the interpreter;
                # no flat domain does that.  The scope is dropped for good.
                raise ValueError("empty block on a densified axis")
            end = min(end, clamp)
        count = max(0, end - first + 1)
        return first, 1, count


@dataclass
class BoundInput:
    """One gathered tasklet input (a point-subset read)."""

    conn: str
    data: str
    #: One entry per container dimension: ``("param", (axis, offset))`` for
    #: a unit-slope affine index in one map parameter (each parameter at
    #: most once), ``("const", code)`` for an index free of map parameters
    #: and ``("expr", code)`` for everything else (non-unit slope, two
    #: parameters, piecewise, a parameter's second use); ``code`` is the
    #: compiled index expression.  An input without an ``expr`` dimension is
    #: gathered in closed form (:mod:`repro.backends.geometry`).
    dims: List[Tuple[str, Any]]
    #: One compiled index expression per dimension when some dimension is
    #: ``expr`` (the gather then evaluates index arrays), else ``None``.
    idx_code: Optional[List[Any]]
    subset_str: str


@dataclass
class BoundOutput:
    """One scattered tasklet output (a point-subset write, possibly WCR).

    ``dims`` entries are ``("param", (axis, offset))`` or ``("const",
    code)`` where ``code`` is the compiled index expression.
    """

    conn: str
    data: str
    dims: List[Tuple[str, Any]]
    wcr: Optional[str]
    subset_str: str


@dataclass
class BoundScope:
    """A vectorized execution recipe for one map scope."""

    #: The scope's (outermost) map entry.
    entry: MapEntry
    tasklet: Tasklet
    code_obj: Any
    inputs: List[BoundInput]
    outputs: List[BoundOutput]
    #: Names (beyond the map parameters) whose values the scope's *setup* --
    #: iteration grids, gather indices, write geometry, bounds checks --
    #: depends on.  Within one run, executions whose values for these names
    #: are unchanged (e.g. every iteration of an enclosing interstate loop)
    #: reuse the cached setup: the loop-invariant part of the scope is
    #: hoisted out of the loop.
    setup_deps: Tuple[str, ...]
    #: Whether anything reads the broadcast iteration grids: the tasklet
    #: code names a map parameter, or an input has an ``expr`` dimension.
    #: Otherwise a scope execution never builds them.
    needs_grids: bool
    #: Map entries of the perfect nest the scope was flattened from,
    #: outermost (``entry``) first; one entry for a plain scope.
    levels: List[MapEntry]
    #: The flat domain the accesses' ``param`` axes index, in nest order.
    domain: List[BoundAxis]
    #: Cleared permanently if vectorized execution fails at runtime
    #: (e.g. an index expression that does not evaluate on index grids).
    usable: bool = True


@dataclass
class BoundMember:
    """One scope's role inside a fused chain."""

    scope: BoundScope
    #: Store reads this member performs: (input spec, composed-code name the
    #: gathered value is bound under).  Values an earlier member produced
    #: need no runtime binding at all -- the composed code reads them as
    #: plain locals.
    gathers: List[Tuple[BoundInput, str]]
    #: (kind, spec, composed-code name of the produced value).  ``"write"``
    #: materializes via the usual deferred write; ``"internal"`` only
    #: bounds-checks (the container is private to the chain and never
    #: observed).
    outputs: List[Tuple[str, BoundOutput, str]]


@dataclass
class BoundChain:
    """A fused execution recipe for a chain of elementwise map scopes.

    The member tasklets are composed into **one** code object: every member
    local is renamed to a member-unique name, consumer input connectors are
    bound directly to the (dtype-cast) producer values, and the whole chain
    executes as a single straight-line NumPy expression sequence -- no
    per-member namespaces, no intermediate materialization.
    """

    #: In chain order; the first is the head, whose domain every member's
    #: equals.
    members: List[BoundMember]
    code_obj: Any
    code_filename: str
    #: Cast callables the composed code calls at producer/consumer handoffs
    #: (``name -> callable``); injected into the execution namespace.
    cast_bindings: Dict[str, Callable]
    #: (first source line, tasklet label) per member, for attributing a
    #: composed-execution exception to the member that raised it.
    line_labels: List[Tuple[int, str]]
    setup_deps: Tuple[str, ...]
    #: Whether any member reads the iteration grids.
    needs_grids: bool
    usable: bool = True

    @property
    def domain(self) -> List[BoundAxis]:
        return self.members[0].scope.domain

    def label_for(self, exc: BaseException) -> str:
        """The tasklet label owning the composed-code line that raised."""
        lineno = None
        tb = exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code.co_filename == self.code_filename:
                lineno = tb.tb_lineno
            tb = tb.tb_next
        label = self.line_labels[0][1]
        if lineno is not None:
            for start, candidate in self.line_labels:
                if start <= lineno:
                    label = candidate
        return label


@dataclass
class StateTable:
    """Every lowering decision for one state's dataflow."""

    #: Bound scope (or ``None`` for analyzer-rejected scopes) per map-entry
    #: guid, covering top-level *and* nested map entries -- but not the
    #: inner entries of a nest that was flattened into its outermost scope.
    scopes: Dict[int, Optional[BoundScope]]
    #: Why each rejected scope falls back to the interpreter (per guid).
    fallback_reasons: Dict[int, str]
    #: Fused chains by head-entry guid.
    heads: Dict[int, BoundChain] = field(default_factory=dict)
    #: Non-head member guids (statically skippable when their chain runs).
    members: Set[int] = field(default_factory=set)


def _make_cast(np_dtype) -> Callable:
    """A callable reproducing the store round-trip's dtype cast."""
    dt = np.dtype(np_dtype)

    def cast(value, _dt=dt):
        arr = np.asarray(value)
        return arr if arr.dtype == _dt else arr.astype(_dt)

    return cast


class _LoadRenamer(ast.NodeTransformer):
    """Renames name *loads* through a live mapping (member-local scoping)."""

    def __init__(self, mapping: Dict[str, str]) -> None:
        self.mapping = mapping

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if isinstance(node.ctx, ast.Load) and node.id in self.mapping:
            return ast.copy_location(
                ast.Name(id=self.mapping[node.id], ctx=ast.Load()), node
            )
        return node


def compose_chain(
    sdfg: SDFG,
    scopes: List[BoundScope],
    routes: List[List[str]],
    internal: Set[str],
    setup_deps: Tuple[str, ...],
) -> Optional[BoundChain]:
    """Compose a chain's member tasklets into one straight-line kernel.

    ``routes`` parallels each member's inputs: every input either reads the
    pre-chain store (``"gather"``) or an earlier member's in-flight value
    (``"chain"``); ``internal`` names containers private to the chain,
    whose writes are never materialized.  Every member local is renamed to
    a member-unique name, consumer connectors are bound directly to the
    (dtype-cast) producer values, and one code object is emitted for the
    whole chain.  Any composition failure drops the chain (members execute
    per-scope).
    """
    try:
        # Handoff keys consumed by later members, recomputed from the
        # routes: only consumed values need the dtype-cast binding.
        consumed: Set[Tuple[str, str]] = set()
        for bs, member_routes in zip(scopes, routes):
            for spec, route in zip(bs.inputs, member_routes):
                if route == "chain":
                    consumed.add((spec.data, spec.subset_str))

        lines: List[str] = []
        line_labels: List[Tuple[int, str]] = []
        cast_bindings: Dict[str, Callable] = {}
        chain_var: Dict[Tuple[str, str], str] = {}
        members: List[BoundMember] = []
        cast_counter = 0
        for k, (bs, member_routes) in enumerate(zip(scopes, routes)):
            mapping: Dict[str, str] = {}
            gathers: List[Tuple[BoundInput, str]] = []
            for spec, route in zip(bs.inputs, member_routes):
                if route == "gather":
                    name = f"__g{k}_{spec.conn}"
                    mapping[spec.conn] = name
                    gathers.append((spec, name))
                else:
                    mapping[spec.conn] = chain_var[(spec.data, spec.subset_str)]
            start = len(lines) + 1
            renamer = _LoadRenamer(mapping)
            tree = ast.parse(bs.tasklet.code)
            for stmt in tree.body:
                # Straight-line single-target assignments are guaranteed
                # by the analyzer; rename the loads first (against the
                # *pre-assignment* mapping), then bind the target.
                value = ast.fix_missing_locations(renamer.visit(stmt.value))
                target = stmt.targets[0].id
                local = f"__v{k}_{target}"
                lines.append(f"{local} = {ast.unparse(value)}")
                mapping[target] = local
            outputs: List[Tuple[str, BoundOutput, str]] = []
            for spec in bs.outputs:
                out_name = mapping.get(spec.conn, f"__v{k}_{spec.conn}")
                kind = "internal" if spec.data in internal else "write"
                outputs.append((kind, spec, out_name))
                key = (spec.data, spec.subset_str)
                if key in consumed:
                    # Producer/consumer handoff: the value a later member
                    # reads back, cast to the container dtype exactly as
                    # the interpreter's store write would.
                    cast_name = f"__cast{cast_counter}"
                    var = f"__chain{cast_counter}"
                    cast_counter += 1
                    cast_bindings[cast_name] = _make_cast(
                        sdfg.arrays[spec.data].dtype.as_numpy()
                    )
                    lines.append(f"{var} = {cast_name}({out_name})")
                    chain_var[key] = var
            line_labels.append((start, bs.tasklet.label))
            members.append(BoundMember(bs, gathers, outputs))
        filename = f"<fused-chain:{scopes[0].entry.label}>"
        code_obj = compile("\n".join(lines) + "\n", filename, "exec")
    except Exception:  # noqa: BLE001 - never fail composition; fall back
        return None

    return BoundChain(
        members=members,
        code_obj=code_obj,
        code_filename=filename,
        cast_bindings=cast_bindings,
        line_labels=line_labels,
        setup_deps=setup_deps,
        needs_grids=any(bs.needs_grids for bs in scopes),
    )
