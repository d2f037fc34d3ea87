"""The ``numpy-eager`` emitter: plans -> bound NumPy scope kernels.

Third stage of the lowering pipeline (analyze -> plan -> codegen ->
execute).  An emitter consumes the plan IR
(:mod:`repro.backends.plan`) and *binds* it to one concrete program: guids
resolve to nodes, index-expression strings compile to code objects, member
tasklets of a fused chain compose into one straight-line code object with
member-unique locals.  The result -- :class:`StateTable` of
:class:`BoundScope` / :class:`BoundChain` -- is everything the execute
layer consumes; nothing here runs any program code (the runtime asks a
:class:`BoundAxis` for its iteration sequence under the run's symbols).

This emitter feeds the compiled backend (eager NumPy array evaluation, one
kernel per scope or fused chain).  Emitters must not import from
:mod:`repro.backends.execute` -- the layer direction is enforced by ``make
lint-arch``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.backends.geometry import Triple, axis_triple
from repro.backends.plan import AxisPlan, ChainPlan, ScopePlan, StatePlan
from repro.interpreter.errors import ExecutionError
from repro.interpreter.executor import _EVAL_GLOBALS
from repro.interpreter.tasklet_exec import compile_code, compile_expression
from repro.sdfg.nodes import MapEntry, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState

__all__ = [
    "BoundAxis",
    "BoundInput",
    "BoundOutput",
    "BoundScope",
    "BoundMember",
    "BoundChain",
    "StateTable",
    "NumpyEagerEmitter",
]


class BoundAxis:
    """An :class:`~repro.backends.plan.AxisPlan` bound to the map range it
    iterates."""

    __slots__ = ("param", "label", "range", "width", "clamp", "per_block")

    def __init__(self, plan: AxisPlan, entry: MapEntry) -> None:
        self.param = plan.param
        self.label = entry.label
        self.range = entry.map.ranges[plan.dim]
        self.width = plan.width
        self.clamp = None if plan.clamp is None else compile_expression(plan.clamp)
        self.per_block = plan.per_block

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
                # no flat domain does that.  The plan is dropped for good.
                raise ValueError("empty block on a densified axis")
            end = min(end, clamp)
        count = max(0, end - first + 1)
        return first, 1, count


@dataclass
class BoundInput:
    """An :class:`~repro.backends.plan.InputPlan` with compiled indices."""

    conn: str
    data: str
    #: ``InputPlan.dims`` with ``const`` payloads compiled (as
    #: :attr:`BoundOutput.dims`); what a closed-form gather reads.
    dims: List[Tuple[str, Any]]
    #: One compiled index expression per dimension when some dimension is
    #: ``expr`` (the gather then evaluates index arrays), else ``None``.
    idx_code: Optional[List[Any]]
    subset_str: str


@dataclass
class BoundOutput:
    """An :class:`~repro.backends.plan.OutputPlan` with compiled constants.

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
    setup_deps: Tuple[str, ...] = ()
    #: The plan this scope was bound from (diagnostics).
    plan: Optional[ScopePlan] = None
    #: Cleared permanently if vectorized execution fails at runtime
    #: (e.g. an index expression that does not evaluate on index grids).
    usable: bool = True
    #: :attr:`ScopePlan.needs_grids`: whether an execution builds the
    #: broadcast iteration grids at all.
    needs_grids: bool = True
    #: The flat domain (:attr:`ScopePlan.domain`) the scope runs over.
    domain: List[BoundAxis] = field(default_factory=list)


@dataclass
class BoundMember:
    """One scope's role inside a fused chain."""

    plan: BoundScope
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

    entry: MapEntry  # of the head scope
    #: The head scope's domain; every member runs over an equal one.
    domain: List[BoundAxis]
    members: List[BoundMember]
    member_entries: List[MapEntry]
    member_guids: Tuple[int, ...]
    #: The composed chain program (and its source, for debuggability).
    code_obj: Any
    source: str
    code_filename: str
    #: Cast callables the composed code calls at producer/consumer handoffs
    #: (``name -> callable``); injected into the execution namespace.
    cast_bindings: Dict[str, Callable]
    #: (first source line, tasklet label) per member, for attributing a
    #: composed-execution exception to the member that raised it.
    line_labels: List[Tuple[int, str]]
    setup_deps: Tuple[str, ...]
    #: The chain plan this was bound from.
    chain_plan: Optional[ChainPlan] = None
    usable: bool = True
    #: Whether any member reads the iteration grids.
    needs_grids: bool = True

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
    """Per-state lowering decisions, bound to the program's nodes."""

    #: Bound scope (or ``None`` for analyzer-rejected scopes) per map-entry
    #: guid, covering top-level *and* nested map entries -- but not the
    #: inner entries of a nest that was flattened into its outermost scope.
    plans: Dict[int, Optional[BoundScope]]
    #: Fused chains by head-entry guid.
    heads: Dict[int, BoundChain]
    #: Non-head member guids (statically skippable when their chain runs).
    members: Set[int] = field(default_factory=set)
    #: The state plan this table was bound from.
    state_plan: Optional[StatePlan] = None


def _bind_dims(dims: List[Tuple[str, Any]]) -> List[Tuple[str, Any]]:
    return [
        (kind, payload if kind == "param" else compile_expression(payload))
        for kind, payload in dims
    ]


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


class NumpyEagerEmitter:
    """Binds state plans to eager NumPy scope kernels.  Stateless."""

    name = "numpy-eager"

    # .................................................................. #
    def bind_state(
        self, sdfg: SDFG, state: SDFGState, state_plan: StatePlan
    ) -> StateTable:
        """Bind one state's plan against the live program graph; raises on
        a plan whose guids do not resolve in ``state``."""
        nodes_by_guid = {n.guid: n for n in state.nodes()}
        plans: Dict[int, Optional[BoundScope]] = {}
        for guid, scope_plan in state_plan.scopes.items():
            if scope_plan is None:
                # The guid must still name a node; a stale plan fails here.
                _ = nodes_by_guid[guid]
                plans[guid] = None
            else:
                plans[guid] = self.bind_scope(nodes_by_guid, scope_plan)
        heads: Dict[int, BoundChain] = {}
        members: Set[int] = set()
        for chain_plan in state_plan.chains:
            bound = self.bind_chain(sdfg, chain_plan, plans)
            if bound is not None:
                heads[bound.member_guids[0]] = bound
                members.update(bound.member_guids[1:])
        return StateTable(plans, heads, members, state_plan)

    def bind_scope(
        self, nodes_by_guid: Dict[int, Any], plan: ScopePlan
    ) -> BoundScope:
        entry = nodes_by_guid[plan.entry_guid]
        tasklet = nodes_by_guid[plan.tasklet_guid]
        code_obj = compile_code(plan.code)
        inputs = [
            BoundInput(
                ip.conn,
                ip.data,
                _bind_dims(ip.dims),
                [compile_expression(e) for e in ip.index_exprs]
                if any(kind == "expr" for kind, _ in ip.dims)
                else None,
                ip.subset_str,
            )
            for ip in plan.inputs
        ]
        outputs = [
            BoundOutput(op.conn, op.data, _bind_dims(op.dims), op.wcr, op.subset_str)
            for op in plan.outputs
        ]
        levels = [nodes_by_guid[guid] for guid in plan.level_guids]
        return BoundScope(
            entry, tasklet, code_obj, inputs, outputs, plan.setup_deps, plan,
            needs_grids=plan.needs_grids,
            domain=[BoundAxis(axis, levels[axis.level]) for axis in plan.domain],
        )

    # .................................................................. #
    def bind_chain(
        self,
        sdfg: SDFG,
        chain_plan: ChainPlan,
        plans: Dict[int, Optional[BoundScope]],
    ) -> Optional[BoundChain]:
        """Compose a chain's member tasklets into one straight-line kernel.

        Every member local is renamed to a member-unique name, consumer
        connectors are bound directly to the (dtype-cast) producer values,
        and one code object is emitted for the whole chain.  Any
        composition failure drops the chain (members execute per-scope).
        """
        try:
            bound_members = [plans[g] for g in chain_plan.member_guids]
            if any(b is None for b in bound_members):
                return None
            internal = set(chain_plan.internal)
            # Handoff keys consumed by later members, recomputed from the
            # routes: only consumed values need the dtype-cast binding.
            consumed: Set[Tuple[str, str]] = set()
            for bs, routes in zip(bound_members, chain_plan.routes):
                for spec, route in zip(bs.inputs, routes):
                    if route == "chain":
                        consumed.add((spec.data, spec.subset_str))

            lines: List[str] = []
            line_labels: List[Tuple[int, str]] = []
            cast_bindings: Dict[str, Callable] = {}
            chain_var: Dict[Tuple[str, str], str] = {}
            members: List[BoundMember] = []
            cast_counter = 0
            for k, (bs, routes) in enumerate(zip(bound_members, chain_plan.routes)):
                mapping: Dict[str, str] = {}
                gathers: List[Tuple[BoundInput, str]] = []
                for spec, route in zip(bs.inputs, routes):
                    if route == "gather":
                        name = f"__g{k}_{spec.conn}"
                        mapping[spec.conn] = name
                        gathers.append((spec, name))
                    else:
                        mapping[spec.conn] = chain_var[(spec.data, spec.subset_str)]
                start = len(lines) + 1
                renamer = _LoadRenamer(mapping)
                tree = ast.parse(bs.plan.code)
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
            member_entries = [bs.entry for bs in bound_members]
            source = "\n".join(lines) + "\n"
            filename = f"<fused-chain:{member_entries[0].label}>"
            code_obj = compile(source, filename, "exec")
        except Exception:  # noqa: BLE001 - never fail binding; fall back
            return None

        return BoundChain(
            entry=member_entries[0],
            domain=bound_members[0].domain,
            members=members,
            member_entries=member_entries,
            member_guids=chain_plan.member_guids,
            code_obj=code_obj,
            source=source,
            code_filename=filename,
            cast_bindings=cast_bindings,
            line_labels=line_labels,
            setup_deps=chain_plan.setup_deps,
            chain_plan=chain_plan,
            needs_grids=any(bs.needs_grids for bs in bound_members),
        )
