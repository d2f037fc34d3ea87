"""The compiled whole-program backend.

PR 2's vectorized backend only accelerates dataflow *inside* a state: every
interstate transition (loop iterations, branches) still re-enters the
interpreter's generic transition loop -- rebuild the interstate namespace,
``eval`` each edge condition against a fresh dict, ``eval`` each assignment.
For loop-nest programs that transition loop dominates, so ``cloudsc``- and
``bert``-shaped workloads saw almost none of the vectorized speedup.

This backend binds **one Python driver function for the entire SDFG** at
preparation time, through the ``python-driver`` emitter
(:mod:`repro.backends.codegen.python_driver`):

* the state machine is lowered to *structured* control flow
  (:func:`repro.sdfg.analysis.structured_control_flow`): natural loops (the
  guard pattern) become native ``while`` loops, if-diamonds become ``if``
  chains, linear chains stay flat;
* interstate edge conditions and symbol assignments become inline Python
  expressions (:func:`repro.symbolic.codegen.emit_interstate_expression`)
  reading program symbols from one shared dict and scalar containers from
  the data store -- no per-transition namespace rebuild, no ``eval``;
* symbol loads that are *invariant across a structured loop* -- names never
  assigned by any edge inside the loop (dataflow cannot write symbols) and
  guaranteed present (free symbols and constants) -- are hoisted into
  locals computed once before the loop;
* each state's dataflow is **inlined as a prepared op list**: every
  top-level node becomes one prebound closure (a tasklet run, a vectorized
  -- possibly *fused* -- scope execution, an access copy), built once at
  preparation time; the driver iterates the list directly, with no
  per-transition node-type dispatch, scope-plan lookup or no-op node visits;
* irreducible interstate graphs fall back to a generated
  ``while``-over-current-state dispatch loop (still native conditions, just
  with an explicit state variable).

Results are bitwise identical to the interpreter, including final symbol
values, transition counts, coverage maps (transition, condition and tasklet
features) and the full error taxonomy (``HangError`` on transition-budget
exhaustion, ``ExecutionError`` wrapping of failing conditions/assignments,
``MemoryViolation`` from dataflow).  Compiled programs are cached by SDFG
content hash exactly like vectorized ones; with a cache *directory*
configured the generated driver is additionally persisted as an on-disk
artifact (keyed by content hash, codegen version, plan-format version and
Python build) **together with the serialized lowering plan**
(:class:`~repro.backends.plan.ProgramPlan`), so sibling worker processes --
pool workers, cluster workers -- skip control-flow structuring, code
generation *and* scope analysis entirely.

As a last-resort safety net (e.g. an interstate assignment targeting a name
that is *also* a scalar container, where static name routing cannot
reproduce the interpreter's shadowing dance), the driver degrades to an
``interpreted`` control loop that reuses the interpreter's ``_next_state``
verbatim -- dataflow stays vectorized, only transitions stay dynamic.
"""

from __future__ import annotations

import base64
import marshal
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.backends.base import CompiledProgram as _BaseCompiledProgram
from repro.backends.codegen.python_driver import (
    CODEGEN_VERSION,
    _artifact_stamp,
    compile_driver,
)
from repro.backends.plan import PLAN_FORMAT_VERSION, ProgramPlan
from repro.backends.vectorized import (
    VectorizedBackend,
    VectorizedExecutor,
    VectorizedProgram,
)
from repro.interpreter.errors import ExecutionError, HangError
from repro.interpreter.executor import _EVAL_GLOBALS
from repro.interpreter.tasklet_exec import compile_expression
from repro.sdfg.analysis import access_node_is_transparent
from repro.sdfg.nodes import AccessNode, MapEntry, MapExit, NestedSDFGNode, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.telemetry import TRACER as _TRACER

#: One prepared dataflow step, called as ``op(executor, symbols)``.  Ops take
#: their executor as an argument instead of closing over it: an executor that
#: owned closures over itself would be a reference cycle, and every program a
#: sweep prepares would then wait for the cyclic collector.
StateOp = Callable[["CompiledExecutor", Dict[str, Any]], None]

__all__ = [
    "CompiledBackend",
    "CompiledWholeProgram",
    "CompiledExecutor",
    "compile_driver",
    "CODEGEN_VERSION",
]


class CompiledExecutor(VectorizedExecutor):
    """A :class:`VectorizedExecutor` whose control flow is one generated
    Python function and whose per-state dataflow is a prepared op list."""

    def __init__(
        self,
        sdfg: SDFG,
        max_transitions: int = 100_000,
        artifact: Optional[Dict[str, Any]] = None,
        **kwargs,
    ) -> None:
        super().__init__(sdfg, max_transitions=max_transitions, **kwargs)
        self._compiled_states: List[SDFGState] = list(sdfg.states())
        state_index = {s: i for i, s in enumerate(self._compiled_states)}
        artifact_hoisted = self._seed_state_plans(artifact)
        # Per-state op lists, fixed at prepare time: one prebound function
        # per executable top-level node.  The generic ``_execute_state``
        # re-derives node lists, re-dispatches on node type and re-looks-up
        # scope plans -- and formerly copied the full symbol dict -- on
        # every transition, which dominates transition-heavy loop nests.
        # Fused-chain members and no-op access nodes are dropped statically.
        self._state_ops: List[List[StateOp]] = []
        self._state_ops_by_id: Dict[int, List[StateOp]] = {}
        # The bind/codegen phases of prepare: analyze spans (if any plan
        # must be rebuilt) nest inside via _table_for -> analyze_state.
        with _TRACER.span("codegen.bind", "prepare") as span:
            span.set("emitter", self.EMITTER_NAME)
            for state in self._compiled_states:
                ops = self._build_state_ops(state)
                self._state_ops.append(ops)
                self._state_ops_by_id[id(state)] = ops
        info: Dict[str, Any] = {}
        with _TRACER.span("codegen.driver", "prepare") as span:
            span.set("seeded", artifact is not None)
            self.control_mode, self.driver_source, self._drive, self._driver_code = (
                compile_driver(sdfg, state_index, artifact=artifact, info=info)
            )
        #: Loop-invariant symbol loads the driver hoisted (fresh compiles
        #: report them via ``info``; artifact-seeded drivers carry them in
        #: the persisted plan).
        self.hoisted_symbols: Tuple[str, ...] = tuple(
            info.get("hoisted") or artifact_hoisted or ()
        )

    def _seed_state_plans(
        self, artifact: Optional[Dict[str, Any]]
    ) -> Tuple[str, ...]:
        """Pre-populate per-state lowering plans from a disk artifact.

        Node guids are covered by the content hash, so an artifact plan
        always resolves against this program; any inconsistency (format
        drift, state-count mismatch, malformed payload) simply discards the
        seed and re-analysis runs.  Returns the plan's hoisted symbols.
        """
        if not artifact or "plan" not in artifact:
            return ()
        try:
            plan = ProgramPlan.from_dict(artifact["plan"])
            if len(plan.states) != len(self._compiled_states):
                raise ValueError("state count mismatch")
            for state, splan in zip(self._compiled_states, plan.states):
                self._state_plans[id(state)] = splan
            return tuple(plan.hoisted_symbols)
        except Exception:  # noqa: BLE001 - any bad seed degrades to re-analysis
            self._state_plans.clear()
            return ()

    @property
    def program_plan(self) -> ProgramPlan:
        """The complete lowering plan (every state is bound at prepare
        time, so the per-state plans are always populated here)."""
        return ProgramPlan(
            format=PLAN_FORMAT_VERSION,
            sdfg_name=self.sdfg.name,
            states=[self._state_plans[id(s)] for s in self._compiled_states],
            hoisted_symbols=tuple(self.hoisted_symbols),
        )

    # Op-list construction ............................................. #
    def _build_state_ops(
        self, state: SDFGState
    ) -> List[StateOp]:
        table = self._table_for(state)
        order = self._state_order(state)
        scopes = self._scope_cache[id(state)]
        ops: List[StateOp] = []
        for node in order:
            if scopes.get(node) is not None or isinstance(node, MapExit):
                continue
            if isinstance(node, MapEntry):
                if node.guid in table.members:
                    continue  # covered by its chain head's fused op
                fused = table.heads.get(node.guid)
                if fused is not None:
                    ops.append(self._make_fused_op(state, fused, table))
                else:
                    ops.append(
                        self._make_scope_op(state, node, table.plans.get(node.guid))
                    )
            else:
                op = self._make_node_op(state, node)
                if op is not None:
                    ops.append(op)
        return ops

    def _make_node_op(
        self, state: SDFGState, node
    ) -> Optional[StateOp]:
        """The prebound closure for one non-scope top-level node (``None``
        for statically droppable no-ops)."""
        if isinstance(node, Tasklet):

            def op(rt, symbols, _state=state, _node=node):
                rt._execute_tasklet(_state, _node, symbols)

            return op
        if isinstance(node, AccessNode):
            if access_node_is_transparent(state, node):
                return None  # executing it is a no-op: drop statically

            def op(rt, symbols, _state=state, _node=node):
                rt._execute_copies_into(_state, _node, symbols)

            return op
        if isinstance(node, NestedSDFGNode):

            def op(rt, symbols, _state=state, _node=node):
                rt._execute_nested(_state, _node, symbols)

            return op

        def op(rt, symbols, _state=state, _node=node):
            rt._execute_node(_state, _node, symbols)

        return op

    def _make_scope_op(
        self, state: SDFGState, entry: MapEntry, plan
    ) -> StateOp:
        def op(rt, symbols, _state=state, _entry=entry, _plan=plan):
            rt._run_single_scope(_state, _entry, _plan, symbols)

        return op

    def _make_fused_op(
        self, state: SDFGState, fused, table
    ) -> StateOp:
        members = [(e, table.plans.get(e.guid)) for e in fused.member_entries]

        def op(rt, symbols, _state=state, _fused=fused, _members=members):
            if rt._try_fused(_fused, symbols):
                return
            # The chain did not survive contact with runtime values: run the
            # members individually at the head's position.  The nodes between
            # them were transparent (that made them a chain), so chain order
            # here equals per-position execution order.
            for entry, plan in _members:
                rt._run_single_scope(_state, entry, plan, symbols)

        return op

    # Runtime services the generated driver calls ...................... #
    def _hang(self) -> None:
        raise HangError(self.max_transitions)

    def _cond_fail(self, condition: str, exc: BaseException) -> None:
        raise ExecutionError(
            f"Failed to evaluate interstate condition {condition!r}: {exc}"
        ) from exc

    def _assign_fail(self, sym: str, expr: str, exc: BaseException) -> None:
        raise ExecutionError(
            f"Failed to evaluate interstate assignment {sym} = {expr!r}: {exc}"
        ) from exc

    def _eval_raw(self, expr: str) -> Any:
        """Interpreter-identical dynamic evaluation (unparseable exprs)."""
        return eval(  # noqa: S307 - restricted namespace
            compile_expression(expr), _EVAL_GLOBALS, self._interstate_namespace()
        )

    def _execute_state(self, state: SDFGState) -> None:
        """Per-state dataflow through the prepared op list.

        Nothing below mutates the top-level symbol dict (tasklets run in
        their own namespaces, map scopes copy bindings before adding
        parameters, reads/writes only evaluate against them), so the live
        symbol dict is passed directly -- no per-transition copy.  Used by
        the ``interpreted`` fallback mode; the generated driver iterates
        the op lists inline without even this method call.
        """
        symbols = self._symbols
        for op in self._state_ops_by_id[id(state)]:
            op(self, symbols)

    # .................................................................. #
    def _run_control_loop(self) -> int:
        """The whole run contract (setup, result construction, store reset
        for cached programs) is inherited; only the transition loop is
        replaced by the generated driver."""
        if self._drive is None:
            # Stateless program: raise exactly like the interpreter.
            _ = self.sdfg.start_state
        return self._drive(self)


class CompiledWholeProgram(VectorizedProgram):
    """A program bound to a reusable :class:`CompiledExecutor`."""

    #: Executor type this program binds; the batched backend swaps it while
    #: inheriting the artifact contract.
    executor_class = CompiledExecutor

    def __init__(
        self,
        sdfg: SDFG,
        max_transitions: int = 100_000,
        fuse: bool = True,
        artifact: Optional[Dict[str, Any]] = None,
    ) -> None:
        # Deliberately skip VectorizedProgram.__init__: same shape, but the
        # executor is the compiled one.
        _BaseCompiledProgram.__init__(self, sdfg)
        self.executor = self.executor_class(
            sdfg, max_transitions=max_transitions, fuse=fuse, artifact=artifact
        )

    @property
    def control_mode(self) -> str:
        return self.executor.control_mode

    @property
    def driver_source(self) -> Optional[str]:
        return self.executor.driver_source

    persists_artifacts = True

    @classmethod
    def check_artifact(cls, artifact: Dict[str, Any]) -> bool:
        """Whether a disk artifact was produced by this exact generator
        (format, codegen version, plan format, Python build) and names a
        known mode."""
        stamp = _artifact_stamp()
        # Presence-required comparison: a stamp field whose expected value
        # is None (e.g. ``toolchain``) must still *exist* in the artifact --
        # ``artifact.get(k) == None`` would accept entries predating the
        # field entirely.
        return (
            all(k in artifact and artifact[k] == v for k, v in stamp.items())
            and artifact.get("plan_format") == PLAN_FORMAT_VERSION
            and artifact.get("mode") in ("structured", "dispatch", "interpreted")
        )

    def artifact(self) -> Optional[Dict[str, Any]]:
        """The persistable artifact: driver (mode + source + marshaled
        code) plus the serialized lowering plan."""
        executor = self.executor
        mode = executor.control_mode
        if mode == "empty":
            return None
        art = _artifact_stamp()
        art["mode"] = mode
        if mode in ("structured", "dispatch"):
            if executor.driver_source is None or executor._driver_code is None:
                return None
            art["source"] = executor.driver_source
            art["code"] = base64.b64encode(
                marshal.dumps(executor._driver_code)
            ).decode("ascii")
        art["plan_format"] = PLAN_FORMAT_VERSION
        try:
            art["plan"] = executor.program_plan.to_dict()
        except Exception:  # noqa: BLE001 - a plan that cannot serialize is
            return None  # not worth persisting a partial artifact for
        return art


class CompiledBackend(VectorizedBackend):
    """Whole-program compilation: structured interstate control flow plus
    vectorized (and fused) state dataflow, cached by SDFG content hash with
    an optional on-disk artifact tier shared across worker processes."""

    name = "compiled"
    program_class = CompiledWholeProgram
