"""The compiled backend: the one optimising execution strategy.

Map scopes whose memlets are affine in the map parameters run as NumPy
array expressions (:mod:`repro.backends.execute`; any construct the
analyzer cannot express -- nested SDFGs or imperfect nests inside a scope,
data-dependent subsets, non-affine output indices, write-conflict patterns
it cannot prove race-free, tasklet code outside the vectorizable subset of
Python -- falls back node-by-node to the interpreter for exactly that
scope).  Around them this backend binds **one Python driver function for
the entire SDFG** at preparation time
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
``MemoryViolation`` from dataflow).

As a last-resort safety net (e.g. an interstate assignment targeting a name
that is *also* a scalar container, where static name routing cannot
reproduce the interpreter's shadowing dance), the driver degrades to an
``interpreted`` control loop that reuses the interpreter's ``_next_state``
verbatim -- dataflow stays vectorized, only transitions stay dynamic.

**Batches.**  Differential fuzzing runs the same program dozens of times on
independently sampled inputs, and for the small-extent cutouts fuzzing
produces NumPy's per-call fixed costs dominate the arithmetic.
``run_batch`` amortizes them whenever it gets more than one trial: ``K``
trial inputs are stacked along a **leading batch axis** (container ``A`` of
shape ``S`` becomes one array of shape ``(K,) + S``) and each batchable
scope executes *once* per batch.  Not everything batches, and verdict
fidelity is non-negotiable:

* **WCR / order-dependent scopes** accumulate sequentially in iteration
  order; they execute *per trial* (the op list swaps the store to one
  trial's batch-axis views at a time), as do interpreter-fallback scopes,
  plain tasklets, access copies and nested SDFGs;
* programs whose control flow could differ between trials (interstate
  expressions reading scalar containers, or drivers in ``interpreted``
  mode) are not batched at all;
* any failure during a batched attempt -- a crashing trial, a bounds
  violation, a plan that did not survive contact -- abandons the batch and
  reruns every trial serially, so per-trial error attribution (and
  therefore every differential verdict) is **bitwise identical** to ``K``
  serial runs by construction.

**Caches.**  Every ``prepare`` builds a program private to its caller:
nothing is kept in memory between prepares, so a prepared program never
reaches a second thread.  Driver code objects are memoised process-wide by
source text (:func:`repro.interpreter.tasklet_exec.compile_code`; each
program still ``exec``s its own driver function), and each state's
structure queries by its scope index (:class:`repro.sdfg.state.SDFGState`).
Nothing is written to disk and the program is never hashed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.backends.base import CompiledProgram, ExecutionBackend
from repro.backends.codegen.numpy_eager import (
    BoundChain,
    chain_is_batchable,
    scope_is_batchable,
)
from repro.backends.codegen.python_driver import compile_driver, control_is_static
from repro.backends.execute import ScopeRuntime, _BatchAbort
from repro.backends.plan import ProgramPlan
from repro.interpreter.coverage import CoverageMap
from repro.interpreter.errors import ExecutionError, HangError
from repro.interpreter.executor import _EVAL_GLOBALS, ExecutionResult
from repro.interpreter.tasklet_exec import compile_expression
from repro.sdfg.analysis import access_node_is_transparent
from repro.sdfg.nodes import AccessNode, MapEntry, NestedSDFGNode, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.telemetry import TRACER as _TRACER, inc as _metric_inc

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
]


class CompiledExecutor(ScopeRuntime):
    """A :class:`ScopeRuntime` whose control flow is one generated Python
    function and whose per-state dataflow is a prepared op list.

    A batched run (:meth:`run_batched`) swaps in a second op list where
    batchable scopes execute on ``(K,) + shape`` containers and everything
    else iterates the trials against per-trial batch-axis views.
    """

    def __init__(
        self,
        sdfg: SDFG,
        max_transitions: int = 100_000,
        **kwargs,
    ) -> None:
        super().__init__(sdfg, max_transitions=max_transitions, **kwargs)
        #: Each state's position in ``_state_ops``, in ``sdfg.states()`` order.
        self._state_index = {s: i for i, s in enumerate(sdfg.states())}
        # Per-state op lists, fixed at prepare time: one prebound function
        # per executable top-level node.  The generic ``_execute_state``
        # re-derives node lists, re-dispatches on node type and re-looks-up
        # scope plans -- and formerly copied the full symbol dict -- on
        # every transition, which dominates transition-heavy loop nests.
        # Fused-chain members and no-op access nodes are dropped statically.
        # The bind/codegen phases of prepare: analyze spans nest inside via
        # _table_for -> analyze_state.
        with _TRACER.span("codegen.bind", "prepare") as span:
            span.set("emitter", self.emitter.name)
            self._state_ops: List[List[StateOp]] = [
                self._build_state_ops(state) for state in self._state_index
            ]
        with _TRACER.span("codegen.driver", "prepare"):
            self.control_mode, self.driver_source, self._drive = compile_driver(
                sdfg, self._state_index
            )
        #: Per-trial views into a batched run's store (container name ->
        #: ``(K,) + shape`` array): trial ``k``'s serial-shaped store, used
        #: by per-trial ops; views alias the batch arrays, so in-place
        #: writes flow both ways.
        self._trial_stores: List[Dict[str, np.ndarray]] = []
        #: Batched op lists (parallel to ``_state_ops``) and whether
        #: the control flow admits batching at all: both derived on the
        #: first multi-trial ``run_batch``, so serial use never pays them.
        self._batched_ops: Optional[List[List[StateOp]]] = None
        self._batchable: Optional[bool] = None

    @property
    def program_plan(self) -> ProgramPlan:
        """The complete lowering plan (every state is bound at prepare
        time, so the per-state plans are always populated here)."""
        return ProgramPlan(
            sdfg_name=self.sdfg.name,
            states=[self._table_for(s).state_plan for s in self._state_index],
        )

    # Op-list construction ............................................. #
    def _build_state_ops(self, state: SDFGState, batched: bool = False) -> List[StateOp]:
        """One state's op list, over its top-level nodes in execution order.
        A map entry runs the fused chain it heads, else its bound scope
        (``None`` when the analyzer rejected it); nodes inside a scope, map
        exits and the non-head members of a chain (their head's op covers
        them) get no op.  The ``batched`` twin gives batchable scopes and
        chains batch-axis ops and runs everything else per trial."""
        table = self._table_for(state)
        ops: List[StateOp] = []
        for node in state.scope_children().get(None, ()):
            if not isinstance(node, MapEntry):
                op = self._make_node_op(state, node)
                if op is None:
                    continue
            elif node.guid in table.members:
                continue
            else:
                bound = table.heads.get(node.guid)
                if bound is None:
                    bound = table.plans.get(node.guid)
                fused = isinstance(bound, BoundChain)
                if batched and (
                    chain_is_batchable(bound) if fused else scope_is_batchable(bound)
                ):
                    ops.append(self._make_batched_op(bound))
                    continue
                op = (
                    self._make_fused_op(state, bound)
                    if fused
                    else self._make_scope_op(state, node, bound)
                )
            ops.append(self._make_per_trial_op(op) if batched else op)
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

    def _make_fused_op(self, state: SDFGState, fused: BoundChain) -> StateOp:
        members = [(m.plan.entry, m.plan) for m in fused.members]

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

    def _make_batched_op(self, bound) -> StateOp:
        """A batchable scope or chain on the batch axis.  No fallback of its
        own: whatever fails here abandons the batched attempt."""
        fused = isinstance(bound, BoundChain)

        def op(rt, symbols, _bound=bound, _fused=fused):
            if not _bound.usable:
                raise _BatchAbort("plan unusable")
            compute = rt._compute_fused if _fused else rt._compute_vectorized
            writes, _ = compute(_bound, symbols)
            for apply_write in writes:
                apply_write()

        return op

    def _make_per_trial_op(self, op: StateOp) -> StateOp:
        """Run a serial op once per trial against that trial's store views.

        The setup-cache epoch is trial-specific (``k + 1``; batched setups
        use epoch 0) so a plan's cached geometry never mixes a trial view
        with the batch array.  Symbols are shared: dataflow never mutates
        the top-level symbol dict.
        """

        def per_trial(rt, symbols, _op=op):
            saved = rt._store
            try:
                rt._lead = 0
                for k in range(rt._batch):
                    rt._store = rt._trial_stores[k]
                    rt._setup_epoch = k + 1
                    _op(rt, symbols)
            finally:
                rt._store = saved
                rt._setup_epoch = 0
                rt._lead = 1

        return per_trial

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
        for op in self._state_ops[self._state_index[state]]:
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

    # .................................................................. #
    # The batched run
    # .................................................................. #
    @property
    def batchable(self) -> bool:
        """Whether the program's control flow admits batching at all."""
        if self._batchable is None:
            self._batchable = control_is_static(self.sdfg, self.control_mode)
        return self._batchable

    def run_batched(
        self,
        arguments_list: List[Mapping[str, Any]],
        symbols: Optional[Mapping[str, Any]] = None,
    ) -> List[ExecutionResult]:
        """Execute ``K`` trials in one batch-axis pass.

        Any exception -- program failure or batching limitation alike --
        propagates to the caller (:meth:`CompiledWholeProgram.run_batch`),
        which reruns the whole batch serially: per-trial attribution is
        impossible mid-batch, and the serial rerun reproduces the exact
        per-trial outcomes by construction (argument coercion copies inputs,
        so the abandoned attempt leaves no trace).
        """
        trial_stores: List[Dict[str, np.ndarray]] = []
        syms0: Optional[Dict[str, Any]] = None
        for arguments in arguments_list:
            self._setup(dict(arguments), dict(symbols or {}))
            if syms0 is None:
                syms0 = dict(self._symbols)
            elif self._symbols != syms0:
                raise _BatchAbort("symbol values differ across trials")
            trial_stores.append(self._store)
            self._store = {}
        assert syms0 is not None
        names = list(trial_stores[0])
        for store in trial_stores[1:]:
            if list(store) != names:
                raise _BatchAbort("store layouts differ across trials")
            for name in names:
                a, b = trial_stores[0][name], store[name]
                if a.shape != b.shape or a.dtype != b.dtype:
                    raise _BatchAbort("container geometry differs across trials")

        batch = len(trial_stores)
        bstore = {
            name: np.empty(
                (batch,) + trial_stores[0][name].shape, trial_stores[0][name].dtype
            )
            for name in names
        }
        for k, store in enumerate(trial_stores):
            for name in names:
                bstore[name][k] = store[name]
        self._trial_stores = [
            {name: bstore[name][k] for name in names} for k in range(batch)
        ]
        self._store = bstore
        self._symbols = dict(syms0)
        self._coverage = None
        self._tasklet_counts = {}
        self._setup_cache.clear()
        self._batch = batch
        self._lead = 1
        if self._batched_ops is None:
            self._batched_ops = [
                self._build_state_ops(s, batched=True) for s in self._state_index
            ]
        serial_ops, self._state_ops = self._state_ops, self._batched_ops
        try:
            transitions = self._run_control_loop()
            final_symbols = dict(self._symbols)
            results: List[ExecutionResult] = []
            for k in range(batch):
                outputs = {
                    name: np.array(bstore[name][k], copy=True)
                    for name, desc in self.sdfg.arrays.items()
                    if not desc.transient and name in bstore
                }
                results.append(
                    ExecutionResult(
                        outputs=outputs,
                        symbols=dict(final_symbols),
                        transitions=transitions,
                        coverage=CoverageMap(),
                    )
                )
            return results
        finally:
            self._state_ops = serial_ops
            self._lead = 0
            self._batch = 0
            self._trial_stores = []
            self._store = {}
            self._symbols = {}
            self._setup_cache.clear()
            self._setup_epoch = 0


class CompiledWholeProgram(CompiledProgram):
    """A program bound to a reusable :class:`CompiledExecutor`.

    Single runs go through the generated driver.  ``run_batch`` attempts
    the batch-axis execution when it gets more than one trial and the
    program's control flow admits it, and falls back to the serial default
    on *any* failure, keeping per-trial outcomes bitwise identical to serial
    execution.
    """

    def __init__(
        self,
        sdfg: SDFG,
        max_transitions: int = 100_000,
        fuse: bool = True,
    ) -> None:
        super().__init__(sdfg)
        self.executor = CompiledExecutor(
            sdfg, max_transitions=max_transitions, fuse=fuse
        )

    @property
    def stats(self) -> Dict[str, int]:
        return self.executor.stats

    @property
    def control_mode(self) -> str:
        return self.executor.control_mode

    @property
    def driver_source(self) -> Optional[str]:
        return self.executor.driver_source

    def run(
        self,
        arguments: Optional[Mapping[str, Any]] = None,
        symbols: Optional[Mapping[str, Any]] = None,
        collect_coverage: bool = False,
    ) -> ExecutionResult:
        return self.executor.run(arguments, symbols, collect_coverage=collect_coverage)

    def run_batch(
        self,
        arguments_list: List[Mapping[str, Any]],
        symbols: Optional[Mapping[str, Any]] = None,
        collect_coverage: bool = False,
    ) -> List[Union[ExecutionResult, ExecutionError]]:
        if len(arguments_list) > 1:
            if not collect_coverage and self.executor.batchable:
                try:
                    with _TRACER.span("batch.round", "fuzz") as span:
                        span.set("trials", len(arguments_list))
                        results = list(
                            self.executor.run_batched(arguments_list, symbols)
                        )
                    _metric_inc(
                        "repro_batch_rounds_total", labels={"path": "batched"}
                    )
                    return results
                except Exception:  # noqa: BLE001 - any failure: rerun serially
                    pass
            _metric_inc("repro_batch_rounds_total", labels={"path": "serial"})
        return super().run_batch(
            arguments_list, symbols, collect_coverage=collect_coverage
        )

class CompiledBackend(ExecutionBackend):
    """Whole-program compilation: structured interstate control flow plus
    vectorized (and fused) state dataflow.

    Every ``prepare`` returns a new program: a prepared program holds the
    state of the run in progress, so it belongs to the call that made it.
    """

    name = "compiled"

    def __init__(self, fuse: bool = True) -> None:
        self.fuse = fuse

    def prepare(self, sdfg: SDFG, max_transitions: int = 100_000) -> CompiledWholeProgram:
        with _TRACER.span("backend.prepare", "prepare") as span:
            span.set("tier", self.name)
            span.set("sdfg", sdfg.name)
            return CompiledWholeProgram(
                sdfg, max_transitions=max_transitions, fuse=self.fuse
            )
