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

**Kernels.**  A program prepared under the registry name ``native``
additionally *holds* a kernel tier (:mod:`repro.backends.native`): scopes
and fused chains the C generator accepts run as compiled C, tried first by
the same ops, serially and on the batch axis alike; everything else -- and
every machine without a C compiler -- runs the Python path above.

**Caches.**  Every ``prepare`` builds a program private to its caller:
nothing is kept in memory between prepares, so a prepared program never
reaches a second thread.  Driver code objects are memoised process-wide by
source text (:func:`repro.interpreter.tasklet_exec.compile_code`; each
program still ``exec``s its own driver function), and each state's
structure queries by its scope index (:class:`repro.sdfg.state.SDFGState`).
Only with a cache *directory* configured is the program's content hash
taken: the generated driver is then persisted as an on-disk artifact (keyed
by content hash, codegen version, plan-format version and Python build)
**together with the serialized lowering plan**
(:class:`~repro.backends.plan.ProgramPlan`), so sibling worker processes --
pool workers, cluster workers -- skip control-flow structuring, code
generation *and* scope analysis entirely.
"""

from __future__ import annotations

import base64
import marshal
import os
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.backends.base import CompiledProgram, ExecutionBackend
from repro.backends.cache import CACHE_DIR_ENV, ProgramDiskCache, sdfg_content_hash
from repro.backends.codegen.numpy_eager import (
    BoundChain,
    chain_is_batchable,
    scope_is_batchable,
)
from repro.backends.codegen.python_driver import (
    CODEGEN_VERSION,
    _artifact_stamp,
    compile_driver,
    control_is_static,
)
from repro.backends.execute import ScopeRuntime, _BatchAbort
from repro.backends.plan import PLAN_FORMAT_VERSION, ProgramPlan
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
    "native_backend",
    "CompiledWholeProgram",
    "CompiledExecutor",
    "compile_driver",
    "CODEGEN_VERSION",
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
        artifact: Optional[Dict[str, Any]] = None,
        **kwargs,
    ) -> None:
        super().__init__(sdfg, max_transitions=max_transitions, **kwargs)
        #: The C kernel tier (:class:`repro.backends.native.KernelTier`) of a
        #: program prepared under ``native``; scope and chain ops try it
        #: first.  ``None`` otherwise.
        self.kernels = None
        #: Each state's position in ``_state_ops``, in ``sdfg.states()`` order.
        self._state_index = {s: i for i, s in enumerate(sdfg.states())}
        artifact_hoisted = self._seed_state_plans(artifact)
        # Per-state op lists, fixed at prepare time: one prebound function
        # per executable top-level node.  The generic ``_execute_state``
        # re-derives node lists, re-dispatches on node type and re-looks-up
        # scope plans -- and formerly copied the full symbol dict -- on
        # every transition, which dominates transition-heavy loop nests.
        # Fused-chain members and no-op access nodes are dropped statically.
        # The bind/codegen phases of prepare: analyze spans (if any plan
        # must be rebuilt) nest inside via _table_for -> analyze_state.
        with _TRACER.span("codegen.bind", "prepare") as span:
            span.set("emitter", self.emitter.name)
            self._state_ops: List[List[StateOp]] = [
                self._build_state_ops(state) for state in self._state_index
            ]
        info: Dict[str, Any] = {}
        with _TRACER.span("codegen.driver", "prepare") as span:
            span.set("seeded", artifact is not None)
            self.control_mode, self.driver_source, self._drive, self._driver_code = (
                compile_driver(sdfg, self._state_index, artifact=artifact, info=info)
            )
        #: Loop-invariant symbol loads the driver hoisted (fresh compiles
        #: report them via ``info``; artifact-seeded drivers carry them in
        #: the persisted plan).
        self.hoisted_symbols: Tuple[str, ...] = tuple(
            info.get("hoisted") or artifact_hoisted or ()
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
            if len(plan.states) != len(self._state_index):
                raise ValueError("state count mismatch")
            for state, splan in zip(self._state_index, plan.states):
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
            states=[self._state_plans[id(s)] for s in self._state_index],
            hoisted_symbols=tuple(self.hoisted_symbols),
        )

    # Op-list construction ............................................. #
    def top_level(self, state: SDFGState) -> Iterator[Tuple[Any, Any]]:
        """The executable top-level nodes of a state in execution order, as
        ``(node, bound)``: for a map entry the fused chain it heads, else
        its bound scope (``None`` when the analyzer rejected it); ``None``
        for every other node.  Nodes inside a scope, map exits and the
        non-head members of a chain (their head's op covers them) are
        skipped."""
        table = self._table_for(state)
        for node in state.scope_children().get(None, ()):
            if not isinstance(node, MapEntry):
                yield node, None
            elif node.guid not in table.members:
                fused = table.heads.get(node.guid)
                yield node, fused if fused is not None else table.plans.get(node.guid)

    def _build_state_ops(self, state: SDFGState, batched: bool = False) -> List[StateOp]:
        """One state's op list.  The ``batched`` twin gives batchable scopes
        and chains batch-axis ops and runs everything else per trial."""
        ops: List[StateOp] = []
        for node, bound in self.top_level(state):
            if not isinstance(node, MapEntry):
                op = self._make_node_op(state, node)
                if op is None:
                    continue
            else:
                fused = isinstance(bound, BoundChain)
                if batched and (
                    chain_is_batchable(bound) if fused else scope_is_batchable(bound)
                ):
                    ops.append(self._make_batched_op(node, bound))
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

    # Scope and chain ops try the held C kernel first (keyed by the entry's
    # guid) and run the Python path on any miss.
    def _make_scope_op(
        self, state: SDFGState, entry: MapEntry, plan
    ) -> StateOp:
        def op(rt, symbols, _state=state, _entry=entry, _plan=plan, _key=entry.guid):
            kernels = rt.kernels
            if kernels is None or not kernels.try_run(rt, _key, symbols):
                rt._run_single_scope(_state, _entry, _plan, symbols)

        return op

    def _make_fused_op(self, state: SDFGState, fused: BoundChain) -> StateOp:
        members = [(m.plan.entry, m.plan) for m in fused.members]

        def op(rt, symbols, _state=state, _fused=fused, _members=members,
               _key=fused.member_guids[0]):
            kernels = rt.kernels
            if kernels is not None and kernels.try_run(rt, _key, symbols):
                return
            if rt._try_fused(_fused, symbols):
                return
            # The chain did not survive contact with runtime values: run the
            # members individually at the head's position.  The nodes between
            # them were transparent (that made them a chain), so chain order
            # here equals per-position execution order.
            for entry, plan in _members:
                rt._run_single_scope(_state, entry, plan, symbols)

        return op

    def _make_batched_op(self, entry: MapEntry, bound) -> StateOp:
        """A batchable scope or chain on the batch axis.  No fallback of its
        own: whatever fails here abandons the batched attempt."""
        fused = isinstance(bound, BoundChain)

        def op(rt, symbols, _bound=bound, _fused=fused, _key=entry.guid):
            if not _bound.usable:
                raise _BatchAbort("plan unusable")
            kernels = rt.kernels
            if kernels is not None and kernels.try_run(rt, _key, symbols):
                return
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
        artifact: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(sdfg)
        self.executor = CompiledExecutor(
            sdfg, max_transitions=max_transitions, fuse=fuse, artifact=artifact
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

    @staticmethod
    def check_artifact(artifact: Dict[str, Any], toolchain: Any = None) -> bool:
        """Whether a disk artifact was produced by this exact generator
        (format, codegen version, plan format, Python build, toolchain) and
        names a known mode.

        ``toolchain`` is the compiler fingerprint the kernel tier builds
        with -- ``None`` for the pure-Python variant and on a machine
        without a compiler -- so a stale or missing toolchain field is a
        miss and the entry is rewritten.  A ``native`` section needs a
        toolchain and must be well-formed.
        """
        stamp = _artifact_stamp()
        stamp["toolchain"] = toolchain
        native = artifact.get("native")
        # Presence-required comparison: a stamp field whose expected value
        # is None (e.g. ``toolchain``) must still *exist* in the artifact --
        # ``artifact.get(k) == None`` would accept entries predating the
        # field entirely.
        return (
            all(k in artifact and artifact[k] == v for k, v in stamp.items())
            and artifact.get("plan_format") == PLAN_FORMAT_VERSION
            and artifact.get("mode") in ("structured", "dispatch", "interpreted")
            and (
                native is None
                or (
                    toolchain is not None
                    and isinstance(native, dict)
                    and isinstance(native.get("c_source"), str)
                    and isinstance(native.get("so"), str)
                )
            )
        )

    def artifact(self) -> Optional[Dict[str, Any]]:
        """The persistable artifact: driver (mode + source + marshaled
        code) plus the serialized lowering plan -- and, with a kernel tier,
        its toolchain stamp, C source and shared object."""
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
        if executor.kernels is not None:
            executor.kernels.extend_artifact(art)
        return art


class CompiledBackend(ExecutionBackend):
    """Whole-program compilation: structured interstate control flow plus
    vectorized (and fused) state dataflow.

    Every ``prepare`` returns a new program: a prepared program holds the
    state of the run in progress, so it belongs to the call that made it.
    With a cache *directory* configured (the ``cache_dir`` argument, the
    ``--cache-dir`` CLI option, or the ``REPRO_CACHE_DIR`` environment
    variable -- read dynamically so it reaches forked pool workers), the
    compile artifact is stored on disk keyed by SDFG content hash and
    codegen version, and sibling worker processes skip recompilation.  The
    hash covers the exact serialization *including node guids* (which
    clones and JSON roundtrips preserve), so a clone or a worker-side
    deserialization hits -- while two independent builds of the same
    kernel, whose coverage features are keyed by their distinct guids,
    compile separately.  Without a directory no hash is taken.

    The registry holds this class twice.  The instance named ``native``
    attaches a C kernel tier to every program it prepares and keeps its
    disk entries -- which embed a shared object the other instance would
    drag around for nothing -- under the ``-native`` artifact variant.
    """

    name = "compiled"

    def __init__(self, cache_dir: Optional[str] = None, fuse: bool = True) -> None:
        self.fuse = fuse
        self._explicit_cache_dir = cache_dir
        self.disk_hits = 0
        self.disk_misses = 0

    @property
    def cache_dir(self) -> Optional[str]:
        """The active on-disk cache directory (explicit or environment)."""
        return self._explicit_cache_dir or os.environ.get(CACHE_DIR_ENV) or None

    def prepare(self, sdfg: SDFG, max_transitions: int = 100_000) -> CompiledWholeProgram:
        with _TRACER.span("backend.prepare", "prepare") as span:
            span.set("tier", self.name)
            span.set("sdfg", sdfg.name)
            native = self.name == "native"
            if native:
                from repro.backends.native import KernelTier
            variant = "-native" if native else ""
            disk: Optional[ProgramDiskCache] = None
            artifact: Optional[Dict[str, Any]] = None
            directory = self.cache_dir
            if directory is not None:
                content_hash = sdfg_content_hash(sdfg)
                disk = ProgramDiskCache(directory)
                artifact, status = disk.load_classified(
                    content_hash, max_transitions, variant
                )
                if artifact is not None and not CompiledWholeProgram.check_artifact(
                    artifact, KernelTier.toolchain_stamp() if native else None
                ):
                    artifact = None
                    status = "stale"  # parseable, but wrong version/toolchain
                if artifact is not None:
                    self.disk_hits += 1
                else:
                    self.disk_misses += 1
                span.set("disk_cache", status)
                _metric_inc(
                    "repro_disk_cache_total",
                    labels={"tier": self.name, "outcome": status},
                )

            program = CompiledWholeProgram(
                sdfg, max_transitions=max_transitions, fuse=self.fuse,
                artifact=artifact,
            )
            if native:
                program.executor.kernels = KernelTier(program.executor, artifact)
            if disk is not None and artifact is None:
                fresh = program.artifact()
                if fresh is not None:
                    disk.store(content_hash, max_transitions, fresh, variant)
        return program


def native_backend(*args, **kwargs) -> CompiledBackend:
    """A :class:`CompiledBackend` (same arguments) under the name ``native``:
    what the registry builds for that name."""
    backend = CompiledBackend(*args, **kwargs)
    backend.name = "native"
    return backend
