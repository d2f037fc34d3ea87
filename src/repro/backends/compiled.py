"""The compiled backend: the one optimising execution strategy.

Map scopes whose memlets are affine in the map parameters run as NumPy
array expressions (:mod:`repro.backends.execute`; any construct the
analyzer cannot express -- imperfect nests inside a scope, data-dependent
subsets, non-affine output indices, write-conflict patterns it cannot prove
race-free, tasklet code outside the vectorizable subset of Python -- falls
back node-by-node to the interpreter for exactly that scope).  Around them
this backend binds **one Python driver function for the entire SDFG** at
preparation time
(:mod:`repro.backends.codegen.python_driver`):

* the state machine is lowered to one ``while``-over-current-state
  dispatch loop, one ``if``/``elif`` arm per state, which handles every
  interstate graph -- loops, branches, joins and irreducible cycles;
* interstate edge conditions and symbol assignments become inline Python
  expressions (:func:`repro.symbolic.codegen.emit_interstate_expression`)
  reading program symbols from one shared dict and scalar containers from
  the data store -- no per-transition namespace rebuild, no ``eval``;
* each state's dataflow is **inlined as a prepared op list**: every
  top-level node becomes one prebound closure (a tasklet run, a vectorized
  -- possibly *fused* -- scope execution, an access copy), built once at
  preparation time; the driver iterates the list directly, with no
  per-transition node-type dispatch, scope lookup or no-op node visits.

Results are bitwise identical to the interpreter, including final symbol
values, transition counts and the full error taxonomy (``HangError`` on
transition-budget exhaustion, ``ExecutionError`` wrapping of failing
conditions/assignments, ``MemoryViolation`` from dataflow).

The backend subclasses nothing: it holds the
:class:`~repro.interpreter.executor.SDFGExecutor` it is built on
(``interpreter``), which sets up each run's
:class:`~repro.interpreter.executor.TrialStore`, builds its result and runs
top-level tasklets, copies and every rejected scope.  A map nested in a
rejected scope comes back through one named hand-off,
:meth:`CompiledExecutor._run_nested_map`, so it can still vectorize.

As a last-resort safety net (e.g. an interstate assignment targeting a name
that is *also* a scalar container, where static name routing cannot
reproduce the interpreter's shadowing dance), the driver degrades to an
``interpreted`` control loop: the interpreter's own transition loop over
the prepared op lists -- dataflow stays vectorized, only transitions stay
dynamic.

**Caches.**  Every ``prepare`` builds a program private to its caller:
nothing is kept in memory between prepares, so a prepared program never
reaches a second thread.  Nothing of a run outlives it: a scope's setup
(gather closures over the run's arrays) is kept in the run's store, so an
interstate loop reuses it and the next trial starts afresh.  Driver code objects are memoised process-wide by
source text (:func:`repro.interpreter.tasklet_exec.compile_code`; each
program still ``exec``s its own driver function), and each state's
structure queries by its scope index (:class:`repro.sdfg.state.SDFGState`).
Nothing is written to disk and the program is never hashed.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.backends.analysis import analyze_state
from repro.backends.codegen.numpy_eager import BoundChain, BoundScope, StateTable
from repro.backends.codegen.python_driver import compile_driver
from repro.backends.execute import compute_fused, compute_vectorized
from repro.interpreter.errors import ExecutionError, HangError
from repro.interpreter.executor import _EVAL_GLOBALS, ExecutionResult, SDFGExecutor, TrialStore
from repro.interpreter.tasklet_exec import compile_expression
from repro.sdfg.analysis import access_node_is_transparent
from repro.sdfg.nodes import MapEntry, Tasklet
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.telemetry import TRACER as _TRACER
from repro.telemetry import inc as _metric_inc

#: One prepared dataflow step, called as ``op(executor, store, symbols)``.
#: Ops take their executor as an argument instead of closing over it: an
#: executor that owned closures over itself would be a reference cycle, and
#: every program a sweep prepares would then wait for the cyclic collector.
StateOp = Callable[["CompiledExecutor", TrialStore, Dict[str, Any]], None]

__all__ = ["CompiledExecutor", "compile_driver"]


class CompiledExecutor:
    """What ``get_backend("compiled").prepare(sdfg)`` returns: vectorized map
    scopes, a prepared op list per state and one generated Python function
    for the control flow, over the :class:`SDFGExecutor` it holds."""

    def __init__(self, sdfg: SDFG, max_transitions: int = 100_000) -> None:
        self.sdfg = sdfg
        #: The interpreter this backend is built on: it sets up each run and
        #: builds its result, runs top-level tasklets and copies and every
        #: scope the analyzer rejected, and its transition loop is the
        #: ``interpreted`` safety net.
        self.interpreter = SDFGExecutor(sdfg, max_transitions=max_transitions)
        #: Scope-execution counters (vectorized vs. interpreter fallback;
        #: ``fused`` counts whole-chain executions).
        self.stats: Dict[str, int] = {"vectorized": 0, "fallback": 0, "fused": 0}
        #: Stats already flushed into the metrics registry (per-run deltas
        #: flow out once per run, keeping the per-scope hot path unmetered).
        self._stats_flushed: Dict[str, int] = {}
        #: Each state's position in ``tables`` and ``_state_ops``, in
        #: ``sdfg.states()`` order.
        self._state_index = {s: i for i, s in enumerate(sdfg.states())}
        # Per-state lowering tables and op lists, fixed at prepare time: one
        # prebound function per executable top-level node, so a transition
        # re-derives no node list, node-type dispatch or scope lookup.
        # Fused-chain members and no-op access nodes are dropped statically.
        # The analyze spans nest inside this one.
        with _TRACER.span("codegen.bind", "prepare"):
            #: Every lowering decision, one table per state.
            self.tables: List[StateTable] = [
                analyze_state(sdfg, state) for state in self._state_index
            ]
            self._state_ops: List[List[StateOp]] = [
                self._build_state_ops(state, table)
                for state, table in zip(self._state_index, self.tables)
            ]
        with _TRACER.span("codegen.driver", "prepare"):
            self.control_mode, self.driver_source, self._drive = compile_driver(
                sdfg, self._state_index
            )

    def run(
        self,
        arguments: Optional[Mapping[str, Any]] = None,
        symbols: Optional[Mapping[str, Any]] = None,
    ) -> ExecutionResult:
        """One trial: the interpreter's setup and result around the
        generated driver."""
        interpreter = self.interpreter
        try:
            store = interpreter._setup(arguments, symbols)
            if self._drive is None:
                # Stateless program: raise exactly like the interpreter.
                _ = self.sdfg.start_state
            return interpreter._result(store, self._drive(self, store))
        finally:
            for key, value in self.stats.items():
                delta = value - self._stats_flushed.get(key, 0)
                if delta:
                    _metric_inc("repro_scope_exec_total", delta, labels={"outcome": key})
                    self._stats_flushed[key] = value

    # Op-list construction ............................................. #
    def _build_state_ops(self, state: SDFGState, table: StateTable) -> List[StateOp]:
        """One state's op list, over its top-level nodes in execution order.
        A map entry runs the fused chain it heads, else its scope (``None``
        when the analyzer rejected it); nodes inside a scope, map exits and
        the non-head members of a chain (their head's op covers them) get
        no op."""
        ops: List[StateOp] = []
        for node in state.scope_children().get(None, ()):
            if not isinstance(node, MapEntry):
                op = self._make_node_op(state, node)
                if op is None:
                    continue
            elif node.guid in table.members:
                continue
            else:
                lowered = table.heads.get(node.guid)
                if lowered is None:
                    lowered = table.scopes.get(node.guid)
                op = (
                    self._make_fused_op(state, lowered)
                    if isinstance(lowered, BoundChain)
                    else self._make_scope_op(state, node, lowered)
                )
            ops.append(op)
        return ops

    def _make_node_op(
        self, state: SDFGState, node
    ) -> Optional[StateOp]:
        """The prebound closure for one non-scope top-level node, a tasklet
        or an access node (``None`` for statically droppable no-ops)."""
        if isinstance(node, Tasklet):

            def op(rt, store, symbols, _state=state, _node=node):
                rt.interpreter._execute_tasklet(store, _state, _node, symbols)

            return op
        if access_node_is_transparent(state, node):
            return None  # executing it is a no-op: drop statically

        def op(rt, store, symbols, _state=state, _node=node):
            rt.interpreter._execute_copies_into(store, _state, _node, symbols)

        return op

    def _make_scope_op(
        self, state: SDFGState, entry: MapEntry, scope
    ) -> StateOp:
        def op(rt, store, symbols, _state=state, _entry=entry, _scope=scope):
            rt._run_scope(store, _state, _entry, _scope, symbols)

        return op

    def _make_fused_op(self, state: SDFGState, fused: BoundChain) -> StateOp:
        members = [(m.scope.entry, m.scope) for m in fused.members]

        def op(rt, store, symbols, _state=state, _fused=fused, _members=members):
            if rt._vectorized(compute_fused, store, _fused, symbols):
                rt.stats["vectorized"] += len(_members)
                rt.stats["fused"] += 1
                return
            # The chain did not survive contact with runtime values: run the
            # members individually at the head's position.  The nodes between
            # them were transparent (that made them a chain), so chain order
            # here equals per-position execution order.
            for entry, scope in _members:
                rt._run_scope(store, _state, entry, scope, symbols)

        return op

    # Scope execution .................................................. #
    @staticmethod
    def _vectorized(compute, store: TrialStore, bound, bindings: Dict[str, Any]) -> bool:
        """Run a vectorized scope or fused chain as ``compute(store, bound,
        bindings)`` and apply its writes; ``False`` when there is none, it is
        disabled, or it does not survive contact with runtime values (it is
        then disabled for good)."""
        if bound is None or not bound.usable:
            return False
        try:
            writes = compute(store, bound, bindings)
        except ExecutionError:
            raise
        except Exception:  # noqa: BLE001 - did not survive contact
            bound.usable = False
            return False
        for apply_write in writes:
            apply_write()
        return True

    def _run_scope(
        self,
        store: TrialStore,
        state: SDFGState,
        entry: MapEntry,
        scope: Optional[BoundScope],
        bindings: Dict[str, Any],
    ) -> None:
        """One map scope: vectorized, else expanded by the interpreter, which
        hands each map nested in it back to :meth:`_run_nested_map`."""
        if self._vectorized(compute_vectorized, store, scope, bindings):
            self.stats["vectorized"] += 1
            return
        self.stats["fallback"] += 1
        self.interpreter._execute_map_scope(store, state, entry, bindings, self._run_nested_map)

    def _run_nested_map(
        self, store: TrialStore, state: SDFGState, entry: MapEntry, bindings: Dict[str, Any]
    ) -> None:
        """A map nested in a scope the interpreter is expanding (top-level
        scopes, and with them every fused chain, run from the op lists)."""
        # The null span costs one call when tracing is off; enabled it
        # records one per-scope execute span (nested under the state span).
        with _TRACER.span("execute.scope", "execute") as span:
            span.set("scope", entry.label)
            scope = self.tables[self._state_index[state]].scopes.get(entry.guid)
            self._run_scope(store, state, entry, scope, bindings)

    # Runtime services the generated driver calls ...................... #
    def _hang(self) -> None:
        raise HangError(self.interpreter.max_transitions)

    def _cond_fail(self, condition: str, exc: BaseException) -> None:
        raise ExecutionError(
            f"Failed to evaluate interstate condition {condition!r}: {exc}"
        ) from exc

    def _assign_fail(self, sym: str, expr: str, exc: BaseException) -> None:
        raise ExecutionError(
            f"Failed to evaluate interstate assignment {sym} = {expr!r}: {exc}"
        ) from exc

    def _eval_raw(self, expr: str, store: TrialStore) -> Any:
        """Interpreter-identical dynamic evaluation (unparseable exprs)."""
        return eval(  # noqa: S307 - restricted namespace
            compile_expression(expr), _EVAL_GLOBALS, self.interpreter._interstate_namespace(store)
        )

    def _execute_state(self, store: TrialStore, state: SDFGState) -> None:
        """One state's dataflow through its op list, for the ``interpreted``
        safety net (the generated driver iterates the op lists inline).
        Nothing below mutates the top-level symbol dict (tasklets run in
        their own namespaces, map scopes copy bindings before adding
        parameters), so the live dict is passed without a copy."""
        symbols = store.symbols
        for op in self._state_ops[self._state_index[state]]:
            op(self, store, symbols)
