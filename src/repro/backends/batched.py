"""The trial-batched compiled backend.

Differential fuzzing runs the *same* program dozens of times per instance on
independently sampled inputs.  The compiled backend removed per-transition
and per-scope interpretation overhead, but each trial still pays NumPy's
per-call fixed costs (kernel dispatch, gather/scatter bookkeeping) on every
scope -- for the small-extent cutouts fuzzing produces, those fixed costs
dominate the arithmetic.

This backend amortizes them across trials: ``K`` trial inputs are stacked
along a **leading batch axis** (container ``A`` of shape ``S`` becomes one
array of shape ``(K,) + S``), and each vectorized scope executes *once* per
batch instead of once per trial.  Map-parameter grids broadcast against
batched operands by NumPy's trailing-axes alignment, so the scope kernels
and the composed fused-chain code objects run unmodified -- only gather,
scatter and output-broadcast geometry grow the extra axis (the ``batched``
emitter, :mod:`repro.backends.codegen.batched`, binds plans identically and
contributes the static batchability predicates).

Not everything batches, and verdict fidelity is non-negotiable:

* **WCR / order-dependent scopes** accumulate sequentially in iteration
  order; they execute *per trial* (the op list swaps the store to one
  trial's batch-axis views at a time), as do interpreter-fallback scopes,
  plain tasklets, access copies and nested SDFGs;
* programs whose control flow could differ between trials (interstate
  expressions reading scalar containers, or drivers in ``interpreted``
  mode) are not batched at all;
* any failure during a batched attempt -- a crashing trial, a bounds
  violation, a plan that did not survive contact -- abandons the batch and
  reruns every trial serially through the compiled path, so per-trial error
  attribution (and therefore every differential verdict) is **bitwise
  identical** to ``K`` serial runs by construction.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.backends.compiled import (
    CompiledBackend,
    CompiledExecutor,
    CompiledWholeProgram,
)
from repro.backends.execute import _WriteGeom
from repro.interpreter.coverage import CoverageMap
from repro.interpreter.errors import ExecutionError
from repro.interpreter.executor import ExecutionResult
from repro.telemetry import TRACER as _TRACER, inc as _metric_inc

__all__ = ["BatchedBackend", "BatchedProgram", "BatchedExecutor"]


class _BatchAbort(Exception):
    """Internal: the batched attempt cannot proceed; rerun serially.

    Deliberately not an :class:`ExecutionError` -- it signals an
    infrastructure retreat, not a program failure."""


class BatchedExecutor(CompiledExecutor):
    """A :class:`CompiledExecutor` that can run a batch of trials at once.

    Serial runs (``run``) behave exactly like the compiled executor.  A
    batched run (:meth:`run_batched`) swaps in a second op list where
    batchable scopes execute on ``(K,) + shape`` containers and everything
    else iterates the trials against per-trial batch-axis views; the
    gather/write geometry overrides below are keyed on ``_batched_mode`` so
    the shared runtime code paths stay untouched.
    """

    EMITTER_NAME = "batched"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Current batch size (0 outside a batched run).
        self._batch = 0
        #: The batched store: container name -> ``(K,) + shape`` array.
        self._bstore: Dict[str, np.ndarray] = {}
        #: Per-trial views into :attr:`_bstore` (trial ``k``'s serial-shaped
        #: store, used by per-trial ops; views alias the batch arrays, so
        #: in-place writes flow both ways).
        self._trial_stores: List[Dict[str, np.ndarray]] = []
        #: Lazily built batched op lists (parallel to ``_compiled_states``).
        self._batched_ops: Optional[List[List[Callable]]] = None
        self._serial_ops = self._state_ops
        self._batched_mode = False
        #: Whether the program's control flow admits batching at all.
        self._batchable: bool = self.emitter.control_is_static(
            self.sdfg, self.control_mode
        )

    # .................................................................. #
    # Batched op lists
    # .................................................................. #
    def _batched_state_ops(self) -> List[List[Callable]]:
        if self._batched_ops is None:
            self._batched_ops = [
                self._build_batched_ops(s) for s in self._compiled_states
            ]
        return self._batched_ops

    def _build_batched_ops(self, state) -> List[Callable]:
        """The batched twin of ``_build_state_ops``: batchable scopes get
        batch-axis ops, everything else runs per trial."""
        from repro.sdfg.nodes import MapEntry, MapExit

        table = self._table_for(state)
        order = self._state_order(state)
        scopes = self._scope_cache[id(state)]
        ops: List[Callable] = []
        for node in order:
            if scopes.get(node) is not None or isinstance(node, MapExit):
                continue
            if isinstance(node, MapEntry):
                if node.guid in table.members:
                    continue
                fused = table.heads.get(node.guid)
                if fused is not None:
                    if self.emitter.chain_is_batchable(fused):
                        ops.append(self._make_batched_fused_op(fused))
                    else:
                        ops.append(
                            self._make_per_trial_op(
                                self._make_fused_op(state, fused, table)
                            )
                        )
                    continue
                plan = table.plans.get(node.guid)
                if self.emitter.scope_is_batchable(plan):
                    ops.append(self._make_batched_scope_op(plan))
                else:
                    ops.append(
                        self._make_per_trial_op(
                            self._make_scope_op(state, node, plan)
                        )
                    )
                continue
            op = self._make_node_op(state, node)
            if op is not None:
                ops.append(self._make_per_trial_op(op))
        return ops

    def _make_batched_scope_op(self, plan) -> Callable:
        def op(rt, symbols, _plan=plan):
            if not _plan.usable:
                raise _BatchAbort("scope plan unusable")
            writes, _ = rt._compute_vectorized(_plan, symbols)
            for apply_write in writes:
                apply_write()

        return op

    def _make_batched_fused_op(self, fused) -> Callable:
        def op(rt, symbols, _fused=fused):
            if not _fused.usable:
                raise _BatchAbort("fused chain unusable")
            writes, _ = rt._compute_fused(_fused, symbols)
            for apply_write in writes:
                apply_write()

        return op

    def _make_per_trial_op(self, op: Callable) -> Callable:
        """Run a serial op once per trial against that trial's store views.

        The setup-cache epoch is trial-specific (``k + 1``; batched setups
        use epoch 0) so a plan's cached geometry never mixes a trial view
        with the batch array.  Symbols are shared: dataflow never mutates
        the top-level symbol dict.
        """

        def per_trial(rt, symbols, _op=op):
            saved = rt._store
            try:
                for k in range(rt._batch):
                    rt._store = rt._trial_stores[k]
                    rt._setup_epoch = k + 1
                    rt._batched_mode = False
                    _op(rt, symbols)
            finally:
                rt._store = saved
                rt._setup_epoch = 0
                rt._batched_mode = True

        return per_trial

    # .................................................................. #
    # Batch-axis gather / write geometry (active only in batched mode)
    # .................................................................. #
    def _resolve_gather(self, spec, triples, idx_ns, lead=0):
        # Indices are pure symbol/parameter expressions -- identical for
        # every trial -- resolved against the per-trial shape behind the
        # leading batch axis.
        return super()._resolve_gather(
            spec, triples, idx_ns, int(self._batched_mode)
        )

    def _check_write(self, spec, triples, bindings, lead=0):
        if self._batched_mode and spec.wcr is not None:
            # The op-list builder never batches WCR scopes; a WCR write
            # reaching batched geometry is an internal inconsistency.
            raise _BatchAbort("WCR write in batched mode")
        return super()._check_write(
            spec, triples, bindings, int(self._batched_mode)
        )

    def _output_value(self, tasklet, conn, ns, shape_full, display_conn=None):
        # Overrides a base *staticmethod*; every call site goes through
        # ``self``, so the instance method shadows it cleanly.
        if not self._batched_mode:
            return CompiledExecutor._output_value(
                tasklet, conn, ns, shape_full, display_conn=display_conn
            )
        value = CompiledExecutor._output_value(
            tasklet, conn, ns, (self._batch,) + tuple(shape_full),
            display_conn=display_conn,
        )
        return value

    def _make_write(self, geom: _WriteGeom, value: np.ndarray, shape_full):
        if not self._batched_mode:
            return super()._make_write(geom, value, shape_full)
        # Batchable scopes have no WCR and (bijectivity) no reduction axes:
        # the value is ``(K,) + shape_full`` and one assignment suffices.
        if geom.red_axes or geom.spec.wcr is not None:
            raise _BatchAbort("reduction write in batched mode")
        arr, mesh = geom.arr, geom.mesh
        if geom.identity_shape:

            def apply_direct() -> None:
                arr[mesh] = value

            return apply_direct
        perm = [0] + [p + 1 for p in geom.perm]
        target = (self._batch,) + geom.target_shape

        def apply_shaped() -> None:
            arr[mesh] = value.transpose(perm).reshape(target)

        return apply_shaped

    # .................................................................. #
    # The batched run
    # .................................................................. #
    def run_batched(
        self,
        arguments_list: List[Mapping[str, Any]],
        symbols: Optional[Mapping[str, Any]] = None,
    ) -> List[ExecutionResult]:
        """Execute ``K`` trials in one batch-axis pass.

        Any exception -- program failure or batching limitation alike --
        propagates to the caller (:class:`BatchedProgram`), which reruns
        the whole batch serially: per-trial attribution is impossible
        mid-batch, and the serial rerun reproduces the exact per-trial
        outcomes by construction (argument coercion copies inputs, so the
        abandoned attempt leaves no trace).
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
        self._bstore = {
            name: np.empty(
                (batch,) + trial_stores[0][name].shape, trial_stores[0][name].dtype
            )
            for name in names
        }
        for k, store in enumerate(trial_stores):
            for name in names:
                self._bstore[name][k] = store[name]
        self._trial_stores = [
            {name: self._bstore[name][k] for name in names} for k in range(batch)
        ]
        self._store = self._bstore
        self._symbols = dict(syms0)
        self._coverage = None
        self._tasklet_counts = {}
        self._setup_cache.clear()
        self._fused_done.clear()
        self._batch = batch
        self._batched_mode = True
        self._state_ops = self._batched_state_ops()
        try:
            transitions = self._run_control_loop()
            final_symbols = dict(self._symbols)
            results: List[ExecutionResult] = []
            for k in range(batch):
                outputs = {
                    name: np.array(self._bstore[name][k], copy=True)
                    for name, desc in self.sdfg.arrays.items()
                    if not desc.transient and name in self._bstore
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
            self._state_ops = self._serial_ops
            self._batched_mode = False
            self._batch = 0
            self._bstore = {}
            self._trial_stores = []
            self._store = {}
            self._symbols = {}
            self._setup_cache.clear()
            self._setup_epoch = 0


class BatchedProgram(CompiledWholeProgram):
    """A compiled program that executes batches along a leading trial axis.

    Single runs are plain compiled runs.  ``run_batch`` attempts the
    batch-axis execution when the program's control flow admits it and
    falls back to the serial default on *any* failure, keeping per-trial
    outcomes bitwise identical to serial execution.
    """

    executor_class = BatchedExecutor

    def run_batch(
        self,
        arguments_list: List[Mapping[str, Any]],
        symbols: Optional[Mapping[str, Any]] = None,
        collect_coverage: bool = False,
    ) -> List[Union[ExecutionResult, ExecutionError]]:
        executor = self.executor
        if (
            len(arguments_list) > 1
            and not collect_coverage
            and executor._batchable
        ):
            try:
                with _TRACER.span("batch.round", "fuzz") as span:
                    span.set("trials", len(arguments_list))
                    results = list(executor.run_batched(arguments_list, symbols))
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


class BatchedBackend(CompiledBackend):
    """Whole-program compilation plus trial batching: ``K`` fuzzing trials
    stack along a leading batch axis and each batchable scope executes once
    per batch.  Shares the compiled backend's artifact format (and disk
    cache entries) -- the batch axis is a run-time notion, not a compile-time
    one."""

    name = "batched"
    program_class = BatchedProgram
