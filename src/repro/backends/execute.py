"""The vectorized scope runtime (the *execute* layer of backend lowering).

Last stage of the pipeline (analyze -> codegen -> execute): one runtime
that executes the analyzer's records.  A vectorizable scope is
executed as a handful of whole-array operations -- gather the inputs with
broadcast index grids, run the tasklet code once on arrays, scatter/reduce
the outputs -- instead of expanding the iteration space one element at a
time (the interpreter's hot loop).  Anything the analyzer rejected falls
back node-by-node to the interpreter for exactly that scope, keeping the
backends semantically interchangeable.

Two layers keep the hot loop tight:

* **scope fusion** -- composed chains (see
  :class:`repro.backends.codegen.numpy_eager.BoundChain`) execute as one
  gather / compute / scatter pass per chain instead of per scope;
* **closed-form setup** -- bounds checks, gather indices and write regions
  of ``param``/``const`` accesses are integer arithmetic on the map's
  ranges (:mod:`repro.backends.geometry`: one basic index, a transpose for
  permuted axes).  Only an input with an ``expr`` dimension materialises
  index arrays, only a scope that reads them gets iteration grids.  Within
  one run a scope keeps its latest setup, keyed by the symbols it reads, so
  an interstate loop reuses it; a new trial or a tile loop computes afresh.

Bitwise fidelity to the interpreter is a design goal (the ``cross`` backend
and the backend-equivalence test suite assert it):

* write-conflict reductions accumulate **sequentially in iteration order**
  (one vector operation per reduction index) rather than with NumPy's
  pairwise ``reduce``, so floating-point results match the interpreter bit
  for bit,
* ``math.*`` calls are routed through a shim that applies the *scalar*
  :mod:`math` function element-wise (libm and NumPy's SIMD transcendentals
  may differ in the last ulp),
* scopes where an iteration could read an element written by a *different*
  iteration of the same scope are not vectorized (analyzer rule).

On an out-of-bounds access the backend raises the same
:class:`~repro.interpreter.errors.MemoryViolation` the interpreter raises;
the only observable difference is that this runtime detects the
violation before mutating any container (the interpreter stops mid-scope).
Since results are only returned for successful runs, differential verdicts
are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.backends.codegen.numpy_eager import (
    BoundChain,
    BoundInput,
    BoundOutput,
    BoundScope,
)
from repro.backends.geometry import Triple, access_index, gather_index
from repro.interpreter.errors import (
    ExecutionError,
    MemoryViolation,
    TaskletExecutionError,
)
from repro.interpreter.executor import _EVAL_GLOBALS, ExecutionResult, SDFGExecutor
from repro.interpreter.tasklet_exec import _SAFE_BUILTINS
from repro.sdfg.nodes import MapEntry, Tasklet
from repro.sdfg.state import SDFGState
from repro.telemetry import inc as _metric_inc

__all__ = ["ScopeRuntime"]


# ---------------------------------------------------------------------- #
# math shim: scalar-identical element-wise transcendentals
# ---------------------------------------------------------------------- #
class _MathShim:
    """``math`` stand-in whose functions also accept arrays.

    Array inputs are processed element-wise with the *scalar* ``math``
    function, keeping results bitwise identical to the interpreter's
    per-iteration execution (libm vs. NumPy SIMD transcendentals can differ
    in the last ulp)."""

    def __init__(self) -> None:
        self._wrappers: Dict[str, Callable] = {}

    def __getattr__(self, name: str):
        attr = getattr(math, name)
        if not callable(attr):
            return attr
        fn = self._wrappers.get(name)
        if fn is None:

            def fn(*args, _scalar=attr):
                if any(isinstance(a, np.ndarray) and a.ndim > 0 for a in args):
                    ufn = np.frompyfunc(_scalar, len(args), 1)
                    return ufn(*args).astype(np.float64)
                return _scalar(*args)

            self._wrappers[name] = fn
        return fn


_MATH_SHIM = _MathShim()


# ---------------------------------------------------------------------- #
# Setup structures (loop-hoisted per dependent-symbol values)
# ---------------------------------------------------------------------- #
@dataclass
class _WriteGeom:
    """Precomputed geometry of one vectorized container write."""

    spec: BoundOutput
    arr: np.ndarray
    mesh: Tuple
    perm: List[int]
    target_shape: Tuple[int, ...]
    red_axes: List[int]
    kept_shape: Tuple[int, ...]
    #: True when the slab already has the output's dimension order and
    #: shape, so the per-write transpose/reshape can be skipped.
    identity_shape: bool = False


@dataclass
class _ScopeSetup:
    """The symbol-dependent (but value-independent) part of one scope
    execution: iteration grids, bounds-checked gather indices and write
    geometry.  Reused across executions whose ``setup_deps`` values are
    unchanged -- i.e. hoisted out of enclosing interstate loops."""

    shape_full: Tuple[int, ...]
    iterations: int
    grids: Dict[str, np.ndarray]
    #: (connector, fetch) per input.  ``fetch`` reads the *live* container
    #: (captured by reference; store arrays are mutated in place, never
    #: rebound) with gather-copy semantics -- basic-slice views are copied,
    #: advanced indexing copies implicitly.
    gathers: List[Tuple[str, Callable[[], np.ndarray]]]
    geoms: List[_WriteGeom]


@dataclass
class _FusedSetup:
    """Loop-hoistable setup of a fused chain (shared grids, flattened
    gathers and write geometry)."""

    shape_full: Tuple[int, ...]
    iterations: int
    grids: Dict[str, np.ndarray]
    #: (composed-code name, fetch), flattened across all members (values
    #: bound before the single composed exec).
    gathers: List[Tuple[str, Callable[[], np.ndarray]]]
    #: Geometry of the members' ``"write"`` outputs, in chain order
    #: (chain-internal outputs are bounds-checked but never written).
    geoms: List[_WriteGeom]


class ScopeRuntime(SDFGExecutor):
    """An :class:`SDFGExecutor` that executes vectorizable map scopes as
    NumPy array expressions and falls back to element-wise interpretation
    for everything else.

    Chains of elementwise scopes are additionally *fused* (one gather /
    compute / scatter pass per chain instead of per scope); scope setup is
    closed-form for ``param``/``const`` accesses and, within one run, kept
    per scope while the symbols it depends on are unchanged.  The state
    tables, the op lists that run top-level scopes and chains, and the
    generated control-flow driver are
    :class:`repro.backends.compiled.CompiledExecutor`'s."""

    _VEC_GLOBALS = {
        "__builtins__": _SAFE_BUILTINS,
        "np": np,
        "numpy": np,
        "math": _MATH_SHIM,
    }

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Per-record setup cache: ``id(scope or chain) -> (dep-key,
        #: setup)``.  Valid within one run only (it captures store arrays).
        self._setup_cache: Dict[int, Tuple[Tuple, Any]] = {}
        #: Scope-execution counters (vectorized vs. interpreter fallback;
        #: ``fused`` counts whole-chain executions).
        self.stats: Dict[str, int] = {"vectorized": 0, "fallback": 0, "fused": 0}
        #: Stats already flushed into the metrics registry (per-run deltas
        #: flow out once per run, keeping the per-scope hot path unmetered).
        self._stats_flushed: Dict[str, int] = {}

    def run(
        self,
        arguments: Optional[Mapping[str, Any]] = None,
        symbols: Optional[Mapping[str, Any]] = None,
    ) -> ExecutionResult:
        try:
            return super().run(arguments, symbols)
        finally:
            # The setup cache captures store arrays and must never serve
            # another run (SDFGExecutor.run drops the store itself).
            self._setup_cache = {}
            for key, value in self.stats.items():
                delta = value - self._stats_flushed.get(key, 0)
                if delta:
                    _metric_inc(
                        "repro_scope_exec_total", delta, labels={"outcome": key}
                    )
                    self._stats_flushed[key] = value

    # .................................................................. #
    # Scope execution
    # .................................................................. #
    def _try_fused(self, fused: BoundChain, bindings: Dict[str, Any]) -> bool:
        """Execute a fused chain; ``False`` defers to per-scope execution."""
        if not fused.usable:
            return False
        try:
            writes = self._compute_fused(fused, bindings)
        except ExecutionError:
            raise
        except Exception:  # noqa: BLE001 - chain did not survive contact
            fused.usable = False
            return False
        for apply_write in writes:
            apply_write()
        self.stats["vectorized"] += len(fused.members)
        self.stats["fused"] += 1
        return True

    def _run_single_scope(
        self,
        state: SDFGState,
        entry: MapEntry,
        scope: Optional[BoundScope],
        bindings: Dict[str, Any],
    ) -> None:
        if scope is not None and scope.usable:
            try:
                writes = self._compute_vectorized(scope, bindings)
            except ExecutionError:
                raise
            except Exception:  # noqa: BLE001 - scope did not survive contact
                scope.usable = False
            else:
                for apply_write in writes:
                    apply_write()
                self.stats["vectorized"] += 1
                return
        self.stats["fallback"] += 1
        SDFGExecutor._execute_map_scope(self, state, entry, bindings)

    # .................................................................. #
    # Setup (loop-hoisted per dependent-symbol values)
    # .................................................................. #
    @staticmethod
    def _resolve_domain(
        bound, bindings: Dict[str, Any], need_grids: bool = True
    ) -> Tuple[List[Triple], Tuple[int, ...], int, Dict[str, np.ndarray]]:
        """The ``(first, step, count)`` axis triples of a bound scope's or
        chain's flat domain, its shape and size and -- only when something
        reads them -- its broadcast iteration grids."""
        triples = [axis.resolve(bindings) for axis in bound.domain]
        shape_full = tuple(t[2] for t in triples)
        iterations = math.prod(shape_full)
        grids: Dict[str, np.ndarray] = {}
        if need_grids and iterations:
            nparams = len(triples)
            for axis, (first, step, count) in enumerate(triples):
                gshape = [1] * nparams
                gshape[axis] = count
                grids[bound.domain[axis].param] = np.arange(
                    first, first + step * count, step, dtype=np.int64
                ).reshape(gshape)
        return triples, shape_full, iterations, grids

    def _resolve_gather(
        self,
        spec: BoundInput,
        triples: List[Triple],
        idx_ns: Dict[str, Any],
    ) -> Tuple[str, Callable[[], np.ndarray]]:
        """The fetch of one input."""
        arr = self._store.get(spec.data)
        if arr is None:
            raise ExecutionError(f"Read from unknown container '{spec.data}'")
        shape, nparams = arr.shape, len(triples)
        if spec.idx_code is not None:
            # Some dimension is not a unit-slope sequence of one parameter:
            # evaluate index arrays on the grids and check their extrema.
            # Advanced indexing copies; an ``expr`` index is an array of full
            # grid rank, so the block already broadcasts.
            idx = self._index_arrays(spec.idx_code, idx_ns)
            self._check_vector_bounds(spec.data, spec.subset_str, idx, shape)
            return spec.conn, lambda _arr=arr, _idx=tuple(idx): _arr[_idx]
        index = access_index(spec.dims, triples, shape, idx_ns, spec.data, spec.subset_str)
        index, perm = gather_index(spec.dims, index, nparams)
        # Basic indexing returns a view; the copy preserves the gather-copy
        # semantics (readers must see pre-scope values even after deferred
        # writes mutate the container).
        if perm is None:

            def fetch(_arr=arr, _index=index):
                return _arr[_index].copy()

        else:

            def fetch(_arr=arr, _index=index, _perm=perm):
                return _arr[_index].transpose(_perm).copy()

        return spec.conn, fetch

    def _check_write(
        self, spec: BoundOutput, triples: List[Triple], bindings: Dict[str, Any]
    ) -> Tuple[np.ndarray, List[Any]]:
        """A write's container and bounds-checked index (``param``/``const`` by
        the analyzer's rules, so closed-form): all a chain-internal output needs."""
        arr = self._store.get(spec.data)
        if arr is None:
            raise ExecutionError(f"Write to unknown container '{spec.data}'")
        return arr, access_index(
            spec.dims, triples, arr.shape, bindings, spec.data, spec.subset_str
        )

    def _resolve_write(
        self, spec: BoundOutput, triples: List[Triple], bindings: Dict[str, Any]
    ) -> _WriteGeom:
        """The bounds-checked geometry of one write: one basic index."""
        arr, index = self._check_write(spec, triples, bindings)
        # Constants as length-1 slices: the region keeps the container's rank.
        mesh = tuple(i if isinstance(i, slice) else slice(i, i + 1) for i in index)
        param_axes = [payload[0] for kind, payload in spec.dims if kind == "param"]
        red_axes = [a for a in range(len(triples)) if a not in param_axes]
        kept_sorted = sorted(param_axes)
        kept_shape = tuple(triples[a][2] for a in kept_sorted)
        # Value axes end up in ascending-parameter order; ``perm`` reorders
        # them to the output's dimension order, ``target_shape`` re-inserts
        # length-1 axes for constant-indexed dimensions.
        perm = [kept_sorted.index(a) for a in param_axes]
        target_shape = tuple(
            triples[payload[0]][2] if kind == "param" else 1
            for kind, payload in spec.dims
        )
        identity_shape = perm == sorted(perm) and target_shape == kept_shape
        return _WriteGeom(
            spec, arr, mesh, perm, target_shape, red_axes, kept_shape,
            identity_shape,
        )

    def _scope_setup(self, scope: BoundScope, bindings: Dict[str, Any]) -> _ScopeSetup:
        key = tuple(bindings.get(name) for name in scope.setup_deps)
        cached = self._setup_cache.get(id(scope))
        if cached is not None and cached[0] == key:
            return cached[1]
        triples, shape_full, iterations, grids = self._resolve_domain(
            scope, bindings, scope.needs_grids
        )
        if iterations == 0:
            # The interpreter executes nothing for an empty domain -- in
            # particular it never bounds-checks the memlets -- so neither
            # may the setup.
            setup = _ScopeSetup(shape_full, 0, grids, [], [])
        else:
            idx_ns = {**bindings, **grids} if grids else bindings
            gathers = [self._resolve_gather(s, triples, idx_ns) for s in scope.inputs]
            geoms = [self._resolve_write(s, triples, bindings) for s in scope.outputs]
            setup = _ScopeSetup(shape_full, iterations, grids, gathers, geoms)
        self._setup_cache[id(scope)] = (key, setup)
        return setup

    def _fused_setup(self, fused: BoundChain, bindings: Dict[str, Any]) -> _FusedSetup:
        key = tuple(bindings.get(name) for name in fused.setup_deps)
        cached = self._setup_cache.get(id(fused))
        if cached is not None and cached[0] == key:
            return cached[1]
        triples, shape_full, iterations, grids = self._resolve_domain(
            fused, bindings, fused.needs_grids
        )
        if iterations == 0:
            setup = _FusedSetup(shape_full, 0, grids, [], [])
        else:
            idx_ns = {**bindings, **grids} if grids else bindings
            gathers: List[Tuple[str, Callable[[], np.ndarray]]] = []
            geoms: List[_WriteGeom] = []
            for member in fused.members:
                for spec, name in member.gathers:
                    gathers.append((name, self._resolve_gather(spec, triples, idx_ns)[1]))
                for kind, spec, _ in member.outputs:
                    if kind == "write":
                        geoms.append(self._resolve_write(spec, triples, bindings))
                    else:
                        self._check_write(spec, triples, bindings)
            setup = _FusedSetup(shape_full, iterations, grids, gathers, geoms)
        self._setup_cache[id(fused)] = (key, setup)
        return setup

    # .................................................................. #
    # Vectorized evaluation
    # .................................................................. #
    def _compute_vectorized(
        self, scope: BoundScope, bindings: Dict[str, Any]
    ) -> List[Callable[[], None]]:
        """Evaluate a vectorized scope; returns deferred writes.

        Nothing is mutated here: bounds checks and tasklet execution happen
        first, container writes are returned as closures so a mid-flight
        failure can safely fall back to the interpreter.
        """
        setup = self._scope_setup(scope, bindings)
        if setup.iterations == 0:
            return []

        # Run the tasklet once on whole arrays.  Map parameters are visible
        # as index grids, program symbols as scalars -- mirroring the
        # interpreter's per-iteration namespace.  Gathers read the live
        # store (the fetch closures copy, so in-scope element-wise
        # self-updates see the pre-scope values, as each iteration does).
        ns: Dict[str, Any] = dict(bindings)
        ns.update(setup.grids)
        for conn, fetch in setup.gathers:
            ns[conn] = fetch()
        try:
            exec(scope.code_obj, self._VEC_GLOBALS, ns)  # noqa: S102
        except Exception as exc:  # noqa: BLE001 - the interpreter's typed error
            raise TaskletExecutionError(scope.tasklet.label, exc) from exc

        writes: List[Callable[[], None]] = []
        for geom in setup.geoms:
            writes.append(
                self._make_write(
                    geom,
                    self._output_value(scope.tasklet, geom.spec.conn, ns, setup.shape_full),
                    setup.shape_full,
                )
            )
        return writes

    def _compute_fused(
        self, fused: BoundChain, bindings: Dict[str, Any]
    ) -> List[Callable[[], None]]:
        """Evaluate a fused scope chain; returns deferred writes.

        The whole chain is **one** ``exec`` of the composed code object:
        member locals are pre-renamed to unique names, consumer connectors
        read the producers' values directly (dtype-cast at the handoff,
        reproducing the interpreter's store round-trip bit for bit), and
        intermediate containers are never touched.  All container writes
        are deferred to the caller, like :meth:`_compute_vectorized`.
        """
        setup = self._fused_setup(fused, bindings)
        if setup.iterations == 0:
            return []
        ns: Dict[str, Any] = dict(bindings)
        ns.update(setup.grids)
        for name, fetch in setup.gathers:
            ns[name] = fetch()
        ns.update(fused.cast_bindings)
        try:
            exec(fused.code_obj, self._VEC_GLOBALS, ns)  # noqa: S102
        except Exception as exc:  # noqa: BLE001 - attributed by source line
            raise TaskletExecutionError(fused.label_for(exc), exc) from exc

        writes: List[Callable[[], None]] = []
        geoms = iter(setup.geoms)
        for member in fused.members:
            for kind, spec, out_name in member.outputs:
                value = self._output_value(
                    member.scope.tasklet, out_name, ns, setup.shape_full,
                    display_conn=spec.conn,
                )
                if kind == "write":
                    writes.append(self._make_write(next(geoms), value, setup.shape_full))
        return writes

    @staticmethod
    def _output_value(
        tasklet: Tasklet,
        conn: str,
        ns: Dict[str, Any],
        shape_full: Tuple[int, ...],
        display_conn: Optional[str] = None,
    ) -> np.ndarray:
        if conn not in ns:
            raise TaskletExecutionError(
                tasklet.label,
                KeyError(
                    f"tasklet did not assign output connector "
                    f"'{display_conn or conn}'"
                ),
            )
        value = np.asarray(ns[conn])
        if value.shape == shape_full:
            return value  # the common case: broadcast_to would be a no-op
        return np.broadcast_to(value, shape_full)

    # .................................................................. #
    @staticmethod
    def _index_arrays(idx_code: List[Any], idx_ns: Dict[str, Any]) -> List[Any]:
        out = []
        for code in idx_code:
            v = eval(code, _EVAL_GLOBALS, idx_ns)  # noqa: S307
            out.append(v if isinstance(v, np.ndarray) else int(v))
        return out

    @staticmethod
    def _check_vector_bounds(
        data: str, subset_str: str, idx: List[Any], shape: Tuple[int, ...]
    ) -> None:
        if len(idx) != len(shape):
            raise MemoryViolation(data, subset_str, shape, "dimensionality mismatch")
        for v, dim in zip(idx, shape):
            arr = np.asarray(v)
            if arr.size == 0:
                continue
            lo, hi = int(arr.min()), int(arr.max())
            if lo < 0 or hi >= dim:
                raise MemoryViolation(data, subset_str, shape)

    def _make_write(
        self,
        geom: _WriteGeom,
        value: np.ndarray,
        shape_full: Tuple[int, ...],
    ) -> Callable[[], None]:
        from repro.sdfg.dtypes import reduction_function

        spec, arr = geom.spec, geom.arr
        perm, target_shape, mesh = geom.perm, geom.target_shape, geom.mesh

        if spec.wcr is None and geom.identity_shape and not geom.red_axes:
            # Bijective write whose value already has the output's layout
            # (the overwhelmingly common case): one basic-index assignment.
            def apply_direct() -> None:
                arr[mesh] = value

            return apply_direct

        # Reduction slabs, flattened in iteration (lexicographic) order.
        slabs = np.moveaxis(value, geom.red_axes, range(len(geom.red_axes))).reshape(
            (-1,) + geom.kept_shape
        )

        if geom.identity_shape:

            def shape_for_write(a: np.ndarray) -> np.ndarray:
                return a

        else:

            def shape_for_write(a: np.ndarray) -> np.ndarray:
                return a.transpose(perm).reshape(target_shape)

        if spec.wcr is None:

            def apply_plain() -> None:
                arr[mesh] = shape_for_write(slabs[0])

            return apply_plain

        func = reduction_function(spec.wcr)

        def apply_wcr() -> None:
            # Sequential accumulation in iteration order: bitwise identical
            # to the interpreter's per-element read-modify-write loop
            # (NumPy's pairwise reduce would round differently).  Each step
            # casts back to the container dtype, mirroring the interpreter's
            # per-iteration store (accumulating in the promoted dtype would
            # round non-float64 containers differently).
            region = np.array(arr[mesh], copy=True)
            for k in range(slabs.shape[0]):
                region = np.asarray(func(region, shape_for_write(slabs[k]))).astype(
                    arr.dtype, copy=False
                )
            arr[mesh] = region

        return apply_wcr
