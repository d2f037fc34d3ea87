"""The vectorized scope runtime (the *execute* layer of backend lowering).

Last stage of the pipeline (analyze -> codegen -> execute): two functions,
:func:`compute_vectorized` and :func:`compute_fused`, that execute the
analyzer's records over one run's
:class:`~repro.interpreter.executor.TrialStore`.  A vectorizable scope is
executed as a handful of whole-array operations -- gather the inputs with
broadcast index grids, run the tasklet code once on arrays, scatter/reduce
the outputs -- instead of expanding the iteration space one element at a
time (the interpreter's hot loop).  Anything the analyzer rejected falls
back node-by-node to the interpreter for exactly that scope
(:meth:`repro.backends.compiled.CompiledExecutor._run_scope`), keeping the
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
  one run a scope keeps its latest setup in the run's store
  (``TrialStore.setups``), keyed by the symbols it reads, so an interstate
  loop reuses it; a new trial or a tile loop computes afresh.

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
from typing import Any, Callable, Dict, List, Optional, Tuple

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
from repro.interpreter.executor import _EVAL_GLOBALS, TrialStore
from repro.interpreter.tasklet_exec import _SAFE_BUILTINS
from repro.sdfg.dtypes import reduction_function
from repro.sdfg.nodes import Tasklet

__all__ = ["compute_fused", "compute_vectorized"]


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


_VEC_GLOBALS = {
    "__builtins__": _SAFE_BUILTINS,
    "np": np,
    "numpy": np,
    "math": _MATH_SHIM,
}


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
class _Setup:
    """The symbol-dependent (but value-independent) part of one scope or
    chain execution: iteration grids, bounds-checked gathers and write
    geometry.  Reused within a run while its ``setup_deps`` values are
    unchanged -- i.e. hoisted out of enclosing interstate loops."""

    shape_full: Tuple[int, ...]
    iterations: int
    grids: Dict[str, np.ndarray]
    #: (name, fetch) per input -- a scope's connector, a chain member's
    #: composed-code name.  ``fetch`` reads the *live* container (captured
    #: by reference; store arrays are mutated in place, never rebound) with
    #: gather-copy semantics -- basic-slice views are copied, advanced
    #: indexing copies implicitly.
    gathers: List[Tuple[str, Callable[[], np.ndarray]]]
    #: Geometry of the writes, in order (a chain's internal outputs are
    #: bounds-checked but never written).
    geoms: List[_WriteGeom]


def _setup(store: TrialStore, bound, bindings: Dict[str, Any]) -> _Setup:
    """The setup of a bound scope or chain: the run's latest one while the
    symbols it depends on are unchanged, else computed afresh."""
    key = tuple(bindings.get(name) for name in bound.setup_deps)
    cached = store.setups.get(id(bound))
    if cached is not None and cached[0] == key:
        return cached[1]
    triples, shape_full, iterations, grids = _resolve_domain(bound, bindings)
    gathers: List[Tuple[str, Callable[[], np.ndarray]]] = []
    geoms: List[_WriteGeom] = []
    # The interpreter executes nothing for an empty domain -- in particular
    # it never bounds-checks the memlets -- so neither may the setup.
    if iterations:
        arrays = store.arrays
        idx_ns = {**bindings, **grids} if grids else bindings
        if isinstance(bound, BoundChain):
            for member in bound.members:
                for spec, name in member.gathers:
                    gathers.append((name, _resolve_gather(arrays, spec, triples, idx_ns)))
                for kind, spec, _ in member.outputs:
                    if kind == "write":
                        geoms.append(_resolve_write(arrays, spec, triples, bindings))
                    else:
                        _check_write(arrays, spec, triples, bindings)
        else:
            gathers = [(s.conn, _resolve_gather(arrays, s, triples, idx_ns)) for s in bound.inputs]
            geoms = [_resolve_write(arrays, s, triples, bindings) for s in bound.outputs]
    setup = _Setup(shape_full, iterations, grids, gathers, geoms)
    store.setups[id(bound)] = (key, setup)
    return setup


def _resolve_domain(
    bound, bindings: Dict[str, Any]
) -> Tuple[List[Triple], Tuple[int, ...], int, Dict[str, np.ndarray]]:
    """The ``(first, step, count)`` axis triples of a bound scope's or
    chain's flat domain, its shape and size and -- only when something
    reads them -- its broadcast iteration grids."""
    triples = [axis.resolve(bindings) for axis in bound.domain]
    shape_full = tuple(t[2] for t in triples)
    iterations = math.prod(shape_full)
    grids: Dict[str, np.ndarray] = {}
    if bound.needs_grids and iterations:
        nparams = len(triples)
        for axis, (first, step, count) in enumerate(triples):
            gshape = [1] * nparams
            gshape[axis] = count
            grids[bound.domain[axis].param] = np.arange(
                first, first + step * count, step, dtype=np.int64
            ).reshape(gshape)
    return triples, shape_full, iterations, grids


def _resolve_gather(
    arrays: Dict[str, np.ndarray],
    spec: BoundInput,
    triples: List[Triple],
    idx_ns: Dict[str, Any],
) -> Callable[[], np.ndarray]:
    """The fetch of one input."""
    arr = arrays.get(spec.data)
    if arr is None:
        raise ExecutionError(f"Read from unknown container '{spec.data}'")
    shape, nparams = arr.shape, len(triples)
    if spec.idx_code is not None:
        # Some dimension is not a unit-slope sequence of one parameter:
        # evaluate index arrays on the grids and check their extrema.
        # Advanced indexing copies; an ``expr`` index is an array of full
        # grid rank, so the block already broadcasts.
        idx = _index_arrays(spec.idx_code, idx_ns)
        _check_vector_bounds(spec.data, spec.subset_str, idx, shape)
        return lambda _arr=arr, _idx=tuple(idx): _arr[_idx]
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

    return fetch


def _check_write(
    arrays: Dict[str, np.ndarray], spec: BoundOutput, triples: List[Triple], bindings: Dict[str, Any]
) -> Tuple[np.ndarray, List[Any]]:
    """A write's container and bounds-checked index (``param``/``const`` by
    the analyzer's rules, so closed-form): all a chain-internal output needs."""
    arr = arrays.get(spec.data)
    if arr is None:
        raise ExecutionError(f"Write to unknown container '{spec.data}'")
    return arr, access_index(
        spec.dims, triples, arr.shape, bindings, spec.data, spec.subset_str
    )


def _resolve_write(
    arrays: Dict[str, np.ndarray], spec: BoundOutput, triples: List[Triple], bindings: Dict[str, Any]
) -> _WriteGeom:
    """The bounds-checked geometry of one write: one basic index."""
    arr, index = _check_write(arrays, spec, triples, bindings)
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


# ---------------------------------------------------------------------- #
# Vectorized evaluation
# ---------------------------------------------------------------------- #
def compute_vectorized(
    store: TrialStore, scope: BoundScope, bindings: Dict[str, Any]
) -> List[Callable[[], None]]:
    """Evaluate a vectorized scope; returns deferred writes.

    Nothing is mutated here: bounds checks and tasklet execution happen
    first, container writes are returned as closures so a mid-flight
    failure can safely fall back to the interpreter.
    """
    setup = _setup(store, scope, bindings)
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
        exec(scope.code_obj, _VEC_GLOBALS, ns)  # noqa: S102
    except Exception as exc:  # noqa: BLE001 - the interpreter's typed error
        raise TaskletExecutionError(scope.tasklet.label, exc) from exc
    return [
        _make_write(geom, _output_value(scope.tasklet, geom.spec.conn, ns, setup.shape_full))
        for geom in setup.geoms
    ]


def compute_fused(
    store: TrialStore, fused: BoundChain, bindings: Dict[str, Any]
) -> List[Callable[[], None]]:
    """Evaluate a fused scope chain; returns deferred writes.

    The whole chain is **one** ``exec`` of the composed code object:
    member locals are pre-renamed to unique names, consumer connectors
    read the producers' values directly (dtype-cast at the handoff,
    reproducing the interpreter's store round-trip bit for bit), and
    intermediate containers are never touched.  All container writes
    are deferred to the caller, like :func:`compute_vectorized`.
    """
    setup = _setup(store, fused, bindings)
    if setup.iterations == 0:
        return []
    ns: Dict[str, Any] = dict(bindings)
    ns.update(setup.grids)
    for name, fetch in setup.gathers:
        ns[name] = fetch()
    ns.update(fused.cast_bindings)
    try:
        exec(fused.code_obj, _VEC_GLOBALS, ns)  # noqa: S102
    except Exception as exc:  # noqa: BLE001 - attributed by source line
        raise TaskletExecutionError(fused.label_for(exc), exc) from exc

    writes: List[Callable[[], None]] = []
    geoms = iter(setup.geoms)
    for member in fused.members:
        for kind, spec, out_name in member.outputs:
            if kind == "internal" and out_name in ns:
                # Never written, and element-wise code always yields a value
                # that broadcasts to the domain: its assignment is all there
                # is to check.
                continue
            value = _output_value(
                member.scope.tasklet, out_name, ns, setup.shape_full,
                display_conn=spec.conn,
            )
            writes.append(_make_write(next(geoms), value))
    return writes


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


# ---------------------------------------------------------------------- #
def _index_arrays(idx_code: List[Any], idx_ns: Dict[str, Any]) -> List[Any]:
    out = []
    for code in idx_code:
        v = eval(code, _EVAL_GLOBALS, idx_ns)  # noqa: S307
        out.append(v if isinstance(v, np.ndarray) else int(v))
    return out


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


def _make_write(geom: _WriteGeom, value: np.ndarray) -> Callable[[], None]:
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
