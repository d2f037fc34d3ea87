"""The ``native`` backend: trial-batched execution with C-compiled kernels.

Extends the batched backend with a native tier: at prepare time the
``native-c`` emitter lowers eligible scopes and fused chains to C, the
translation unit is compiled once (or reloaded from the program's disk
artifact, keyed by the toolchain fingerprint), and the resulting kernels
run through zero-copy buffer pointers.  Everything the emitter rejects --
and any compile or load failure, including no toolchain at all -- runs the
inherited batched/compiled Python path per scope, bitwise identically.

Fallback is the parity mechanism, not an afterthought: the native setup
re-derives the exact same domain, bounds and geometry checks the Python
setup performs, and *any* failure (an out-of-bounds subset, a non-affine
index, a symbol value a double cannot represent exactly) simply defers to
the Python op, which re-derives everything and raises the authoritative
error.  A successful native setup implies the Python setup would have
succeeded too, so the only errors the native path raises itself are the
in-kernel math guards -- mapped back to the exact exception (type and
message) CPython's ``math`` module raises.
"""

from __future__ import annotations

import base64
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import faultinject
from repro.backends.batched import BatchedBackend, BatchedExecutor, BatchedProgram
from repro.backends.codegen.native_c import EXACT_INT_LIMIT, NativeKernel
from repro.backends.codegen.python_driver import _artifact_stamp
from repro.backends.geometry import access_index
from repro.backends.native.bridge import KernelHandle, load_shared_object
from repro.backends.native.probe import probe_shared_object
from repro.backends.native.toolchain import (
    NativeCompileError,
    compile_shared_object,
    detect_toolchain,
)
from repro.backends.plan import PLAN_FORMAT_VERSION
from repro.interpreter.errors import TaskletExecutionError
from repro.sdfg.nodes import MapEntry, MapExit
from repro.telemetry import TRACER as _TRACER
from repro.telemetry import observe as _metric_observe
from repro.telemetry import perf_counter as _perf_counter

__all__ = ["NativeBackend", "NativeProgram", "NativeExecutor"]

_EXC = {"ValueError": ValueError, "OverflowError": OverflowError}


class _NativeGeom:
    """One kernel's packed geometry for one (symbols, layout) signature.

    Holds *no* buffer references: geometry depends only on symbol values
    (the setup-dependency key) and on the buffers' shapes and strides (the
    layout signature), never on their contents or addresses -- so it is
    cached persistently across runs, and each call merely re-points the
    bound pointer block at the current store's arrays."""

    __slots__ = ("call", "iterations", "scalars")

    def __init__(self, call, iterations: int, scalars: np.ndarray) -> None:
        self.call = call
        self.iterations = iterations
        self.scalars = scalars


def _affine_offsets(
    idx: List[Any], elem_strides: List[int], nparams: int
) -> Optional[Tuple[int, List[int]]]:
    """Decompose per-dimension gather indices into ``base + sum(coef*i)``.

    ``idx`` is exactly what the Python setup evaluates (broadcast index
    grids / scalars); the decomposition is verified element-for-element
    against the arrays, so a non-affine index simply returns ``None`` (the
    scope then runs on the Python path)."""
    base = 0
    coefs = [0] * nparams
    for d, v in enumerate(idx):
        ed = elem_strides[d]
        if isinstance(v, np.ndarray):
            if v.ndim > nparams:
                return None
            off = nparams - v.ndim
            flat = v.reshape(-1)
            if flat.size == 0:
                return None
            b = int(flat[0])
            cd = [0] * v.ndim
            for a in range(v.ndim):
                if v.shape[a] > 1:
                    unit = [0] * v.ndim
                    unit[a] = 1
                    cd[a] = int(v[tuple(unit)]) - b
            expected = np.array(b, dtype=np.int64)
            for a in range(v.ndim):
                if cd[a]:
                    ushape = [1] * v.ndim
                    ushape[a] = v.shape[a]
                    expected = expected + cd[a] * np.arange(
                        v.shape[a], dtype=np.int64
                    ).reshape(ushape)
            if not np.array_equal(v, np.broadcast_to(expected, v.shape)):
                return None
            base += ed * b
            for a in range(v.ndim):
                coefs[off + a] += ed * cd[a]
        else:
            base += ed * int(v)
    return base, coefs


class NativeExecutor(BatchedExecutor):
    """A :class:`BatchedExecutor` whose scope/chain ops try a compiled C
    kernel first and defer to the inherited Python ops on any miss."""

    EMITTER_NAME = "native-c"

    def __init__(self, *args, **kwargs) -> None:
        #: ``("scope"|"chain", entry guid) -> (kernel, handle)``.  Created
        #: before ``super().__init__`` because the op closures built there
        #: consult it (late-bound) at call time.
        self._native_kernels: Dict[Tuple[str, int], Tuple[NativeKernel, KernelHandle]] = {}
        #: Build diagnostics: kernel/reject counts, toolchain fingerprint,
        #: the assembled C source and ``.so`` bytes (for artifacts), and
        #: the failure mode when the tier is unavailable.
        self.native_build: Dict[str, Any] = {}
        self._native_lib = None
        #: Persistent geometry cache, ``id(kernel) -> {signature: geom}``
        #: (see :class:`_NativeGeom` for why it survives across runs).
        self._native_geoms: Dict[int, Dict[Any, Optional[_NativeGeom]]] = {}
        #: Per-run fast path: ``id(kernel) -> (run id, batched, depkey,
        #: geom, ptrs)``.  Within one run the store's arrays are stable, so
        #: repeated invocations (loop iterations) skip the layout signature
        #: and pointer rebuild entirely.
        self._native_memo: Dict[int, Tuple] = {}
        self._native_run = 0
        super().__init__(*args, **kwargs)
        self.stats["native"] = 0
        self._prepare_native(kwargs.get("artifact"))

    # .................................................................. #
    # Preparation: emit, compile (or reload), load
    # .................................................................. #
    def _prepare_native(self, artifact: Optional[Dict[str, Any]]) -> None:
        kernels: List[NativeKernel] = []
        kmap: Dict[Tuple[str, int], NativeKernel] = {}
        rejected: Dict[str, str] = {}
        for state in self._compiled_states:
            table = self._table_for(state)
            order = self._state_order(state)
            scopes = self._scope_cache[id(state)]
            for node in order:
                if scopes.get(node) is not None or isinstance(node, MapExit):
                    continue
                if not isinstance(node, MapEntry):
                    continue
                if node.guid in table.members:
                    continue
                fused = table.heads.get(node.guid)
                if fused is not None:
                    kr, reason = self.emitter.chain_kernel(
                        self.sdfg, fused, f"k{len(kernels)}"
                    )
                    key = ("chain", node.guid)
                else:
                    plan = table.plans.get(node.guid)
                    if plan is None:
                        continue  # analyzer-rejected: interpreter territory
                    kr, reason = self.emitter.scope_kernel(
                        self.sdfg, plan, f"k{len(kernels)}"
                    )
                    key = ("scope", node.guid)
                if kr is None:
                    rejected[node.label] = reason or "native-emit-error"
                else:
                    # Bounds-check-only containers (internal chain writes
                    # with no buffer slot): part of the layout signature.
                    kr.check_data = tuple(
                        spec.data
                        for kind, spec, _bi in kr.accesses
                        if kind == "check"
                    )
                    kernels.append(kr)
                    kmap[key] = kr
        self.native_build = {
            "kernels": len(kernels),
            "rejected": rejected,
            "fingerprint": None,
            "c_source": None,
            "so": None,
            "cache": "none",
            "error": None,
        }
        if not kernels:
            return
        toolchain = detect_toolchain()
        if toolchain is None:
            self.native_build["error"] = "no-toolchain"
            return
        fingerprint = toolchain.fingerprint()
        self.native_build["fingerprint"] = fingerprint
        source = self.emitter.assemble_source(kernels)
        self.native_build["c_source"] = source

        so_bytes: Optional[bytes] = None
        if artifact:
            native = artifact.get("native")
            if (
                isinstance(native, dict)
                and native.get("c_source") == source
                and artifact.get("toolchain") == fingerprint
            ):
                try:
                    so_bytes = base64.b64decode(native["so"])
                    self.native_build["cache"] = "artifact"
                except Exception:  # noqa: BLE001 - corrupt cache: recompile
                    so_bytes = None
        if so_bytes is None:
            try:
                with _TRACER.span("native.compile", "native") as span:
                    span.set("kernels", len(kernels))
                    t0 = _perf_counter()
                    so_bytes = compile_shared_object(toolchain, source)
                    _metric_observe(
                        "repro_native_compile_seconds", _perf_counter() - t0
                    )
                self.native_build["cache"] = "compiled"
            except NativeCompileError as exc:
                self.native_build["error"] = f"compile: {exc}"
                return
        probe_failed: frozenset = frozenset()
        if self.native_build["cache"] == "compiled":
            # Freshly compiled bytes have never executed: first-call each
            # kernel in a disposable subprocess so a segfaulting kernel
            # kills the probe child, not this process.  Artifact reloads
            # skip this -- they already survived real calls.
            probe_failed = probe_shared_object(
                so_bytes, [k.fn_name for k in kernels]
            )
            if probe_failed:
                self.native_build["probe_failed"] = sorted(probe_failed)
                if len(probe_failed) == len(kernels):
                    self.native_build["error"] = "probe: all kernels failed"
                    self.native_build["cache"] = "none"
                    return
        try:
            with _TRACER.span("native.link", "native") as span:
                span.set("kernels", len(kernels))
                lib = load_shared_object(so_bytes, [k.fn_name for k in kernels])
        except OSError as exc:
            self.native_build["error"] = f"load: {exc}"
            self.native_build["cache"] = "none"
            return
        self.native_build["so"] = so_bytes
        self._native_lib = lib
        for key, kr in kmap.items():
            if kr.fn_name in probe_failed:
                continue  # its scope runs the Python path, bitwise identical
            handle = lib.get(kr.fn_name)
            if handle is not None:
                self._native_kernels[key] = (kr, handle)

    # .................................................................. #
    # Op construction: try native, defer to the inherited op otherwise
    # .................................................................. #
    def _make_scope_op(self, state, entry, plan):
        base = super()._make_scope_op(state, entry, plan)
        if plan is None:
            return base
        key = ("scope", entry.guid)

        def op(rt, symbols, _base=base, _key=key, _plan=plan):
            native = rt._native_kernels.get(_key)
            if native is None or not _plan.usable:
                _base(rt, symbols)
                return
            if not rt._run_native(native[0], native[1], symbols):
                _base(rt, symbols)

        return op

    def _make_fused_op(self, state, fused, table):
        base = super()._make_fused_op(state, fused, table)
        key = ("chain", fused.member_guids[0])

        def op(rt, symbols, _base=base, _key=key, _fused=fused):
            native = rt._native_kernels.get(_key)
            if native is None or not _fused.usable:
                _base(rt, symbols)
                return
            if not rt._run_native(native[0], native[1], symbols):
                _base(rt, symbols)

        return op

    def _make_batched_scope_op(self, plan):
        base = super()._make_batched_scope_op(plan)
        key = ("scope", plan.entry.guid)

        def op(rt, symbols, _base=base, _key=key, _plan=plan):
            native = rt._native_kernels.get(_key)
            if native is None or not _plan.usable:
                _base(rt, symbols)
                return
            if not rt._run_native(native[0], native[1], symbols):
                _base(rt, symbols)

        return op

    def _make_batched_fused_op(self, fused):
        base = super()._make_batched_fused_op(fused)
        key = ("chain", fused.member_guids[0])

        def op(rt, symbols, _base=base, _key=key, _fused=fused):
            native = rt._native_kernels.get(_key)
            if native is None or not _fused.usable:
                _base(rt, symbols)
                return
            if not rt._run_native(native[0], native[1], symbols):
                _base(rt, symbols)

        return op

    # .................................................................. #
    # Native invocation
    # .................................................................. #
    def _setup(self, arguments: Dict[str, Any], symbols: Dict[str, Any]) -> None:
        # A fresh store invalidates the per-run pointer memo (the geometry
        # cache itself survives: it holds offsets, not addresses).
        self._native_run += 1
        super()._setup(arguments, symbols)

    def _run_native(
        self, kr: NativeKernel, handle: KernelHandle, symbols: Dict[str, Any]
    ) -> bool:
        """Attempt one native execution; ``False`` defers to Python.

        Raises only the in-kernel guard errors (the exact exception the
        interpreter's per-element ``math`` call would raise)."""
        if not kr.usable or not kr.bound.usable:
            return False
        batched = self._batched_mode
        kid = id(kr)
        # The geometry cache key: symbol values the setup depends on, plus
        # the exact memory layout of every container the kernel touches
        # (buffers and bounds-check-only containers alike).  Everything the
        # setup derives -- domain, bounds verdicts, affine offsets -- is a
        # pure function of these, so entries survive across runs; only the
        # buffer *addresses* change per run.  Within one run (one store,
        # one trial view) even the addresses are stable, so the per-run
        # memo skips the signature and pointer rebuild on repeat calls --
        # the loop-iteration fast path.
        try:
            deps = kr.setup_deps
            depkey = (
                tuple([symbols.get(name) for name in deps]) if deps else ()
            )
            memo = self._native_memo.get(kid)
            if (
                memo is not None
                and memo[0] == self._native_run
                and memo[1] == self._setup_epoch
                and memo[2] == batched
                and memo[3] == depkey
            ):
                geom, ptrs = memo[4], memo[5]
            else:
                store = self._store
                arrays = []
                for name in kr.buffers:
                    arr = store.get(name)
                    if arr is None:
                        return False
                    arrays.append(arr)
                sig = [batched]
                sig.extend(depkey)
                for arr in arrays:
                    sig.append(arr.shape)
                    sig.append(arr.strides)
                for name in kr.check_data:
                    arr = store.get(name)
                    if arr is None:
                        return False
                    sig.append(arr.shape)
                    sig.append(arr.strides)
                key = tuple(sig)
                cache = self._native_geoms.setdefault(kid, {})
                if key in cache:
                    geom = cache[key]
                else:
                    try:
                        geom = self._native_geometry(kr, handle, symbols)
                    except Exception:  # noqa: BLE001 - Python raises the real error
                        geom = None
                    if len(cache) > 64:
                        cache.clear()  # fuzzing across many sizes: stay bounded
                    cache[key] = geom
                ptrs = (
                    [arr.ctypes.data for arr in arrays]
                    if geom is not None
                    else None
                )
                self._native_memo[kid] = (
                    self._native_run,
                    self._setup_epoch,
                    batched,
                    depkey,
                    geom,
                    ptrs,
                )
        except TypeError:
            return False  # unhashable symbol value: Python path handles it
        if geom is None:
            return False
        scalars = geom.scalars
        for i, name in enumerate(kr.extras):
            if name not in symbols:
                return False  # Python path raises the NameError taxonomy
            value = symbols[name]
            if isinstance(value, (bool, np.bool_)):
                scalars[i] = 1.0 if value else 0.0
            elif isinstance(value, (int, np.integer)):
                iv = int(value)
                if abs(iv) > EXACT_INT_LIMIT:
                    return False
                scalars[i] = float(iv)
            elif isinstance(value, (float, np.floating)):
                scalars[i] = float(value)
            else:
                return False
        # Outside the retire-guard: an injected exception propagates as a
        # task error (like any executor failure); crash faults act like a
        # real in-kernel segfault.
        faultinject.hit("native.call", key=kr.fn_name)
        try:
            rc = geom.call(ptrs, self._batch if batched else 1)
        except Exception:  # noqa: BLE001 - invocation-level failure: retire
            kr.usable = False
            return False
        if rc:
            if rc - 1 >= len(kr.guards):
                kr.usable = False
                return False
            guard = kr.guards[rc - 1]
            raise TaskletExecutionError(
                guard.label, _EXC[guard.exc](guard.message)
            )
        if not batched and self._coverage is not None:
            # Counts only feed coverage; skip the per-guid bookkeeping on
            # plain runs (batched ops discard counts either way).
            for guid in kr.count_guids:
                self._tasklet_counts[guid] = (
                    self._tasklet_counts.get(guid, 0) + geom.iterations
                )
        self.stats["native"] += 1
        return True

    def _native_geometry(
        self, kr: NativeKernel, handle: KernelHandle, bindings: Dict[str, Any]
    ) -> Optional[_NativeGeom]:
        """Geometry packing for one kernel (the native twin of the Python
        scope/fused setup).

        Performs every check the Python setup performs (domain, unknown
        containers, index bounds, write dimensionality) -- a failure either
        raises (caught by the caller) or returns ``None``; both defer to
        the Python op, which reproduces the authoritative error.  Success
        here therefore implies the Python path would have succeeded."""
        # Grids only for gathers that materialise (an ``expr`` dimension);
        # the kernel computes parameter values from begins and steps.
        triples, _shape_full, iterations, grids = self._resolve_domain(
            kr.entry,
            bindings,
            any(k == "gather" and s.idx_code is not None for k, s, _ in kr.accesses),
        )
        if iterations == 0 or len(triples) != kr.nparams:
            # Empty domains skip all checks (interpreter parity); the
            # Python op handles them with the same cached-setup cost.
            return None
        nparams = kr.nparams
        idx_ns = {**bindings, **grids} if grids else bindings
        batched = self._batched_mode

        geom: List[int] = []
        for first, step, count in triples:
            last = first + step * (count - 1)
            if abs(first) > EXACT_INT_LIMIT or abs(last) > EXACT_INT_LIMIT:
                return None  # parameter values must be double-exact
            geom.append(first)
            geom.append(step)

        arrays: List[np.ndarray] = []
        shapes: Dict[str, Tuple[int, ...]] = {}
        strides: Dict[str, List[int]] = {}
        bstrides: List[int] = []
        for name in kr.buffers:
            arr = self._store.get(name)
            if arr is None or arr.dtype != np.float64:
                return None
            if batched:
                if arr.ndim < 1 or arr.strides[0] % 8:
                    return None
                shape, byte_strides = arr.shape[1:], arr.strides[1:]
                bstrides.append(arr.strides[0] // 8)
            else:
                shape, byte_strides = arr.shape, arr.strides
                bstrides.append(0)
            elem = []
            for s in byte_strides:
                if s % 8:
                    return None
                elem.append(s // 8)
            shapes[name] = tuple(shape)
            strides[name] = elem
            arrays.append(arr)

        for kind, spec, _bi in kr.accesses:
            arr = self._store.get(spec.data)
            if arr is None:
                return None  # Python path raises the unknown-container error
            if kind == "check":
                shape = arr.shape[1:] if batched else arr.shape
            else:
                shape = shapes[spec.data]
            if kind == "gather" and spec.idx_code is not None:
                idx = self._index_arrays(spec.idx_code, idx_ns)
                self._check_vector_bounds(spec.data, spec.subset_str, idx, shape)
                dec = _affine_offsets(idx, strides[spec.data], nparams)
                if dec is None:
                    return None
                base, coefs = dec
            else:
                index = access_index(
                    spec.dims, triples, shape, bindings, spec.data, spec.subset_str
                )
                if kind == "check":
                    continue
                elem = strides[spec.data]
                base = 0
                coefs = [0] * nparams
                for d, (dkind, payload) in enumerate(spec.dims):
                    if dkind == "param":
                        axis, offset = payload
                        base += elem[d] * (triples[axis][0] + offset)
                        coefs[axis] += elem[d] * triples[axis][1]
                    else:
                        base += elem[d] * index[d]
            geom.append(base)
            geom.extend(coefs)

        counts_arr = np.asarray([t[2] for t in triples], dtype=np.int64)
        geom_arr = np.asarray(geom, dtype=np.int64)
        scalars_arr = np.zeros(max(len(kr.extras), 1), dtype=np.float64)
        bstrides_arr = np.asarray(bstrides or [0], dtype=np.int64)
        call = handle.bind(
            len(kr.buffers), counts_arr, geom_arr, scalars_arr, bstrides_arr
        )
        return _NativeGeom(call, iterations, scalars_arr)


class NativeProgram(BatchedProgram):
    """A batched program whose artifact additionally carries the native
    tier: the assembled C source and compiled shared object, stamped with
    the toolchain fingerprint that produced them."""

    executor_class = NativeExecutor
    #: Disk-cache entries live beside -- not on top of -- the compiled and
    #: batched backends' artifacts: the native artifact embeds a shared
    #: object those backends would drag around for nothing.
    artifact_variant = "-native"

    @classmethod
    def check_artifact(cls, artifact: Dict[str, Any]) -> bool:
        """Artifact validity *including* the toolchain stamp: the stamp's
        toolchain must equal this machine's current fingerprint (``None``
        when no compiler is present), so a stale or missing toolchain field
        is a miss and the entry is rewritten."""
        stamp = _artifact_stamp()
        toolchain = detect_toolchain()
        stamp["toolchain"] = (
            toolchain.fingerprint() if toolchain is not None else None
        )
        if not all(k in artifact and artifact[k] == v for k, v in stamp.items()):
            return False
        if artifact.get("plan_format") != PLAN_FORMAT_VERSION:
            return False
        if artifact.get("mode") not in ("structured", "dispatch", "interpreted"):
            return False
        native = artifact.get("native")
        if native is not None:
            if stamp["toolchain"] is None:
                return False
            if not (
                isinstance(native, dict)
                and isinstance(native.get("c_source"), str)
                and isinstance(native.get("so"), str)
            ):
                return False
        return True

    def artifact(self) -> Optional[Dict[str, Any]]:
        art = super().artifact()
        if art is None:
            return None
        build = self.executor.native_build
        art["toolchain"] = build.get("fingerprint")
        if build.get("so") is not None and build.get("c_source"):
            art["native"] = {
                "c_source": build["c_source"],
                "so": base64.b64encode(build["so"]).decode("ascii"),
            }
        return art


class NativeBackend(BatchedBackend):
    """Trial batching plus a native C kernel tier: fused chains and
    fixed-trip affine loop nests compile to a shared object at prepare
    time (cached on disk per toolchain fingerprint); everything else --
    and every machine without a C compiler -- runs the batched backend's
    Python path bitwise identically."""

    name = "native"
    program_class = NativeProgram
