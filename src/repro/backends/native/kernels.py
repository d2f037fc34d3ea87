"""The kernel tier: the C kernels a program prepared under ``native`` holds.

:class:`KernelTier` is built once per program, after its plans are bound:
the ``native-c`` emitter lowers eligible scopes and fused chains to C, the
translation unit is compiled once (or reloaded from the program's disk
artifact, keyed by the toolchain fingerprint), and the resulting kernels
run through zero-copy buffer pointers.  The compiled executor's scope and
chain ops ask :meth:`KernelTier.try_run` first; everything the emitter
rejects -- and any compile or load failure, including no toolchain at all
-- runs the executor's Python path per scope, bitwise identically.

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
from repro.backends.codegen.native_c import (
    EXACT_INT_LIMIT,
    NativeCEmitter,
    NativeKernel,
)
from repro.backends.codegen.numpy_eager import BoundChain
from repro.backends.geometry import access_index
from repro.backends.native.bridge import KernelHandle, load_shared_object
from repro.backends.native.probe import probe_shared_object
from repro.backends.native.toolchain import (
    NativeCompileError,
    compile_shared_object,
    detect_toolchain,
)
from repro.interpreter.errors import TaskletExecutionError
from repro.sdfg.nodes import MapEntry
from repro.telemetry import TRACER as _TRACER
from repro.telemetry import observe as _metric_observe
from repro.telemetry import perf_counter as _perf_counter

__all__ = ["KernelTier"]

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


class KernelTier:
    """The compiled C kernels of one prepared program.

    Holds no reference to the executor it serves (``rt`` is an argument
    wherever it is needed, like the executor's own ops take it): the two
    would form a cycle, and a finished task's programs are freed by
    reference counting alone."""

    def __init__(self, rt, artifact: Optional[Dict[str, Any]] = None) -> None:
        #: Head map-entry guid of a scope or chain -> ``(kernel, handle)``.
        self._kernels: Dict[int, Tuple[NativeKernel, KernelHandle]] = {}
        #: Build diagnostics: kernel/reject counts, toolchain fingerprint,
        #: the assembled C source and ``.so`` bytes (for artifacts), and
        #: the failure mode when the tier is unavailable.
        self.build: Dict[str, Any] = {}
        self._lib = None
        #: Persistent geometry cache, ``id(kernel) -> {signature: geom}``
        #: (see :class:`_NativeGeom` for why it survives across runs).
        self._geoms: Dict[int, Dict[Any, Optional[_NativeGeom]]] = {}
        rt.stats["native"] = 0
        self._prepare(rt, artifact)

    @staticmethod
    def toolchain_stamp() -> Optional[Dict[str, Any]]:
        """This machine's compiler fingerprint (``None`` without one): what
        the ``toolchain`` field of a ``-native`` artifact must equal."""
        toolchain = detect_toolchain()
        return toolchain.fingerprint() if toolchain is not None else None

    def extend_artifact(self, art: Dict[str, Any]) -> None:
        """Add the tier's part of a program's disk artifact: the toolchain
        fingerprint that produced it, the assembled C source and the
        compiled shared object."""
        art["toolchain"] = self.build.get("fingerprint")
        if self.build.get("so") is not None and self.build.get("c_source"):
            art["native"] = {
                "c_source": self.build["c_source"],
                "so": base64.b64encode(self.build["so"]).decode("ascii"),
            }

    # .................................................................. #
    # Preparation: emit, compile (or reload), load
    # .................................................................. #
    def _prepare(self, rt, artifact: Optional[Dict[str, Any]]) -> None:
        emitter = NativeCEmitter()
        kernels: List[NativeKernel] = []
        kmap: Dict[int, NativeKernel] = {}
        rejected: Dict[str, str] = {}
        for state in rt._state_index:
            for node, bound in rt.top_level(state):
                if not isinstance(node, MapEntry) or bound is None:
                    continue  # no scope, or one the analyzer rejected
                lower = (
                    emitter.chain_kernel
                    if isinstance(bound, BoundChain)
                    else emitter.scope_kernel
                )
                kr, reason = lower(rt.sdfg, bound, f"k{len(kernels)}")
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
                    kmap[node.guid] = kr
        self.build = {
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
            self.build["error"] = "no-toolchain"
            return
        fingerprint = toolchain.fingerprint()
        self.build["fingerprint"] = fingerprint
        source = emitter.assemble_source(kernels)
        self.build["c_source"] = source

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
                    self.build["cache"] = "artifact"
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
                self.build["cache"] = "compiled"
            except NativeCompileError as exc:
                self.build["error"] = f"compile: {exc}"
                return
        probe_failed: frozenset = frozenset()
        if self.build["cache"] == "compiled":
            # Freshly compiled bytes have never executed: first-call each
            # kernel in a disposable subprocess so a segfaulting kernel
            # kills the probe child, not this process.  Artifact reloads
            # skip this -- they already survived real calls.
            probe_failed = probe_shared_object(
                so_bytes, [k.fn_name for k in kernels]
            )
            if probe_failed:
                self.build["probe_failed"] = sorted(probe_failed)
                if len(probe_failed) == len(kernels):
                    self.build["error"] = "probe: all kernels failed"
                    self.build["cache"] = "none"
                    return
        try:
            with _TRACER.span("native.link", "native") as span:
                span.set("kernels", len(kernels))
                lib = load_shared_object(so_bytes, [k.fn_name for k in kernels])
        except OSError as exc:
            self.build["error"] = f"load: {exc}"
            self.build["cache"] = "none"
            return
        self.build["so"] = so_bytes
        self._lib = lib
        for key, kr in kmap.items():
            if kr.fn_name in probe_failed:
                continue  # its scope runs the Python path, bitwise identical
            handle = lib.get(kr.fn_name)
            if handle is not None:
                self._kernels[key] = (kr, handle)

    # .................................................................. #
    # Native invocation
    # .................................................................. #
    def try_run(self, rt, key: int, symbols: Dict[str, Any]) -> bool:
        """Attempt one native execution of the scope or chain whose head
        map entry has guid ``key``; ``False`` defers to Python.

        Raises only the in-kernel guard errors (the exact exception the
        interpreter's per-element ``math`` call would raise)."""
        held = self._kernels.get(key)
        if held is None:
            return False
        kr, handle = held
        if not kr.usable or not kr.bound.usable:
            return False
        batched = bool(rt._lead)
        kid = id(kr)
        # The geometry cache key: symbol values the setup depends on, plus
        # the exact memory layout of every container the kernel touches
        # (buffers and bounds-check-only containers alike).  Everything the
        # setup derives -- domain, bounds verdicts, affine offsets -- is a
        # pure function of these, so entries survive across runs; only the
        # buffer *addresses* change per run.  Within one run (one store,
        # one trial view) even the addresses are stable, so the executor's
        # per-run setup cache -- dropped with every new store, and keyed by
        # the trial epoch like a plan's Python setup -- keeps ``(geometry,
        # pointers)`` and repeat calls skip the signature and pointer
        # rebuild: the loop-iteration fast path.
        try:
            deps = kr.setup_deps
            depkey = (
                tuple([symbols.get(name) for name in deps]) if deps else ()
            )
            memo_key = (kid, rt._setup_epoch)
            memo = rt._setup_cache.get(memo_key)
            if memo is not None and memo[0] == depkey:
                geom, ptrs = memo[1]
            else:
                store = rt._store
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
                sig_key = tuple(sig)
                cache = self._geoms.setdefault(kid, {})
                if sig_key in cache:
                    geom = cache[sig_key]
                else:
                    try:
                        geom = self._geometry(rt, kr, handle, symbols)
                    except Exception:  # noqa: BLE001 - Python raises the real error
                        geom = None
                    if len(cache) > 64:
                        cache.clear()  # fuzzing across many sizes: stay bounded
                    cache[sig_key] = geom
                ptrs = (
                    [arr.ctypes.data for arr in arrays]
                    if geom is not None
                    else None
                )
                rt._setup_cache[memo_key] = (depkey, (geom, ptrs))
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
            rc = geom.call(ptrs, rt._batch if batched else 1)
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
        if not batched and rt._coverage is not None:
            # Counts only feed coverage; skip the per-guid bookkeeping on
            # plain runs (batched ops discard counts either way).
            for guid in kr.count_guids:
                rt._tasklet_counts[guid] = (
                    rt._tasklet_counts.get(guid, 0) + geom.iterations
                )
        rt.stats["native"] += 1
        return True

    def _geometry(
        self, rt, kr: NativeKernel, handle: KernelHandle, bindings: Dict[str, Any]
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
        triples, _shape_full, iterations, grids = rt._resolve_domain(
            kr.bound,
            bindings,
            any(k == "gather" and s.idx_code is not None for k, s, _ in kr.accesses),
        )
        if iterations == 0 or len(triples) != kr.nparams:
            # Empty domains skip all checks (interpreter parity); the
            # Python op handles them with the same cached-setup cost.
            return None
        nparams = kr.nparams
        idx_ns = {**bindings, **grids} if grids else bindings
        batched = bool(rt._lead)

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
            arr = rt._store.get(name)
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
            arr = rt._store.get(spec.data)
            if arr is None:
                return None  # Python path raises the unknown-container error
            if kind == "check":
                shape = arr.shape[1:] if batched else arr.shape
            else:
                shape = shapes[spec.data]
            if kind == "gather" and spec.idx_code is not None:
                idx = rt._index_arrays(spec.idx_code, idx_ns)
                rt._check_vector_bounds(spec.data, spec.subset_str, idx, shape)
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
