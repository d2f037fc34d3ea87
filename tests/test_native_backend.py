"""Tests for the native C kernel tier (the ``native`` backend).

A program prepared under ``native`` holds a kernel tier: at prepare time
eligible scopes and fused chains are lowered to C, compiled, and invoked
through zero-copy buffer pointers; everything else -- and any machine
without a C compiler -- runs the compiled backend's Python path.  The contract under
test everywhere: outcomes (outputs, symbols, transitions, *and errors*) are
bitwise identical to the interpreter whether or not a single native kernel
fired, so differential verdicts cannot depend on the presence of a
toolchain.
"""

import base64
import glob
import json

import numpy as np
import pytest

from repro.backends import CompiledBackend, get_backend, native_backend
from repro.backends.base import CompiledProgram
from repro.backends.cross import BackendDivergenceError, CrossBackend, CrossProgram
from repro.backends.native import KernelTier, detect_toolchain
from repro.backends.native.toolchain import CC_ENV
from repro.interpreter.errors import ExecutionError, TaskletExecutionError
from repro.sdfg import SDFG, Memlet, float64
from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json
from repro.workloads import get_workload

#: Toolchain presence only *gates assertions about native execution counts*;
#: every parity test must pass identically without one.
HAVE_CC = detect_toolchain() is not None
needs_cc = pytest.mark.skipif(not HAVE_CC, reason="no C toolchain available")


def make_arguments(sdfg, symbols, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(desc.concrete_shape(symbols))
        for name, desc in sdfg.arrays.items()
        if not desc.transient
    }


def assert_identical(a, b):
    assert set(a.outputs) == set(b.outputs)
    for name in a.outputs:
        x, y = a.outputs[name], b.outputs[name]
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.ascontiguousarray(x).tobytes() == (
            np.ascontiguousarray(y).tobytes()
        ), f"container '{name}' differs bitwise"
    assert a.symbols == b.symbols
    assert a.transitions == b.transitions


def native_vs_interpreter(sdfg, symbols, seed=0, backend=None):
    """Run serially on both backends; outcomes must agree bitwise.
    Returns the native program for stats inspection."""
    args = make_arguments(sdfg, symbols, seed)
    interp = get_backend("interpreter").prepare(sdfg)
    program = (backend or native_backend()).prepare(sdfg)
    try:
        ref = interp.run(dict(args), symbols, collect_coverage=True)
    except ExecutionError as exc:
        with pytest.raises(type(exc)) as exc_info:
            program.run(dict(args), symbols, collect_coverage=True)
        assert str(exc_info.value) == str(exc)
        return program
    res = program.run(dict(args), symbols, collect_coverage=True)
    assert_identical(ref, res)
    assert ref.coverage.features() == res.coverage.features()
    return program


# ---------------------------------------------------------------------- #
# Builders
# ---------------------------------------------------------------------- #
def chain_program(stages=4):
    """A fusable elementwise chain (the emitter's scalarized-handoff path)."""
    sdfg = SDFG("chain")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_array("Out", ["N"], float64)
    for k in range(1, stages):
        sdfg.add_array(f"t{k}", ["N"], float64, transient=True)
    state = sdfg.add_state("s", is_start_state=True)
    names = ["A"] + [f"t{k}" for k in range(1, stages)] + ["Out"]
    for k in range(stages):
        state.add_mapped_tasklet(
            f"f{k}", {"i": "0:N-1"},
            {"x": Memlet.simple(names[k], "i")},
            f"y = {k + 1}.5 * x + {k}.25",
            {"y": Memlet.simple(names[k + 1], "i")},
        )
    return sdfg


def wcr_tail_program(wcr):
    """An elementwise stage feeding a WCR accumulation: the tail must
    reduce in iteration order for bitwise parity."""
    sdfg = SDFG(f"wcr_{wcr}")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_array("Out", [1], float64)
    state = sdfg.add_state("s", is_start_state=True)
    state.add_mapped_tasklet(
        "acc", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
        "y = x * 0.5", {"y": Memlet.simple("Out", "0", wcr=wcr)},
    )
    return sdfg


def strided_program():
    """Reads ``A[2*i + 1]`` -- a strided affine gather."""
    sdfg = SDFG("strided")
    sdfg.add_array("A", ["2*N + 1"], float64)
    sdfg.add_array("Out", ["N"], float64)
    state = sdfg.add_state("s", is_start_state=True)
    state.add_mapped_tasklet(
        "g", {"i": "0:N-1"}, {"x": Memlet.simple("A", "2*i + 1")},
        "y = x + 1.0", {"y": Memlet.simple("Out", "i")},
    )
    return sdfg


def permuted_program():
    """Reads ``A[j, i]`` under an ``i, j`` map (transposed strides)."""
    sdfg = SDFG("permuted")
    sdfg.add_array("A", ["M", "N"], float64)
    sdfg.add_array("Out", ["N", "M"], float64)
    state = sdfg.add_state("s", is_start_state=True)
    state.add_mapped_tasklet(
        "t", {"i": "0:N-1", "j": "0:M-1"},
        {"x": Memlet.simple("A", ("j", "i"))},
        "y = x + 1.0", {"y": Memlet.simple("Out", ("i", "j"))},
    )
    return sdfg


def crash_program(expr):
    sdfg = SDFG("crash")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_array("Out", ["N"], float64)
    state = sdfg.add_state("s", is_start_state=True)
    state.add_mapped_tasklet(
        "f", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
        f"y = {expr}", {"y": Memlet.simple("Out", "i")},
    )
    return sdfg


def loop_nest_program():
    sdfg = SDFG("nest")
    sdfg.add_array("A", ["N"], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("body")
    body.add_mapped_tasklet(
        "bump", {"i": "1:N-2"}, {"x": Memlet.simple("A", "i")},
        "y = 0.5 * x + 0.25", {"y": Memlet.simple("A", "i")},
    )
    sdfg.add_loop(init, body, None, "t", "0", "t < T", "t + 1")
    return sdfg


# ---------------------------------------------------------------------- #
# Bitwise parity with the interpreter
# ---------------------------------------------------------------------- #
class TestNativeParity:
    def test_fused_chain_fires_natively(self):
        program = native_vs_interpreter(chain_program(), {"N": 33})
        if HAVE_CC:
            assert program.stats["native"] >= 1
            assert program.executor.kernels.build["kernels"] >= 1

    def test_loop_nest_reuses_geometry_across_iterations(self):
        program = native_vs_interpreter(loop_nest_program(), {"N": 17, "T": 6})
        if HAVE_CC:
            # One native execution per loop iteration, one geometry setup.
            assert program.stats["native"] == 6

    @pytest.mark.parametrize("wcr", ["sum", "prod", "max", "min"])
    def test_wcr_tail_bitwise(self, wcr):
        native_vs_interpreter(wcr_tail_program(wcr), {"N": 23}, seed=5)

    @pytest.mark.parametrize("wcr", ["max", "min"])
    def test_wcr_signed_zero_ties(self, wcr):
        """``np.maximum``/``minimum`` keep the *second* operand on ties, so
        ``-0.0`` vs ``+0.0`` sequences are order-observable bit patterns."""
        sdfg = wcr_tail_program(wcr)
        symbols = {"N": 4}
        interp = get_backend("interpreter").prepare(sdfg)
        program = native_backend().prepare(sdfg)
        for pattern in ([-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0]):
            args = {"A": np.asarray(pattern), "Out": np.zeros(1)}
            ref = interp.run(dict(args), symbols)
            res = program.run(dict(args), symbols)
            assert ref.outputs["Out"].tobytes() == res.outputs["Out"].tobytes()

    def test_wcr_nan_propagation(self):
        sdfg = wcr_tail_program("max")
        symbols = {"N": 5}
        args = {"A": np.asarray([1.0, np.nan, 3.0, -2.0, 0.5]), "Out": np.zeros(1)}
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        res = native_backend().prepare(sdfg).run(dict(args), symbols)
        assert ref.outputs["Out"].tobytes() == res.outputs["Out"].tobytes()

    def test_strided_subset(self):
        program = native_vs_interpreter(strided_program(), {"N": 12})
        if HAVE_CC:
            assert program.stats["native"] >= 1

    def test_permuted_subset(self):
        native_vs_interpreter(permuted_program(), {"N": 6, "M": 9})

    def test_noncontiguous_input_views(self):
        """Strided argument *arrays* (as opposed to strided subsets) use the
        element-stride geometry rather than assuming C order."""
        sdfg = chain_program(stages=2)
        symbols = {"N": 10}
        base = np.random.default_rng(7).standard_normal(20)
        args = {"A": base[::2], "Out": np.zeros(10)}
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        res = native_backend().prepare(sdfg).run(dict(args), symbols)
        assert_identical(ref, res)


# ---------------------------------------------------------------------- #
# Crash taxonomy
# ---------------------------------------------------------------------- #
class TestCrashTaxonomy:
    def crash_case(self, expr, values):
        sdfg = crash_program(expr)
        symbols = {"N": len(values)}
        args = {"A": np.asarray(values, dtype=np.float64),
                "Out": np.zeros(len(values))}
        interp = get_backend("interpreter").prepare(sdfg)
        program = native_backend().prepare(sdfg)
        with pytest.raises(TaskletExecutionError) as ref:
            interp.run(dict(args), symbols)
        with pytest.raises(TaskletExecutionError) as got:
            program.run(dict(args), symbols)
        assert str(got.value) == str(ref.value)
        return program

    def test_sqrt_domain_error(self):
        """The in-kernel guard reproduces CPython's exact ValueError."""
        program = self.crash_case("math.sqrt(x)", [1.0, 4.0, -1.0, 9.0])
        if HAVE_CC:
            assert program.executor.kernels.build["kernels"] >= 1

    def test_exp_range_error(self):
        self.crash_case("math.exp(x)", [1.0, 1000.0])

    def test_log_domain_error(self):
        self.crash_case("math.log(x)", [1.0, 0.0])

    def test_crashing_trial_in_batch(self):
        sdfg = crash_program("math.sqrt(x)")
        symbols = {"N": 5}
        args_list = [make_arguments(sdfg, symbols, seed=s) for s in range(4)]
        for args in args_list:
            args["A"] = np.abs(args["A"]) + 0.5
        args_list[1]["A"][2] = -2.0
        interp = get_backend("interpreter").prepare(sdfg)
        ref = []
        for args in args_list:
            try:
                ref.append(interp.run(dict(args), symbols))
            except ExecutionError as exc:
                ref.append(exc)
        got = native_backend().prepare(sdfg).run_batch(
            [dict(a) for a in args_list], symbols
        )
        for k, (r, g) in enumerate(zip(ref, got)):
            if isinstance(r, ExecutionError):
                assert type(g) is type(r) and str(g) == str(r), f"trial {k}"
            else:
                assert_identical(r, g)


# ---------------------------------------------------------------------- #
# Toolchain fallback
# ---------------------------------------------------------------------- #
class TestToolchainFallback:
    def test_missing_compiler_degrades_bitwise(self, tmp_path, monkeypatch):
        """``REPRO_NATIVE_CC`` pointing at a nonexistent path force-disables
        the tier; outcomes stay bitwise identical on the Python path."""
        monkeypatch.setenv(CC_ENV, str(tmp_path / "missing-cc"))
        assert detect_toolchain() is None
        program = native_vs_interpreter(
            chain_program(), {"N": 21}, backend=native_backend()
        )
        assert program.stats["native"] == 0
        assert program.executor.kernels.build["error"] == "no-toolchain"
        assert program.executor.kernels.build["kernels"] >= 1  # emitted, unbuilt

    def test_missing_compiler_crash_taxonomy_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CC_ENV, str(tmp_path / "missing-cc"))
        sdfg = crash_program("math.sqrt(x)")
        symbols = {"N": 3}
        args = {"A": np.asarray([1.0, -4.0, 9.0]), "Out": np.zeros(3)}
        with pytest.raises(TaskletExecutionError) as ref:
            get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        with pytest.raises(TaskletExecutionError) as got:
            native_backend().prepare(sdfg).run(dict(args), symbols)
        assert str(got.value) == str(ref.value)

    @needs_cc
    def test_explicit_compiler_override_is_honored(self, monkeypatch):
        real = detect_toolchain()
        monkeypatch.setenv(CC_ENV, real.cc)
        forced = detect_toolchain()
        assert forced is not None and forced.cc == real.cc
        program = native_backend().prepare(chain_program())
        assert program.executor.kernels.build["fingerprint"]["cc"] == real.cc


# ---------------------------------------------------------------------- #
# Cross-check pair
# ---------------------------------------------------------------------- #
class TestCrossNativeInterpreter:
    def test_pair_resolves(self):
        backend = get_backend("cross:native,interpreter")
        assert isinstance(backend, CrossBackend)
        assert backend.reference_name == "native"
        assert backend.candidate_name == "interpreter"

    @pytest.mark.parametrize("kernel", ["gemm", "jacobi_2d", "softmax_rows"])
    def test_pair_agrees_on_npbench(self, kernel):
        spec = get_workload("npbench", kernel)
        sdfg = spec.build()
        symbols = dict(spec.symbols)
        args = make_arguments(sdfg, symbols)
        program = get_backend("cross:native,interpreter").prepare(sdfg)
        program.run(dict(args), symbols, collect_coverage=True)
        assert program.checked_runs == 1

    def test_native_divergence_surfaces(self):
        """A native-side output perturbation must abort loudly as a
        BackendDivergenceError, never as a fuzzing verdict."""
        sdfg = chain_program()
        symbols = {"N": 9}
        args = make_arguments(sdfg, symbols)
        native = native_backend().prepare(sdfg)

        class PerturbedNative(CompiledProgram):
            def run(self, arguments=None, symbols=None, collect_coverage=False):
                result = native.run(arguments, symbols,
                                    collect_coverage=collect_coverage)
                result.outputs["Out"] = result.outputs["Out"] + 1e-12
                return result

        interp = get_backend("interpreter").prepare(sdfg)
        program = CrossProgram(
            sdfg, interp, PerturbedNative(sdfg),
            reference_name="interpreter", candidate_name="native",
        )
        with pytest.raises(BackendDivergenceError) as exc_info:
            program.run(dict(args), symbols)
        assert "Out" in str(exc_info.value)
        assert "native" in str(exc_info.value)


# ---------------------------------------------------------------------- #
# Emitter rejection reasons
# ---------------------------------------------------------------------- #
class TestEmitterRejections:
    def build_reasons(self, sdfg):
        program = native_backend().prepare(sdfg)
        return program.executor.kernels.build["rejected"]

    def test_unsupported_call_is_rejected_not_failed(self):
        # math.gamma has no C guard mapping: the scope must *run* (Python
        # path), with the rejection recorded for diagnostics.
        sdfg = crash_program("math.gamma(x)")
        symbols = {"N": 5}
        args = {"A": np.abs(make_arguments(sdfg, symbols)["A"]) + 0.5,
                "Out": np.zeros(5)}
        program = native_backend().prepare(sdfg)
        reasons = program.executor.kernels.build["rejected"]
        assert any(r.startswith("native-") for r in reasons.values())
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        res = program.run(dict(args), symbols)
        assert_identical(ref, res)
        assert program.stats["native"] == 0

    def test_rejections_name_the_scope(self):
        reasons = self.build_reasons(crash_program("math.gamma(x)"))
        assert reasons  # keyed by scope label
        for label, reason in reasons.items():
            assert isinstance(label, str) and reason.startswith("native-")


# ---------------------------------------------------------------------- #
# Artifact roundtrip (the native disk-cache tier)
# ---------------------------------------------------------------------- #
@needs_cc
class TestNativeArtifacts:
    def test_artifact_embeds_source_and_object(self, tmp_path):
        blob = sdfg_to_json(chain_program())
        writer = native_backend(cache_dir=str(tmp_path))
        p1 = writer.prepare(sdfg_from_json(blob))
        assert p1.executor.kernels.build["cache"] == "compiled"
        (path,) = glob.glob(str(tmp_path / "*-native.json"))
        doc = json.load(open(path))
        assert doc["toolchain"] == detect_toolchain().fingerprint()
        assert "int64_t" in doc["native"]["c_source"]
        assert base64.b64decode(doc["native"]["so"])

    def test_sibling_reuses_shared_object(self, tmp_path):
        blob = sdfg_to_json(chain_program())
        native_backend(cache_dir=str(tmp_path)).prepare(sdfg_from_json(blob))
        reader = native_backend(cache_dir=str(tmp_path))
        p2 = reader.prepare(sdfg_from_json(blob))
        assert reader.disk_hits == 1
        assert p2.executor.kernels.build["cache"] == "artifact"
        # ... and the reloaded object executes bitwise-identically.
        sdfg = sdfg_from_json(blob)
        symbols = {"N": 19}
        args = make_arguments(sdfg, symbols)
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        res = p2.run(dict(args), symbols)
        assert_identical(ref, res)
        assert p2.stats["native"] >= 1

    def test_stale_toolchain_recompiles(self, tmp_path):
        blob = sdfg_to_json(chain_program())
        native_backend(cache_dir=str(tmp_path)).prepare(sdfg_from_json(blob))
        (path,) = glob.glob(str(tmp_path / "*-native.json"))
        doc = json.load(open(path))
        doc["toolchain"]["version"] = "stale-0.0"
        json.dump(doc, open(path, "w"))
        backend = native_backend(cache_dir=str(tmp_path))
        program = backend.prepare(sdfg_from_json(blob))
        assert backend.disk_hits == 0
        assert program.executor.kernels.build["cache"] == "compiled"
        assert json.load(open(path))["toolchain"] == (
            detect_toolchain().fingerprint()
        )

    def test_variant_keeps_native_entries_apart(self, tmp_path):
        """Native artifacts must not shadow the compiled backend's entries
        for the same content hash (they embed a shared object the pure
        Python backends cannot use)."""
        blob = sdfg_to_json(chain_program())
        CompiledBackend(cache_dir=str(tmp_path)).prepare(sdfg_from_json(blob))
        native_backend(cache_dir=str(tmp_path)).prepare(sdfg_from_json(blob))
        plain = [p for p in glob.glob(str(tmp_path / "*.json"))
                 if not p.endswith("-native.json")]
        native = glob.glob(str(tmp_path / "*-native.json"))
        assert len(plain) == 1 and len(native) == 1
        compiled = CompiledBackend(cache_dir=str(tmp_path))
        compiled.prepare(sdfg_from_json(blob))
        assert compiled.disk_hits == 1  # untouched by the native sibling


# ---------------------------------------------------------------------- #
# Registry and program surface
# ---------------------------------------------------------------------- #
class TestRegistry:
    def test_native_is_registered(self):
        from repro.backends import list_backends

        assert "native" in list_backends()
        program = get_backend("native").prepare(chain_program())
        assert isinstance(program.executor.kernels, KernelTier)

    def test_trial_batch_native_parity(self):
        """The fuzzer's --trial-batch path through the native backend must
        reproduce serial verdicts exactly (the batch-outer C loop)."""
        sdfg = chain_program()
        symbols = {"N": 14}
        args_list = [make_arguments(sdfg, symbols, seed=s) for s in range(6)]
        interp = get_backend("interpreter").prepare(sdfg)
        ref = [interp.run(dict(a), symbols) for a in args_list]
        program = native_backend().prepare(sdfg)
        got = program.executor.run_batched(
            [dict(a) for a in args_list], symbols
        )
        for r, g in zip(ref, got):
            assert_identical(r, g)
