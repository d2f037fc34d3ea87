"""Tests for the pluggable execution backends (repro.backends).

Name resolution, what ``prepare`` returns, and backend equivalence on hand-built programs: the
interpreter and the compiled backend must produce *bitwise identical*
:class:`ExecutionResult`s -- outputs, final symbols and transition counts
-- and must agree on memory-violation detection.  Constructs
the scope analyzer cannot express (data-dependent subsets, order-dependent
writes, non-element-wise tasklet code) must fall back to the interpreter
scope by scope without changing any result.  (The kernel-suite
matrix lives in ``test_tier_parity.py``.)
"""

import dataclasses
import inspect
import types

import numpy as np
import pytest
from support import apply_to_first

import repro.backends as backends_module
from repro.backends import (
    BACKEND_NAMES,
    Backend,
    BackendDivergenceError,
    CompiledExecutor,
    CrossProgram,
    get_backend,
    sdfg_content_hash,
)
from repro.core.fuzzing import DifferentialFuzzer
from repro.core.sampling import InputSampler
from repro.core.verifier import FuzzyFlowVerifier
from repro.interpreter.errors import MemoryViolation
from repro.interpreter.executor import ExecutionResult, SDFGExecutor
from repro.sdfg import SDFG, Memlet, float64, int32
from repro.transforms import all_builtin_transformations
from repro.workloads import (
    build_workload,
    get_workload,
    get_workload_suite,
    list_workload_suites,
)


def make_arguments(sdfg, symbols, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(desc.concrete_shape(symbols))
        for name, desc in sdfg.arrays.items()
        if not desc.transient
    }


def run_both(sdfg, args, symbols):
    ref = get_backend("interpreter").prepare(sdfg)
    cand = get_backend("compiled").prepare(sdfg)
    r1 = ref.run(dict(args), symbols)
    r2 = cand.run(dict(args), symbols)
    return r1, r2, cand


def assert_bitwise_equal(r1, r2):
    assert set(r1.outputs) == set(r2.outputs)
    for name in r1.outputs:
        a, b = r1.outputs[name], r2.outputs[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), (
            f"container '{name}' differs bitwise"
        )
    assert r1.symbols == r2.symbols
    assert r1.transitions == r2.transitions


class TestRegistry:
    def test_registered_names_are_exactly_the_canonical_three(self):
        assert BACKEND_NAMES == ("compiled", "cross", "interpreter")
        for name in BACKEND_NAMES:
            assert get_backend(name).name == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError):
            get_backend("no_such_backend")

    def test_package_exports_one_way_to_run(self):
        """Names, the record they resolve to, the two executors that are
        not the interpreter's, and the divergence report: a re-added facade
        (a backend ABC, a program wrapper, a registry) must get past this."""
        assert sorted(backends_module.__all__) == sorted([
            "BACKEND_NAMES", "DEFAULT_BACKEND", "Backend", "get_backend",
            "CompiledExecutor", "CrossProgram",
            "BackendDivergenceError", "sdfg_content_hash",
        ])

    @pytest.mark.parametrize(
        "name",
        [
            "vectorized",
            "batched",
            "native",
            "cross:batched,interpreter",
            "cross:native,interpreter",
        ],
    )
    def test_former_tier_names_are_unknown_backends(self, name):
        with pytest.raises(KeyError) as exc_info:
            get_backend(name)
        message = exc_info.value.args[0]
        assert "Unknown execution backend" in message
        assert "compiled, cross, interpreter" in message
        assert "native" not in message.split("(")[-1]

    @pytest.mark.parametrize("name", ["compiled", "interpreter"])
    def test_a_pair_of_one_backend_with_itself_is_rejected(self, name):
        """Both sides would be handed the same program object by the shared
        per-thread cache, and the check would pass by construction."""
        with pytest.raises(KeyError, match=f"'{name}' against itself"):
            get_backend(f"cross:{name},{name}")

    def test_bare_cross_checks_the_interpreter_against_compiled(self):
        backend = get_backend("cross")
        assert backend.pair == ("interpreter", "compiled")
        sdfg = get_workload("npbench", "jacobi_1d").build()
        program = backend.prepare(sdfg)
        assert program.reference is not program.candidate
        assert (program.reference_name, program.candidate_name) == (
            "interpreter", "compiled"
        )


class TestTrialApi:
    """One way to run a trial: ``run(arguments, symbols)``, one result
    shape.  A second way (a flag, a side channel in the result) would have
    to get past these first."""

    @pytest.mark.parametrize(
        "name", ["interpreter", "compiled", "cross", "cross:compiled,interpreter"]
    )
    def test_run_takes_arguments_and_symbols_only(self, name):
        sdfg = get_workload("npbench", "jacobi_1d").build()
        program = get_backend(name).prepare(sdfg)
        programs = [program]
        if isinstance(program, CrossProgram):
            programs += [program.reference, program.candidate]
        for each in programs:
            assert list(inspect.signature(each.run).parameters) == [
                "arguments", "symbols"
            ], type(each).__name__

    @pytest.mark.parametrize(
        "name, want",
        [
            ("interpreter", SDFGExecutor),
            ("compiled", CompiledExecutor),
            ("cross:compiled,interpreter", CrossProgram),
        ],
    )
    def test_prepare_returns_the_executor(self, name, want):
        """``prepare`` hands back the executor itself, with no adapter
        around it; a cross program's sides are executors too."""
        sdfg = get_workload("npbench", "jacobi_1d").build()
        program = get_backend(name).prepare(sdfg)
        assert type(program) is want
        assert isinstance(get_backend(name), Backend)
        if want is CrossProgram:
            assert type(program.reference) is CompiledExecutor
            assert type(program.candidate) is SDFGExecutor
            assert (program.reference_name, program.candidate_name) == (
                "compiled", "interpreter"
            )

    def test_execution_result_fields(self):
        assert [f.name for f in dataclasses.fields(ExecutionResult)] == [
            "outputs", "symbols", "transitions",
        ]

    @pytest.mark.parametrize(
        "name", ["interpreter", "compiled", "cross:compiled,interpreter"]
    )
    def test_runs_leave_arguments_and_earlier_results_alone(self, name):
        """A program that writes its own input: the run copies the caller's
        array in, and the result it returns is not written by a later run."""
        sdfg = SDFG("bump_in_place")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_state("s", is_start_state=True).add_mapped_tasklet(
            "bump", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("A", "i")},
        )
        program = get_backend(name).prepare(sdfg)
        arguments = {"A": np.arange(4.0)}
        first = program.run(arguments, {"N": 4})
        assert np.array_equal(arguments["A"], np.arange(4.0))
        assert np.array_equal(first.outputs["A"], np.arange(4.0) + 1.0)
        again = program.run(arguments, {"N": 4})
        assert np.array_equal(again.outputs["A"], np.arange(4.0) + 1.0)
        program.run({"A": np.full(4, 10.0)}, {"N": 4})
        assert np.array_equal(first.outputs["A"], np.arange(4.0) + 1.0)
        assert np.array_equal(again.outputs["A"], np.arange(4.0) + 1.0)
        assert np.array_equal(arguments["A"], np.arange(4.0))

    @pytest.mark.parametrize(
        "name", ["interpreter", "compiled", "cross:compiled,interpreter"]
    )
    def test_an_idle_program_pins_no_trial_data(self, name):
        """A prepared program outlives its runs (one per trial): once ``run``
        returns, nothing an executor holds -- through its attributes, the
        interpreter it wraps, its tables and the closures of its op lists
        -- reaches an array of that trial."""
        for suite in list_workload_suites():
            for spec in get_workload_suite(suite):
                sdfg = build_workload(suite, spec.name)
                program = get_backend(name).prepare(sdfg)
                program.run(make_arguments(sdfg, spec.symbols), dict(spec.symbols))
                executors = [program]
                if isinstance(program, CrossProgram):
                    executors = [program.reference, program.candidate]
                for executor in executors:
                    held = arrays_reachable_from(executor)
                    assert not held, (
                        f"{suite}/{spec.name}: {type(executor).__name__} keeps {held}"
                    )


def arrays_reachable_from(executor) -> list:
    """The paths to every ``np.ndarray`` reachable from ``executor``: through
    the attributes of the backends' and the interpreter's objects, dicts,
    lists, tuples and sets, slotted and dataclass objects, the closure cells
    and defaults of functions and the receivers of bound methods.  The
    program itself (``repro.sdfg`` objects) is not trial data."""
    found, seen = [], set()

    def walk(obj, path):
        if id(obj) in seen or obj is None:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(path)
        elif isinstance(obj, dict):
            for key, value in obj.items():
                walk(key, f"{path}.key")
                walk(value, f"{path}[{key!r}]")
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for i, value in enumerate(obj):
                walk(value, f"{path}[{i}]")
        elif isinstance(obj, types.FunctionType):
            for i, cell in enumerate(obj.__closure__ or ()):
                walk(cell.cell_contents, f"{path}.<cell {i}>")
            for i, value in enumerate(obj.__defaults__ or ()):
                walk(value, f"{path}.<default {i}>")
        elif isinstance(obj, types.MethodType):
            walk(obj.__self__, f"{path}.__self__")
        else:
            cls = type(obj)
            slots = [n for c in cls.__mro__ for n in c.__dict__.get("__slots__", ())]
            if cls.__module__.startswith(("repro.backends", "repro.interpreter")) or (
                slots or dataclasses.is_dataclass(obj)
            ):
                for attr in slots:
                    walk(getattr(obj, attr, None), f"{path}.{attr}")
                for attr, value in getattr(obj, "__dict__", {}).items():
                    walk(value, f"{path}.{attr}")

    walk(executor, type(executor).__name__)
    return found


class TestBackendEquivalence:
    def test_affine_scopes_actually_vectorize(self):
        spec = get_workload("npbench", "gemm")
        sdfg = spec.build()
        symbols = dict(spec.symbols)
        args = make_arguments(sdfg, symbols)
        _, _, program = run_both(sdfg, args, symbols)
        assert program.stats["vectorized"] > 0
        assert program.stats["fallback"] == 0

    def test_wcr_casts_through_container_dtype_each_step(self):
        """The interpreter stores the accumulator back into the container
        dtype every iteration; accumulating float contributions into an
        int32 container must truncate per step, not once at the end."""
        sdfg = SDFG("intacc")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("acc", [1], int32)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "accumulate", {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i")}, "o = a",
            {"o": Memlet("acc", "0", wcr="sum")},
        )
        args = {"A": np.full(4, 0.6), "acc": np.zeros(1, dtype=np.int32)}
        r1, r2, program = run_both(sdfg, args, {"N": 4})
        assert program.stats["vectorized"] > 0
        assert_bitwise_equal(r1, r2)
        assert r1.outputs["acc"][0] == 0  # 0 + 0.6 truncates to 0 every step

    def test_division_by_pure_python_operands_falls_back(self):
        """1 / (i - 1) raises ZeroDivisionError on the interpreter's Python
        scalars but would yield inf on index arrays; the planner must fall
        back so both backends crash identically."""
        from repro.interpreter.errors import TaskletExecutionError

        sdfg = SDFG("paramdiv")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "pdiv", {"i": "1:N-1"},
            {"a": Memlet.simple("A", "i")},
            "b = a + 1 / (i - 1)",
            {"b": Memlet.simple("B", "i")},
        )
        args = {"A": np.ones(5), "B": np.zeros(5)}
        for name in ("interpreter", "compiled"):
            with pytest.raises(TaskletExecutionError):
                get_backend(name).prepare(sdfg).run(dict(args), {"N": 5})

    def test_division_by_numpy_operands_still_vectorizes(self):
        """Connector-typed divisions (jacobi's '/ 3.0', softmax's 'e / s')
        follow NumPy semantics on the interpreter's scalars too, so they
        stay vectorized."""
        spec = get_workload("npbench", "jacobi_1d")
        sdfg = spec.build()
        args = make_arguments(sdfg, spec.symbols)
        _, _, program = run_both(sdfg, args, dict(spec.symbols))
        assert program.stats["vectorized"] > 0
        assert program.stats["fallback"] == 0

    def test_memory_violation_parity(self):
        """Both backends flag the same out-of-bounds access (the class of
        bug behind Fig. 2's tiling off-by-one)."""
        sdfg = SDFG("oob")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "shift", {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i + 1")}, "b = a",
            {"b": Memlet.simple("B", "i")},
        )
        args = {"A": np.arange(6.0), "B": np.zeros(6)}
        errors = {}
        for name in ("interpreter", "compiled"):
            program = get_backend(name).prepare(sdfg)
            with pytest.raises(MemoryViolation) as exc_info:
                program.run(dict(args), {"N": 6})
            errors[name] = exc_info.value
        assert errors["interpreter"].data == errors["compiled"].data == "A"

    def test_content_hash_names_clones_and_roundtrips_alike(self):
        """Clones and JSON roundtrips preserve node guids, so a divergence
        report names them alike; independent builds have fresh guids
        (distinct coverage identities) and hash apart."""
        from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json

        spec = get_workload("npbench", "jacobi_1d")
        sdfg = spec.build()
        roundtrip = sdfg_from_json(sdfg_to_json(sdfg))
        assert sdfg_content_hash(sdfg) == sdfg_content_hash(sdfg.clone())
        assert sdfg_content_hash(sdfg) == sdfg_content_hash(roundtrip)
        assert sdfg_content_hash(sdfg) != sdfg_content_hash(spec.build())


class TestFallbackPaths:
    def _assert_fallback_equivalence(self, sdfg, args, symbols):
        r1, r2, program = run_both(sdfg, args, symbols)
        assert_bitwise_equal(r1, r2)
        return program

    def test_data_dependent_subset_falls_back(self):
        sdfg = SDFG("dynmem")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "copy", {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i", dynamic=True)}, "b = a",
            {"b": Memlet.simple("B", "i")},
        )
        program = self._assert_fallback_equivalence(
            sdfg, {"A": np.arange(4.0), "B": np.zeros(4)}, {"N": 4}
        )
        assert program.stats["fallback"] > 0

    def test_order_dependent_write_falls_back(self):
        """All iterations write the same element without a reduction: the
        sequential last-write-wins semantics must be preserved."""
        sdfg = SDFG("lastwrite")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("last", [1], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "collapse", {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i")}, "o = a",
            {"o": Memlet.simple("last", "0")},
        )
        program = self._assert_fallback_equivalence(
            sdfg, {"A": np.array([3.0, 7.0, 5.0]), "last": np.zeros(1)}, {"N": 3}
        )
        assert program.stats["fallback"] > 0
        assert program.stats["vectorized"] == 0

    def test_augmented_assignment_falls_back(self):
        """After 'b = a', 'b += c' would mutate the aliased gathered array in
        place under vectorization; the planner must reject such code."""
        sdfg = SDFG("augalias")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("C", ["N"], float64)
        sdfg.add_array("D", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "aug", {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i"), "c": Memlet.simple("C", "i")},
            "b = a\nb += c\nd = a + b",
            {"d": Memlet.simple("D", "i")},
        )
        program = self._assert_fallback_equivalence(
            sdfg,
            {"A": np.ones(4), "C": np.full(4, 2.0), "D": np.zeros(4)},
            {"N": 4},
        )
        assert program.stats["vectorized"] == 0

    def test_multiple_writes_to_one_container_fall_back(self):
        """Two output edges into the same container interleave per iteration
        in the interpreter; the planner must not vectorize them."""
        sdfg = SDFG("multiwrite")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "two_outs", {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i")},
            "o1 = a * 2.0\no2 = a",
            {"o1": Memlet.simple("B", "i"), "o2": Memlet("B", "i", wcr="sum")},
        )
        program = self._assert_fallback_equivalence(
            sdfg, {"A": np.arange(4.0), "B": np.zeros(4)}, {"N": 4}
        )
        assert program.stats["vectorized"] == 0

    def test_non_elementwise_tasklet_code_falls_back(self):
        sdfg = SDFG("branchy")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "relu", {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i")},
            "b = a if a > 0 else 0.0",
            {"b": Memlet.simple("B", "i")},
        )
        program = self._assert_fallback_equivalence(
            sdfg, {"A": np.array([-1.0, 2.0, -3.0, 4.0]), "B": np.zeros(4)}, {"N": 4}
        )
        assert program.stats["fallback"] > 0
        assert program.stats["vectorized"] == 0


class TestShiftedWriteIndices:
    """Affine-but-not-bare write indices (`i+1`, `i-1`) lower to slice
    offsets instead of falling back; explicit interpreter-parity tests so
    the old silent fallback can never regress to wrong results."""

    def _shifted_stencil(self, offset_expr):
        sdfg = SDFG(f"shifted_{offset_expr.replace(' ', '')}")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "shift", {"i": "1:N-3"},
            {"a": Memlet.simple("A", "i")}, "b = a * 2.0",
            {"b": Memlet.simple("B", offset_expr)},
        )
        return sdfg

    @pytest.mark.parametrize("offset_expr", ["i + 1", "i - 1", "i + 2"])
    def test_shifted_writes_vectorize_and_match(self, offset_expr):
        sdfg = self._shifted_stencil(offset_expr)
        args = {"A": np.arange(8.0), "B": np.zeros(8)}
        r1, r2, program = run_both(sdfg, args, {"N": 8})
        assert_bitwise_equal(r1, r2)
        assert program.stats["vectorized"] > 0
        assert program.stats["fallback"] == 0

    def test_shifted_wcr_writes_vectorize_and_match(self):
        sdfg = SDFG("shifted_wcr")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "acc", {"i": "0:N-3"},
            {"a": Memlet.simple("A", "i")}, "b = a",
            {"b": Memlet("B", "i + 1", wcr="sum")},
        )
        args = {"A": np.arange(6.0), "B": np.full(6, 0.5)}
        r1, r2, program = run_both(sdfg, args, {"N": 6})
        assert_bitwise_equal(r1, r2)
        assert program.stats["vectorized"] > 0

    def test_shifted_2d_mixed_dims_vectorize_and_match(self):
        sdfg = SDFG("shifted_2d")
        sdfg.add_array("A", ["N", "N"], float64)
        sdfg.add_array("B", ["N", "N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "shift2d", {"i": "1:N-2", "j": "0:N-3"},
            {"a": Memlet.simple("A", "i, j")}, "b = a + 1.0",
            {"b": Memlet.simple("B", "i - 1, j + 2")},
        )
        rng = np.random.default_rng(3)
        args = {"A": rng.standard_normal((6, 6)), "B": np.zeros((6, 6))}
        r1, r2, program = run_both(sdfg, args, {"N": 6})
        assert_bitwise_equal(r1, r2)
        assert program.stats["vectorized"] > 0
        assert program.stats["fallback"] == 0

    def test_shifted_write_out_of_bounds_detected_by_both(self):
        # B is fixed-size 5; with N=8 the map writes index i+1 up to 6.
        sdfg = SDFG("shifted_oob")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", [5], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "shift", {"i": "1:N-3"},
            {"a": Memlet.simple("A", "i")}, "b = a * 2.0",
            {"b": Memlet.simple("B", "i + 1")},
        )
        args = {"A": np.arange(8.0), "B": np.zeros(5)}
        errors = {}
        for name in ("interpreter", "compiled"):
            with pytest.raises(MemoryViolation) as exc_info:
                get_backend(name).prepare(sdfg).run(dict(args), {"N": 8})
            errors[name] = exc_info.value
        assert errors["interpreter"].data == errors["compiled"].data == "B"

    @pytest.mark.parametrize("index_expr", ["i % 4", "Min(i, 3)", "i // 2 + i % 2"])
    def test_piecewise_indices_that_look_affine_on_probes_fall_back(self, index_expr):
        """`i % 4` agrees with `i + 0` on small probe points but wraps for
        larger iterations; affinity must be established structurally, not by
        probing, or vectorized writes silently corrupt."""
        sdfg = SDFG("wrapwrite")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "wrap", {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i")}, "b = a",
            {"b": Memlet.simple("B", index_expr)},
        )
        args = {"A": np.arange(8.0), "B": np.zeros(8)}
        r1, r2, program = run_both(sdfg, args, {"N": 8})
        assert_bitwise_equal(r1, r2)
        assert program.stats["vectorized"] == 0

    def test_non_unit_slope_still_falls_back(self):
        """`2*i` is injective but not unit-slope; the planner must keep the
        conservative fallback rather than guess."""
        sdfg = SDFG("strided_write")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "stride", {"i": "0:N // 2 - 1"},
            {"a": Memlet.simple("A", "i")}, "b = a",
            {"b": Memlet.simple("B", "2 * i")},
        )
        args = {"A": np.arange(8.0), "B": np.zeros(8)}
        r1, r2, program = run_both(sdfg, args, {"N": 8})
        assert_bitwise_equal(r1, r2)
        assert program.stats["fallback"] > 0

    def test_read_write_shift_overlap_still_falls_back(self):
        """Reading A[i] while writing A[i+1] is order-dependent; the shifted
        lowering must not be applied to same-container overlaps."""
        sdfg = SDFG("overlap_shift")
        sdfg.add_array("A", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "prop", {"i": "0:N-3"},
            {"a": Memlet.simple("A", "i")}, "o = a",
            {"o": Memlet.simple("A", "i + 1")},
        )
        args = {"A": np.arange(6.0)}
        r1, r2, program = run_both(sdfg, args, {"N": 6})
        assert_bitwise_equal(r1, r2)
        assert program.stats["vectorized"] == 0

    def test_jacobi_style_shifted_kernel_parity(self):
        """End-to-end parity on a jacobi-like shifted stencil."""
        sdfg = self._shifted_stencil("i + 1")
        args = {"A": np.arange(9.0), "B": np.zeros(9)}
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), {"N": 9})
        cand = get_backend("compiled").prepare(sdfg).run(dict(args), {"N": 9})
        assert_bitwise_equal(ref, cand)


class TestCrossProgram:
    def test_agreeing_backends_pass_through(self):
        spec = get_workload("npbench", "gemm")
        sdfg = spec.build()
        symbols = dict(spec.symbols)
        args = make_arguments(sdfg, symbols)
        program = get_backend("cross").prepare(sdfg)
        result = program.run(dict(args), symbols)
        reference = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        assert_bitwise_equal(result, reference)
        assert program.checked_runs == 1

    def test_divergence_raises(self):
        spec = get_workload("npbench", "jacobi_1d")
        sdfg = spec.build()
        symbols = dict(spec.symbols)
        args = make_arguments(sdfg, symbols)
        reference = get_backend("interpreter").prepare(sdfg)

        class BrokenProgram:
            def run(self, arguments=None, symbols=None):
                result = reference.run(arguments, symbols)
                result.outputs["B"] = result.outputs["B"] + 1e-12
                return result

        program = CrossProgram(
            sdfg, reference, BrokenProgram(), "interpreter", "compiled"
        )
        with pytest.raises(BackendDivergenceError) as exc_info:
            program.run(dict(args), symbols)
        assert "B" in str(exc_info.value)

    def test_one_sided_crash_is_divergence(self):
        spec = get_workload("npbench", "jacobi_1d")
        sdfg = spec.build()
        symbols = dict(spec.symbols)
        args = make_arguments(sdfg, symbols)
        reference = get_backend("interpreter").prepare(sdfg)

        class CrashingProgram:
            def run(self, arguments=None, symbols=None):
                raise MemoryViolation("B", "0", (1,))

        program = CrossProgram(
            sdfg, reference, CrashingProgram(), "interpreter", "compiled"
        )
        with pytest.raises(BackendDivergenceError):
            program.run(dict(args), symbols)

    def test_differing_crash_types_are_not_divergence(self):
        """The compiled backend checks a scope's bounds before running any
        tasklet, so it may report MemoryViolation where the interpreter hits
        a TaskletExecutionError first; both are crashes, not a divergence."""
        from repro.interpreter.errors import ExecutionError, TaskletExecutionError

        sdfg = SDFG("mixed_crash")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "sqrt_shift", {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i + 1")},  # out of bounds at i = N-1
            "b = math.sqrt(a)",                  # fails at i = 0 (negative)
            {"b": Memlet.simple("B", "i")},
        )
        args = {"A": np.full(4, -1.0), "B": np.zeros(4)}
        program = get_backend("cross").prepare(sdfg)
        with pytest.raises(TaskletExecutionError):  # the reference's error
            program.run(dict(args), {"N": 4})
        # Sanity: the candidate alone reports the other crash class.
        with pytest.raises(ExecutionError):
            get_backend("compiled").prepare(sdfg).run(dict(args), {"N": 4})

    def test_agreeing_crashes_propagate_reference_error(self):
        sdfg = SDFG("oob")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "shift", {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i + 2")}, "b = a",
            {"b": Memlet.simple("B", "i")},
        )
        program = get_backend("cross").prepare(sdfg)
        with pytest.raises(MemoryViolation):
            program.run({"A": np.zeros(4), "B": np.zeros(4)}, {"N": 4})


class TestBackendsInTheWorkflow:
    """Backend selection threaded through fuzzing -> verifier."""

    def _verify(self, backend, buggy=True):
        spec = get_workload("npbench", "gemm")
        xform = all_builtin_transformations()["Vectorization"](inject_bug=buggy)
        verifier = FuzzyFlowVerifier(
            num_trials=3, seed=0, size_max=8, minimize_inputs=False, backend=backend
        )
        return verifier.verify(spec.build(), xform, symbol_values=spec.symbols)

    @pytest.mark.parametrize("backend", ["compiled", "cross"])
    def test_verifier_verdict_matches_interpreter(self, backend):
        reference = self._verify("interpreter")
        candidate = self._verify(backend)
        assert candidate.verdict == reference.verdict
        assert candidate.fuzzing.trials_run == reference.fuzzing.trials_run
        assert [t.status for t in candidate.fuzzing.trials] == [
            t.status for t in reference.fuzzing.trials
        ]

    def test_fuzzer_backend_equivalence(self):
        """A whole fuzzing campaign is trial-by-trial identical across
        backends (statuses and max-abs-errors)."""
        spec = get_workload("npbench", "axpy_pipeline")
        sdfg = spec.build()
        xform = all_builtin_transformations()["Vectorization"](inject_bug=True)
        match = next(iter(xform.find_matches(sdfg)))
        transformed = sdfg.clone(new_name="t")
        from repro.core.cutout import transfer_match

        xform.apply(transformed, transfer_match(xform, match, transformed))
        non_transient = [n for n, d in sdfg.arrays.items() if not d.transient]
        reports = {}
        for backend in ("interpreter", "compiled"):
            sampler = InputSampler(
                sdfg, non_transient, non_transient, seed=7, vary_sizes=False
            )
            fuzzer = DifferentialFuzzer(
                sdfg, transformed, non_transient, sampler, backend=backend
            )
            reports[backend] = fuzzer.run(num_trials=4)
        a, b = reports["interpreter"], reports["compiled"]
        assert [t.status for t in a.trials] == [t.status for t in b.trials]
        assert [t.max_abs_error for t in a.trials] == [t.max_abs_error for t in b.trials]


def scale_fuzzer(backend, inject_bug=True, seed=0):
    """Fuzzes ``Y = factor * X`` against its vectorized twin, drawing a fresh
    ``N`` per trial: the buggy twin fails only where ``N`` is no multiple of
    the vector width."""
    from repro.core import derive_constraints
    from support import add_scale
    from repro.transforms import Vectorization

    original = SDFG("scale")
    original.add_array("X", ["N"], float64)
    original.add_array("Y", ["N"], float64)
    original.add_scalar("factor", float64)
    state = original.add_state("s")
    add_scale(original, state, "X", "Y", "factor")
    transformed = original.clone()
    apply_to_first(Vectorization(vector_size=4, inject_bug=inject_bug), transformed)
    constraints = derive_constraints(original, symbol_values={"N": 8}, size_max=16)
    sampler = InputSampler(original, ["X", "factor"], ["Y"], constraints, seed=seed)
    return DifferentialFuzzer(original, transformed, ["Y"], sampler, backend=backend)


@pytest.mark.parametrize("backend", ["compiled", "cross:compiled,interpreter"])
class TestVerdictsMatchTheInterpreter:
    """A report -- per-trial sizes, statuses and errors, the first failure
    and its inputs -- must not depend on the backend that ran it."""

    def compare_reports(self, want, got):
        assert [t.status for t in want.trials] == [t.status for t in got.trials]
        assert [t.symbols for t in want.trials] == [t.symbols for t in got.trials]
        assert [t.mismatched_containers for t in want.trials] == [
            t.mismatched_containers for t in got.trials
        ]
        assert [t.max_abs_error for t in want.trials] == [t.max_abs_error for t in got.trials]
        assert want.failures == got.failures
        assert want.first_failure_trial == got.first_failure_trial
        assert want.trials_effective == got.trials_effective
        assert want.failing_symbols == got.failing_symbols
        if want.failing_inputs is None:
            assert got.failing_inputs is None
        else:
            assert set(want.failing_inputs) == set(got.failing_inputs)
            for name in want.failing_inputs:
                assert np.array_equal(want.failing_inputs[name], got.failing_inputs[name])

    @pytest.mark.parametrize("inject_bug", [False, True])
    def test_fuzzing_report(self, backend, inject_bug):
        want = scale_fuzzer("interpreter", inject_bug).run(num_trials=12)
        got = scale_fuzzer(backend, inject_bug).run(num_trials=12)
        assert (want.failures > 0) == inject_bug
        self.compare_reports(want, got)

    def test_stop_on_failure(self, backend):
        want = scale_fuzzer("interpreter").run(num_trials=30, stop_on_failure=True)
        got = scale_fuzzer(backend).run(num_trials=30, stop_on_failure=True)
        assert want.failures >= 1
        self.compare_reports(want, got)

    def test_buggy_table_verdicts(self, backend):
        """Table 2 in miniature: one instance per workload and
        transformation (the full table runs in ``make smoke``)."""
        from repro.pipeline import enumerate_sweep_tasks, execute_task

        def sweep(backend):
            tasks = enumerate_sweep_tasks(
                suite="npbench", buggy=True, max_instances=1,
                verifier_kwargs=dict(
                    num_trials=4, seed=0, size_max=8, minimize_inputs=False,
                    backend=backend,
                ),
            )
            return {t.task_id: execute_task(t) for t in tasks}

        want, got = sweep("interpreter"), sweep(backend)
        assert set(want) == set(got)
        assert {"pass", "semantic_change"} <= {o["verdict"] for o in want.values()}
        for task_id, outcome in want.items():
            other = got[task_id]
            assert other["verdict"] == outcome["verdict"], outcome["workload"]
            a, b = outcome["report"], other["report"]
            if a is None or b is None:
                assert a == b
                continue
            fa, fb = a.get("fuzzing"), b.get("fuzzing")
            if fa is None or fb is None:
                assert fa == fb
                continue
            for field in ("trials_run", "trials_effective", "failures", "first_failure_trial"):
                assert fa[field] == fb[field], (outcome["workload"], field)
