"""Tests for batch-axis execution and the permuted-gather fast path.

``run_batch`` on a compiled program stacks ``K`` fuzzing trials along a
leading batch axis and executes each batchable scope once per batch;
WCR/order-dependent
scopes run per trial inside the batched run, non-batchable programs and
failed batch attempts rerun serially.  The contract under test everywhere:
per-trial outcomes (outputs, symbols, transitions, *and errors*) are
bitwise identical to ``K`` serial compiled runs -- and those in turn to the
interpreter -- so differential verdicts cannot depend on the batch size.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.codegen.numpy_eager import scope_is_batchable
from repro.backends.compiled import CompiledWholeProgram
from repro.backends.execute import ScopeRuntime
from repro.core import DifferentialFuzzer, InputSampler, derive_constraints
from repro.interpreter.errors import ExecutionError
from repro.sdfg import SDFG, Memlet, float64
from repro.transforms import Vectorization


def make_arguments(sdfg, symbols, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(desc.concrete_shape(symbols))
        for name, desc in sdfg.arrays.items()
        if not desc.transient
    }


def trial_arguments(sdfg, symbols, batch, seed=0):
    return [make_arguments(sdfg, symbols, seed=seed + k) for k in range(batch)]


def assert_outcomes_identical(ref, got):
    """Per-trial outcome lists (results or errors) must agree exactly."""
    assert len(ref) == len(got)
    for k, (a, b) in enumerate(zip(ref, got)):
        if isinstance(a, ExecutionError):
            assert type(b) is type(a), f"trial {k}"
            assert str(b) == str(a), f"trial {k}"
            continue
        assert not isinstance(b, ExecutionError), f"trial {k}: {b}"
        assert set(a.outputs) == set(b.outputs), f"trial {k}"
        for name in a.outputs:
            x, y = a.outputs[name], b.outputs[name]
            assert x.dtype == y.dtype and x.shape == y.shape, (k, name)
            assert np.ascontiguousarray(x).tobytes() == (
                np.ascontiguousarray(y).tobytes()
            ), f"trial {k}: container '{name}' differs bitwise"
        assert a.symbols == b.symbols, f"trial {k}"
        assert a.transitions == b.transitions, f"trial {k}"


def batched_vs_serial(sdfg, symbols, batch=4, seed=0):
    """Run a batch through the batch-axis path and compare against K
    serial interpreter runs; returns the batched program for inspection."""
    args_list = trial_arguments(sdfg, symbols, batch, seed)
    interp = get_backend("interpreter").prepare(sdfg)
    ref = []
    for args in args_list:
        try:
            ref.append(interp.run(dict(args), symbols))
        except ExecutionError as exc:
            ref.append(exc)
    program = CompiledWholeProgram(sdfg)
    got = program.run_batch([dict(a) for a in args_list], symbols)
    assert_outcomes_identical(ref, got)
    return program


# ---------------------------------------------------------------------- #
# Builders
# ---------------------------------------------------------------------- #
def elementwise_program():
    sdfg = SDFG("ew")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_array("Out", ["N"], float64)
    state = sdfg.add_state("s", is_start_state=True)
    state.add_mapped_tasklet(
        "f", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
        "y = 2.0 * x + 1.0", {"y": Memlet.simple("Out", "i")},
    )
    return sdfg


def looped_program():
    sdfg = SDFG("loop")
    sdfg.add_array("A", ["N"], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("body")
    body.add_mapped_tasklet(
        "bump", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
        "y = 0.5 * x + 1.0", {"y": Memlet.simple("A", "i")},
    )
    sdfg.add_loop(init, body, None, "t", "0", "t < T", "t + 1")
    return sdfg


def reduction_program():
    """A WCR accumulation: order-dependent, so it runs per trial."""
    sdfg = SDFG("reduce")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_array("Out", [1], float64)
    state = sdfg.add_state("s", is_start_state=True)
    state.add_mapped_tasklet(
        "acc", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
        "y = x * x", {"y": Memlet.simple("Out", "0", wcr="sum")},
    )
    return sdfg


def permuted_gather_program():
    """Reads ``A[j, i]`` under an ``i, j`` map: the transposed-slice fast
    path in serial mode, and its batch-prefixed variant when batched."""
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


def sqrt_program():
    """Crashes exactly on trials whose input contains a negative value."""
    sdfg = SDFG("sqrtp")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_array("Out", ["N"], float64)
    state = sdfg.add_state("s", is_start_state=True)
    state.add_mapped_tasklet(
        "f", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
        "y = math.sqrt(x)", {"y": Memlet.simple("Out", "i")},
    )
    return sdfg


# ---------------------------------------------------------------------- #
# The permuted-gather slice fast path (unit level)
# ---------------------------------------------------------------------- #
class TestGatherSlices:
    """``_gather_slices`` turns broadcast gathers into basic slicing plus a
    transpose; every accepted geometry must index the exact same elements
    as the advanced-indexing path it replaces."""

    def grid(self, extents, axis, start=0, step=1):
        n = extents[axis]
        shape = [1] * len(extents)
        shape[axis] = n
        return (start + step * np.arange(n, dtype=np.int64)).reshape(shape)

    def check_equivalent(self, arr, idx, nparams):
        fast = ScopeRuntime._gather_slices(idx, arr.ndim, nparams)
        assert fast is not None
        sls, taxes = fast
        block = arr[sls] if taxes is None else arr[sls].transpose(taxes)
        reference = arr[tuple(idx)]
        assert block.shape == reference.shape
        assert np.array_equal(block, reference)
        return taxes

    def test_aligned_gather_needs_no_transpose(self):
        arr = np.arange(35.0).reshape(5, 7)
        idx = [self.grid((5, 7), 0), self.grid((5, 7), 1)]
        assert self.check_equivalent(arr, idx, nparams=2) is None

    def test_permuted_gather_transposes(self):
        arr = np.arange(35.0).reshape(5, 7)
        # A[j, i] under an (i, j) map: dim 0 rides axis 1 and vice versa.
        idx = [self.grid((4, 5), 1), self.grid((4, 5), 0)]
        assert self.check_equivalent(arr, idx, nparams=2) == (1, 0)

    def test_three_dim_rotation(self):
        arr = np.arange(2.0 * 3 * 4).reshape(2, 3, 4)
        extents = (3, 4, 2)  # A[k, i, j] under an (i, j, k) map
        idx = [
            self.grid(extents, 2),
            self.grid(extents, 0),
            self.grid(extents, 1),
        ]
        assert self.check_equivalent(arr, idx, nparams=3) == (1, 2, 0)

    def test_strided_and_offset_sequences(self):
        arr = np.arange(100.0).reshape(10, 10)
        idx = [self.grid((4, 3), 0, start=1, step=2), self.grid((4, 3), 1, start=2, step=3)]
        assert self.check_equivalent(arr, idx, nparams=2) is None

    def test_constant_dimension_becomes_length_one_slice(self):
        arr = np.arange(35.0).reshape(5, 7)
        idx = [3, self.grid((5,), 0)]
        taxes = ScopeRuntime._gather_slices(idx, 2, 2)
        assert taxes is not None

    def test_all_constant_stays_on_advanced_path(self):
        # arr[2, 3] is a scalar; slices would produce a (1, 1) block.
        assert ScopeRuntime._gather_slices([2, 3], 2, 2) is None

    def test_rank_mismatch_rejected(self):
        idx = [self.grid((5,), 0)]
        assert ScopeRuntime._gather_slices(idx, 1, 2) is None

    def test_duplicate_axis_rejected(self):
        # A[i, i]: both dimensions ride parameter axis 0 -- a diagonal,
        # which no rectangular slice can express.
        g = self.grid((5, 1), 0)
        assert ScopeRuntime._gather_slices([g, g], 2, 2) is None

    def test_non_arithmetic_sequence_rejected(self):
        irregular = np.asarray([0, 1, 3], dtype=np.int64).reshape(3, 1)
        regular = self.grid((3, 4), 1)
        assert ScopeRuntime._gather_slices([irregular, regular], 2, 2) is None

    def test_negative_constant_rejected(self):
        assert (
            ScopeRuntime._gather_slices([-1, self.grid((5,), 0)], 2, 2)
            is None
        )

    def test_permuted_program_end_to_end(self):
        sdfg = permuted_gather_program()
        symbols = {"N": 6, "M": 9}
        args = make_arguments(sdfg, symbols)
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        program = CompiledWholeProgram(sdfg)
        res = program.run(dict(args), symbols)
        assert ref.outputs["Out"].tobytes() == res.outputs["Out"].tobytes()
        assert program.stats["vectorized"] == 1 and program.stats["fallback"] == 0


# ---------------------------------------------------------------------- #
# Batch-axis execution parity
# ---------------------------------------------------------------------- #
class TestBatchedParity:
    def test_elementwise_batch(self):
        batched_vs_serial(elementwise_program(), {"N": 9}, batch=5)

    def test_loop_control_flow_batch(self):
        batched_vs_serial(looped_program(), {"N": 8, "T": 5}, batch=4)

    def test_wcr_scope_runs_per_trial_inside_the_batch(self):
        program = batched_vs_serial(reduction_program(), {"N": 11}, batch=4)
        # WCR accumulation is order-dependent: never batch-eligible.
        executor = program.executor
        assert executor.batchable
        (bound,) = executor._table_for(executor.sdfg.states()[0]).plans.values()
        assert not scope_is_batchable(bound)

    def test_permuted_gather_batch(self):
        batched_vs_serial(permuted_gather_program(), {"N": 5, "M": 7}, batch=6)

    def test_batch_axis_path_is_actually_taken(self):
        """`run_batched` has no serial fallback of its own -- calling it
        directly proves the batch-axis code path computed the results."""
        sdfg = looped_program()
        symbols = {"N": 8, "T": 4}
        args_list = trial_arguments(sdfg, symbols, 4)
        program = CompiledWholeProgram(sdfg)
        assert program.executor.batchable
        got = program.executor.run_batched([dict(a) for a in args_list], symbols)
        interp = get_backend("interpreter").prepare(sdfg)
        ref = [interp.run(dict(a), symbols) for a in args_list]
        assert_outcomes_identical(ref, got)

    def test_crashing_trial_aborts_batch_and_reruns_serially(self):
        """One trial's negative input crashes math.sqrt: the batch attempt
        is abandoned and the serial rerun attributes the error to exactly
        that trial, leaving the other trials' results bitwise intact."""
        sdfg = sqrt_program()
        symbols = {"N": 6}
        args_list = trial_arguments(sdfg, symbols, 4, seed=3)
        for args in args_list:
            args["A"] = np.abs(args["A"]) + 0.125
        args_list[2]["A"][3] = -1.0
        interp = get_backend("interpreter").prepare(sdfg)
        ref = []
        for args in args_list:
            try:
                ref.append(interp.run(dict(args), symbols))
            except ExecutionError as exc:
                ref.append(exc)
        assert isinstance(ref[2], ExecutionError)
        assert sum(isinstance(r, ExecutionError) for r in ref) == 1
        program = CompiledWholeProgram(sdfg)
        got = program.run_batch([dict(a) for a in args_list], symbols)
        assert_outcomes_identical(ref, got)

    def test_scalar_driven_control_flow_is_not_batchable(self):
        """Interstate conditions reading a scalar container could branch
        differently per trial; such programs must refuse batching (and
        still produce serial-identical outcomes through the fallback)."""
        from repro.sdfg import InterstateEdge

        sdfg = SDFG("databranch")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_scalar("flag", float64)
        a = sdfg.add_state("a", is_start_state=True)
        b = sdfg.add_state("b")
        c = sdfg.add_state("c")
        b.add_mapped_tasklet(
            "inc", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("A", "i")},
        )
        c.add_mapped_tasklet(
            "dec", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x - 1.0", {"y": Memlet.simple("A", "i")},
        )
        sdfg.add_edge(a, b, InterstateEdge(condition="flag > 0"))
        sdfg.add_edge(a, c, InterstateEdge(condition="flag <= 0"))
        program = CompiledWholeProgram(sdfg)
        assert not program.executor.batchable
        symbols = {"N": 5}
        args_list = trial_arguments(sdfg, symbols, 3)
        args_list[0]["flag"] = np.asarray([1.0])
        args_list[1]["flag"] = np.asarray([-1.0])
        args_list[2]["flag"] = np.asarray([2.0])
        interp = get_backend("interpreter").prepare(sdfg)
        ref = [interp.run(dict(a), symbols) for a in args_list]
        got = program.run_batch([dict(a) for a in args_list], symbols)
        assert_outcomes_identical(ref, got)


# ---------------------------------------------------------------------- #
# Verdict parity through the differential fuzzer
# ---------------------------------------------------------------------- #
def scale_fuzzer(backend, trial_batch, inject_bug=True, seed=0):
    from repro.frontend import add_scale

    original = SDFG("scale")
    original.add_array("X", ["N"], float64)
    original.add_array("Y", ["N"], float64)
    original.add_scalar("factor", float64)
    state = original.add_state("s")
    add_scale(original, state, "X", "Y", "factor")
    transformed = original.clone()
    Vectorization(vector_size=4, inject_bug=inject_bug).apply_to_first(transformed)
    constraints = derive_constraints(original, symbol_values={"N": 8}, size_max=16)
    sampler = InputSampler(
        original, ["X", "factor"], ["Y"], constraints, seed=seed
    )
    return DifferentialFuzzer(
        original, transformed, ["Y"], sampler,
        backend=backend, trial_batch=trial_batch,
    )


class TestFuzzerVerdictParity:
    def compare_reports(self, serial, batched):
        assert [t.status for t in serial.trials] == [t.status for t in batched.trials]
        assert [t.symbols for t in serial.trials] == [t.symbols for t in batched.trials]
        assert [t.mismatched_containers for t in serial.trials] == [
            t.mismatched_containers for t in batched.trials
        ]
        assert [t.max_abs_error for t in serial.trials] == [
            t.max_abs_error for t in batched.trials
        ]
        assert serial.failures == batched.failures
        assert serial.first_failure_trial == batched.first_failure_trial
        assert serial.trials_effective == batched.trials_effective
        assert serial.failing_symbols == batched.failing_symbols
        if serial.failing_inputs is None:
            assert batched.failing_inputs is None
        else:
            for name in serial.failing_inputs:
                assert np.array_equal(
                    serial.failing_inputs[name], batched.failing_inputs[name]
                )

    @pytest.mark.parametrize("inject_bug", [False, True])
    def test_batched_fuzzing_reproduces_serial_verdicts(self, inject_bug):
        serial = scale_fuzzer("compiled", 1, inject_bug).run(num_trials=12)
        batched = scale_fuzzer("compiled", 4, inject_bug).run(num_trials=12)
        self.compare_reports(serial, batched)

    def test_batch_not_divisible_into_trials(self):
        serial = scale_fuzzer("compiled", 1).run(num_trials=7)
        batched = scale_fuzzer("compiled", 3).run(num_trials=7)
        self.compare_reports(serial, batched)
        assert batched.trials_attempted == 7

    def test_stop_on_failure_parity(self):
        serial = scale_fuzzer("compiled", 1).run(num_trials=30, stop_on_failure=True)
        batched = scale_fuzzer("compiled", 8).run(num_trials=30, stop_on_failure=True)
        assert serial.failures >= 1
        assert serial.first_failure_trial == batched.first_failure_trial
        assert serial.failing_symbols == batched.failing_symbols
        for name in serial.failing_inputs:
            assert np.array_equal(
                serial.failing_inputs[name], batched.failing_inputs[name]
            )


class TestBuggyTableVerdictParity:
    """Batched-vs-serial verdict parity across the npbench buggy table --
    the satellite acceptance check in miniature (one instance per
    workload/transformation pair; the full 95-instance table runs in the
    sweep CLI)."""

    def sweep(self, backend, trial_batch):
        from repro.pipeline import enumerate_sweep_tasks, execute_task

        tasks = enumerate_sweep_tasks(
            suite="npbench",
            buggy=True,
            max_instances=1,
            verifier_kwargs=dict(
                num_trials=4, seed=0, size_max=8, minimize_inputs=False,
                backend=backend, trial_batch=trial_batch,
            ),
        )
        return {t.task_id: execute_task(t) for t in tasks}

    def test_verdicts_identical(self):
        serial = self.sweep("compiled", 1)
        batched = self.sweep("compiled", 4)
        # trial_batch is an execution knob, not task identity.
        assert set(serial) == set(batched)
        for task_id, outcome in serial.items():
            other = batched[task_id]
            assert other["verdict"] == outcome["verdict"], outcome["workload"]
            a, b = outcome["report"], other["report"]
            if a is None or b is None:
                assert a == b
                continue
            for key in ("fuzzing",):
                fa, fb = a.get(key), b.get(key)
                if fa is None or fb is None:
                    assert fa == fb
                    continue
                for field in (
                    "trials_run", "trials_effective", "failures",
                    "first_failure_trial",
                ):
                    assert fa[field] == fb[field], (outcome["workload"], field)
