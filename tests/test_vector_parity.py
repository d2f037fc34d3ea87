"""Bitwise parity of the vectorized scope paths with the interpreter.

Small hand-built programs that steer one scope down one path each -- a
fusable elementwise chain, a WCR tail, strided and permuted subsets,
strided argument views, a map inside a loop, a branch on a scalar
container and tasklets that crash --
run under ``compiled`` and under the ``cross:compiled,interpreter`` pair.
Outcomes (outputs, symbols, transitions *and errors*) must equal
the interpreter's bit for bit.
"""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.backends.cross import BackendDivergenceError, CrossProgram
from repro.interpreter.errors import ExecutionError, TaskletExecutionError
from repro.sdfg import SDFG, InterstateEdge, Memlet, float64
from repro.workloads import get_workload

BACKENDS = ["compiled", "cross:compiled,interpreter"]


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


def vs_interpreter(sdfg, symbols, backend="compiled", seed=0):
    """Run once on the interpreter and once on ``backend``; outcomes must
    agree bitwise.  Returns the program prepared under ``backend``."""
    args = make_arguments(sdfg, symbols, seed)
    interp = get_backend("interpreter").prepare(sdfg)
    program = get_backend(backend).prepare(sdfg)
    try:
        ref = interp.run(dict(args), symbols)
    except ExecutionError as exc:
        with pytest.raises(type(exc)) as exc_info:
            program.run(dict(args), symbols)
        assert str(exc_info.value) == str(exc)
        return program
    res = program.run(dict(args), symbols)
    assert_identical(ref, res)
    return program


# ---------------------------------------------------------------------- #
# Builders
# ---------------------------------------------------------------------- #
def chain_program(stages=4):
    """A fusable elementwise chain."""
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


def branch_program():
    """Adds one to ``A`` if ``flag > 0``, else subtracts one."""
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
    return sdfg


# ---------------------------------------------------------------------- #
# Bitwise parity with the interpreter
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestVectorParity:
    def test_fused_chain(self, backend):
        vs_interpreter(chain_program(), {"N": 33}, backend)

    def test_loop_nest(self, backend):
        vs_interpreter(loop_nest_program(), {"N": 17, "T": 6}, backend)

    @pytest.mark.parametrize("wcr", ["sum", "prod", "max", "min"])
    def test_wcr_tail_bitwise(self, backend, wcr):
        vs_interpreter(wcr_tail_program(wcr), {"N": 23}, backend, seed=5)

    @pytest.mark.parametrize("wcr", ["max", "min"])
    def test_wcr_signed_zero_ties(self, backend, wcr):
        """``np.maximum``/``minimum`` keep the *second* operand on ties, so
        ``-0.0`` vs ``+0.0`` sequences are order-observable bit patterns."""
        sdfg = wcr_tail_program(wcr)
        symbols = {"N": 4}
        interp = get_backend("interpreter").prepare(sdfg)
        program = get_backend(backend).prepare(sdfg)
        for pattern in ([-0.0, 0.0, -0.0, 0.0], [0.0, -0.0, 0.0, -0.0]):
            args = {"A": np.asarray(pattern), "Out": np.zeros(1)}
            ref = interp.run(dict(args), symbols)
            res = program.run(dict(args), symbols)
            assert ref.outputs["Out"].tobytes() == res.outputs["Out"].tobytes()

    def test_wcr_nan_propagation(self, backend):
        sdfg = wcr_tail_program("max")
        symbols = {"N": 5}
        args = {"A": np.asarray([1.0, np.nan, 3.0, -2.0, 0.5]), "Out": np.zeros(1)}
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        res = get_backend(backend).prepare(sdfg).run(dict(args), symbols)
        assert ref.outputs["Out"].tobytes() == res.outputs["Out"].tobytes()

    def test_strided_subset(self, backend):
        vs_interpreter(strided_program(), {"N": 12}, backend)

    def test_permuted_subset(self, backend):
        vs_interpreter(permuted_program(), {"N": 6, "M": 9}, backend)

    def test_sizes_change_between_trials(self, backend):
        """The fuzzer draws fresh sizes per trial; one prepared program
        serves them all."""
        sdfg = permuted_program()
        interp = get_backend("interpreter").prepare(sdfg)
        program = get_backend(backend).prepare(sdfg)
        for seed, (n, m) in enumerate([(6, 9), (3, 4), (1, 7), (6, 9)]):
            symbols = {"N": n, "M": m}
            args = make_arguments(sdfg, symbols, seed=seed)
            ref = interp.run(dict(args), symbols)
            res = program.run(dict(args), symbols)
            assert_identical(ref, res)
        
    def test_data_dependent_branch(self, backend):
        """An interstate condition that reads a scalar container: trials
        with different values take different branches."""
        sdfg = branch_program()
        symbols = {"N": 5}
        interp = get_backend("interpreter").prepare(sdfg)
        program = get_backend(backend).prepare(sdfg)
        outputs = []
        for flag in (1.0, -1.0, 2.0):
            args = make_arguments(sdfg, symbols, seed=0)
            args["flag"] = np.asarray([flag])
            ref = interp.run(dict(args), symbols)
            assert_identical(ref, program.run(dict(args), symbols))
            outputs.append(ref.outputs["A"])
        assert np.array_equal(outputs[0], outputs[2])
        assert not np.array_equal(outputs[0], outputs[1])

    def test_noncontiguous_input_views(self, backend):
        """Strided argument *arrays* (as opposed to strided subsets) are
        read through their own strides, not assumed C-ordered."""
        sdfg = chain_program(stages=2)
        symbols = {"N": 10}
        base = np.random.default_rng(7).standard_normal(20)
        args = {"A": base[::2], "Out": np.zeros(10)}
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        res = get_backend(backend).prepare(sdfg).run(dict(args), symbols)
        assert_identical(ref, res)


class TestThePathsAreTaken:
    """Parity of paths nobody took proves nothing."""

    def test_the_chain_fuses(self):
        program = vs_interpreter(chain_program(), {"N": 33})
        assert program.stats["fused"] >= 1
        assert program.stats["fallback"] == 0

    def test_the_loop_body_vectorizes_every_iteration(self):
        program = vs_interpreter(loop_nest_program(), {"N": 17, "T": 6})
        assert program.stats["vectorized"] == 6
        assert program.stats["fallback"] == 0

    def test_the_strided_gather_vectorizes(self):
        program = vs_interpreter(strided_program(), {"N": 12})
        assert program.stats["vectorized"] >= 1

    def test_one_program_fuses_every_trial(self):
        """The fuzzer runs all of a task's trials through one prepared
        program: each trial fuses again and matches its own oracle run."""
        sdfg = chain_program()
        symbols = {"N": 14}
        interp = get_backend("interpreter").prepare(sdfg)
        program = get_backend("compiled").prepare(sdfg)
        for seed in range(6):
            args = make_arguments(sdfg, symbols, seed=seed)
            assert_identical(interp.run(dict(args), symbols), program.run(dict(args), symbols))
            if seed == 0:
                per_trial = program.stats["fused"]
        assert per_trial >= 1
        assert program.stats["fused"] == 6 * per_trial
        assert program.stats["fallback"] == 0


# ---------------------------------------------------------------------- #
# Crash taxonomy
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
class TestCrashTaxonomy:
    def crash_case(self, backend, expr, values):
        sdfg = crash_program(expr)
        symbols = {"N": len(values)}
        args = {"A": np.asarray(values, dtype=np.float64),
                "Out": np.zeros(len(values))}
        interp = get_backend("interpreter").prepare(sdfg)
        program = get_backend(backend).prepare(sdfg)
        with pytest.raises(TaskletExecutionError) as ref:
            interp.run(dict(args), symbols)
        with pytest.raises(TaskletExecutionError) as got:
            program.run(dict(args), symbols)
        assert str(got.value) == str(ref.value)

    def test_sqrt_domain_error(self, backend):
        self.crash_case(backend, "math.sqrt(x)", [1.0, 4.0, -1.0, 9.0])

    def test_exp_range_error(self, backend):
        self.crash_case(backend, "math.exp(x)", [1.0, 1000.0])

    def test_log_domain_error(self, backend):
        self.crash_case(backend, "math.log(x)", [1.0, 0.0])

    def test_crashing_trial_among_trials(self, backend):
        """A crash in one trial leaves the prepared program fit for the
        next: every trial's outcome, the error included, is the oracle's."""
        sdfg = crash_program("math.sqrt(x)")
        symbols = {"N": 5}
        args_list = [make_arguments(sdfg, symbols, seed=s) for s in range(4)]
        for args in args_list:
            args["A"] = np.abs(args["A"]) + 0.5
        args_list[1]["A"][2] = -2.0
        interp = get_backend("interpreter").prepare(sdfg)
        program = get_backend(backend).prepare(sdfg)
        for k, args in enumerate(args_list):
            if k == 1:
                with pytest.raises(TaskletExecutionError) as ref:
                    interp.run(dict(args), symbols)
                with pytest.raises(TaskletExecutionError) as got:
                    program.run(dict(args), symbols)
                assert str(got.value) == str(ref.value)
            else:
                assert_identical(interp.run(dict(args), symbols), program.run(dict(args), symbols))


# ---------------------------------------------------------------------- #
# The cross-check pair
# ---------------------------------------------------------------------- #
class TestCrossCompiledInterpreter:
    @pytest.mark.parametrize("kernel", ["gemm", "jacobi_2d", "softmax_rows"])
    def test_pair_agrees_on_npbench(self, kernel):
        spec = get_workload("npbench", kernel)
        sdfg = spec.build()
        symbols = dict(spec.symbols)
        args = make_arguments(sdfg, symbols)
        program = get_backend("cross:compiled,interpreter").prepare(sdfg)
        program.run(dict(args), symbols)
        assert program.checked_runs == 1

    def test_compiled_divergence_surfaces(self):
        """A compiled-side output perturbation must abort loudly as a
        BackendDivergenceError, never as a fuzzing verdict."""
        sdfg = chain_program()
        symbols = {"N": 9}
        args = make_arguments(sdfg, symbols)
        compiled = get_backend("compiled").prepare(sdfg)

        class PerturbedCompiled:
            def run(self, arguments=None, symbols=None):
                result = compiled.run(arguments, symbols)
                result.outputs["Out"] = result.outputs["Out"] + 1e-12
                return result

        interp = get_backend("interpreter").prepare(sdfg)
        program = CrossProgram(
            sdfg, interp, PerturbedCompiled(),
            reference_name="interpreter", candidate_name="compiled",
        )
        with pytest.raises(BackendDivergenceError) as exc_info:
            program.run(dict(args), symbols)
        assert "Out" in str(exc_info.value)
        assert "compiled" in str(exc_info.value)
