"""Tests for the SDFG interpreter: correctness vs. NumPy, crash/hang detection,
and memory access against the per-term reference it replaced."""

import copy
import random
import sys

import numpy as np
import pytest

import repro.interpreter.executor as executor_module
from repro.core.verifier import FuzzyFlowVerifier
from repro.interpreter import (
    ExecutionError,
    HangError,
    MemoryViolation,
    MissingArgumentError,
    SDFGExecutor,
    TaskletExecutionError,
    execute_sdfg,
)
from repro.interpreter.executor import _EVAL_GLOBALS, TrialStore, _write_target
from repro.interpreter.tasklet_exec import TASKLET_GLOBALS, compile_expression
from repro.pipeline import enumerate_sweep_tasks
from repro.sdfg import SDFG, InterstateEdge, Memlet, float64, int32
from repro.sdfg.dtypes import reduction_function
from repro.sdfg.nodes import MapEntry
from repro.symbolic.expressions import Integer
from repro.symbolic.ranges import Range, Subset


# ---------------------------------------------------------------------- #
# Program builders used in this module
# ---------------------------------------------------------------------- #
def build_scale_program():
    """out[i] = inp[i] * scale for i in 0..N-1."""
    sdfg = SDFG("scale_prog")
    sdfg.add_array("inp", ["N"], float64)
    sdfg.add_array("out", ["N"], float64)
    sdfg.add_scalar("scale", float64)
    state = sdfg.add_state("compute")
    state.add_mapped_tasklet(
        "scale",
        {"i": "0:N-1"},
        {"a": Memlet.simple("inp", "i"), "s": Memlet.simple("scale", "0")},
        "b = a * s",
        {"b": Memlet.simple("out", "i")},
    )
    return sdfg


def build_matmul_program():
    """C += A @ B as a 3-dimensional map with a sum write-conflict resolution."""
    sdfg = SDFG("matmul")
    sdfg.add_array("A", ["N", "K"], float64)
    sdfg.add_array("B", ["K", "M"], float64)
    sdfg.add_array("C", ["N", "M"], float64)
    state = sdfg.add_state("mm")
    state.add_mapped_tasklet(
        "mm",
        {"i": "0:N-1", "j": "0:M-1", "k": "0:K-1"},
        {"a": Memlet.simple("A", "i, k"), "b": Memlet.simple("B", "k, j")},
        "c = a * b",
        {"c": Memlet("C", "i, j", wcr="sum")},
    )
    return sdfg


def build_loop_sum_program():
    """acc[0] = sum(inp[0:N]) with a sequential control-flow loop."""
    sdfg = SDFG("loop_sum")
    sdfg.add_array("inp", ["N"], float64)
    sdfg.add_array("acc", [1], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("body")
    t = body.add_tasklet("add", ["a", "x"], ["o"], "o = a + x")
    rd_acc = body.add_access("acc")
    rd_inp = body.add_access("inp")
    wr_acc = body.add_access("acc")
    body.add_edge(rd_acc, None, t, "a", Memlet.simple("acc", "0"))
    body.add_edge(rd_inp, None, t, "x", Memlet.simple("inp", "i"))
    body.add_edge(t, "o", wr_acc, None, Memlet.simple("acc", "0"))
    sdfg.add_loop(init, body, None, "i", "0", "i < N", "i + 1")
    return sdfg


def build_copy_program():
    """dst[0:4] = src[2:6] using an access-to-access copy edge."""
    sdfg = SDFG("copy")
    sdfg.add_array("src", [8], float64)
    sdfg.add_array("dst", [4], float64)
    state = sdfg.add_state("s")
    a = state.add_access("src")
    b = state.add_access("dst")
    state.add_nedge(a, b, Memlet("src", "2:5", other_subset="0:3"))
    return sdfg


# ---------------------------------------------------------------------- #
class TestElementwise:
    def test_scale_matches_numpy(self, rng):
        sdfg = build_scale_program()
        x = rng.standard_normal(10)
        res = execute_sdfg(sdfg, {"inp": x, "out": np.zeros(10), "scale": 2.5}, {"N": 10})
        np.testing.assert_allclose(res.outputs["out"], x * 2.5)

    def test_inputs_not_modified(self, rng):
        sdfg = build_scale_program()
        x = rng.standard_normal(6)
        x_orig = x.copy()
        out = np.zeros(6)
        execute_sdfg(sdfg, {"inp": x, "out": out, "scale": 3.0}, {"N": 6})
        np.testing.assert_array_equal(x, x_orig)
        np.testing.assert_array_equal(out, np.zeros(6))  # caller buffer untouched

    def test_single_element(self, rng):
        sdfg = build_scale_program()
        res = execute_sdfg(
            sdfg, {"inp": np.array([3.0]), "out": np.zeros(1), "scale": -1.0}, {"N": 1}
        )
        np.testing.assert_allclose(res.outputs["out"], [-3.0])


class TestMatmul:
    def test_matmul_matches_numpy(self, rng):
        sdfg = build_matmul_program()
        A = rng.standard_normal((5, 4))
        B = rng.standard_normal((4, 6))
        res = execute_sdfg(
            sdfg,
            {"A": A, "B": B, "C": np.zeros((5, 6))},
            {"N": 5, "M": 6, "K": 4},
        )
        np.testing.assert_allclose(res.outputs["C"], A @ B, rtol=1e-12)

    def test_matmul_accumulates_into_existing(self, rng):
        sdfg = build_matmul_program()
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        C0 = rng.standard_normal((3, 3))
        res = execute_sdfg(
            sdfg, {"A": A, "B": B, "C": C0.copy()}, {"N": 3, "M": 3, "K": 3}
        )
        np.testing.assert_allclose(res.outputs["C"], C0 + A @ B, rtol=1e-12)


class TestBlockTasklets:
    def test_whole_array_tasklet(self, rng):
        """Coarse-grained tasklets receive NumPy views of the full subset."""
        sdfg = SDFG("block")
        sdfg.add_array("A", ["N", "N"], float64)
        sdfg.add_array("B", ["N", "N"], float64)
        sdfg.add_array("C", ["N", "N"], float64)
        state = sdfg.add_state("s")
        a, b, c = state.add_access("A"), state.add_access("B"), state.add_access("C")
        t = state.add_tasklet("gemm", ["x", "y"], ["z"], "z = x @ y")
        state.add_edge(a, None, t, "x", Memlet.full("A", ["N", "N"]))
        state.add_edge(b, None, t, "y", Memlet.full("B", ["N", "N"]))
        state.add_edge(t, "z", c, None, Memlet.full("C", ["N", "N"]))
        A = rng.standard_normal((7, 7))
        B = rng.standard_normal((7, 7))
        res = execute_sdfg(sdfg, {"A": A, "B": B, "C": np.zeros((7, 7))}, {"N": 7})
        np.testing.assert_allclose(res.outputs["C"], A @ B, rtol=1e-12)


class TestControlFlow:
    def test_sequential_loop_sum(self, rng):
        sdfg = build_loop_sum_program()
        x = rng.standard_normal(12)
        res = execute_sdfg(sdfg, {"inp": x, "acc": np.zeros(1)}, {"N": 12})
        np.testing.assert_allclose(res.outputs["acc"][0], x.sum(), rtol=1e-12)

    def test_zero_trip_loop(self):
        sdfg = build_loop_sum_program()
        res = execute_sdfg(sdfg, {"inp": np.zeros(0).reshape(0), "acc": np.zeros(1)}, {"N": 0})
        assert res.outputs["acc"][0] == 0.0

    def test_branching_on_scalar(self):
        """Interstate conditions can read scalar containers."""
        sdfg = SDFG("branch")
        sdfg.add_scalar("flag", int32)
        sdfg.add_array("out", [1], float64)
        start = sdfg.add_state("start", is_start_state=True)
        then_state = sdfg.add_state("then")
        else_state = sdfg.add_state("else")
        for st, val in ((then_state, 1.0), (else_state, 2.0)):
            t = st.add_tasklet("w", [], ["o"], f"o = {val}")
            w = st.add_access("out")
            st.add_edge(t, "o", w, None, Memlet.simple("out", "0"))
        sdfg.add_edge(start, then_state, InterstateEdge(condition="flag > 0"))
        sdfg.add_edge(start, else_state, InterstateEdge(condition="flag <= 0"))
        r1 = execute_sdfg(sdfg, {"flag": 1, "out": np.zeros(1)})
        r2 = execute_sdfg(sdfg, {"flag": 0, "out": np.zeros(1)})
        assert r1.outputs["out"][0] == 1.0
        assert r2.outputs["out"][0] == 2.0

    def test_hang_detection(self):
        sdfg = SDFG("hang")
        sdfg.add_array("out", [1], float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        t = s0.add_tasklet("w", [], ["o"], "o = 1")
        w = s0.add_access("out")
        s0.add_edge(t, "o", w, None, Memlet.simple("out", "0"))
        sdfg.add_edge(s0, s0, InterstateEdge())  # infinite self-loop
        with pytest.raises(HangError):
            execute_sdfg(sdfg, {"out": np.zeros(1)}, max_transitions=50)


class TestCopies:
    def test_access_to_access_copy(self):
        sdfg = build_copy_program()
        src = np.arange(8, dtype=np.float64)
        res = execute_sdfg(sdfg, {"src": src, "dst": np.zeros(4)})
        np.testing.assert_array_equal(res.outputs["dst"], src[2:6])


class TestErrorHandling:
    def test_out_of_bounds_read(self):
        sdfg = SDFG("oob")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "shift",
            {"i": "0:N-1"},
            {"a": Memlet.simple("A", "i + 1")},  # reads A[N] on the last iteration
            "b = a",
            {"b": Memlet.simple("B", "i")},
        )
        with pytest.raises(MemoryViolation):
            execute_sdfg(sdfg, {"A": np.zeros(4), "B": np.zeros(4)}, {"N": 4})

    def test_missing_argument(self):
        sdfg = build_scale_program()
        with pytest.raises(MissingArgumentError):
            execute_sdfg(sdfg, {"inp": np.zeros(4), "out": np.zeros(4)}, {"N": 4})

    def test_missing_symbol(self):
        sdfg = build_scale_program()
        with pytest.raises(MissingArgumentError):
            execute_sdfg(sdfg, {"inp": np.zeros(4), "out": np.zeros(4), "scale": 1.0})

    def test_unknown_argument_rejected(self):
        sdfg = build_scale_program()
        with pytest.raises(MissingArgumentError):
            execute_sdfg(
                sdfg,
                {"inp": np.zeros(4), "out": np.zeros(4), "scale": 1.0,
                 "bogus": np.zeros(4)},
                {"N": 4},
            )

    def test_wrong_shape_rejected(self):
        sdfg = build_scale_program()
        with pytest.raises(Exception):
            execute_sdfg(
                sdfg, {"inp": np.zeros((4, 2)), "out": np.zeros(4), "scale": 1.0}, {"N": 4}
            )

    def test_tasklet_exception_is_wrapped(self):
        sdfg = SDFG("div")
        sdfg.add_array("out", [1], float64)
        state = sdfg.add_state("s")
        t = state.add_tasklet("bad", [], ["o"], "o = 1 / 0")
        w = state.add_access("out")
        state.add_edge(t, "o", w, None, Memlet.simple("out", "0"))
        with pytest.raises(TaskletExecutionError):
            execute_sdfg(sdfg, {"out": np.zeros(1)})

    def test_code_that_does_not_compile_fails_as_the_tasklet_after_its_reads(self):
        sdfg = SDFG("syntax")
        sdfg.add_array("A", [2], float64)
        sdfg.add_array("out", [1], float64)
        state = sdfg.add_state("s")
        t = state.add_tasklet("bad", ["a"], ["o"], "o = a +")
        state.add_edge(state.add_access("A"), None, t, "a", Memlet.simple("A", "N - 1"))
        state.add_edge(t, "o", state.add_access("out"), None, Memlet.simple("out", "0"))
        executor = SDFGExecutor(sdfg)
        with pytest.raises(MemoryViolation):
            executor.run({"A": np.zeros(2), "out": np.zeros(1)}, {"N": 3})
        with pytest.raises(TaskletExecutionError, match="SyntaxError: .*<tasklet>"):
            executor.run({"A": np.zeros(2), "out": np.zeros(1)}, {"N": 2})


class TestExecutorReuse:
    def test_reexecution_reuses_executor(self, rng):
        """The same executor instance can run many trials (caches stay valid)."""
        sdfg = build_matmul_program()
        ex = SDFGExecutor(sdfg)
        for _ in range(3):
            A = rng.standard_normal((3, 3))
            B = rng.standard_normal((3, 3))
            res = ex.run({"A": A, "B": B, "C": np.zeros((3, 3))}, {"N": 3, "M": 3, "K": 3})
            np.testing.assert_allclose(res.outputs["C"], A @ B, rtol=1e-12)


# ---------------------------------------------------------------------- #
# Reference: the per-term memory access the compiled access replaced
# (one eval per subset term, temporary memlets for copies and
# ``other_subset`` writes).  Kept verbatim as the parity oracle.
# ---------------------------------------------------------------------- #
def ref_subset_code(subset):
    def term(expr):
        if isinstance(expr, Integer):
            return expr.value
        return compile_expression(str(expr))

    return [
        (term(r.begin), None if r.is_point() else term(r.end), term(r.step))
        for r in subset.ranges
    ]


def ref_concrete_subset(memlet, bindings):
    out = []
    for bc, ec, sc in ref_subset_code(memlet.subset):
        try:
            b = bc if bc.__class__ is int else int(eval(bc, _EVAL_GLOBALS, bindings))
            if ec is None:
                e = b
            else:
                e = ec if ec.__class__ is int else int(eval(ec, _EVAL_GLOBALS, bindings))
            s = sc if sc.__class__ is int else int(eval(sc, _EVAL_GLOBALS, bindings))
        except Exception as exc:
            raise ExecutionError(f"Cannot evaluate subset of memlet {memlet}: {exc}") from exc
        out.append((b, e, s))
    return out


def ref_check_bounds(data, concrete, shape):
    if len(concrete) != len(shape):
        raise MemoryViolation(data, str(concrete), shape, "dimensionality mismatch")
    for (b, e, s), dim in zip(concrete, shape):
        if s > 0 and b > e:
            continue
        lo, hi = (b, e) if b <= e else (e, b)
        if lo < 0 or hi >= dim:
            raise MemoryViolation(
                data,
                ", ".join(
                    f"{bb}:{ee}:{ss}" if bb != ee else str(bb) for bb, ee, ss in concrete
                ),
                shape,
            )


def ref_index(subset, concrete):
    """A point when every range of the subset is one (decided from the
    subset, never from the values: an extent-1 region stays a region), else
    one slice per range."""
    if all(r.is_point() for r in subset.ranges):
        return tuple(b for b, _, _ in concrete)
    return tuple(
        slice(b, e + 1, s) if s > 0 else slice(b, None if e - 1 < 0 else e - 1, s)
        for b, e, s in concrete
    )


def ref_read(store, memlet, bindings):
    if memlet.data not in store:
        raise ExecutionError(f"Read from unknown container '{memlet.data}'")
    arr = store[memlet.data]
    concrete = ref_concrete_subset(memlet, bindings)
    ref_check_bounds(memlet.data, concrete, arr.shape)
    idx = ref_index(memlet.subset, concrete)
    if idx and isinstance(idx[0], slice):
        return arr[idx].copy()
    return arr[idx]


def ref_write(store, memlet, value, bindings):
    if memlet.data not in store:
        raise ExecutionError(f"Write to unknown container '{memlet.data}'")
    arr = store[memlet.data]
    subset = memlet.other_subset if memlet.other_subset is not None else memlet.subset
    target = Memlet(memlet.data, subset, wcr=memlet.wcr) if subset is not memlet.subset else memlet
    concrete = ref_concrete_subset(target, bindings)
    ref_check_bounds(memlet.data, concrete, arr.shape)
    idx = ref_index(subset, concrete)
    try:
        if memlet.wcr is not None:
            arr[idx] = reduction_function(memlet.wcr)(arr[idx], value)
        else:
            val = np.asarray(value)
            if all(isinstance(i, slice) for i in idx):
                region_shape = arr[idx].shape
                if val.shape != region_shape and val.size == np.prod(region_shape, dtype=int):
                    val = val.reshape(region_shape)
            arr[idx] = val
    except Exception as exc:
        raise ExecutionError(f"Cannot write memlet {target}: {exc}") from exc


def ref_copy(store, src_node_data, dst_data, memlet, bindings):
    src_data = memlet.data if memlet.data is not None else src_node_data
    dst_subset = memlet.other_subset
    if src_data == dst_data and memlet.other_subset is not None:
        src_data = src_node_data
    value = ref_read(store, Memlet(src_data, memlet.subset, wcr=None), bindings)
    if dst_subset is None:
        dst_subset = memlet.subset
    ref_write(store, Memlet(dst_data, dst_subset, wcr=memlet.wcr), value, bindings)


def ref_tasklet(store, label, code, reads, writes, bindings, stage):
    """One tasklet execution, access by access: reads, code, outputs,
    writes; ``stage["at"]`` says which one raised."""
    namespace = dict(bindings)
    for k, (conn, memlet) in enumerate(reads):
        stage["at"] = f"read {k}"
        namespace[conn] = ref_read(store, memlet, bindings)
    stage["at"] = "code"
    try:
        exec(compile(code, "<tasklet>", "exec"), TASKLET_GLOBALS, namespace)
    except Exception as exc:
        raise TaskletExecutionError(label, exc) from exc
    stage["at"] = "outputs"
    for conn in {conn for conn, _ in writes}:
        if conn not in namespace:
            raise TaskletExecutionError(
                label, KeyError(f"tasklet did not assign output connector '{conn}'")
            )
    for k, (conn, memlet) in enumerate(writes):
        stage["at"] = f"write {k}"
        ref_write(store, memlet, namespace[conn], bindings)


# Random subsets over symbols that include a float (``x``), two named like
# the eval vocabulary (``int``, ``min``), a symbolic step (``s``) and one
# that is never bound (``k``).
_LITERALS = [-1, 0, 0, 1, 1, 2, 3, 4]
_SYMBOLIC = [
    "i", "j", "i + 1", "j - 1", "N - 1", "N - 1 - i", "Min(i, N - 1)",
    "Max(i - 1, 0)", "2 * i", "i // 2", "int", "int - 1", "min + 1", "x",
    "x + 1", "k",
]
_STEPS = [1, 1, 1, 2, -1, -2, "s"]


def random_term(rnd):
    if rnd.random() < 0.4:
        return rnd.choice(_LITERALS)
    return rnd.choice(_SYMBOLIC)


def random_subset(rnd, rank):
    ranges = []
    for _ in range(rank):
        kind = rnd.random()
        if kind < 0.4:
            b = random_term(rnd)
            step = 1 if rnd.random() < 0.7 else rnd.choice(_STEPS)
            ranges.append(Range(b, b, step))
        else:
            ranges.append(Range(random_term(rnd), random_term(rnd), rnd.choice(_STEPS)))
    return Subset(ranges)


def random_bindings(rnd):
    values = {
        "i": rnd.randint(-1, 4),
        "j": rnd.randint(0, 4),
        "N": rnd.randint(1, 6),
        "s": rnd.choice([-2, -1, 1, 2]),
        "int": rnd.randint(0, 4),
        "min": rnd.randint(-1, 3),
        "x": rnd.choice([0.0, 1.5, 2.0, 3.9, float("nan"), float("inf")]),
    }
    return {k: v for k, v in values.items() if rnd.random() > 0.05}


def random_store(rnd, np_rng, rank):
    if rnd.random() < 0.15:
        rank = max(1, rank + rnd.choice([-1, 1]))
    shape = tuple(rnd.randint(2, 7) for _ in range(rank))
    return {"A": np_rng.standard_normal(shape), "B": np_rng.standard_normal(shape)}


def outcome(fn):
    """What a call did: its value, or its exception's class, text and cause."""
    try:
        value = fn()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return ("raised", type(exc), str(exc), type(exc.__cause__))
    arr = np.asarray(value)
    return ("returned", type(value), arr.shape, arr.tobytes())


def store_bytes(store):
    return {name: (arr.shape, arr.tobytes()) for name, arr in store.items()}


class TestCompiledAccessParity:
    """The executor's one-eval access against the per-term reference on
    seeded random subsets: equal values and stores, or an equal exception
    class, message and cause."""

    CASES = 1500

    def cases(self, seed):
        rnd = random.Random(seed)
        np_rng = np.random.default_rng(seed)
        for _ in range(self.CASES):
            rank = rnd.randint(1, 3)
            subset = random_subset(rnd, rank)
            other = random_subset(rnd, rank) if rnd.random() < 0.3 else None
            wcr = rnd.choice([None, None, "sum", "max"])
            data = "C" if rnd.random() < 0.05 else rnd.choice(["A", "B"])
            memlet = Memlet(data, subset, other_subset=other, wcr=wcr)
            yield rnd, memlet, random_bindings(rnd), random_store(rnd, np_rng, rank)

    def test_reads(self):
        executor = SDFGExecutor(SDFG("access"))
        kinds = set()
        for _, memlet, bindings, store in self.cases(1):
            expected = outcome(lambda: ref_read(store, memlet, bindings))
            for _ in range(2):  # the second read hits the compiled access
                got = outcome(lambda: executor._read(
                    TrialStore(store, {}), memlet.data, memlet.subset, bindings, memlet
                ))
                assert got == expected, (str(memlet), bindings)
            kinds.add(expected[1])
        assert {MemoryViolation, ExecutionError, np.float64, np.ndarray} <= kinds

    def test_writes_with_wcr_and_other_subset(self):
        executor = SDFGExecutor(SDFG("access"))
        messages = []
        for rnd, memlet, bindings, store in self.cases(2):
            data, target, wcr = _write_target(memlet)
            region = outcome(lambda: ref_read(store, Memlet(data, target), bindings))
            if region[0] == "returned" and region[2] and rnd.random() < 0.7:
                value = np.arange(np.prod(region[2]), dtype=float)
                if rnd.random() < 0.5:
                    value = value.reshape(region[2])
            else:
                value = rnd.choice([1.5, -2.0, 7])
            ref_store, exe_store = copy.deepcopy(store), copy.deepcopy(store)
            expected = outcome(lambda: ref_write(ref_store, memlet, value, bindings))
            got = outcome(lambda: executor._write(
                TrialStore(exe_store, {}), data, target, wcr, value, bindings
            ))
            assert got == expected, (str(memlet), bindings)
            assert store_bytes(exe_store) == store_bytes(ref_store), str(memlet)
            messages.append(expected[2] if expected[0] == "raised" else "")
        assert any("(wcr: sum)" in m for m in messages)
        assert any("dimensionality mismatch" in m for m in messages)

    def test_copies(self):
        messages = []
        for _, memlet, bindings, store in self.cases(3):
            sdfg = SDFG("copy")
            for name, arr in store.items():
                sdfg.add_array(name, list(arr.shape), float64)
            state = sdfg.add_state("s")
            src, dst = state.add_access("A"), state.add_access("B")
            if memlet.data == "C":
                memlet.data = "A"
            state.add_nedge(src, dst, memlet)
            ref_store, exe_store = copy.deepcopy(store), copy.deepcopy(store)
            expected = outcome(lambda: ref_copy(ref_store, "A", "B", memlet, bindings))
            executor = SDFGExecutor(sdfg)
            got = outcome(lambda: executor._execute_copies_into(
                TrialStore(exe_store, {}), state, dst, bindings
            ))
            assert got == expected, (str(memlet), bindings)
            assert store_bytes(exe_store) == store_bytes(ref_store), str(memlet)
            messages.append(expected[2] if expected[0] == "raised" else "")
        assert any(m.startswith("Cannot evaluate subset of memlet") for m in messages)
        assert any(m.startswith("Out-of-bounds access to 'B'") for m in messages)

    def test_whole_tasklets(self):
        """Random tasklets of 1-3 reads and 1-2 writes, each a static point
        (the plan's) or any subset (a region, through ``_read`` /
        ``_write``), against the ordered reference: equal stores, and an
        equal exception class, message and cause.  Failing term evaluation
        and out-of-bounds accesses occur in every position; so do raising
        tasklets and unassigned outputs."""
        seen = set()
        plan_runs = {"clean": 0}

        class Counting(SDFGExecutor):
            def _index(self, data, subset, *args):
                self.indexed.append(subset)
                return super()._index(data, subset, *args)

        for case in range(1000):
            rnd, _, bindings, store = next(self.cases(case))
            rank = next(iter(store.values())).ndim if rnd.random() < 0.9 else rnd.randint(1, 3)
            reads = [
                (f"r{k}", Memlet(self.container(rnd), self.access_subset(rnd, rank)))
                for k in range(rnd.randint(1, 3))
            ]
            writes = [
                (f"w{k}", Memlet(
                    self.container(rnd), self.access_subset(rnd, rank),
                    wcr=rnd.choice([None, None, "sum", "max"]),
                ))
                for k in range(rnd.randint(1, 2))
            ]
            code, kind = self.tasklet_code(rnd, reads, writes)
            sdfg = SDFG("tasklet")
            for name, arr in store.items():
                sdfg.add_array(name, list(arr.shape), float64)
            state = sdfg.add_state("s")
            node = state.add_tasklet("t", [c for c, _ in reads], [c for c, _ in writes], code)
            for conn, memlet in reads:
                state.add_edge(state.add_access("A"), None, node, conn, memlet)
            for conn, memlet in writes:
                state.add_edge(node, conn, state.add_access("B"), None, memlet)

            ref_store = copy.deepcopy(store)
            stage = {}
            expected = outcome(
                lambda: ref_tasklet(ref_store, "t", code, reads, writes, bindings, stage)
            )
            executor = Counting(sdfg)
            for _ in range(2):  # the second execution reuses the plan
                executor.indexed = []
                exe_store = copy.deepcopy(store)
                got = outcome(lambda: executor._execute_tasklet(
                    TrialStore(exe_store, {}), state, node, bindings
                ))
                assert got == expected, (code, [str(m) for _, m in reads + writes], bindings)
                assert store_bytes(exe_store) == store_bytes(ref_store), code
            if expected[0] == "raised":
                seen.add((stage["at"], " ".join(expected[2].split(" ")[:2])))
            else:
                seen.add(("ok", kind))
                static = [executor_module._static_point(m.subset) for _, m in reads + writes]
                if any(static) and not any(map(executor_module._static_point, executor.indexed)):
                    plan_runs["clean"] += 1
        for position in ("read 0", "read 1", "read 2", "write 0", "write 1"):
            assert (position, "Cannot evaluate") in seen, position
            assert (position, "Out-of-bounds access") in seen, position
        assert ("write 0", "Cannot write") in seen  # a NumPy error names the memlet
        assert {
            ("code", "Tasklet 't'"), ("outputs", "Tasklet 't'"), ("ok", "points"), ("ok", "mixed")
        } <= seen
        assert plan_runs["clean"] > 50

    @staticmethod
    def container(rnd):
        return "C" if rnd.random() < 0.03 else rnd.choice(["A", "B"])

    @staticmethod
    def access_subset(rnd, rank):
        if rnd.random() < 0.6:
            return Subset([Range(t, t, 1) for t in (random_term(rnd) for _ in range(rank))])
        return random_subset(rnd, rank)

    @staticmethod
    def tasklet_code(rnd, reads, writes):
        """The tasklet's code, and whether all its accesses are points."""
        kind = "points" if all(
            all(r.is_point() for r in m.subset.ranges) for _, m in reads + writes
        ) else "mixed"
        conns = [c for c, _ in reads]
        lines = [
            f"{conn} = np.sum({rnd.choice(conns)}) * 0.5 + {k}" if rnd.random() < 0.8
            else f"{conn} = {rnd.choice(conns)} + {k}"
            for k, (conn, _) in enumerate(writes)
        ]
        roll = rnd.random()
        if roll < 0.05:
            lines.append("w0 = 1 / 0")
        elif roll < 0.1:
            lines.pop()  # leaves an output unassigned
        elif roll < 0.15:
            lines.append("w0 = w0 + i")  # raises when ``i`` is unbound
        return "\n".join(lines) or "pass", kind

    def test_symbols_named_like_the_eval_vocabulary(self):
        """``int`` and ``min`` as symbols shadow the vocabulary for the
        expression but never the coercion of each term."""
        executor = SDFGExecutor(SDFG("access"))
        store = TrialStore({"A": np.arange(12.0).reshape(3, 4)}, {})
        memlet = Memlet("A", "int, min + 1")
        for bindings in ({"int": 2, "min": 1}, {"int": 1.0, "min": 2.9}):
            assert executor._read(store, "A", memlet.subset, bindings, memlet) == ref_read(
                store.arrays, memlet, bindings
            )


class TestStaticPointAccessFires:
    """On the interpreter, the tasklets of every map the bert and cloudsc
    cutouts execute read and write through their access plan alone (no
    region access, no access by access re-run: no ``_index`` call), and one
    execution costs at most one ``eval``."""

    @pytest.mark.parametrize("suite,workload", [("bert", "encoder_layer"), ("cloudsc", "cloudsc")])
    def test_map_tasklets_take_one_eval_per_execution(self, suite, workload, monkeypatch):
        task = next(
            t for t in enumerate_sweep_tasks(suite=suite, buggy=False)
            if t.workload == workload and t.transformation.name == "MapTiling"
        )
        evals = {"n": 0}
        runs = {"n": 0, "max_evals": 0, "indexed": 0}
        map_tasklets = set()

        def counting_eval(code, *args):
            if sys._getframe(1).f_code.co_name in ("_execute_tasklet", "_index"):
                evals["n"] += 1
            return eval(code, *args)

        execute_tasklet = SDFGExecutor._execute_tasklet
        index = SDFGExecutor._index

        def checked_tasklet(self, store, state, node, bindings):
            before, indexed = evals["n"], runs["indexed"]
            execute_tasklet(self, store, state, node, bindings)
            if isinstance(state.scope_dict().get(node), MapEntry):
                runs["n"] += 1
                runs["max_evals"] = max(runs["max_evals"], evals["n"] - before)
                assert runs["indexed"] == indexed, node
                plan = self._plans[id(node)]
                assert not plan.regions, (node, [str(r[2]) for r in plan.regions])
                assert all(w[4] is not None for w in plan.writes), node
                map_tasklets.add(node.guid)

        def counted_index(self, *args):
            runs["indexed"] += 1
            return index(self, *args)

        monkeypatch.setattr(executor_module, "eval", counting_eval, raising=False)
        monkeypatch.setattr(SDFGExecutor, "_execute_tasklet", checked_tasklet)
        monkeypatch.setattr(SDFGExecutor, "_index", counted_index)

        verifier = FuzzyFlowVerifier(num_trials=2, size_max=10, backend="interpreter")
        sdfg = task.build_sdfg()
        xform = task.transformation.instantiate()
        match = verifier.enumerate_instances(sdfg, xform)[task.match_index]
        report = verifier.verify(sdfg, xform, match, symbol_values=task.symbols)

        assert report.fuzzing is not None and report.fuzzing.trials_effective > 0
        assert map_tasklets, "no map tasklet ran"
        assert runs["n"] > 0
        assert runs["max_evals"] <= 1
