"""Tests for the transformation framework and all transformations.

Each transformation is checked in its faithful (semantics-preserving) variant
by comparing program outputs before/after on concrete inputs, and in its
buggy variant by asserting the specific failure class the paper reports
(wrong results, out-of-bounds crash, or invalid generated code).
"""

import numpy as np
import pytest
from support import add_scale, apply_to_first

from repro.interpreter import MemoryViolation, execute_sdfg
from repro.interpreter.errors import ExecutionError
from repro.sdfg import (
    SDFG,
    InterstateEdge,
    InvalidSDFGError,
    MapEntry,
    Memlet,
    float64,
    validate_sdfg,
)
from repro.frontend import add_init, add_matmul
from repro.transforms import (
    BufferTiling,
    GPUKernelExtraction,
    LoopUnrolling,
    MapExpansion,
    MapReduceFusion,
    MapTiling,
    RedundantWriteElimination,
    StateAssignElimination,
    SymbolAliasPromotion,
    TaskletFusion,
    TransformationError,
    Vectorization,
    all_builtin_transformations,
)


# ---------------------------------------------------------------------- #
# Program builders
# ---------------------------------------------------------------------- #
def matmul_program():
    sdfg = SDFG("mm")
    sdfg.add_array("A", ["N", "N"], float64)
    sdfg.add_array("B", ["N", "N"], float64)
    sdfg.add_array("C", ["N", "N"], float64)
    state = sdfg.add_state("mm")
    add_matmul(sdfg, state, "A", "B", "C", accumulate=True)
    return sdfg


def scale_program():
    sdfg = SDFG("scale")
    sdfg.add_array("X", ["N"], float64)
    sdfg.add_array("Y", ["N"], float64)
    sdfg.add_scalar("factor", float64)
    state = sdfg.add_state("s")
    add_scale(sdfg, state, "X", "Y", "factor")
    return sdfg


def producer_consumer_program():
    """tmp[i] = X[i] * 2;  Y[i] = tmp[i] + 1  (two maps around a buffer)."""
    sdfg = SDFG("prodcons")
    sdfg.add_array("X", ["N"], float64)
    sdfg.add_array("Y", ["N"], float64)
    sdfg.add_transient("tmp", ["N"], float64)
    state = sdfg.add_state("s")
    _, _, exit1 = state.add_mapped_tasklet(
        "produce", {"i": "0:N-1"},
        {"a": Memlet.simple("X", "i")}, "b = a * 2",
        {"b": Memlet.simple("tmp", "i")},
    )
    buf_node = next(e.dst for e in state.out_edges(exit1))
    state.add_mapped_tasklet(
        "consume", {"i": "0:N-1"},
        {"a": Memlet.simple("tmp", "i")}, "b = a + 1",
        {"b": Memlet.simple("Y", "i")},
        input_nodes={"tmp": buf_node},
    )
    return sdfg


def tasklet_chain_program(read_tmp_later: bool = False):
    """tmp = x*2 ; y = tmp + z, optionally followed by out2 = tmp later."""
    sdfg = SDFG("chain")
    sdfg.add_array("x", [1], float64)
    sdfg.add_array("z", [1], float64)
    sdfg.add_array("y", [1], float64)
    sdfg.add_transient("tmp", [1], float64)
    state = sdfg.add_state("s")
    xr = state.add_access("x")
    zr = state.add_access("z")
    yw = state.add_access("y")
    tmpn = state.add_access("tmp")
    t1 = state.add_tasklet("t1", ["a"], ["b"], "b = a * 2")
    t2 = state.add_tasklet("t2", ["c", "d"], ["e"], "e = c + d")
    state.add_edge(xr, None, t1, "a", Memlet.simple("x", "0"))
    state.add_edge(t1, "b", tmpn, None, Memlet.simple("tmp", "0"))
    state.add_edge(tmpn, None, t2, "c", Memlet.simple("tmp", "0"))
    state.add_edge(zr, None, t2, "d", Memlet.simple("z", "0"))
    state.add_edge(t2, "e", yw, None, Memlet.simple("y", "0"))
    if read_tmp_later:
        sdfg.add_array("out2", [1], float64)
        later = sdfg.add_state("later")
        tr = later.add_access("tmp")
        ow = later.add_access("out2")
        t3 = later.add_tasklet("t3", ["a"], ["b"], "b = a")
        later.add_edge(tr, None, t3, "a", Memlet.simple("tmp", "0"))
        later.add_edge(t3, "b", ow, None, Memlet.simple("out2", "0"))
        sdfg.add_edge(state, later, InterstateEdge())
    return sdfg


def map_reduce_program():
    """tmp[i,j] = A[i,j]**2 ; s[0] += tmp[i,j]  (map followed by reduction)."""
    sdfg = SDFG("mapreduce")
    sdfg.add_array("A", ["N", "N"], float64)
    sdfg.add_array("s", [1], float64)
    sdfg.add_transient("tmp", ["N", "N"], float64)
    state = sdfg.add_state("c")
    add_init(sdfg, state, "s", 0.0)
    _, _, exit1 = state.add_mapped_tasklet(
        "square", {"i": "0:N-1", "j": "0:N-1"},
        {"a": Memlet.simple("A", "i, j")}, "b = a * a",
        {"b": Memlet.simple("tmp", "i, j")},
    )
    buf_node = next(e.dst for e in state.out_edges(exit1))
    state.add_mapped_tasklet(
        "reduce", {"i": "0:N-1", "j": "0:N-1"},
        {"in_val": Memlet.simple("tmp", "i, j")}, "out_val = in_val",
        {"out_val": Memlet("s", "0", wcr="sum")},
        input_nodes={"tmp": buf_node},
    )
    return sdfg


def loop_program(descending: bool = False):
    """Sequential loop accumulating i into every element of out."""
    sdfg = SDFG("loop")
    sdfg.add_array("out", [8], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("body")
    t = body.add_tasklet("acc", ["a"], ["b"], "b = a + i")
    rd = body.add_access("out")
    wr = body.add_access("out")
    body.add_edge(rd, None, t, "a", Memlet.simple("out", "0"))
    body.add_edge(t, "b", wr, None, Memlet.simple("out", "0"))
    if descending:
        sdfg.add_loop(init, body, None, "i", "4", "i >= 1", "i - 1")
    else:
        sdfg.add_loop(init, body, None, "i", "1", "i <= 4", "i + 1")
    return sdfg


def alias_program():
    """Assigns M = N on an interstate edge, then uses M in dataflow."""
    sdfg = SDFG("alias")
    sdfg.add_array("X", ["N"], float64)
    sdfg.add_array("Y", ["N"], float64)
    first = sdfg.add_state("first", is_start_state=True)
    second = sdfg.add_state("second")
    second.add_mapped_tasklet(
        "copy", {"i": "0:M-1"},
        {"a": Memlet.simple("X", "i")}, "b = a + 1",
        {"b": Memlet.simple("Y", "i")},
    )
    sdfg.add_symbol("M")
    sdfg.add_edge(first, second, InterstateEdge(assignments={"M": "N"}))
    return sdfg


def dead_assignment_program(dead: bool = True):
    """Assigns K on an edge; K is used downstream only when dead=False."""
    sdfg = SDFG("deadassign")
    sdfg.add_array("X", ["N"], float64)
    sdfg.add_array("Y", ["N"], float64)
    first = sdfg.add_state("first", is_start_state=True)
    second = sdfg.add_state("second")
    third = sdfg.add_state("third")
    second.add_mapped_tasklet(
        "copy", {"i": "0:N-1"},
        {"a": Memlet.simple("X", "i")}, "b = a * 2",
        {"b": Memlet.simple("Y", "i")},
    )
    if not dead:
        # K is used two states later.
        third.add_mapped_tasklet(
            "use_k", {"i": "0:K-1"},
            {"a": Memlet.simple("Y", "i")}, "b = a + 1",
            {"b": Memlet.simple("Y", "i")},
        )
    sdfg.add_symbol("K")
    sdfg.add_edge(first, second, InterstateEdge(assignments={"K": "N - 1"}))
    sdfg.add_edge(second, third, InterstateEdge())
    return sdfg


def partial_write_program():
    """Kernel writes only the first half of OUT; the rest holds prior data."""
    sdfg = SDFG("partial")
    sdfg.add_array("IN", ["N"], float64)
    sdfg.add_array("OUT", ["N"], float64)
    state = sdfg.add_state("k")
    state.add_mapped_tasklet(
        "half", {"i": "0:(N//2)-1"},
        {"a": Memlet.simple("IN", "i")}, "b = a * 3",
        {"b": Memlet.simple("OUT", "i")},
    )
    return sdfg


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def run_both(build, transformation, args_builder, symbols, match_index=0):
    """Run a program before and after a transformation on the same inputs."""
    original = build()
    transformed = original.clone()
    matches = [
        m for m in transformation.find_matches(transformed)
        if transformation.can_be_applied(transformed, m)
    ]
    assert matches, f"{transformation.name}: no applicable match"
    transformation.apply(transformed, matches[min(match_index, len(matches) - 1)])
    args1 = args_builder()
    args2 = args_builder()
    r1 = execute_sdfg(original, args1, symbols)
    r2 = execute_sdfg(transformed, args2, symbols)
    return r1, r2, transformed


# ---------------------------------------------------------------------- #
class TestMapTiling:
    def _args(self, n, rng):
        return lambda: {
            "A": rng.standard_normal((n, n)),
            "B": rng.standard_normal((n, n)),
            "C": np.zeros((n, n)),
        }

    def test_correct_divisible(self, rng):
        rng_state = np.random.default_rng(0)
        args = self._args(8, rng_state)()
        r1, r2, _ = run_both(
            matmul_program, MapTiling(tile_size=4), lambda: {k: v.copy() for k, v in args.items()},
            {"N": 8},
        )
        np.testing.assert_allclose(r1.outputs["C"], r2.outputs["C"], rtol=1e-12)

    def test_correct_non_divisible(self, rng):
        args = {
            "A": rng.standard_normal((7, 7)),
            "B": rng.standard_normal((7, 7)),
            "C": np.zeros((7, 7)),
        }
        r1, r2, _ = run_both(
            matmul_program, MapTiling(tile_size=4),
            lambda: {k: v.copy() for k, v in args.items()}, {"N": 7},
        )
        np.testing.assert_allclose(r1.outputs["C"], r2.outputs["C"], rtol=1e-12)

    def test_off_by_one_bug_changes_result(self, rng):
        args = {
            "A": rng.standard_normal((8, 8)),
            "B": rng.standard_normal((8, 8)),
            "C": np.zeros((8, 8)),
        }
        r1, r2, _ = run_both(
            matmul_program, MapTiling(tile_size=4, inject_bug=True, bug_kind="off_by_one"),
            lambda: {k: v.copy() for k, v in args.items()}, {"N": 8},
        )
        assert not np.allclose(r1.outputs["C"], r2.outputs["C"])

    def test_no_clamp_bug_crashes_on_non_divisible(self, rng):
        original = matmul_program()
        transformed = original.clone()
        xform = MapTiling(tile_size=4, inject_bug=True, bug_kind="no_clamp")
        apply_to_first(xform, transformed)
        args = {
            "A": rng.standard_normal((7, 7)),
            "B": rng.standard_normal((7, 7)),
            "C": np.zeros((7, 7)),
        }
        with pytest.raises(MemoryViolation):
            execute_sdfg(transformed, args, {"N": 7})

    def test_no_clamp_bug_passes_on_divisible(self, rng):
        args = {
            "A": rng.standard_normal((8, 8)),
            "B": rng.standard_normal((8, 8)),
            "C": np.zeros((8, 8)),
        }
        r1, r2, _ = run_both(
            matmul_program, MapTiling(tile_size=4, inject_bug=True, bug_kind="no_clamp"),
            lambda: {k: v.copy() for k, v in args.items()}, {"N": 8},
        )
        np.testing.assert_allclose(r1.outputs["C"], r2.outputs["C"], rtol=1e-12)

    def test_modified_nodes_cover_scope(self):
        sdfg = matmul_program()
        xform = MapTiling(tile_size=4)
        match = xform.find_matches(sdfg)[0]
        nodes = xform.modified_nodes(sdfg, match)
        assert len(nodes) >= 3  # entry + tasklet + exit at least


class TestVectorization:
    def test_correct_preserves_semantics(self, rng):
        for n in (8, 10):  # divisible and not divisible by 4
            x = rng.standard_normal(n)
            args = lambda: {"X": x.copy(), "Y": np.zeros(n), "factor": 1.5}
            r1, r2, _ = run_both(scale_program, Vectorization(vector_size=4), args, {"N": n})
            np.testing.assert_allclose(r1.outputs["Y"], r2.outputs["Y"], rtol=1e-12)

    def test_buggy_is_input_size_dependent(self, rng):
        # Divisible size: results match.
        x8 = rng.standard_normal(8)
        r1, r2, _ = run_both(
            scale_program, Vectorization(vector_size=4, inject_bug=True),
            lambda: {"X": x8.copy(), "Y": np.zeros(8), "factor": 2.0}, {"N": 8},
        )
        np.testing.assert_allclose(r1.outputs["Y"], r2.outputs["Y"], rtol=1e-12)
        # Non-divisible size: out-of-bounds access.
        transformed = scale_program()
        apply_to_first(Vectorization(vector_size=4, inject_bug=True), transformed)
        with pytest.raises(MemoryViolation):
            execute_sdfg(
                transformed, {"X": rng.standard_normal(10), "Y": np.zeros(10), "factor": 2.0},
                {"N": 10},
            )

    def test_not_applicable_to_wcr_maps(self):
        sdfg = matmul_program()
        xform = Vectorization()
        matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
        # The matmul map uses a write-conflict resolution -> no vectorization.
        mm_matches = [m for m in matches if m.nodes["map_entry"].map.label.startswith("matmul")]
        assert not mm_matches


class TestMapExpansion:
    def test_correct_preserves_semantics(self, rng):
        args = {
            "A": rng.standard_normal((6, 6)),
            "B": rng.standard_normal((6, 6)),
            "C": np.zeros((6, 6)),
        }
        r1, r2, transformed = run_both(
            matmul_program, MapExpansion(),
            lambda: {k: v.copy() for k, v in args.items()}, {"N": 6}, match_index=1,
        )
        np.testing.assert_allclose(r1.outputs["C"], r2.outputs["C"], rtol=1e-12)
        validate_sdfg(transformed)
        # The 3D matmul map became a chain of nested 1D maps.
        entries = [
            n for st in transformed.states() for n in st.nodes() if isinstance(n, MapEntry)
        ]
        assert all(len(e.map.params) == 1 for e in entries)

    def test_buggy_generates_invalid_code(self):
        sdfg = matmul_program()
        xform = MapExpansion(inject_bug=True)
        matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
        target = [m for m in matches if len(m.nodes["map_entry"].map.params) == 3][0]
        xform.apply(sdfg, target)
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)


class TestBufferTiling:
    def test_correct_preserves_semantics(self, rng):
        x = rng.standard_normal(13)
        r1, r2, _ = run_both(
            producer_consumer_program, BufferTiling(tile_size=4),
            lambda: {"X": x.copy(), "Y": np.zeros(13)}, {"N": 13},
        )
        np.testing.assert_allclose(r1.outputs["Y"], r2.outputs["Y"], rtol=1e-12)

    def test_buggy_drops_remainder(self, rng):
        x = rng.standard_normal(13)
        r1, r2, _ = run_both(
            producer_consumer_program, BufferTiling(tile_size=4, inject_bug=True),
            lambda: {"X": x.copy(), "Y": np.zeros(13)}, {"N": 13},
        )
        assert not np.allclose(r1.outputs["Y"], r2.outputs["Y"])

    def test_buggy_matches_correct_on_divisible_sizes(self, rng):
        x = rng.standard_normal(12)
        r1, r2, _ = run_both(
            producer_consumer_program, BufferTiling(tile_size=4, inject_bug=True),
            lambda: {"X": x.copy(), "Y": np.zeros(12)}, {"N": 12},
        )
        np.testing.assert_allclose(r1.outputs["Y"], r2.outputs["Y"], rtol=1e-12)


class TestTaskletFusion:
    def test_correct_preserves_semantics(self):
        r1, r2, transformed = run_both(
            tasklet_chain_program, TaskletFusion(),
            lambda: {"x": np.array([3.0]), "z": np.array([4.0]), "y": np.zeros(1)}, {},
        )
        np.testing.assert_allclose(r1.outputs["y"], r2.outputs["y"])
        assert "tmp" not in transformed.arrays

    def test_buggy_changes_semantics(self):
        r1, r2, _ = run_both(
            tasklet_chain_program, TaskletFusion(inject_bug=True),
            lambda: {"x": np.array([3.0]), "z": np.array([4.0]), "y": np.zeros(1)}, {},
        )
        # Correct: y = 3*2 + 4 = 10; buggy forwards x instead of tmp: 3 + 4 = 7.
        assert r1.outputs["y"][0] == pytest.approx(10.0)
        assert r2.outputs["y"][0] == pytest.approx(7.0)

    def test_not_applicable_when_tmp_read_later(self):
        sdfg = tasklet_chain_program(read_tmp_later=True)
        xform = TaskletFusion()
        matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
        assert not matches


class TestRedundantWriteElimination:
    def test_correct_refuses_live_temporary(self):
        sdfg = tasklet_chain_program(read_tmp_later=True)
        xform = RedundantWriteElimination()
        matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
        assert not matches

    def test_buggy_eliminates_live_write(self):
        build = lambda: tasklet_chain_program(read_tmp_later=True)
        args = lambda: {
            "x": np.array([3.0]), "z": np.array([4.0]),
            "y": np.zeros(1), "out2": np.zeros(1),
        }
        r1, r2, _ = run_both(build, RedundantWriteElimination(inject_bug=True), args, {})
        # The later read of tmp now sees stale (zero) data.
        assert r1.outputs["out2"][0] == pytest.approx(6.0)
        assert r2.outputs["out2"][0] != pytest.approx(6.0)

    def test_correct_applies_when_safe(self):
        r1, r2, _ = run_both(
            tasklet_chain_program, RedundantWriteElimination(),
            lambda: {"x": np.array([2.0]), "z": np.array([1.0]), "y": np.zeros(1)}, {},
        )
        np.testing.assert_allclose(r1.outputs["y"], r2.outputs["y"])


class TestMapReduceFusion:
    def test_correct_preserves_semantics(self, rng):
        A = rng.standard_normal((5, 5))
        r1, r2, transformed = run_both(
            map_reduce_program, MapReduceFusion(),
            lambda: {"A": A.copy(), "s": np.zeros(1)}, {"N": 5},
        )
        np.testing.assert_allclose(r1.outputs["s"], r2.outputs["s"], rtol=1e-12)
        validate_sdfg(transformed)
        assert "tmp" not in transformed.arrays

    def test_buggy_generates_invalid_code(self):
        sdfg = map_reduce_program()
        apply_to_first(MapReduceFusion(inject_bug=True), sdfg)
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)


class TestLoopUnrolling:
    def test_correct_ascending(self):
        r1, r2, transformed = run_both(
            lambda: loop_program(descending=False), LoopUnrolling(),
            lambda: {"out": np.zeros(8)}, {},
        )
        np.testing.assert_allclose(r1.outputs["out"], r2.outputs["out"])
        assert r2.outputs["out"][0] == pytest.approx(10.0)  # 1+2+3+4
        assert len(transformed.states()) >= 5  # init + 4 unrolled + after

    def test_correct_descending(self):
        r1, r2, _ = run_both(
            lambda: loop_program(descending=True), LoopUnrolling(),
            lambda: {"out": np.zeros(8)}, {},
        )
        np.testing.assert_allclose(r1.outputs["out"], r2.outputs["out"])

    def test_buggy_descending_drops_iterations(self):
        r1, r2, _ = run_both(
            lambda: loop_program(descending=True), LoopUnrolling(inject_bug=True),
            lambda: {"out": np.zeros(8)}, {},
        )
        assert r1.outputs["out"][0] == pytest.approx(10.0)
        assert r2.outputs["out"][0] != pytest.approx(10.0)

    def test_buggy_ascending_still_correct(self):
        """The injected bug only affects descending loops (as in the paper)."""
        r1, r2, _ = run_both(
            lambda: loop_program(descending=False), LoopUnrolling(inject_bug=True),
            lambda: {"out": np.zeros(8)}, {},
        )
        np.testing.assert_allclose(r1.outputs["out"], r2.outputs["out"])

    def test_not_applicable_to_symbolic_bounds(self):
        sdfg = SDFG("symloop")
        sdfg.add_array("out", [4], float64)
        init = sdfg.add_state("init", is_start_state=True)
        body = sdfg.add_state("body")
        t = body.add_tasklet("w", [], ["o"], "o = i")
        w = body.add_access("out")
        body.add_edge(t, "o", w, None, Memlet.simple("out", "0"))
        sdfg.add_loop(init, body, None, "i", "0", "i < N", "i + 1")
        xform = LoopUnrolling()
        matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
        assert not matches


class TestStateAssignElimination:
    def test_correct_removes_dead_assignment(self):
        sdfg = dead_assignment_program(dead=True)
        xform = StateAssignElimination()
        matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
        assert len(matches) == 1
        xform.apply(sdfg, matches[0])
        # Program still runs correctly.
        res = execute_sdfg(sdfg, {"X": np.ones(4), "Y": np.zeros(4)}, {"N": 4})
        np.testing.assert_allclose(res.outputs["Y"], 2 * np.ones(4))

    def test_correct_keeps_live_assignment(self):
        sdfg = dead_assignment_program(dead=False)
        xform = StateAssignElimination()
        matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
        assert not matches

    def test_buggy_removes_live_assignment(self):
        sdfg = dead_assignment_program(dead=False)
        xform = StateAssignElimination(inject_bug=True)
        matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
        assert matches
        xform.apply(sdfg, matches[0])
        with pytest.raises(ExecutionError):
            execute_sdfg(sdfg, {"X": np.ones(4), "Y": np.zeros(4)}, {"N": 4})


class TestSymbolAliasPromotion:
    def test_correct_promotion(self):
        sdfg = alias_program()
        xform = SymbolAliasPromotion()
        apply_to_first(xform, sdfg)
        res = execute_sdfg(sdfg, {"X": np.ones(5), "Y": np.zeros(5)}, {"N": 5})
        np.testing.assert_allclose(res.outputs["Y"], 2 * np.ones(5))

    def test_downstream_interstate_uses_are_rewritten(self):
        sdfg = alias_program()
        third = sdfg.add_state("third")
        edge = sdfg.add_edge(
            sdfg.state_by_label("second"), third, InterstateEdge("M > 0", {"K": "M + 1"})
        )
        apply_to_first(SymbolAliasPromotion(), sdfg)
        assert edge.data.condition == "N > 0"
        assert edge.data.assignments == {"K": "N + 1"}

    def test_buggy_promotion_breaks_execution(self):
        sdfg = alias_program()
        xform = SymbolAliasPromotion(inject_bug=True)
        apply_to_first(xform, sdfg)
        with pytest.raises(ExecutionError):
            execute_sdfg(sdfg, {"X": np.ones(5), "Y": np.zeros(5)}, {"N": 5})


class TestGPUKernelExtraction:
    def test_correct_full_write(self, rng):
        x = rng.standard_normal(8)
        r1, r2, transformed = run_both(
            scale_program, GPUKernelExtraction(),
            lambda: {"X": x.copy(), "Y": np.zeros(8), "factor": 2.0}, {"N": 8},
        )
        np.testing.assert_allclose(r1.outputs["Y"], r2.outputs["Y"], rtol=1e-12)
        assert any(name.startswith("gpu_") for name in transformed.arrays)

    def test_correct_partial_write(self, rng):
        """With the full copy-in, partially written outputs stay intact."""
        inp = rng.standard_normal(8)
        out = rng.standard_normal(8)
        r1, r2, _ = run_both(
            partial_write_program, GPUKernelExtraction(),
            lambda: {"IN": inp.copy(), "OUT": out.copy()}, {"N": 8},
        )
        np.testing.assert_allclose(r1.outputs["OUT"], r2.outputs["OUT"], rtol=1e-12)

    def test_buggy_partial_write_corrupts_host_data(self, rng):
        inp = rng.standard_normal(8)
        out = rng.standard_normal(8)
        r1, r2, _ = run_both(
            partial_write_program, GPUKernelExtraction(inject_bug=True),
            lambda: {"IN": inp.copy(), "OUT": out.copy()}, {"N": 8},
        )
        # The second half of OUT is overwritten with garbage (zeros).
        np.testing.assert_allclose(r1.outputs["OUT"][4:], out[4:])
        assert not np.allclose(r2.outputs["OUT"][4:], out[4:])

    def test_buggy_full_write_is_harmless(self, rng):
        """Kernels that write the whole container pass even when buggy --
        this is why only 48 of the paper's 62 instances failed."""
        x = rng.standard_normal(8)
        r1, r2, _ = run_both(
            scale_program, GPUKernelExtraction(inject_bug=True),
            lambda: {"X": x.copy(), "Y": np.zeros(8), "factor": 2.0}, {"N": 8},
        )
        np.testing.assert_allclose(r1.outputs["Y"], r2.outputs["Y"], rtol=1e-12)


class TestFramework:
    def test_registry_contains_builtins(self):
        reg = all_builtin_transformations()
        for name in (
            "MapTiling", "Vectorization", "MapExpansion", "BufferTiling",
            "TaskletFusion", "MapReduceFusion", "StateAssignElimination",
            "SymbolAliasPromotion",
        ):
            assert name in reg
        # Custom (case-study) transformations are not in the built-in sweep.
        assert "GPUKernelExtraction" not in reg
        assert "LoopUnrolling" not in reg

    def test_apply_to_first_raises_without_match(self):
        sdfg = SDFG("empty")
        sdfg.add_state("s")
        assert MapTiling().find_matches(sdfg) == []
        with pytest.raises(TransformationError):
            apply_to_first(MapTiling(), sdfg)

    def test_match_describe(self):
        sdfg = matmul_program()
        m = MapTiling().find_matches(sdfg)[0]
        assert "MapTiling" in m.describe()
        assert repr(m)
