"""End-to-end tests of the FuzzyFlow verifier against every bug class."""

import inspect

import numpy as np
import pytest

from repro.core import FuzzyFlowVerifier, Verdict, verify_transformation
from repro.frontend import add_init, add_matmul
from repro.sdfg import SDFG, InterstateEdge, Memlet, float64
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
    Vectorization,
)


# ---------------------------------------------------------------------- #
# Workload builders (small but representative of the paper's case studies)
# ---------------------------------------------------------------------- #
def matmul_chain_program():
    """R = ((A @ B) @ C) @ D -- the Fig. 2 running example."""
    sdfg = SDFG("matmul_chain")
    for name in ("A", "B", "C", "D", "R"):
        sdfg.add_array(name, ["N", "N"], float64)
    sdfg.add_transient("U", ["N", "N"], float64)
    sdfg.add_transient("V", ["N", "N"], float64)
    state = sdfg.add_state("chain")
    add_matmul(sdfg, state, "A", "B", "U", label="mm1")
    u_node = [n for n in state.data_nodes() if n.data == "U"][-1]
    add_matmul(sdfg, state, "U", "C", "V", label="mm2")
    add_matmul(sdfg, state, "V", "D", "R", label="mm3")
    return sdfg


def producer_consumer_program():
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
    buf = next(e.dst for e in state.out_edges(exit1))
    state.add_mapped_tasklet(
        "consume", {"i": "0:N-1"},
        {"a": Memlet.simple("tmp", "i")}, "b = a + 1",
        {"b": Memlet.simple("Y", "i")},
        input_nodes={"tmp": buf},
    )
    return sdfg


def tasklet_chain_program(read_tmp_later=False):
    sdfg = SDFG("chain")
    sdfg.add_array("x", [1], float64)
    sdfg.add_array("z", [1], float64)
    sdfg.add_array("y", [1], float64)
    sdfg.add_transient("tmp", [1], float64)
    state = sdfg.add_state("s")
    xr, zr, yw = state.add_access("x"), state.add_access("z"), state.add_access("y")
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
        tr, ow = later.add_access("tmp"), later.add_access("out2")
        t3 = later.add_tasklet("t3", ["a"], ["b"], "b = a")
        later.add_edge(tr, None, t3, "a", Memlet.simple("tmp", "0"))
        later.add_edge(t3, "b", ow, None, Memlet.simple("out2", "0"))
        sdfg.add_edge(state, later, InterstateEdge())
    return sdfg


def map_reduce_program():
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
    buf = next(e.dst for e in state.out_edges(exit1))
    state.add_mapped_tasklet(
        "reduce", {"i": "0:N-1", "j": "0:N-1"},
        {"in_val": Memlet.simple("tmp", "i, j")}, "out_val = in_val",
        {"out_val": Memlet("s", "0", wcr="sum")},
        input_nodes={"tmp": buf},
    )
    return sdfg


def descending_loop_program():
    sdfg = SDFG("loop")
    sdfg.add_array("out", [4], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("body")
    t = body.add_tasklet("acc", ["a"], ["b"], "b = a + i")
    rd, wr = body.add_access("out"), body.add_access("out")
    body.add_edge(rd, None, t, "a", Memlet.simple("out", "0"))
    body.add_edge(t, "b", wr, None, Memlet.simple("out", "0"))
    sdfg.add_loop(init, body, None, "i", "4", "i >= 1", "i - 1")
    return sdfg


def partial_write_program():
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


def alias_program():
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


def live_assignment_program():
    """K is assigned on the edge into 'second' and used by its loop nest."""
    sdfg = SDFG("liveassign")
    sdfg.add_array("X", ["N"], float64)
    sdfg.add_array("Y", ["N"], float64)
    first = sdfg.add_state("first", is_start_state=True)
    second = sdfg.add_state("second")
    second.add_mapped_tasklet(
        "use_k", {"i": "0:K-1"},
        {"a": Memlet.simple("X", "i")}, "b = a * 2",
        {"b": Memlet.simple("Y", "i")},
    )
    sdfg.add_symbol("K")
    sdfg.add_edge(first, second, InterstateEdge(assignments={"K": "N - 1"}))
    return sdfg


VERIFIER = dict(num_trials=20, seed=0, size_max=12)


def match_by_label(xform, sdfg, label):
    """Select the transformation match on the map with the exact given label."""
    for m in xform.find_matches(sdfg):
        entry = m.nodes.get("map_entry")
        if entry is not None and entry.map.label == label:
            if xform.can_be_applied(sdfg, m):
                return m
    raise AssertionError(f"no match with map label {label!r}")


# ---------------------------------------------------------------------- #
class TestVerdictsCorrectTransformations:
    """Faithful transformation variants must pass."""

    @pytest.mark.parametrize(
        "build,xform,syms",
        [
            (matmul_chain_program, MapTiling(tile_size=4), {"N": 8}),
            (producer_consumer_program, Vectorization(vector_size=4), {"N": 8}),
            (producer_consumer_program, BufferTiling(tile_size=4), {"N": 8}),
            (matmul_chain_program, MapExpansion(), {"N": 6}),
            (tasklet_chain_program, TaskletFusion(), {}),
            (map_reduce_program, MapReduceFusion(), {"N": 5}),
            (descending_loop_program, LoopUnrolling(), {}),
            (alias_program, SymbolAliasPromotion(), {"N": 6}),
            (partial_write_program, GPUKernelExtraction(), {"N": 8}),
            (tasklet_chain_program, RedundantWriteElimination(), {}),
        ],
    )
    def test_correct_variant_passes(self, build, xform, syms):
        report = verify_transformation(build(), xform, symbol_values=syms, **VERIFIER)
        assert report.verdict == Verdict.PASS, report.summary()

    def test_dead_assignment_elimination_passes(self):
        sdfg = live_assignment_program()
        # The correct variant finds no applicable match on this program (the
        # assignment is live), which is reported as UNTESTED.
        report = verify_transformation(
            sdfg, StateAssignElimination(), symbol_values={"N": 6}, **VERIFIER
        )
        assert report.verdict == Verdict.UNTESTED


class TestVerdictsBuggyTransformations:
    """Each injected bug class is detected with the expected verdict."""

    def test_tiling_off_by_one_detected(self):
        sdfg = matmul_chain_program()
        xform = MapTiling(tile_size=4, inject_bug=True, bug_kind="off_by_one")
        match = match_by_label(xform, sdfg, "mm2")
        report = verify_transformation(
            sdfg, xform, match=match, symbol_values={"N": 8}, **VERIFIER,
        )
        assert report.verdict in (Verdict.SEMANTIC_CHANGE, Verdict.INPUT_DEPENDENT)

    def test_tiling_off_by_one_harmless_on_elementwise(self):
        """The same off-by-one bug is *not* observable on a pure element-wise
        map (overlapping tiles recompute the same values), showing why
        testing each instance matters."""
        sdfg = producer_consumer_program()
        xform = MapTiling(tile_size=4, inject_bug=True, bug_kind="off_by_one")
        match = match_by_label(xform, sdfg, "produce")
        report = verify_transformation(
            sdfg, xform, match=match, symbol_values={"N": 8}, **VERIFIER,
        )
        assert report.verdict == Verdict.PASS

    def test_tiling_no_clamp_is_input_dependent(self):
        report = verify_transformation(
            matmul_chain_program(),
            MapTiling(tile_size=4, inject_bug=True, bug_kind="no_clamp"),
            symbol_values={"N": 8},
            num_trials=30, seed=1, size_max=12, stop_on_failure=False,
        )
        assert report.verdict == Verdict.INPUT_DEPENDENT

    def test_vectorization_input_dependent(self):
        report = verify_transformation(
            producer_consumer_program(),
            Vectorization(vector_size=4, inject_bug=True),
            symbol_values={"N": 8},
            num_trials=30, seed=0, size_max=12, stop_on_failure=False,
        )
        assert report.verdict == Verdict.INPUT_DEPENDENT

    def test_buffer_tiling_bug_detected(self):
        report = verify_transformation(
            producer_consumer_program(),
            BufferTiling(tile_size=4, inject_bug=True),
            symbol_values={"N": 10},
            **VERIFIER,
        )
        assert report.verdict.is_failure

    def test_map_expansion_invalid_code(self):
        report = verify_transformation(
            matmul_chain_program(), MapExpansion(inject_bug=True),
            symbol_values={"N": 6}, **VERIFIER,
        )
        assert report.verdict == Verdict.INVALID_CODE

    def test_tasklet_fusion_bug_detected(self):
        report = verify_transformation(
            tasklet_chain_program(), TaskletFusion(inject_bug=True), **VERIFIER
        )
        assert report.verdict == Verdict.SEMANTIC_CHANGE

    def test_map_reduce_fusion_invalid_code(self):
        report = verify_transformation(
            map_reduce_program(), MapReduceFusion(inject_bug=True),
            symbol_values={"N": 5}, **VERIFIER,
        )
        assert report.verdict == Verdict.INVALID_CODE

    def test_loop_unrolling_bug_detected(self):
        report = verify_transformation(
            descending_loop_program(), LoopUnrolling(inject_bug=True), **VERIFIER
        )
        assert report.verdict == Verdict.SEMANTIC_CHANGE

    def test_state_assign_elimination_bug_detected(self):
        report = verify_transformation(
            live_assignment_program(), StateAssignElimination(inject_bug=True),
            symbol_values={"N": 6}, **VERIFIER,
        )
        assert report.verdict.is_failure

    def test_symbol_alias_promotion_bug_detected(self):
        report = verify_transformation(
            alias_program(), SymbolAliasPromotion(inject_bug=True),
            symbol_values={"N": 6}, **VERIFIER,
        )
        assert report.verdict.is_failure

    def test_gpu_extraction_bug_detected(self):
        report = verify_transformation(
            partial_write_program(), GPUKernelExtraction(inject_bug=True),
            symbol_values={"N": 8}, **VERIFIER,
        )
        assert report.verdict.is_failure

    def test_write_elimination_bug_detected(self):
        report = verify_transformation(
            tasklet_chain_program(read_tmp_later=True),
            RedundantWriteElimination(inject_bug=True),
            **VERIFIER,
        )
        assert report.verdict.is_failure


class TestVerifierFeatures:
    def test_report_contents(self):
        report = verify_transformation(
            producer_consumer_program(), Vectorization(vector_size=4),
            symbol_values={"N": 8}, **VERIFIER,
        )
        assert report.cutout_nodes > 0
        assert report.cutout_containers > 0
        assert report.input_configuration
        assert report.system_state
        assert report.fuzzing is not None
        assert "Verdict" in report.summary()

    def test_minimization_reported(self):
        # Vectorizing the consumer of a producer/consumer pair: minimization
        # replaces tmp (an equal-size input) or keeps the cutout -- either
        # way the report carries the flag without error.
        report = verify_transformation(
            producer_consumer_program(), Vectorization(vector_size=4),
            symbol_values={"N": 8}, minimize_inputs=True, **VERIFIER,
        )
        assert isinstance(report.minimized, bool)

    def test_minimization_can_be_disabled(self):
        report = verify_transformation(
            producer_consumer_program(), Vectorization(vector_size=4),
            symbol_values={"N": 8}, minimize_inputs=False, **VERIFIER,
        )
        assert report.minimized is False

    def test_untested_when_no_match(self):
        sdfg = SDFG("empty")
        sdfg.add_state("s")
        report = verify_transformation(sdfg, MapTiling(), **VERIFIER)
        assert report.verdict == Verdict.UNTESTED

    def test_verify_all_instances(self):
        verifier = FuzzyFlowVerifier(num_trials=8, seed=0, size_max=10)
        reports = verifier.verify_all_instances(
            matmul_chain_program(), MapTiling(tile_size=4), symbol_values={"N": 6}
        )
        # One instance per top-level map: three matmul maps + three
        # zero-initialization maps.
        assert len(reports) == 6
        assert all(r.verdict == Verdict.PASS for r in reports)

    def test_test_case_saved_on_failure(self, tmp_path):
        report = verify_transformation(
            tasklet_chain_program(), TaskletFusion(inject_bug=True),
            test_case_dir=str(tmp_path), **VERIFIER,
        )
        assert report.verdict == Verdict.SEMANTIC_CHANGE
        assert report.test_case_path is not None
        from repro.core import load_test_case

        case = load_test_case(report.test_case_path)
        assert case.replay()["reproduced"]

    def test_whole_program_baseline_agrees(self):
        verifier = FuzzyFlowVerifier(num_trials=10, seed=0, size_max=10)
        xform = MapTiling(tile_size=4, inject_bug=True)
        prog1 = matmul_chain_program()
        cut = verifier.verify(
            prog1, xform, match=match_by_label(xform, prog1, "mm2"),
            symbol_values={"N": 8},
        )
        prog2 = matmul_chain_program()
        whole = verifier.verify_whole_program(
            prog2, xform, match=match_by_label(xform, prog2, "mm2"),
            symbol_values={"N": 8},
        )
        assert cut.verdict.is_failure and whole.verdict.is_failure

    def test_whole_program_baseline_passes_correct(self):
        verifier = FuzzyFlowVerifier(num_trials=5, seed=0, size_max=10)
        whole = verifier.verify_whole_program(
            matmul_chain_program(), MapTiling(tile_size=4), symbol_values={"N": 8}
        )
        assert whole.verdict == Verdict.PASS

    def test_knob_set_is_pinned(self):
        """One verifier configuration: each of these is set by some entry
        point (README "Verifier configuration"); a ninth knob needs a
        deliberate edit here."""
        knobs = list(inspect.signature(FuzzyFlowVerifier.__init__).parameters)[1:]
        assert knobs == [
            "num_trials", "minimize_inputs", "vary_sizes", "stop_on_failure",
            "size_max", "seed", "test_case_dir", "backend",
        ]
