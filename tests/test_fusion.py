"""Tests for scope fusion and driver inlining.

Scope fusion collapses chains of elementwise map scopes into one
composed vectorized kernel; the compiled driver additionally inlines
per-state op lists.  All of it must
stay bitwise identical to the reference interpreter -- outputs, final
symbols and transition counts -- and every precondition
failure (WCR-fed reads, subset mismatches, dynamic subsets, non-vectorizable
members) must fall back cleanly to per-scope execution.
"""

import numpy as np
import pytest

import repro.backends.compiled as compiled_module
from repro.backends import get_backend
from repro.backends.compiled import CompiledExecutor
from repro.sdfg import SDFG, InterstateEdge, Memlet, float64
from repro.sdfg.analysis import elementwise_scope_chains
from repro.workloads import get_workload, get_workload_suite

NPBENCH = [spec.name for spec in get_workload_suite("npbench")]


def make_arguments(sdfg, symbols, seed=0):
    rng = np.random.default_rng(seed)
    return {
        name: rng.standard_normal(desc.concrete_shape(symbols))
        for name, desc in sdfg.arrays.items()
        if not desc.transient
    }


def assert_identical(r1, r2):
    assert set(r1.outputs) == set(r2.outputs)
    for name in r1.outputs:
        a, b = r1.outputs[name], r2.outputs[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), (
            f"container '{name}' differs bitwise"
        )
    assert r1.symbols == r2.symbols
    assert r1.transitions == r2.transitions


def interpreter_reference(sdfg, args, symbols):
    return get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)


def run_all_backends(sdfg, symbols, seed=0):
    """Interpreter vs. compiled on one program; returns the candidate
    program, by backend name, for stats inspection."""
    args = make_arguments(sdfg, symbols, seed)
    ref = interpreter_reference(sdfg, args, symbols)
    programs = {}
    for name in ("compiled",):
        program = get_backend(name).prepare(sdfg)
        result = program.run(dict(args), symbols)
        assert_identical(ref, result)
        programs[name] = program
    return programs


# ---------------------------------------------------------------------- #
# Builders
# ---------------------------------------------------------------------- #
def chain_sdfg(codes, ranges=None, out_container="Out"):
    """A single-state chain: A -> t0 -> t1 -> ... -> Out.

    ``codes[k]`` is stage k's tasklet body (input connector ``x``, output
    ``y``); ``ranges`` overrides the per-stage map range (default identical
    ``0:N-1`` everywhere, the fusable shape).
    """
    sdfg = SDFG("chain")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_array(out_container, ["N"], float64)
    state = sdfg.add_state("chain", is_start_state=True)
    prev, prev_node = "A", None
    for k, code in enumerate(codes):
        out = out_container if k == len(codes) - 1 else f"t{k}"
        if out != out_container:
            sdfg.add_transient(out, ["N"], float64)
        rng = (ranges or ["0:N-1"] * len(codes))[k]
        _, _, mexit = state.add_mapped_tasklet(
            f"stage{k}", {"i": rng},
            {"x": Memlet.simple(prev, "i")},
            code,
            {"y": Memlet.simple(out, "i")},
            input_nodes={prev: prev_node} if prev_node is not None else None,
        )
        prev_node = next(e.dst for e in state.out_edges(mexit))
        prev = out
    return sdfg


def looped_pipeline(stages=4):
    """T loop iterations of a `stages`-deep elementwise chain A -> ... -> A."""
    sdfg = SDFG("looped_pipeline")
    sdfg.add_array("A", ["N"], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("pipeline")
    prev, prev_node = "A", None
    for k in range(stages):
        out = "A" if k == stages - 1 else f"t{k}"
        if out != "A":
            sdfg.add_transient(out, ["N"], float64)
        _, _, mexit = body.add_mapped_tasklet(
            f"stage{k}", {"i": "0:N-1"},
            {"x": Memlet.simple(prev, "i")},
            f"y = 0.5 * x + {k}.0",
            {"y": Memlet.simple(out, "i")},
            input_nodes={prev: prev_node} if prev_node is not None else None,
        )
        prev_node = next(e.dst for e in body.out_edges(mexit))
        prev = out
    sdfg.add_loop(init, body, None, "t", "0", "t < T", "t + 1")
    return sdfg


# ---------------------------------------------------------------------- #
# Chain discovery (analysis pass)
# ---------------------------------------------------------------------- #
class TestChainDiscovery:
    def chains_of(self, sdfg):
        state = sdfg.states()[0]
        return [
            [e.map.label for e in chain]
            for chain in elementwise_scope_chains(state)
        ]

    def test_matching_scopes_form_one_chain(self):
        sdfg = chain_sdfg(["y = x + 1.0", "y = x * 2.0", "y = x - 3.0"])
        assert self.chains_of(sdfg) == [["stage0", "stage1", "stage2"]]

    def test_mismatched_ranges_split_the_chain(self):
        sdfg = chain_sdfg(
            ["y = x + 1.0", "y = x * 2.0", "y = x - 3.0"],
            ranges=["0:N-1", "1:N-2", "1:N-2"],
        )
        # stage0 alone is not a chain; stages 1+2 agree on their domain.
        assert self.chains_of(sdfg) == [["stage1", "stage2"]]

    def test_mismatched_params_split_the_chain(self):
        sdfg = SDFG("params")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("B", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "first", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("B", "i")},
        )
        b_node = next(e.dst for e in state.out_edges(mexit))
        state.add_mapped_tasklet(
            "second", {"j": "0:N-1"}, {"x": Memlet.simple("B", "j")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "j")},
            input_nodes={"B": b_node},
        )
        assert self.chains_of(sdfg) == []

    def test_intervening_copy_breaks_the_chain(self):
        """An access-to-access copy executes between the scopes."""
        sdfg = SDFG("copy_between")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("B", ["N"], float64)
        sdfg.add_transient("C", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "first", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("B", "i")},
        )
        b_node = next(e.dst for e in state.out_edges(mexit))
        c_node = state.add_access("C")
        state.add_nedge(b_node, c_node, Memlet.simple("B", "0:N-1"))
        state.add_mapped_tasklet(
            "second", {"i": "0:N-1"}, {"x": Memlet.simple("C", "i")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"C": c_node},
        )
        assert self.chains_of(sdfg) == []

    def test_parity_with_intervening_copy(self):
        sdfg = SDFG("copy_between2")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("B", ["N"], float64)
        sdfg.add_transient("C", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "first", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("B", "i")},
        )
        b_node = next(e.dst for e in state.out_edges(mexit))
        c_node = state.add_access("C")
        state.add_nedge(b_node, c_node, Memlet.simple("B", "0:N-1"))
        state.add_mapped_tasklet(
            "second", {"i": "0:N-1"}, {"x": Memlet.simple("C", "i")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"C": c_node},
        )
        programs = run_all_backends(sdfg, {"N": 9})
        assert programs["compiled"].stats["fused"] == 0


# ---------------------------------------------------------------------- #
# Fused execution parity
# ---------------------------------------------------------------------- #
class TestFusedParity:
    def test_three_stage_chain_bitwise(self):
        sdfg = chain_sdfg(["y = x + 1.0", "y = x * 2.0", "y = math.sin(x)"])
        programs = run_all_backends(sdfg, {"N": 17})
        for program in programs.values():
            assert program.stats["fused"] == 1
            assert program.stats["vectorized"] == 3
            assert program.stats["fallback"] == 0

    def test_private_intermediates_are_internalized(self):
        sdfg = chain_sdfg(["y = x + 1.0", "y = x * 2.0"])
        program = CompiledExecutor(sdfg)
        (table,) = program.tables
        (fused,) = table.heads.values()
        kinds = [kind for m in fused.members for kind, _, _ in m.outputs]
        assert kinds == ["internal", "write"]

    def test_non_transient_intermediate_is_materialized(self):
        """B is a program output: the fused chain must still write it."""
        sdfg = SDFG("visible_mid")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("B", ["N"], float64)  # NOT transient
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "first", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("B", "i")},
        )
        b_node = next(e.dst for e in state.out_edges(mexit))
        state.add_mapped_tasklet(
            "second", {"i": "0:N-1"}, {"x": Memlet.simple("B", "i")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"B": b_node},
        )
        programs = run_all_backends(sdfg, {"N": 11})
        assert programs["compiled"].stats["fused"] == 1
        (table,) = programs["compiled"].tables
        (fused,) = table.heads.values()
        kinds = [kind for m in fused.members for kind, _, _ in m.outputs]
        assert kinds == ["write", "write"]

    def test_intermediate_read_by_later_state_is_materialized(self):
        """The chain's transient is consumed by a second state: skipping its
        write would corrupt the downstream read."""
        sdfg = SDFG("cross_state")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("B", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        sdfg.add_array("Out2", ["N"], float64)
        first = sdfg.add_state("first", is_start_state=True)
        _, _, mexit = first.add_mapped_tasklet(
            "p", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("B", "i")},
        )
        b_node = next(e.dst for e in first.out_edges(mexit))
        first.add_mapped_tasklet(
            "c", {"i": "0:N-1"}, {"x": Memlet.simple("B", "i")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"B": b_node},
        )
        second = sdfg.add_state("second")
        second.add_mapped_tasklet(
            "late", {"i": "0:N-1"}, {"x": Memlet.simple("B", "i")},
            "y = x - 5.0", {"y": Memlet.simple("Out2", "i")},
        )
        sdfg.add_edge(first, second, InterstateEdge())
        programs = run_all_backends(sdfg, {"N": 13})
        assert programs["compiled"].stats["fused"] == 1
        table = programs["compiled"].tables[sdfg.states().index(first)]
        (fused,) = table.heads.values()
        kinds = [kind for m in fused.members for kind, _, _ in m.outputs]
        assert kinds == ["write", "write"]

    def test_looped_chain_parity(self):
        sdfg = looped_pipeline(stages=4)
        programs = run_all_backends(sdfg, {"N": 10, "T": 5})
        for program in programs.values():
            assert program.stats["fused"] == 5  # once per loop iteration
            assert program.stats["fallback"] == 0

    def test_loop_carried_transient_is_materialized(self):
        """The chain both gathers and writes the same transient: its value
        must survive into the *next* execution of the state (a loop-carried
        dependence), so the write cannot be internalized even though every
        use site of the container is inside the chain."""
        sdfg = SDFG("loop_carried")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("t0", ["N"], float64)
        init = sdfg.add_state("init", is_start_state=True)
        body = sdfg.add_state("body")
        # stage0: A = t0 + 1 (gathers t0); stage1: t0 = A (writes t0).
        _, _, mexit = body.add_mapped_tasklet(
            "bump", {"i": "0:N-1"}, {"x": Memlet.simple("t0", "i")},
            "y = x + 1.0", {"y": Memlet.simple("A", "i")},
        )
        a_node = next(e.dst for e in body.out_edges(mexit))
        body.add_mapped_tasklet(
            "carry", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x", {"y": Memlet.simple("t0", "i")},
            input_nodes={"A": a_node},
        )
        sdfg.add_loop(init, body, None, "k", "0", "k < T", "k + 1")
        programs = run_all_backends(sdfg, {"N": 8, "T": 7})
        # The chain still fuses -- but t0's write stays materialized.
        assert programs["compiled"].stats["fused"] == 7
        labels = [s.label for s in sdfg.states()]
        table = programs["compiled"].tables[labels.index("body")]
        (fused,) = table.heads.values()
        kinds = [kind for m in fused.members for kind, _, _ in m.outputs]
        assert kinds == ["write", "write"]

    def test_two_dimensional_chain_parity(self):
        sdfg = SDFG("chain2d")
        sdfg.add_array("A", ["N", "M"], float64)
        sdfg.add_transient("B", ["N", "M"], float64)
        sdfg.add_array("Out", ["N", "M"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "first", {"i": "0:N-1", "j": "0:M-1"},
            {"x": Memlet.simple("A", ("i", "j"))},
            "y = x * x", {"y": Memlet.simple("B", ("i", "j"))},
        )
        b_node = next(e.dst for e in state.out_edges(mexit))
        state.add_mapped_tasklet(
            "second", {"i": "0:N-1", "j": "0:M-1"},
            {"x": Memlet.simple("B", ("i", "j"))},
            "y = x + 0.5", {"y": Memlet.simple("Out", ("i", "j"))},
            input_nodes={"B": b_node},
        )
        programs = run_all_backends(sdfg, {"N": 5, "M": 7})
        assert programs["compiled"].stats["fused"] == 1

    def test_member_with_extra_external_input(self):
        """Stage 1 reads BOTH the chain value and A directly."""
        sdfg = SDFG("two_inputs")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("B", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        a_node = state.add_access("A")
        _, _, mexit = state.add_mapped_tasklet(
            "first", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("B", "i")},
            input_nodes={"A": a_node},
        )
        b_node = next(e.dst for e in state.out_edges(mexit))
        state.add_mapped_tasklet(
            "second", {"i": "0:N-1"},
            {"x": Memlet.simple("B", "i"), "a": Memlet.simple("A", "i")},
            "y = x * a", {"y": Memlet.simple("Out", "i")},
            input_nodes={"B": b_node, "A": a_node},
        )
        programs = run_all_backends(sdfg, {"N": 12})
        assert programs["compiled"].stats["fused"] == 1

    def test_local_name_collisions_between_members(self):
        """Both members use local 'tmp' and shadow the param: composition
        must keep their namespaces apart."""
        sdfg = chain_sdfg(
            ["tmp = x + 1.0\ny = tmp * 2.0", "tmp = x - 3.0\ny = tmp + tmp"]
        )
        programs = run_all_backends(sdfg, {"N": 8})
        assert programs["compiled"].stats["fused"] == 1

    def test_dtype_cast_at_handoff(self):
        """A float32 intermediate must round through its dtype even when the
        store write is skipped."""
        from repro.sdfg import dtypes

        sdfg = SDFG("cast_chain")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("B", ["N"], dtypes.float32)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "first", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x / 3.0", {"y": Memlet.simple("B", "i")},
        )
        b_node = next(e.dst for e in state.out_edges(mexit))
        state.add_mapped_tasklet(
            "second", {"i": "0:N-1"}, {"x": Memlet.simple("B", "i")},
            "y = x * 3.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"B": b_node},
        )
        programs = run_all_backends(sdfg, {"N": 33})
        assert programs["compiled"].stats["fused"] == 1

    def test_empty_domain_parity(self):
        sdfg = chain_sdfg(
            ["y = x + 1.0", "y = x * 2.0"], ranges=["2:N-1", "2:N-1"]
        )
        # N=2 makes the inclusive range 2:N-1 (= 2:1) empty: the fused
        # chain must execute nothing, count nothing, write nothing.
        programs = run_all_backends(sdfg, {"N": 2})
        for program in programs.values():
            assert program.stats["fallback"] == 0


# ---------------------------------------------------------------------- #
# Precondition failures fall back cleanly
# ---------------------------------------------------------------------- #
class TestFusionPreconditions:
    def wcr_chain(self):
        """Stage 0 accumulates into B with WCR; stage 1 reads B."""
        sdfg = SDFG("wcr_chain")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("B", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "acc", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("B", "i", wcr="sum")},
        )
        b_node = next(e.dst for e in state.out_edges(mexit))
        state.add_mapped_tasklet(
            "use", {"i": "0:N-1"}, {"x": Memlet.simple("B", "i")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"B": b_node},
        )
        return sdfg

    def test_wcr_fed_read_rejects_fusion(self):
        programs = run_all_backends(self.wcr_chain(), {"N": 9})
        for program in programs.values():
            assert program.stats["fused"] == 0
            assert program.stats["vectorized"] == 2  # per-scope still works

    def test_stencil_read_of_intermediate_rejects_fusion(self):
        """Consumer reads B[i-1]: subset mismatch with the producer's B[i]."""
        sdfg = SDFG("stencil_chain")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("B", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "p", {"i": "1:N-2"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("B", "i")},
        )
        b_node = next(e.dst for e in state.out_edges(mexit))
        state.add_mapped_tasklet(
            "c", {"i": "1:N-2"}, {"x": Memlet.simple("B", "i - 1")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"B": b_node},
        )
        # B stays transient (zero-initialized identically everywhere), so
        # the consumer's read of never-written B[0] is still deterministic.
        programs = run_all_backends(sdfg, {"N": 11})
        for program in programs.values():
            assert program.stats["fused"] == 0

    def test_dynamic_subset_member_rejects_fusion(self):
        """A dynamic memlet keeps the member from vectorizing; the chain dies."""
        sdfg = chain_sdfg(["y = x + 1.0", "y = x * 2.0"])
        state = sdfg.states()[0]
        # Mark stage1's input memlet dynamic.
        for edge in state.edges():
            if edge.dst_conn == "x" and edge.data.data == "t0":
                edge.data.dynamic = True
        programs = run_all_backends(sdfg, {"N": 9})
        for program in programs.values():
            assert program.stats["fused"] == 0
            assert program.stats["fallback"] > 0  # stage1 interprets

    def test_overlapping_writes_to_one_container(self):
        """Two members write the same container; deferred writes must land
        in member order (last writer wins exactly as interpreted)."""
        sdfg = SDFG("overlap")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        a_node = state.add_access("A")
        out1 = state.add_access("Out")
        _, _, mexit = state.add_mapped_tasklet(
            "w1", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"A": a_node}, output_nodes={"Out": out1},
        )
        state.add_mapped_tasklet(
            "w2", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"A": a_node},
        )
        programs = run_all_backends(sdfg, {"N": 9})
        assert programs["compiled"].stats["fused"] == 1

    def test_read_after_overlapping_write_rejects_fusion(self):
        """Member 2 reads what members 0 and 1 wrote with different subsets:
        the chain must truncate at the ambiguous read."""
        sdfg = SDFG("overlap_read")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("B", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        a_node = state.add_access("A")
        _, _, x1 = state.add_mapped_tasklet(
            "w1", {"i": "1:N-2"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("B", "i")},
            input_nodes={"A": a_node},
        )
        b_node = next(e.dst for e in state.out_edges(x1))
        _, _, _x2 = state.add_mapped_tasklet(
            "w2", {"i": "1:N-2"}, {"x": Memlet.simple("A", "i")},
            "y = x - 1.0", {"y": Memlet.simple("B", "i + 1")},
            input_nodes={"A": a_node}, output_nodes={"B": b_node},
        )
        state.add_mapped_tasklet(
            "r", {"i": "1:N-2"}, {"x": Memlet.simple("B", "i")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"B": b_node},
        )
        programs = run_all_backends(sdfg, {"N": 12})
        # w1+w2 still fuse; r executes as its own vectorized scope.
        assert programs["compiled"].stats["fused"] == 1
        assert programs["compiled"].stats["vectorized"] == 3

    def test_runtime_failure_falls_back_to_members(self, monkeypatch):
        """A fused chain that dies at runtime re-runs its members
        individually -- bitwise identically -- and stays disabled."""
        sdfg = chain_sdfg(["y = x + 1.0", "y = x * 2.0"])
        symbols = {"N": 9}
        args = make_arguments(sdfg, symbols)
        ref = interpreter_reference(sdfg, args, symbols)
        program = CompiledExecutor(sdfg)

        def exploding(store, fused, bindings):
            raise RuntimeError("fused chain did not survive contact")

        monkeypatch.setattr(compiled_module, "compute_fused", exploding)
        result = program.run(dict(args), symbols)
        assert_identical(ref, result)
        assert program.stats["fused"] == 0
        assert program.stats["vectorized"] == 2
        # The chain is now permanently disabled; with the real compute
        # restored it must not be retried.
        monkeypatch.undo()
        (fused,) = program.tables[0].heads.values()
        assert fused.usable is False
        result2 = program.run(dict(args), symbols)
        assert_identical(ref, result2)
        assert program.stats["fused"] == 0


# ---------------------------------------------------------------------- #
# Error parity through composed chains
# ---------------------------------------------------------------------- #
class TestFusedErrorParity:
    def test_tasklet_error_attributed_to_failing_member(self):
        from repro.interpreter.errors import TaskletExecutionError

        # math.sqrt of a negative raises ValueError under scalar *and*
        # element-wise (shim) evaluation alike.
        sdfg = chain_sdfg(["y = x + 1.0", "y = math.sqrt(-1.0 - x * x)"])
        symbols = {"N": 6}
        args = make_arguments(sdfg, symbols)
        with pytest.raises(TaskletExecutionError) as interp_exc:
            get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        program = CompiledExecutor(sdfg)
        with pytest.raises(TaskletExecutionError) as fused_exc:
            program.run(dict(args), symbols)
        # Both attribute the failure to stage1 (the dividing member).
        assert "stage1" in str(interp_exc.value)
        assert "stage1" in str(fused_exc.value)

    def test_out_of_bounds_write_in_chain(self):
        from repro.interpreter.errors import MemoryViolation

        sdfg = SDFG("oob_chain")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("B", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "p", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("B", "i + 1")},  # B[N] o.o.b.
        )
        b_node = next(e.dst for e in state.out_edges(mexit))
        state.add_mapped_tasklet(
            "c", {"i": "0:N-1"}, {"x": Memlet.simple("B", "i + 1")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"B": b_node},
        )
        symbols = {"N": 8}
        args = make_arguments(sdfg, symbols)
        for backend in ("interpreter", "compiled"):
            with pytest.raises(MemoryViolation):
                get_backend(backend).prepare(sdfg).run(dict(args), symbols)


# ---------------------------------------------------------------------- #
# Driver inlining
# ---------------------------------------------------------------------- #
class TestDriverInlining:
    def test_driver_iterates_prepared_op_lists(self):
        program = CompiledExecutor(looped_pipeline())
        source = program.driver_source
        assert "__ops" in source
        assert "__exec(" not in source
        assert "_execute_state" not in source

    def test_transparent_access_nodes_dropped_from_ops(self):
        sdfg = chain_sdfg(["y = x + 1.0", "y = x * 2.0"])
        program = CompiledExecutor(sdfg)
        # One fused op covers the whole state: the pass-through access nodes
        # (A, t0, Out) and the member entries/exits all vanish statically.
        (ops,) = program._state_ops
        assert len(ops) == 1

    def test_looped_pipeline_parity(self):
        sdfg = looped_pipeline(stages=3)
        run_all_backends(sdfg, {"N": 7, "T": 6})

    def test_nested_loop_parity(self):
        """Inner loop bound depends on the outer counter."""
        sdfg = SDFG("nested")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_symbol("i")
        sdfg.add_symbol("j")
        outer_init = sdfg.add_state("outer_init", is_start_state=True)
        outer_guard = sdfg.add_state("outer_guard")
        inner_init = sdfg.add_state("inner_init")
        inner_guard = sdfg.add_state("inner_guard")
        body = sdfg.add_state("body")
        body.add_mapped_tasklet(
            "bump", {"k": "0:N-1"}, {"x": Memlet.simple("A", "k")},
            "y = x + 1.0", {"y": Memlet.simple("A", "k")},
        )
        inner_after = sdfg.add_state("inner_after")
        outer_after = sdfg.add_state("outer_after")
        sdfg.add_edge(outer_init, outer_guard, InterstateEdge(assignments={"i": "0"}))
        sdfg.add_edge(outer_guard, inner_init, InterstateEdge(condition="i < T"))
        sdfg.add_edge(outer_guard, outer_after, InterstateEdge(condition="not (i < T)"))
        sdfg.add_edge(inner_init, inner_guard, InterstateEdge(assignments={"j": "0"}))
        sdfg.add_edge(inner_guard, body, InterstateEdge(condition="j < i + 1"))
        sdfg.add_edge(
            inner_guard, inner_after, InterstateEdge(condition="not (j < i + 1)")
        )
        sdfg.add_edge(body, inner_guard, InterstateEdge(assignments={"j": "j + 1"}))
        sdfg.add_edge(inner_after, outer_guard, InterstateEdge(assignments={"i": "i + 1"}))
        run_all_backends(sdfg, {"N": 5, "T": 4})

    def test_scalar_container_loop_guard_parity(self):
        """Scalar containers can change through dataflow mid-loop; their
        loads must stay routed through the store."""
        sdfg = SDFG("scalar_guard")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_scalar("s", float64)
        init = sdfg.add_state("init", is_start_state=True)
        body = sdfg.add_state("body")
        body.add_mapped_tasklet(
            "decay", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x * 0.5", {"y": Memlet.simple("A", "i")},
        )
        # s participates in the loop condition but is a scalar container.
        sdfg.add_loop(init, body, None, "t", "0", "t < s", "t + 1")
        program = CompiledExecutor(sdfg)
        assert "__store['s'][0]" in program.driver_source
        symbols = {"N": 6}
        args = make_arguments(sdfg, symbols)
        args["s"] = np.asarray([3.0])
        ref = get_backend("interpreter").prepare(sdfg).run(dict(args), symbols)
        result = program.run(dict(args), symbols)
        assert_identical(ref, result)


# ---------------------------------------------------------------------- #
# Whole-suite parity with fusion active (fusion is on by default, so this
# re-checks the standard suite through the fused path wherever it fires)
# ---------------------------------------------------------------------- #
class TestSuiteParityWithFusion:
    @pytest.mark.parametrize("kernel", NPBENCH)
    def test_vectorized_and_compiled_match_interpreter(self, kernel):
        spec = get_workload("npbench", kernel)
        sdfg = spec.build()
        run_all_backends(sdfg, dict(spec.symbols))


# ---------------------------------------------------------------------- #
# Fusion across WCR producers (accumulate-into-chain)
# ---------------------------------------------------------------------- #
class TestWcrTailFusion:
    """A member that *writes* with WCR may join a chain -- but only as its
    tail: the accumulation target is unread inside the chain, so the
    deferred WCR write is indistinguishable from per-scope execution,
    while any later member would reorder against it."""

    def elementwise_then_wcr(self, wcr="sum"):
        """Stage 0 squares A into t0; stage 1 accumulates t0 into Out[i]."""
        sdfg = SDFG("wcr_tail")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("t0", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "square", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x * x", {"y": Memlet.simple("t0", "i")},
        )
        t0_node = next(e.dst for e in state.out_edges(mexit))
        state.add_mapped_tasklet(
            "acc", {"i": "0:N-1"}, {"x": Memlet.simple("t0", "i")},
            "y = x + 1.0", {"y": Memlet.simple("Out", "i", wcr=wcr)},
            input_nodes={"t0": t0_node},
        )
        return sdfg

    def reduction_tail(self):
        """Stage 1 is a true reduction: every t0[i] accumulates into
        Out[0] -- the canonical fuse-across-WCR-producer shape."""
        sdfg = SDFG("wcr_reduce_tail")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("t0", ["N"], float64)
        sdfg.add_array("Out", [1], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, mexit = state.add_mapped_tasklet(
            "shift", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 2.0", {"y": Memlet.simple("t0", "i")},
        )
        t0_node = next(e.dst for e in state.out_edges(mexit))
        state.add_mapped_tasklet(
            "acc", {"i": "0:N-1"}, {"x": Memlet.simple("t0", "i")},
            "y = x * x", {"y": Memlet.simple("Out", "0", wcr="sum")},
            input_nodes={"t0": t0_node},
        )
        return sdfg

    @pytest.mark.parametrize("wcr", ["sum", "prod", "min", "max"])
    def test_wcr_tail_fuses(self, wcr):
        programs = run_all_backends(self.elementwise_then_wcr(wcr), {"N": 9})
        for program in programs.values():
            assert program.stats["fused"] == 1
            assert program.stats["fallback"] == 0

    def test_reduction_tail_fuses(self):
        programs = run_all_backends(self.reduction_tail(), {"N": 13})
        for program in programs.values():
            assert program.stats["fused"] == 1

    def test_wcr_member_terminates_the_chain(self):
        """Three matching scopes with a WCR writer in the middle: the
        chain must stop *at* the WCR member, and the reader of the
        accumulated container runs as its own scope (the read is
        WCR-fed, so it could never have joined anyway)."""
        sdfg = SDFG("wcr_mid")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("t0", ["N"], float64)
        sdfg.add_transient("t1", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, x0 = state.add_mapped_tasklet(
            "stage0", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("t0", "i")},
        )
        t0_node = next(e.dst for e in state.out_edges(x0))
        _, _, x1 = state.add_mapped_tasklet(
            "stage1", {"i": "0:N-1"}, {"x": Memlet.simple("t0", "i")},
            "y = x * 2.0", {"y": Memlet.simple("t1", "i", wcr="sum")},
            input_nodes={"t0": t0_node},
        )
        t1_node = next(e.dst for e in state.out_edges(x1))
        state.add_mapped_tasklet(
            "stage2", {"i": "0:N-1"}, {"x": Memlet.simple("t1", "i")},
            "y = x - 3.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"t1": t1_node},
        )
        programs = run_all_backends(sdfg, {"N": 8})
        for program in programs.values():
            # stage0+stage1 fuse (WCR tail); stage2 vectorizes alone.
            assert program.stats["fused"] == 1
            assert program.stats["vectorized"] == 3

    def test_wcr_first_member_cannot_anchor_a_chain(self):
        """A WCR writer terminates the chain immediately; as member 0 that
        leaves a single-member 'chain', which is no chain at all."""
        sdfg = SDFG("wcr_head")
        sdfg.add_array("A", ["N"], float64)
        sdfg.add_transient("t0", ["N"], float64)
        sdfg.add_array("Out", ["N"], float64)
        state = sdfg.add_state("s", is_start_state=True)
        _, _, x0 = state.add_mapped_tasklet(
            "acc", {"i": "0:N-1"}, {"x": Memlet.simple("A", "i")},
            "y = x + 1.0", {"y": Memlet.simple("t0", "i", wcr="sum")},
        )
        t0_node = next(e.dst for e in state.out_edges(x0))
        state.add_mapped_tasklet(
            "use", {"i": "0:N-1"}, {"x": Memlet.simple("t0", "i")},
            "y = x * 2.0", {"y": Memlet.simple("Out", "i")},
            input_nodes={"t0": t0_node},
        )
        programs = run_all_backends(sdfg, {"N": 9})
        for program in programs.values():
            assert program.stats["fused"] == 0
            assert program.stats["vectorized"] == 2

    def test_unsupported_wcr_operator_rejects_the_member(self):
        """A reduction outside the supported set keeps the member out of
        the vectorized lowering: no scope, no chain, an explicit fallback
        reason.  (Analysis-level check -- the interpreter rejects the
        operator at runtime too, so there is no parity run to make.)"""
        sdfg = self.elementwise_then_wcr(wcr="xor")
        (table,) = CompiledExecutor(sdfg).tables
        assert not table.heads and not table.members
        assert "unsupported-wcr" in table.fallback_reasons.values()
