"""Unit tests for the dataflow IR: construction, queries, validation, serialization."""

import copy

import numpy as np
import pytest

from repro.interpreter import execute_sdfg
from repro.sdfg import (
    SDFG,
    AccessNode,
    InterstateEdge,
    InvalidSDFGError,
    MapEntry,
    MapExit,
    Memlet,
    ScheduleType,
    Tasklet,
    float64,
    int32,
    validate_sdfg,
)
from repro.sdfg.analysis import find_loops
from repro.sdfg.graph import GraphError, OrderedMultiDiGraph
from repro.sdfg.serialize import sdfg_from_json, sdfg_to_json
from repro.sdfg.state import propagate_memlet
from repro.symbolic import Subset


def build_elementwise_scale(name="scale", n_symbol="N"):
    """out[i] = inp[i] * 2 over a map, used by several tests."""
    sdfg = SDFG(name)
    sdfg.add_array("inp", [n_symbol], float64)
    sdfg.add_array("out", [n_symbol], float64)
    state = sdfg.add_state("compute")
    state.add_mapped_tasklet(
        "scale",
        {"i": f"0:{n_symbol}-1"},
        {"a": Memlet.simple("inp", "i")},
        "b = a * 2",
        {"b": Memlet.simple("out", "i")},
    )
    return sdfg


class TestGraph:
    def test_add_and_query_nodes(self):
        g = OrderedMultiDiGraph()
        g.add_node("a")
        g.add_node("b")
        g.add_edge("a", "b", data=1)
        assert g.nodes() == ["a", "b"]
        assert len(g.edges()) == 1
        assert [e.dst for e in g.out_edges("a")] == ["b"]
        assert [e.src for e in g.in_edges("b")] == ["a"]

    def test_parallel_edges(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b", 1)
        g.add_edge("a", "b", 2)
        assert [e.data for e in g.out_edges("a")] == [1, 2]

    def test_remove_node_removes_edges(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.remove_node("b")
        assert g.edges() == []

    def test_remove_missing_node_raises(self):
        g = OrderedMultiDiGraph()
        with pytest.raises(GraphError):
            g.remove_node("zzz")

    def test_topological_sort(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        order = g.topological_sort()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_topological_sort_cycle(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(GraphError):
            g.topological_sort()

    def test_bfs_reverse(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert set(g.bfs_nodes(["c"], reverse=True)) == {"a", "b", "c"}

    def test_descendants_and_ancestors(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_node("d")
        assert g.descendants("a") == {"b", "c"}
        assert g.ancestors("c") == {"a", "b"}
        assert g.descendants("c") == set() and g.ancestors("d") == set()

    def test_in_degree_counts_parallel_edges(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert [g.in_degree(n) for n in g.nodes()] == [0, 2, 1]

    def test_remove_edge_keeps_its_endpoints(self):
        g = OrderedMultiDiGraph()
        first = g.add_edge("a", "b", 1)
        g.add_edge("a", "b", 2)
        g.remove_edge(first)
        assert g.nodes() == ["a", "b"]
        assert [e.data for e in g.in_edges("b")] == [2]
        with pytest.raises(GraphError):
            g.remove_edge(first)

    def test_edges_of_a_missing_node_raise(self):
        g = OrderedMultiDiGraph()
        g.add_node("a")
        assert "a" in g and g.has_node("a") and "b" not in g
        with pytest.raises(GraphError):
            g.out_edges("b")
        with pytest.raises(GraphError):
            g.in_edges("b")

    def test_copy_maps_nodes_and_edge_data(self):
        g = OrderedMultiDiGraph()
        g.add_edge("a", "b", 1, "o", "i")
        g.add_edge("b", "c", 2)
        out = g.copy({"a": "A", "b": "B"}, lambda d: d * 10)
        assert out.nodes() == ["A", "B"]
        (edge,) = out.edges()
        assert (edge.src, edge.dst, edge.data) == ("A", "B", 10)
        assert (edge.src_conn, edge.dst_conn) == ("o", "i")
        assert [e.data for e in g.edges()] == [1, 2]


class TestDataDescriptors:
    def test_array_symbolic_shape(self):
        sdfg = SDFG("t")
        _, desc = sdfg.add_array("A", ["N", "N"], float64)
        assert desc.total_size().evaluate({"N": 5}) == 25
        assert "N" in sdfg.symbols

    def test_array_allocation(self):
        sdfg = SDFG("t")
        _, desc = sdfg.add_array("A", ["N", 4], float64)
        arr = desc.allocate({"N": 3})
        assert arr.shape == (3, 4)
        assert arr.dtype == np.float64

    def test_nonpositive_allocation_fails(self):
        sdfg = SDFG("t")
        _, desc = sdfg.add_array("A", ["N"], float64)
        with pytest.raises(ValueError):
            desc.allocate({"N": 0})

    def test_scalar(self):
        sdfg = SDFG("t")
        _, desc = sdfg.add_scalar("alpha", float64)
        assert desc.allocate().shape == (1,)

    def test_transient_flag(self):
        sdfg = SDFG("t")
        sdfg.add_transient("tmp", ["N"], float64)
        assert sdfg.arrays["tmp"].transient

    def test_duplicate_name_raises(self):
        sdfg = SDFG("t")
        sdfg.add_array("A", [4], float64)
        with pytest.raises(Exception):
            sdfg.add_array("A", [4], float64)

    def test_find_new_name(self):
        sdfg = SDFG("t")
        sdfg.add_array("A", [4], float64)
        name, _ = sdfg.add_array("A", [4], float64, find_new_name=True)
        assert name != "A"

    def test_remove_data_in_use_raises(self):
        sdfg = build_elementwise_scale()
        with pytest.raises(Exception):
            sdfg.remove_data("inp")


class TestStateConstruction:
    def test_mapped_tasklet_structure(self):
        sdfg = build_elementwise_scale()
        state = sdfg.start_state
        assert len([n for n in state.nodes() if isinstance(n, MapEntry)]) == 1
        assert len([n for n in state.nodes() if isinstance(n, MapExit)]) == 1
        assert len([n for n in state.nodes() if isinstance(n, Tasklet)]) == 1
        assert len([n for n in state.nodes() if isinstance(n, AccessNode)]) == 2
        validate_sdfg(sdfg)

    def test_scope_dict(self):
        sdfg = build_elementwise_scale()
        state = sdfg.start_state
        sdict = state.scope_dict()
        entry = next(n for n in state.nodes() if isinstance(n, MapEntry))
        tasklet = next(n for n in state.nodes() if isinstance(n, Tasklet))
        assert sdict[tasklet] is entry
        assert sdict[entry] is None

    def test_exit_node_lookup(self):
        sdfg = build_elementwise_scale()
        state = sdfg.start_state
        entry = next(n for n in state.nodes() if isinstance(n, MapEntry))
        exit_ = state.exit_node(entry)
        assert isinstance(exit_, MapExit)
        assert exit_.map is entry.map

    def test_propagate_memlet(self):
        sdfg = build_elementwise_scale()
        state = sdfg.start_state
        entry = next(n for n in state.nodes() if isinstance(n, MapEntry))
        inner = Memlet.simple("inp", "i")
        outer = propagate_memlet(inner, entry.map)
        assert outer.volume().evaluate({"N": 10}) == 10
        assert [r.evaluate({"N": 10}) for r in outer.subset.ranges] == [(0, 9, 1)]

    def test_free_symbols(self):
        sdfg = build_elementwise_scale()
        assert sdfg.free_symbols == {"N"}


class TestControlFlow:
    def test_add_loop_structure(self):
        sdfg = SDFG("loop")
        sdfg.add_array("A", ["N"], float64)
        body = sdfg.add_state("body")
        init = sdfg.add_state("init", is_start_state=True)
        t = body.add_tasklet("w", [], ["o"], "o = i")
        w = body.add_access("A")
        body.add_edge(t, "o", w, None, Memlet.simple("A", "i"))
        sdfg.add_loop(init, body, None, "i", "0", "i < N", "i + 1")
        loops = find_loops(sdfg)
        assert len(loops) == 1
        assert loops[0].loop_variable == "i"
        assert len(loops[0].iteration_values({"N": 5})) == 5

    def test_loop_iteration_values_negative_step(self):
        sdfg = SDFG("loop")
        body = sdfg.add_state("body")
        init = sdfg.add_state("init", is_start_state=True)
        sdfg.add_loop(init, body, None, "i", "4", "i >= 1", "i - 1")
        loops = find_loops(sdfg)
        assert len(loops) == 1
        assert loops[0].iteration_values({}) == [4, 3, 2, 1]

    def test_start_state_default(self):
        sdfg = SDFG("s")
        s0 = sdfg.add_state("first")
        sdfg.add_state("second")
        assert sdfg.start_state is s0

    def test_state_by_label(self):
        sdfg = SDFG("s")
        sdfg.add_state("alpha")
        assert sdfg.state_by_label("alpha").label == "alpha"
        with pytest.raises(Exception):
            sdfg.state_by_label("nope")

    def test_unique_state_labels(self):
        sdfg = SDFG("s")
        a = sdfg.add_state("x")
        b = sdfg.add_state("x")
        assert a.label != b.label


class TestValidation:
    def test_valid_program_passes(self):
        validate_sdfg(build_elementwise_scale())

    def test_unknown_container_fails(self):
        sdfg = SDFG("bad")
        state = sdfg.add_state("s")
        state.add_access("ghost")
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)

    def test_memlet_dim_mismatch_fails(self):
        sdfg = SDFG("bad")
        sdfg.add_array("A", ["N", "N"], float64)
        sdfg.add_array("B", ["N"], float64)
        state = sdfg.add_state("s")
        a = state.add_access("A")
        b = state.add_access("B")
        t = state.add_tasklet("t", ["x"], ["y"], "y = x")
        state.add_edge(a, None, t, "x", Memlet.simple("A", "i"))  # 1D subset on 2D array
        state.add_edge(t, "y", b, None, Memlet.simple("B", "i"))
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)

    def test_disconnected_tasklet_fails(self):
        sdfg = SDFG("bad")
        state = sdfg.add_state("s")
        state.add_tasklet("orphan", [], ["o"], "o = 1")
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)

    def test_cycle_in_state_fails(self):
        sdfg = SDFG("bad")
        sdfg.add_array("A", [4], float64)
        state = sdfg.add_state("s")
        a = state.add_access("A")
        t = state.add_tasklet("t", ["x"], ["y"], "y = x")
        state.add_edge(a, None, t, "x", Memlet.simple("A", "0"))
        state.add_edge(t, "y", a, None, Memlet.simple("A", "0"))
        state.add_edge(a, None, t, "x", Memlet.simple("A", "1"))
        # a -> t -> a is a cycle through the same access node object
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)

    def test_unreachable_state_fails(self):
        sdfg = SDFG("bad")
        sdfg.add_state("start")
        sdfg.add_state("island")
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)

    def test_bad_wcr_fails(self):
        sdfg = SDFG("bad")
        sdfg.add_array("A", [4], float64)
        state = sdfg.add_state("s")
        t = state.add_tasklet("t", [], ["y"], "y = 1")
        a = state.add_access("A")
        state.add_edge(t, "y", a, None, Memlet("A", "0", wcr="xor"))
        with pytest.raises(InvalidSDFGError):
            validate_sdfg(sdfg)


class TestCloningAndSerialization:
    def test_clone_preserves_guids(self):
        sdfg = build_elementwise_scale()
        clone = sdfg.clone()
        orig_guids = sorted(n.guid for _, n in sdfg.all_nodes())
        clone_guids = sorted(n.guid for _, n in clone.all_nodes())
        assert orig_guids == clone_guids

    def test_clone_is_independent(self):
        sdfg = build_elementwise_scale()
        clone = sdfg.clone()
        clone.add_array("extra", [4], float64)
        assert "extra" not in sdfg.arrays

    def test_json_roundtrip(self):
        sdfg = build_elementwise_scale()
        restored = sdfg_from_json(sdfg_to_json(sdfg))
        validate_sdfg(restored)
        assert set(restored.arrays) == set(sdfg.arrays)
        assert len(restored.states()) == len(sdfg.states())
        state = restored.start_state
        assert len(state.nodes()) == len(sdfg.start_state.nodes())
        assert len(state.edges()) == len(sdfg.start_state.edges())

    def test_json_roundtrip_with_loop(self):
        sdfg = SDFG("loop")
        sdfg.add_array("A", ["N"], float64)
        body = sdfg.add_state("body")
        init = sdfg.add_state("init", is_start_state=True)
        t = body.add_tasklet("w", [], ["o"], "o = i")
        w = body.add_access("A")
        body.add_edge(t, "o", w, None, Memlet.simple("A", "i"))
        sdfg.add_loop(init, body, None, "i", "0", "i < N", "i + 1")
        restored = sdfg_from_json(sdfg_to_json(sdfg))
        assert len(find_loops(restored)) == 1

    def test_json_roundtrip_is_a_fixed_point(self):
        text = sdfg_to_json(build_elementwise_scale())
        assert sdfg_to_json(sdfg_from_json(text)) == text

    def test_restored_program_computes_the_same(self):
        sdfg = build_elementwise_scale()
        restored = sdfg_from_json(sdfg_to_json(sdfg))
        inp = np.arange(5.0)
        for program in (sdfg, restored):
            res = execute_sdfg(program, {"inp": inp, "out": np.zeros(5)}, {"N": 5})
            np.testing.assert_array_equal(res.outputs["out"], 2 * inp)


class TestInterstateEdgeFreeSymbols:
    """Regression: free-symbol extraction is ast-based, so builtins used in
    conditions (`abs`, `len`, `int`, ...) are not misreported as free
    symbols and cannot force bogus symbol requirements."""

    def test_builtin_calls_are_not_free_symbols(self):
        edge = InterstateEdge(condition="abs(x) > len(ys) and int(N) > 0")
        assert edge.free_symbols == {"x", "ys", "N"}

    def test_min_max_and_keywords_excluded(self):
        edge = InterstateEdge(
            condition="not (i < Min(N, M))",
            assignments={"i": "min(i + 1, N)"},
        )
        assert edge.free_symbols == {"i", "N", "M"}

    def test_attribute_access_reports_only_the_base(self):
        edge = InterstateEdge(condition="math.floor(x) > 0")
        assert edge.free_symbols == {"x"}

    def test_true_false_none_excluded(self):
        edge = InterstateEdge(condition="flag == True or other is None")
        assert edge.free_symbols == {"flag", "other"}

    def test_assignments_contribute_their_reads(self):
        edge = InterstateEdge(assignments={"k": "j * 2 + offset"})
        assert edge.free_symbols == {"j", "offset"}

    def test_malformed_expression_falls_back_to_regex(self):
        edge = InterstateEdge(condition="x <")
        # Conservative regex fallback still reports the identifier.
        assert "x" in edge.free_symbols

    def test_sdfg_free_symbols_no_longer_demand_builtins(self):
        sdfg = SDFG("cond")
        sdfg.add_array("A", ["N"], float64)
        s0 = sdfg.add_state("s0", is_start_state=True)
        s1 = sdfg.add_state("s1")
        sdfg.add_edge(s0, s1, InterstateEdge(condition="abs(N) > 2"))
        assert sdfg.free_symbols == {"N"}
