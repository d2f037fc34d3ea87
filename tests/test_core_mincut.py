"""Tests for the max-flow/min-cut machinery and input minimization."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    FlowNetwork,
    SINK,
    SOURCE,
    extract_cutout,
    minimize_input_configuration,
    prepare_input_flow_network,
)
from repro.frontend import add_batched_matmul
from repro.sdfg import SDFG, MapEntry, Memlet, float64
from repro.transforms import MapTiling, Vectorization


class TestFlowNetwork:
    def test_simple_path(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 3)
        net.add_edge("a", "t", 5)
        flow, side = net.max_flow_min_cut("s", "t")
        assert flow == 3
        assert "s" in side and "t" not in side

    def test_parallel_paths(self):
        net = FlowNetwork()
        net.add_edge("s", "a", 3)
        net.add_edge("s", "b", 4)
        net.add_edge("a", "t", 10)
        net.add_edge("b", "t", 1)
        flow, _ = net.max_flow_min_cut("s", "t")
        assert flow == 4  # 3 through a, 1 through b

    def test_classic_network(self):
        # Classic CLRS example.
        net = FlowNetwork()
        edges = [
            ("s", "v1", 16), ("s", "v2", 13), ("v1", "v3", 12), ("v2", "v1", 4),
            ("v2", "v4", 14), ("v3", "v2", 9), ("v3", "t", 20), ("v4", "v3", 7),
            ("v4", "t", 4),
        ]
        for u, v, c in edges:
            net.add_edge(u, v, c)
        flow, _ = net.max_flow_min_cut("s", "t")
        assert flow == 23

    def test_disconnected(self):
        net = FlowNetwork()
        net.add_node("s")
        net.add_node("t")
        flow, side = net.max_flow_min_cut("s", "t")
        assert flow == 0

    def test_infinite_edges_bypassed(self):
        net = FlowNetwork()
        net.add_edge("s", "a", float("inf"))
        net.add_edge("a", "t", 5)
        flow, _ = net.max_flow_min_cut("s", "t")
        assert flow == 5

    def test_negative_capacity_rejected(self):
        net = FlowNetwork()
        with pytest.raises(ValueError):
            net.add_edge("a", "b", -1)


@settings(max_examples=30, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(1, 20)),
        min_size=1, max_size=15,
    )
)
def test_property_max_flow_matches_networkx(edges):
    """Our Edmonds-Karp agrees with networkx on random graphs."""
    net = FlowNetwork()
    g = nx.DiGraph()
    g.add_node("s")
    g.add_node("t")
    net.add_node("s")
    net.add_node("t")
    for u, v, c in edges:
        if u == v:
            continue
        su = "s" if u == 0 else ("t" if u == 5 else f"n{u}")
        sv = "s" if v == 0 else ("t" if v == 5 else f"n{v}")
        if su == sv:
            continue
        net.add_edge(su, sv, c)
        if g.has_edge(su, sv):
            g[su][sv]["capacity"] += c
        else:
            g.add_edge(su, sv, capacity=c)
    ours, _ = net.max_flow_min_cut("s", "t")
    theirs = nx.maximum_flow_value(g, "s", "t") if g.number_of_edges() else 0
    assert ours == pytest.approx(theirs)


# ---------------------------------------------------------------------- #
def attention_like_program(batch=2, heads=2, seq=8, proj=2):
    """A miniature of the Fig. 5 structure:

    A, B (inputs) --bmm--> tmp --scale--> att (output)

    ``tmp`` is seq x seq per (batch, head) and therefore much larger than the
    ``proj``-sized operands A and B when ``seq >> proj``.
    """
    sdfg = SDFG("attention_like")
    sdfg.add_array("A", ["B", "H", "SM", "P"], float64)
    sdfg.add_array("Bm", ["B", "H", "P", "SM"], float64)
    sdfg.add_transient("tmp", ["B", "H", "SM", "SM"], float64)
    sdfg.add_array("att", ["B", "H", "SM", "SM"], float64)
    sdfg.add_scalar("scale", float64)
    state = sdfg.add_state("mha")
    add_batched_matmul(sdfg, state, "A", "Bm", "tmp")
    # Connect the scale loop nest to the same tmp access node.
    tmp_node = [n for n in state.data_nodes() if n.data == "tmp"][0]
    state.add_mapped_tasklet(
        "scale_tmp",
        {"b": "0:B-1", "h": "0:H-1", "i": "0:SM-1", "j": "0:SM-1"},
        {"in_val": Memlet.simple("tmp", "b, h, i, j"), "s": Memlet.simple("scale", "0")},
        "out_val = in_val * s",
        {"out_val": Memlet.simple("att", "b, h, i, j")},
        input_nodes={"tmp": tmp_node},
    )
    return sdfg, {"B": batch, "H": heads, "SM": seq, "P": proj}


class TestInputMinimization:
    def _scale_cutout(self, sdfg, syms):
        xform = Vectorization(vector_size=4)
        matches = [
            m for m in xform.find_matches(sdfg)
            if m.nodes["map_entry"].map.label.startswith("scale_tmp")
            and xform.can_be_applied(sdfg, m)
        ]
        assert matches
        return xform, matches[0]

    def test_minimization_reduces_input_volume(self):
        sdfg, syms = attention_like_program(batch=2, heads=2, seq=8, proj=2)
        xform, match = self._scale_cutout(sdfg, syms)
        cutout = extract_cutout(sdfg, transformation=xform, match=match, symbol_values=syms)
        assert "tmp" in cutout.input_configuration
        original_volume = cutout.input_volume(syms)

        state = sdfg.start_state
        result = minimize_input_configuration(sdfg, state, cutout, syms)
        assert result.minimized
        assert result.minimized_input_volume < original_volume
        # The minimized cutout reads the matmul operands instead of tmp.
        assert "A" in result.cutout.input_configuration
        assert "Bm" in result.cutout.input_configuration
        assert "tmp" not in result.cutout.input_configuration
        # With seq >> proj the reduction is large (75% in the paper's setup).
        assert result.reduction_ratio > 0.4

    def test_minimization_keeps_original_when_not_beneficial(self):
        # With proj >= seq the operands are as large as tmp: no benefit.
        sdfg, syms = attention_like_program(batch=2, heads=2, seq=4, proj=8)
        xform, match = self._scale_cutout(sdfg, syms)
        cutout = extract_cutout(sdfg, transformation=xform, match=match, symbol_values=syms)
        state = sdfg.start_state
        result = minimize_input_configuration(sdfg, state, cutout, syms)
        assert not result.minimized
        assert result.cutout is cutout

    def test_prepared_network_structure(self):
        sdfg, syms = attention_like_program()
        xform, match = self._scale_cutout(sdfg, syms)
        cutout = extract_cutout(sdfg, transformation=xform, match=match, symbol_values=syms)
        state = sdfg.start_state
        nodes = [n for n in state.nodes() if n.guid in cutout.node_guids]
        prepared = prepare_input_flow_network(
            sdfg, state, nodes, cutout.input_configuration, syms
        )
        assert SOURCE in prepared.network.nodes()
        assert SINK in prepared.network.nodes()
        flow, side = prepared.network.max_flow_min_cut(SOURCE, SINK)
        assert flow > 0 and flow != float("inf")

    def test_state_cutout_not_minimized(self):
        from repro.core import extract_state_cutout

        sdfg, syms = attention_like_program()
        cutout = extract_state_cutout(sdfg, [sdfg.start_state], syms)
        result = minimize_input_configuration(sdfg, sdfg.start_state, cutout, syms)
        assert not result.minimized
