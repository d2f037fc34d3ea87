"""Figure 3: the cutout extraction procedure for a loop-tiling transformation.

Regenerates the three-step procedure (dataflow graph construction, change
isolation, subgraph extraction) and reports the cutout's size relative to the
whole program, comparing white-box and black-box change isolation and the
effect of including direct data dependencies.
"""

from repro.core import black_box_change_set, extract_cutout
from repro.transforms import MapTiling
from repro.workloads import build_matmul_chain

N = 8


def _mm2_match(xform, sdfg):
    for m in xform.find_matches(sdfg):
        if m.nodes["map_entry"].map.label == "mm2":
            return m
    raise AssertionError("mm2")


def test_fig3_cutout_extraction(benchmark, report_lines):
    xform = MapTiling(tile_size=4)

    def extract():
        sdfg = build_matmul_chain()
        match = _mm2_match(xform, sdfg)
        return sdfg, extract_cutout(
            sdfg, transformation=xform, match=match, symbol_values={"N": N}
        )

    sdfg, cutout = benchmark.pedantic(extract, rounds=5, iterations=1)

    total_nodes = sum(len(s.nodes()) for s in sdfg.states())
    report_lines.append(f"program nodes                    : {total_nodes}")
    report_lines.append(f"cutout nodes                     : {cutout.num_nodes()}")
    report_lines.append(f"program containers               : {len(sdfg.arrays)}")
    report_lines.append(f"cutout containers                : {len(cutout.sdfg.arrays)}")
    report_lines.append(f"input configuration              : {sorted(cutout.input_configuration)}")
    report_lines.append(f"system state                     : {sorted(cutout.system_state)}")

    # The cutout captures the tiled multiplication only: it reads U and C and
    # exposes V (read by the third multiplication) as its system state.
    assert cutout.num_nodes() < total_nodes
    assert "U" in cutout.input_configuration
    assert "C" in cutout.input_configuration
    assert "V" in cutout.system_state
    assert "A" not in cutout.sdfg.arrays and "R" not in cutout.sdfg.arrays


def test_fig3_white_box_vs_black_box(benchmark, report_lines):
    xform = MapTiling(tile_size=4)
    sdfg = build_matmul_chain()
    match = _mm2_match(xform, sdfg)
    cut_white = extract_cutout(
        sdfg, transformation=xform, match=match, symbol_values={"N": N},
    )

    def black_box():
        nodes, states = black_box_change_set(sdfg, xform, match)
        return extract_cutout(sdfg, nodes=nodes, states=states, symbol_values={"N": N})

    cut_black = benchmark.pedantic(black_box, rounds=1, iterations=1)
    report_lines.append(f"white-box cutout nodes           : {cut_white.num_nodes()}")
    report_lines.append(f"black-box cutout nodes           : {cut_black.num_nodes()}")
    report_lines.append(f"white-box input configuration    : {sorted(cut_white.input_configuration)}")
    report_lines.append(f"black-box input configuration    : {sorted(cut_black.input_configuration)}")
    # Graph diffing recovers no more than the transformation reports: the
    # black-box cutout lies inside the white-box one (on every registered
    # instance, tests/test_black_box_audit.py), here with the same system state.
    assert cut_black.node_guids <= cut_white.node_guids
    assert set(cut_black.input_configuration) <= set(cut_white.input_configuration)
    assert set(cut_black.system_state) == set(cut_white.system_state)
