"""Black-box change isolation audits the white box (Sec. 3).

The verifier takes ΔT from the transformation itself (white box).  Graph
diffing recovers ΔT without trusting the transformation (black box).  On
every instance of every registered suite, clean and buggy, the cutout built
from the black-box ΔT must lie inside the white-box cutout: its nodes, its
states, its input configuration and its system state.  A white box that
under-reports its change set shrinks its cutout below the black box's and
fails here.

Cutouts are compared, not the raw change sets: a tiling diff names interior
nodes of a scope that the white box reports only through the scope's entry,
and cutout extraction closes both over whole scopes.
"""

import pytest

from repro.core import FuzzyFlowVerifier, black_box_change_set, extract_cutout
from repro.pipeline.tasks import default_transformation_specs
from repro.workloads import build_workload, get_workload_suite

SUITES = ("npbench", "bert", "cloudsc")


def instances(suite, buggy):
    """``(label, program, transformation, match, symbols)`` of every
    applicable instance; the programs are the shared, read-only ones."""
    enumerate_instances = FuzzyFlowVerifier().enumerate_instances
    for spec in get_workload_suite(suite):
        sdfg = build_workload(suite, spec.name)
        for tspec in default_transformation_specs(buggy):
            xform = tspec.instantiate()
            for index, match in enumerate(enumerate_instances(sdfg, xform)):
                label = f"{spec.name} / {tspec.name} #{index}"
                yield label, sdfg, xform, match, dict(spec.symbols)


def escapes(white, black):
    """What the black-box cutout holds outside the white-box one."""
    found = {
        "node_guids": black.node_guids - white.node_guids,
        "state_labels": set(black.state_labels) - set(white.state_labels),
        "input_configuration": set(black.input_configuration) - set(white.input_configuration),
        "system_state": set(black.system_state) - set(white.system_state),
    }
    return {key: sorted(map(str, value)) for key, value in found.items() if value}


@pytest.mark.parametrize("buggy", [False, True], ids=["clean", "buggy"])
@pytest.mark.parametrize("suite", SUITES)
def test_black_box_cutout_lies_inside_white_box_cutout(suite, buggy):
    checked, violations = 0, []
    for label, sdfg, xform, match, symbols in instances(suite, buggy):
        white = extract_cutout(sdfg, transformation=xform, match=match, symbol_values=symbols)
        nodes, states = black_box_change_set(sdfg, xform, match)
        black = extract_cutout(sdfg, nodes=nodes, states=states, symbol_values=symbols)
        checked += 1
        outside = escapes(white, black)
        if outside:
            violations.append(f"{label}: {outside}")
    assert checked > 0
    assert violations == [], "\n".join(violations)
