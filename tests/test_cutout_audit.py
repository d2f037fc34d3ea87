"""The cutout catches what the whole program catches (Sec. 3).

A cutout's system state is every container the change can write that the
rest of the program may read, and its input configuration every container
whose value the change can read.  So a difference that testing the whole
program exposes must also show on the cutout: on every instance of every
registered suite, clean and buggy, a failing ``verify_whole_program``
implies a failing ``verify`` (same backend, trials and seed).  A cutout that
misses part of the system state, or an input the change depends on, fails
here.

The converse need not hold, for one of two reasons: the program masks the
change downstream, or the cutout samples an input the program cannot
produce.  Every instance where only the cutout fails is pinned below with
the reason that holds for it.
"""

import pytest

from repro.core import FuzzyFlowVerifier
from test_black_box_audit import SUITES, instances

#: Instances on which the cutout fails and the whole program passes.
#:
#: ``encoder_layer / TaskletFusion #0`` (bert, buggy): the program masks the
#: change downstream.  The buggy fusion feeds ``scaled`` instead of the
#: softmax into ``context = probs @ Vb``, and the cutout, whose system state
#: is ``context``, sees it on the first trial.  But the encoder's output
#: projection reads ``context`` through a second access node with no
#: in-edge, which the state's topological order runs before ``context_mm``
#: writes it: ``out`` is ``0 @ Wo + bo`` whatever ``context`` holds, so no
#: program input can expose the change.
CUTOUT_ONLY = {
    ("bert", True): {"encoder_layer / TaskletFusion #0"},
}


@pytest.mark.parametrize("buggy", [False, True], ids=["clean", "buggy"])
@pytest.mark.parametrize("suite", SUITES)
def test_a_whole_program_failure_is_a_cutout_failure(suite, buggy):
    verifier = FuzzyFlowVerifier(num_trials=6, seed=0, backend="compiled")
    checked, missed, cutout_only = 0, [], set()
    for label, sdfg, xform, match, symbols in instances(suite, buggy):
        whole = verifier.verify_whole_program(sdfg, xform, match=match, symbol_values=symbols)
        cutout = verifier.verify(sdfg, xform, match=match, symbol_values=symbols)
        checked += 1
        if whole.verdict.is_failure and not cutout.verdict.is_failure:
            missed.append(f"{label}: program {whole.verdict.value}, cutout {cutout.verdict.value}")
        elif cutout.verdict.is_failure and not whole.verdict.is_failure:
            cutout_only.add(label)
    assert checked > 0
    assert missed == [], "\n".join(missed)
    assert cutout_only == CUTOUT_ONLY.get((suite, buggy), set())
