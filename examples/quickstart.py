#!/usr/bin/env python
"""Quickstart: find the off-by-one tiling bug of Fig. 2 in a few lines.

Builds the matrix-chain multiplication ``R = ((A @ B) @ C) @ D``, applies the
loop-tiling optimization with the paper's off-by-one bound to the second
multiplication, and lets FuzzyFlow extract a cutout and fuzz it
differentially.  The faulty instance is reported together with a minimal,
fully reproducible failing input.

Run with::

    python examples/quickstart.py
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core import FuzzyFlowVerifier, load_test_case
from repro.transforms import MapTiling
from repro.workloads import build_matmul_chain


def main() -> None:
    program = build_matmul_chain()
    print(f"Program: {program}")
    inputs = {name for name, desc in program.arrays.items() if not desc.transient}
    print(f"Arguments: {sorted(inputs | program.free_symbols)}\n")

    # The engineer's (buggy) optimization: tile with an inclusive upper bound.
    buggy_tiling = MapTiling(tile_size=4, inject_bug=True, bug_kind="off_by_one")
    # Pick the instance on the second multiplication of the chain (Fig. 2).
    match = next(
        m for m in buggy_tiling.find_matches(program)
        if m.nodes["map_entry"].map.label == "mm2"
    )
    print(f"Testing transformation instance: {match.describe()}\n")

    test_case_dir = tempfile.mkdtemp(prefix="quickstart_test_cases_")
    print(f"Test cases are written under {test_case_dir}\n")
    verifier = FuzzyFlowVerifier(
        num_trials=25,
        seed=0,
        size_max=12,
        test_case_dir=test_case_dir,
    )
    report = verifier.verify(program, buggy_tiling, match=match, symbol_values={"N": 8})

    print(report.summary())
    print()
    if report.test_case_path:
        case = load_test_case(report.test_case_path)
        replay = case.replay()
        print(f"Reproducible test case saved to: {report.test_case_path}")
        print(f"Replaying it reproduces the fault: {replay['reproduced']}")
        print(f"Mismatching containers           : {replay.get('mismatched') or replay.get('error')}")

    # The correct tiling passes the same procedure.
    good_tiling = MapTiling(tile_size=4)
    good_match = next(
        m for m in good_tiling.find_matches(program)
        if m.nodes["map_entry"].map.label == "mm2"
    )
    good = verifier.verify(program, good_tiling, match=good_match, symbol_values={"N": 8})
    print(f"\nCorrect tiling verdict: {good.verdict.value}")


if __name__ == "__main__":
    main()
