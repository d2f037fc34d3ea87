#!/usr/bin/env python
"""Sec. 6.4: debugging custom optimizations on the synthetic CLOUDSC scheme.

Tests the three custom transformations of the CLOUDSC case study (GPU kernel
extraction, loop unrolling, write elimination) over every applicable instance
of the synthetic cloud-microphysics scheme, reports how many instances alter
program semantics, and stores a reproducible test case for the first failing
GPU-extraction instance -- the workflow that the paper estimates saved the
engineers at least 16 person-hours.

Run with::

    python examples/cloudsc_debugging.py [--paper-scale]
"""

import argparse
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core import FuzzyFlowVerifier, Verdict, load_test_case
from repro.transforms import GPUKernelExtraction, LoopUnrolling, RedundantWriteElimination
from repro.workloads import CloudscConfig, build_cloudsc


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the paper's instance counts (62/19/136); slower")
    parser.add_argument("--trials", type=int, default=6)
    args = parser.parse_args()

    cfg = CloudscConfig.paper_scale() if args.paper_scale else CloudscConfig(
        num_kernels=13, partial_write_fraction=10 / 13,
        num_substep_loops=5, descending_loop_index=1,
        num_adjustment_chains=16, live_chain_indices=(6,),
    )
    print(f"Synthetic CLOUDSC: {cfg.num_kernels} kernels, "
          f"{cfg.num_substep_loops} sub-stepping loops, "
          f"{cfg.num_adjustment_chains} adjustment chains\n")

    test_case_dir = tempfile.mkdtemp(prefix="cloudsc_test_cases_")
    print(f"Test cases are written under {test_case_dir}\n")
    verifier = FuzzyFlowVerifier(
        num_trials=args.trials, seed=0, vary_sizes=False, minimize_inputs=False,
        test_case_dir=test_case_dir,
    )

    for xform, paper_note in (
        (GPUKernelExtraction(inject_bug=True), "paper: 62 instances, 48 faulty"),
        (LoopUnrolling(inject_bug=True), "paper: 19 instances, 1 faulty"),
        (RedundantWriteElimination(inject_bug=True), "paper: 136 instances, 1 faulty"),
    ):
        sdfg = build_cloudsc(cfg)
        reports = verifier.verify_all_instances(
            sdfg, xform, symbol_values=cfg.symbols, fixed_symbols=cfg.symbols,
        )
        tested = [r for r in reports if r.verdict != Verdict.UNTESTED]
        failing = [r for r in tested if r.verdict.is_failure]
        print(f"{xform.name:<28}: {len(tested):3d} instances, "
              f"{len(failing):3d} alter semantics   ({paper_note})")
        for r in failing[:2]:
            print(f"    failing instance: {r.match_description}")
            if r.test_case_path:
                case = load_test_case(r.test_case_path)
                replay = case.replay()
                print(f"    reproducible test case: {r.test_case_path} "
                      f"(replay reproduces fault: {replay['reproduced']})")

    print("\nEach failing instance comes with a minimal cutout and the "
          "fault-inducing inputs, so the transformation can be debugged on a "
          "workstation without re-running the full application.")


if __name__ == "__main__":
    main()
