#!/usr/bin/env python
"""Alternating parent/change pairs of one benchmark workload.

    python tools/bench_pairs.py --workload npbench_clean_deep
    make bench-pairs W=npbench_clean_deep [BASE=HEAD~1] [N=10] [FUZZ_SEED=1] [TRACE=1]

Extracts the committed files of ``--base`` into a temporary directory
(``git archive``: nothing under ``.git`` changes), then runs the driver form
of the sweep-level benchmark (``benchmarks/e2e/run.py --workload W --seed
i``) on that copy and on the working tree, ``--pairs`` times, flipping
which side goes first every pair.  Per end-to-end metric of
``BENCHMARK.json`` it prints both medians with their quartiles, the pairs
the working tree won, and the verdict of the rule in
``benchmarks/e2e/README.md``: a *gain* needs at least nine tenths of the
pairs won (ties count for neither side), a median gap larger than the
distance between the base's own quartiles and no more failed operations
than the base; a median worse than the base by more than the metric's bound
is a *regression* (exit status 1); otherwise the metric is *within bound*,
or *unresolved* when the base's own quartile distance is wider than the
bound.  With ``--trace`` the same alternation runs the driver's ``--trace 1``
form and prints the paired medians of the per-layer metrics instead (no
verdicts: layers have no bounds; they say where an end-to-end move came
from).  It only reads ``benchmarks/e2e/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(
    tree: str, workload: str, seed: int, seconds: float, extra: List[str], trace: bool = False
) -> Dict[str, Any]:
    """One driver-form run in ``tree``; its last stdout line is the result."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0", *extra],
        cwd=tree, env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(
    metric: Dict[str, Any], base: List[float], change: List[float], no_more_failed: bool
) -> str:
    """One report line; its last word is gain / REGRESSED / unresolved /
    within bound.  ``no_more_failed``: the change failed no more operations
    than the base, without which nothing is a gain."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * c < sign * b for b, c in zip(base, change))
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    gap = sign * (bmed - cmed)  # positive: the change is better
    if no_more_failed and wins * 10 >= 9 * len(base) and gap > b3 - b1:
        word = "gain"
    elif bmed and -gap / abs(bmed) > metric["bound"]:
        word = "REGRESSED"
    elif bmed and (b3 - b1) / abs(bmed) > metric["bound"]:
        word = "unresolved"  # the base's own spread hides a move of this size
    else:
        word = "within bound"
    return (
        f"{metric['name']:<18} base {bmed:9.4g} [{b1:.4g}, {b3:.4g}]   "
        f"change {cmed:9.4g} [{c1:.4g}, {c3:.4g}]   "
        f"{(cmed - bmed) / bmed * 100 if bmed else 0.0:+6.1f} %   "
        f"wins {wins}/{len(base)}   {word}"
    )


def layer_line(metric: Dict[str, Any], base: List[float], change: List[float]) -> str:
    """One per-layer report line: both medians, their ratio and the pairs in
    which the working tree had the better value."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * c < sign * b for b, c in zip(base, change))
    bmed, cmed = statistics.median(base), statistics.median(change)
    ratio = f"{cmed / bmed:6.2f}x" if bmed else "      -"
    return (
        f"{metric['name']:<40} base {bmed:10.4g}   change {cmed:10.4g} {metric['unit']:<6}"
        f" {ratio}   wins {wins}/{len(base)}"
    )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", default="HEAD~1", help="commit to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--fuzz-seed", type=int, default=None)
    parser.add_argument("--trace", action="store_true",
                        help="pair the traced form: per-layer medians, no verdicts")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    progress = [] if args.trace else metrics  # sixty layer values fit no progress line
    extra = [] if args.fuzz_seed is None else ["--fuzz-seed", str(args.fuzz_seed)]

    base_tree = tempfile.mkdtemp(prefix="bench_pairs_base_")
    sides = {"base": base_tree, "change": ROOT}
    runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
    try:
        archive = subprocess.run(
            ["git", "archive", args.base], cwd=ROOT, check=True, capture_output=True
        )
        subprocess.run(["tar", "-x", "-C", base_tree], input=archive.stdout, check=True)
        for i in range(args.pairs):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                result = run_once(sides[side], args.workload, i, seconds, extra, args.trace)
                runs[side].append(result)
                print(
                    f"pair {i} {side:<6} failed {result['failed']}/{result['attempted']}  "
                    + "  ".join(
                        f"{m['name']} {result['metrics'][m['name']]['value']:.4g}"
                        for m in progress
                    ),
                    flush=True,
                )
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    print(f"\n{args.workload}: {args.pairs} pairs x {seconds:g} s, base {args.base}"
          + (f", fuzz seed {args.fuzz_seed}" if extra else ""))
    failed = {side: sum(r["failed"] for r in runs[side]) for side in runs}
    if args.trace:
        for metric in metrics:
            print(layer_line(metric, *(
                [r["metrics"][metric["name"]]["value"] for r in runs[side]]
                for side in ("base", "change")
            )))
        return 0
    lines = [
        verdict(
            metric,
            [r["metrics"][metric["name"]]["value"] for r in runs["base"]],
            [r["metrics"][metric["name"]]["value"] for r in runs["change"]],
            failed["change"] <= failed["base"],
        )
        for metric in metrics
    ]
    print("\n".join(lines))
    for side in ("base", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        print(f"{side}: failed {failed[side]} of {attempted}")
    return 1 if any(line.endswith("REGRESSED") for line in lines) else 0


if __name__ == "__main__":
    raise SystemExit(main())
