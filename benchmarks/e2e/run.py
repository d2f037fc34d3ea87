#!/usr/bin/env python3
"""Sweep-level benchmark of the verification pipeline.

    python3 benchmarks/e2e/run.py                       all four workloads (about 2 min)
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py --check                smoke run, under 15 s
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --write-expected --fuzz-seed S

The full run prints every metric by name with its unit, checks every verdict
against the committed references, writes ``latest.json`` (and ``--out``)
and appends one row to ``history.jsonl``.  The ``--workload`` form measures
one workload for ``--seconds`` and prints, as its last line, the JSON object
the benchmark driver reads: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import report  # noqa: E402
import sweeps  # noqa: E402

#: Seconds one workload is measured for in the full run (``run_seconds``).
RUN_SECONDS = 24
_SCRUBBED = ("REPRO_TRACE", "REPRO_FAULTS", "REPRO_FAULT_SEED", "REPRO_CACHE_DIR",
             "PYTHONDONTWRITEBYTECODE")


# ---------------------------------------------------------------------- #
# Sessions
# ---------------------------------------------------------------------- #
def run_session(
    workload: sweeps.Workload,
    *,
    fuzz_seed: int,
    seed: int,
    index: int,
    budget: float,
    min_warm: int,
    traced: bool = False,
    kernels: str = "",
) -> Dict[str, Any]:
    """Spawn one fresh-process session and return the document it prints.

    Session ``index`` of a run orders the tasks by its own seed derived from
    ``seed``: which task a garbage collection or a cache miss lands on depends
    on the order, and pooling several orders keeps one of them from deciding
    the tail percentile of a whole run.
    """
    # The same environment on every machine: no tracing, faults or disk
    # cache switched on from outside, and bytecode caching as Python ships.
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    command = [
        sys.executable, os.path.join(HERE, "session.py"),
        "--workload", workload.name, "--fuzz-seed", str(fuzz_seed),
        "--order-seed", str(seed * 1000 + index), "--budget", f"{budget:.3f}",
        "--min-warm", str(min_warm), "--traced", str(int(traced)),
        "--kernels", kernels, "--spawned-at", repr(time.time()),
    ]
    # Its own process group, so that a session that has to be abandoned
    # takes its worker process down with it.
    session = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        stdout, _ = session.communicate(timeout=budget + 120)
    except BaseException:  # timeout or interrupt; re-raised
        os.killpg(session.pid, signal.SIGKILL)
        session.wait()
        raise
    if session.returncode != 0:
        raise SystemExit(f"session of {workload.name} exited with {session.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def traced_metrics(
    workload: sweeps.Workload, traced: Dict[str, Any], untraced_wall_s: Optional[float]
) -> Dict[str, Any]:
    """Per-layer metrics from the warm pass of median wall-clock."""
    warm = sorted(traced["passes"][1:] or traced["passes"], key=lambda p: p["wall_s"])
    chosen = warm[len(warm) // 2]
    snapshot, missing = layers.merge_ledgers(
        chosen["ledgers"], chosen["window"], traced["missing"]
    )
    metrics = layers.layer_metrics(
        snapshot, traced["tasks"], chosen["wall_s"], untraced_wall_s,
        {layer for layer, _ in missing}, workload.mode == "service",
    )
    return {"metrics": metrics, "missing": missing, "pass_wall_s": chosen["wall_s"]}


# ---------------------------------------------------------------------- #
# Printing
# ---------------------------------------------------------------------- #
def print_end_to_end(name: str, sessions: List[Dict[str, Any]], e2e: Dict[str, Any]) -> None:
    warm = sum(len(s["passes"]) - 1 for s in sessions)
    print(f"== {name}: {sessions[0]['tasks']} tasks, {len(sessions)} sessions, "
          f"{warm} warm passes")
    for metric, unit, _, bound in report.END_TO_END + [report.FAILED_SHARE]:
        row = e2e[metric]
        q1, _, q3 = report.quartiles(row["samples"])
        note = f"q1 {q1:.4f} .. q3 {q3:.4f}, n={len(row['samples'])}, bound {bound:g}"
        if metric == "task_ms_p95":
            note += f", pool {row['pool']} with {row['beyond']} beyond"
            if row["beyond"] < 10:
                best = report.highest_percentile(row["pool"])
                note += f" (fewer than ten: only p{best * 100:g} is supported)"
        print(f"  {metric:<20} {row['value']:>12.4f} {unit:<6} ({note})")


def print_per_layer(traced: Dict[str, Any]) -> None:
    print(f"  -- per layer, traced warm pass of {traced['pass_wall_s']:.4f} s")
    for metric, unit, _ in layers.PER_LAYER:
        value = traced["metrics"][metric]
        shown = "null" if value is None else f"{value:.4f}"
        print(f"  {metric:<40} {shown:>14} {unit}")
    for layer, path in traced["missing"]:
        print(f"  layers_missing: {layer} <- {path}")


def driver_line(metrics: Dict[str, Any], units: Dict[str, str], tally: Dict[str, Any]) -> str:
    return json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {
            # The driver takes numbers only: an unmeasurable per-layer value
            # reads 0 here and is named in the layers_missing lines above.
            name: {"value": 0.0 if value is None else value, "unit": units[name]}
            for name, value in metrics.items()
        },
    })


# ---------------------------------------------------------------------- #
# Modes
# ---------------------------------------------------------------------- #
def measure_workload(args: argparse.Namespace) -> int:
    """The driver's form: one workload for ``--seconds``, one JSON last line."""
    workload = sweeps.WORKLOADS[args.workload]
    common = dict(fuzz_seed=args.fuzz_seed, seed=args.seed)
    if not args.trace:
        budget = args.seconds / workload.sessions
        sessions = [
            run_session(workload, index=i, budget=budget, min_warm=workload.min_warm, **common)
            for i in range(workload.sessions)
        ]
        e2e = report.end_to_end(sessions)
        print_end_to_end(workload.name, sessions, e2e)
        tally = report.verdict_tally(sessions)
        metrics = {name: e2e[name]["value"] for name, _, _, _ in report.END_TO_END}
        units = {name: unit for name, unit, _, _ in report.END_TO_END}
    else:
        half = dict(common, index=0, budget=args.seconds / 2, min_warm=1)
        plain = run_session(workload, **half)
        traced_doc = run_session(workload, traced=True, **half)
        untraced = report.end_to_end([plain])["sweep_wall_s"]["value"]
        traced = traced_metrics(workload, traced_doc, untraced)
        print(f"== {workload.name}: untraced warm pass {untraced:.4f} s")
        print_per_layer(traced)
        tally = report.verdict_tally([plain, traced_doc])
        metrics = traced["metrics"]
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    for example in tally["examples"]:
        print(f"  WRONG {example}")
    print(driver_line(metrics, units, tally))
    return 0


def full_run(args: argparse.Namespace) -> int:
    """All workloads, sessions interleaved round-robin so drift spreads evenly."""
    started = time.time()
    workloads = list(sweeps.WORKLOADS.values())
    common = dict(fuzz_seed=args.fuzz_seed, seed=args.seed)
    sessions: Dict[str, List[Dict[str, Any]]] = {w.name: [] for w in workloads}
    for index in range(max(w.sessions for w in workloads)):
        for w in workloads:
            if index < w.sessions:
                sessions[w.name].append(run_session(
                    w, index=index, budget=args.seconds / w.sessions, min_warm=w.min_warm,
                    **common
                ))
    document: Dict[str, Any] = {**run_identity(), "seed": args.seed,
                                "fuzz_seed": args.fuzz_seed, "workloads": {}}
    failed = 0
    for w in workloads:
        e2e = report.end_to_end(sessions[w.name])
        traced_doc = run_session(w, index=0, budget=0, min_warm=1, traced=True, **common)
        traced = traced_metrics(w, traced_doc, e2e["sweep_wall_s"]["value"])
        print_end_to_end(w.name, sessions[w.name], e2e)
        print_per_layer(traced)
        tally = report.verdict_tally(sessions[w.name] + [traced_doc])
        for example in tally["examples"]:
            print(f"  WRONG {example}")
        failed += tally["failed"]
        document["workloads"][w.name] = {
            "end_to_end": e2e,
            "per_layer": traced["metrics"],
            "layers_missing": traced["missing"],
        }
    document["elapsed_s"] = time.time() - started
    for path in filter(None, [os.path.join(HERE, "latest.json"), args.out]):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    row = {k: v for k, v in document.items() if k != "workloads"}
    row["workloads"] = {
        name: {metric: entry["value"] for metric, entry in body["end_to_end"].items()}
        for name, body in document["workloads"].items()
    }
    with open(os.path.join(HERE, "history.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    print(f"{'FAILED' if failed else 'ok'}: {failed} wrong verdicts, "
          f"{document['elapsed_s']:.0f} s; wrote latest.json and one history.jsonl row")
    return 1 if failed else 0


def run_identity() -> Dict[str, Any]:
    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "--short", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


def check(args: argparse.Namespace) -> int:
    """Smoke run: one short session of each kind per workload, then validate."""
    started = time.time()
    problems: List[str] = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    problems += report.check_benchmark_json(benchmark, layers.PER_LAYER, sweeps.WORKLOADS)
    kernels = ",".join(sweeps.CHECK_KERNELS)
    for w in sweeps.WORKLOADS.values():
        common = dict(fuzz_seed=0, seed=0, index=0, budget=0, kernels=kernels)
        plain = run_session(w, min_warm=1, **common)
        traced_doc = run_session(w, min_warm=0, traced=True, **common)
        e2e = report.end_to_end([plain])
        traced = traced_metrics(w, traced_doc, e2e["sweep_wall_s"]["value"])
        for name, _, _, _ in report.END_TO_END:
            if not e2e[name]["value"] > 0:
                problems.append(f"{w.name}: {name} = {e2e[name]['value']}")
        if set(traced["metrics"]) != {m[0] for m in layers.PER_LAYER}:
            problems.append(f"{w.name}: per-layer names differ from layers.PER_LAYER")
        tally = report.verdict_tally([plain, traced_doc])
        if tally["failed"]:
            problems.append(f"{w.name}: failed_share = {tally['failed']}/{tally['attempted']}: "
                            f"{tally['examples']}")
        print(f"{w.name}: {plain['tasks']} tasks, {tally['attempted']} verdicts checked, "
              f"{len(traced['missing'])} wrapped names unresolved")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print(f"check {'FAILED' if problems else 'ok'} in {time.time() - started:.1f} s")
    return 1 if problems else 0


def compare(args: argparse.Namespace) -> int:
    runs = []
    for path in args.compare:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    lines, tally = report.compare(*runs)
    print("\n".join(lines))
    print(", ".join(f"{count} {status}" for status, count in tally.items()))
    return 1 if tally["regressed"] else 0


def write_expected(args: argparse.Namespace) -> int:
    """Regenerate the reference verdicts through the interpreter oracle."""
    sys.path.insert(0, SRC)
    from repro.pipeline import SweepRunner

    for w in sweeps.WORKLOADS.values():
        if w.expected is not None:
            continue
        verdicts = {}
        for backend in ("interpreter", "compiled"):
            tasks = sweeps.build_tasks(w, args.fuzz_seed, backend=backend)
            result = SweepRunner(workers=1).run(tasks)
            if result.errors():
                raise SystemExit(f"{w.name}: {len(result.errors())} tasks errored; not writing")
            verdicts[backend] = {
                sweeps.key_of_task(t): o["verdict"] for t, o in zip(tasks, result.outcomes)
            }
            if backend == "interpreter":
                totals = result.totals()
        if verdicts["interpreter"] != verdicts["compiled"]:
            raise SystemExit(f"{w.name}: interpreter and compiled verdicts differ; not writing")
        if w.name == "npbench_buggy_shallow" and totals != sweeps.TABLE2:
            raise SystemExit(f"npbench buggy table is {totals}, not {sweeps.TABLE2}; not writing")
        os.makedirs(sweeps.EXPECTED_DIR, exist_ok=True)
        with open(sweeps.expected_path(w, args.fuzz_seed), "w", encoding="utf-8") as handle:
            json.dump({
                "workload": w.name, "fuzz_seed": args.fuzz_seed,
                "generated_with": "interpreter", "cross_checked_with": "compiled",
                "tasks": totals[0], "failing": totals[1],
                "verdicts": verdicts["interpreter"],
            }, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"{w.name}: seed {args.fuzz_seed}: {totals[0]} tasks, {totals[1]} failing")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=list(sweeps.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the task list; the work is the same for every seed")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fuzz-seed", type=int, default=0, choices=sweeps.FUZZ_SEEDS,
                        help="the verifier's fuzzing seed; 1 is the held-out seed")
    parser.add_argument("--out", help="also write the full run's document here")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("RUN_A", "RUN_B"))
    parser.add_argument("--write-expected", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.write_expected:
        return write_expected(args)
    if args.check:
        return check(args)
    if args.workload:
        return measure_workload(args)
    return full_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
