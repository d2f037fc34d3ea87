"""Turning sessions into named metrics, and comparing two runs.

No measurement happens here: :func:`end_to_end` folds the raw documents the
sessions print into the end-to-end metrics, :func:`compare` renders the
table two runs of ``run.py --out`` are judged by, and
:func:`check_benchmark_json` checks ``BENCHMARK.json`` against the
contract's schema and against the names this harness emits.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: (name, unit, better, bound): the share of the baseline's median by which
#: a metric may get worse before it counts as a regression.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("sweep_wall_s", "s", "lower", 0.20),
    ("cold_sweep_wall_s", "s", "lower", 0.25),
    ("task_ms_p50", "ms", "lower", 0.25),
    ("task_ms_p95", "ms", "lower", 0.25),
    ("sweep_cpu_s", "s", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
]
#: Carried by ``correct`` / ``attempted`` / ``failed`` in the driver's line
#: (it is 0 on a healthy commit, so it cannot take a relative bound).
FAILED_SHARE = ("failed_share", "ratio", "lower", 0.0)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# ---------------------------------------------------------------------- #
# Percentiles
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` of
    the samples at or below it (``q`` in (0, 1])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(q * count))


def highest_percentile(count: int, ladder: Iterable[float] = (0.99, 0.95, 0.90, 0.75)) -> float:
    """The highest percentile of the ladder with ten samples beyond it;
    the median when the pool is too small for any."""
    for q in ladder:
        if samples_beyond(count, q) >= 10:
            return q
    return 0.5


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as the driver takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


# ---------------------------------------------------------------------- #
# Sessions -> end-to-end metrics
# ---------------------------------------------------------------------- #
def verdict_tally(sessions: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Verdicts attempted and failed over all passes of the sessions."""
    return {
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": sum(s["failed"] for s in sessions),
        "examples": [e for s in sessions for e in s["examples"]][:5],
    }


def end_to_end(sessions: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """``{metric: {"value", "unit", "samples"}}`` of one workload.

    ``samples`` holds what the value was taken from, one entry per pass or
    per session, so that a comparison can state quartiles.
    """
    warm = [p for s in sessions for p in s["passes"][1:]]
    pool = [ms for p in warm for ms in p["task_ms"]]
    per_session = [[ms for p in s["passes"][1:] for ms in p["task_ms"]] for s in sessions]
    tally = verdict_tally(sessions)
    rows = {
        "sweep_wall_s": (statistics.median(p["wall_s"] for p in warm),
                         [p["wall_s"] for p in warm]),
        "cold_sweep_wall_s": _median_of([s["passes"][0]["wall_s"] for s in sessions]),
        "task_ms_p50": (statistics.median(pool), [statistics.median(x) for x in per_session]),
        "task_ms_p95": (percentile(pool, 0.95), [percentile(x, 0.95) for x in per_session]),
        "sweep_cpu_s": _median_of([
            sum(p["cpu_s"] for p in s["passes"][1:]) / (len(s["passes"]) - 1) for s in sessions
        ]),
        "setup_s": _median_of([s["setup_s"] for s in sessions]),
        "peak_rss_mb": (max(s["peak_rss_mib"] for s in sessions),
                        [s["peak_rss_mib"] for s in sessions]),
        "failed_share": (tally["failed"] / tally["attempted"],
                         [s["failed"] / s["attempted"] for s in sessions]),
    }
    units = {name: unit for name, unit, _, _ in END_TO_END + [FAILED_SHARE]}
    out = {
        name: {"value": value, "unit": units[name], "samples": samples}
        for name, (value, samples) in rows.items()
    }
    out["task_ms_p95"]["pool"] = len(pool)
    out["task_ms_p95"]["beyond"] = samples_beyond(len(pool), 0.95)
    return out


def _median_of(samples: List[float]) -> Tuple[float, List[float]]:
    return statistics.median(samples), samples


# ---------------------------------------------------------------------- #
# Comparing two runs
# ---------------------------------------------------------------------- #
def compare(run_a: Dict[str, Any], run_b: Dict[str, Any]) -> Tuple[List[str], Dict[str, int]]:
    """Table lines and a tally for two ``run.py --out`` documents; A is the base."""
    lines = [
        f"{'workload':<22} {'metric':<18} {'A':>10} {'A q1..q3':>21} "
        f"{'B':>10} {'B q1..q3':>21} {'B/A':>7}  status"
    ]
    tally = {"within-bound": 0, "regressed": 0, "unresolved": 0}
    for workload, metrics_a in run_a["workloads"].items():
        metrics_b = run_b["workloads"].get(workload, {}).get("end_to_end", {})
        for name, unit, better, bound in END_TO_END + [FAILED_SHARE]:
            a, b = metrics_a["end_to_end"].get(name), metrics_b.get(name)
            if a is None or b is None:
                continue
            status = judge(a["value"], b["value"], a["samples"], better, bound)
            tally[status] += 1
            qa, qb = quartiles(a["samples"]), quartiles(b["samples"])
            ratio = f"{b['value'] / a['value']:7.3f}" if a["value"] else "    n/a"
            lines.append(
                f"{workload:<22} {name:<18} {a['value']:>10.4f} "
                f"{qa[0]:>10.4f}..{qa[2]:<9.4f} {b['value']:>10.4f} "
                f"{qb[0]:>10.4f}..{qb[2]:<9.4f} {ratio}  {status} ({unit}, bound {bound:g})"
            )
    return lines, tally


def judge(a: float, b: float, a_samples: Sequence[float], better: str, bound: float) -> str:
    """``regressed`` when B is worse than A by more than the bound;
    ``unresolved`` when A's own interquartile spread exceeds the bound."""
    worse = b - a if better == "lower" else a - b
    if a == 0:  # no base for a share: any worsening counts
        return "regressed" if worse > 0 else "within-bound"
    if bound and spread(a_samples) > bound:
        return "unresolved"
    return "regressed" if worse / a > bound else "within-bound"


# ---------------------------------------------------------------------- #
# Schema of BENCHMARK.json
# ---------------------------------------------------------------------- #
def check_benchmark_json(doc: Dict[str, Any], per_layer: List[tuple],
                         workloads: Iterable[str]) -> List[str]:
    """Problems with ``BENCHMARK.json``; empty when it meets the contract
    and names exactly what this harness emits."""
    problems: List[str] = []
    wanted = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != wanted:
        problems.append(f"keys {sorted(doc)} != {sorted(wanted)}")
        return problems
    if not (isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")
    names = [w.get("name") for w in doc["workloads"]]
    if names != list(workloads):
        problems.append(f"workloads {names} != {list(workloads)}")
    for w in doc["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w.get('name')!r} is malformed")
    for section, expected in (
        ("end_to_end", [(n, u, b) for n, u, b, _ in END_TO_END]),
        ("per_layer", [tuple(m) for m in per_layer]),
    ):
        got = [(m.get("name"), m.get("unit"), m.get("better")) for m in doc[section]]
        if got != expected:
            problems.append(f"{section} differs from the harness: "
                            f"{sorted(set(got) ^ set(expected))}")
        keys = {"name", "unit", "better"} | ({"bound"} if section == "end_to_end" else set())
        for m in doc[section]:
            if set(m) != keys:
                problems.append(f"{section} entry {m.get('name')!r} has keys {sorted(m)}")
            elif not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
                problems.append(f"{section} entry {m['name']!r}: bad name or unit")
            elif m["better"] not in ("lower", "higher"):
                problems.append(f"{section} entry {m['name']!r}: bad 'better'")
    bounds = {m["name"]: m.get("bound") for m in doc["end_to_end"]}
    for name, _, _, bound in END_TO_END:
        if bounds.get(name) != bound or not 0 <= bound <= 0.25:
            problems.append(f"bound of {name} is {bounds.get(name)}, harness says {bound}")
    every = names + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    for name in every:
        if not isinstance(name, str) or not NAME.match(name):
            problems.append(f"name {name!r} does not match {NAME.pattern}")
    if len(set(every)) != len(every):
        problems.append("a name is used twice")
    return problems
