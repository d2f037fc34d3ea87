"""The per-layer ledger: which public calls are wrapped, and the metrics.

A layer is named after the module it lives in.  :func:`targets` lists the
public callables the traced run wraps (by name, resolved at install time);
:func:`layer_metrics` turns one pass's ledger into the per-layer metrics of
``BENCHMARK.json``.  Which end-to-end metric each layer should move, on
which workload, is recorded in ``README.md``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Set

from interpose import Installation, Ledger, Target, diff_snapshots

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[tuple] = []
#: Layers whose time is plain ``self_ms`` + ``calls``, with extra counts.
_TIMED = {
    "workloads.build": ["program_nodes"],
    "transforms.enumerate": ["matches"],
    "transforms.apply": [],
    "core.cutout": ["node_ratio"],
    "core.change_isolation": ["black_box_calls"],
    "core.mincut": ["minimized_share", "volume_ratio"],
    "sdfg.clone": ["calls_per_task"],
    "sdfg.validate": [],
    "core.constraints": [],
    "core.sampling": [],
    "backends.prepare": [],
    "backends.run": ["us_per_call"],
    "pipeline.result": [],
}
_UNITS = {
    "self_ms": ("ms", "lower"), "calls": ("count", "lower"),
    "program_nodes": ("count", "lower"), "matches": ("count", "lower"),
    "node_ratio": ("ratio", "lower"), "black_box_calls": ("count", "lower"),
    "minimized_share": ("ratio", "higher"), "volume_ratio": ("ratio", "lower"),
    "calls_per_task": ("count", "lower"), "us_per_call": ("us", "lower"),
}
for _layer, _extra in _TIMED.items():
    for _metric in ["self_ms", "calls"] + _extra:
        PER_LAYER.append((f"{_layer}.{_metric}",) + _UNITS[_metric])
PER_LAYER += [
    ("core.fuzzing.loop_self_ms", "ms", "lower"),
    ("core.fuzzing.compare_ms", "ms", "lower"),
    ("core.fuzzing.trials_attempted", "count", "lower"),
    ("core.fuzzing.trials_effective", "count", "lower"),
    ("core.fuzzing.useful_ratio", "ratio", "higher"),
    ("pipeline.runner.self_ms", "ms", "lower"),
    ("pipeline.runner.attributed_share", "ratio", "higher"),
    ("cluster.scheduler.self_ms", "ms", "lower"),
    ("cluster.scheduler.lease_calls", "count", "lower"),
    ("cluster.scheduler.tasks_per_lease", "count", "higher"),
    ("cluster.protocol.self_ms", "ms", "lower"),
    ("cluster.protocol.frames", "count", "lower"),
    ("cluster.protocol.bytes", "count", "lower"),
    ("cluster.journal.self_ms", "ms", "lower"),
    ("cluster.journal.records", "count", "lower"),
    ("cluster.journal.bytes", "count", "lower"),
    ("cluster.worker.idle_ms", "ms", "lower"),
    ("cluster.worker.overhead_ms_per_task", "ms", "lower"),
    ("harness.traced_over_untraced", "ratio", "lower"),
    ("harness.layers_missing", "count", "lower"),
]
#: Layers that only exist on the service workload.
CLUSTER_LAYERS = ("cluster.scheduler", "cluster.protocol", "cluster.journal")


# ---------------------------------------------------------------------- #
# Counting hooks (run after the span closed; see interpose.AfterHook)
# ---------------------------------------------------------------------- #
def _node_count(sdfg: Any) -> int:
    return sum(len(state.nodes()) for state in sdfg.states())


def _after_build(ledger: Ledger, args, kwargs, sdfg) -> None:
    ledger.count("workloads.build.program_nodes", _node_count(sdfg))


def _after_enumerate(ledger: Ledger, args, kwargs, matches) -> None:
    ledger.count("transforms.enumerate.matches", len(matches))


def _after_cutout(ledger: Ledger, args, kwargs, cutout) -> None:
    program = kwargs["sdfg"] if "sdfg" in kwargs else args[0]
    ledger.count("core.cutout.ratio_sum", cutout.num_nodes() / max(1, _node_count(program)))
    ledger.count("core.cutout.ratio_n")


def _after_black_box(ledger: Ledger, args, kwargs, result) -> None:
    ledger.count("core.change_isolation.black_box_calls")


def _after_mincut(ledger: Ledger, args, kwargs, result) -> None:
    ledger.count("core.mincut.minimized", 1 if result.minimized else 0)
    ledger.count("core.mincut.volume_before", result.original_input_volume)
    ledger.count("core.mincut.volume_after", result.minimized_input_volume)


def _after_fuzz(ledger: Ledger, args, kwargs, report) -> None:
    ledger.count("core.fuzzing.trials_attempted", report.trials_attempted)
    ledger.count("core.fuzzing.trials_effective", report.trials_effective)


def _after_lease(ledger: Ledger, args, kwargs, reply) -> None:
    if reply.get("type") == "tasks":
        ledger.count("cluster.scheduler.lease_calls")
        ledger.count("cluster.scheduler.tasks_leased", len(reply["tasks"]))


def targets() -> List[Target]:
    """Every wrapped public call except the backend's (see below)."""
    journal_sizes: Dict[str, int] = {}

    def after_journal(ledger: Ledger, args, kwargs, result) -> None:
        path = args[0].path
        size = os.path.getsize(path)
        ledger.count("cluster.journal.bytes", size - journal_sizes.get(path, 0))
        journal_sizes[path] = size

    return [
        Target("pipeline.runner", "repro.pipeline.runner:execute_task"),
        Target("workloads.build", "repro.pipeline.tasks:SweepTask.build_sdfg", _after_build),
        Target("transforms.enumerate",
               "repro.core.verifier:FuzzyFlowVerifier.enumerate_instances", _after_enumerate),
        Target("transforms.apply", "repro.core.cutout:transfer_match"),
        Target("transforms.apply", "repro.transforms.base:PatternTransformation.apply*"),
        Target("core.cutout", "repro.core.cutout:extract_cutout", _after_cutout),
        Target("core.cutout", "repro.core.cutout:extract_state_cutout"),
        Target("core.change_isolation", "repro.core.change_isolation:white_box_change_set"),
        Target("core.change_isolation",
               "repro.core.change_isolation:black_box_change_set", _after_black_box),
        Target("core.mincut",
               "repro.core.input_minimization:minimize_input_configuration", _after_mincut),
        Target("sdfg.clone", "repro.sdfg.sdfg:SDFG.clone"),
        Target("sdfg.validate", "repro.sdfg.validation:validate_sdfg"),
        Target("core.constraints", "repro.core.constraints:derive_constraints"),
        Target("core.sampling", "repro.core.sampling:InputSampler.sample"),
        Target("core.fuzzing", "repro.core.fuzzing:DifferentialFuzzer.run", _after_fuzz),
        Target("core.fuzzing.compare", "repro.core.fuzzing:compare_system_states"),
        Target("pipeline.result", "repro.core.reporting:TransformationTestReport.to_dict"),
        Target("pipeline.result", "repro.pipeline.result:SweepResult.to_dict"),
        Target("pipeline.result", "repro.pipeline.result:SweepResult.from_dict"),
        Target("cluster.scheduler", "repro.cluster.scheduler:SweepScheduler.submit"),
        Target("cluster.scheduler", "repro.cluster.scheduler:SweepScheduler.lease", _after_lease),
        Target("cluster.scheduler", "repro.cluster.scheduler:SweepScheduler.record_result"),
        Target("cluster.journal", "repro.cluster.journal:ResultStore.record", after_journal),
    ]


def wrap_backend(installation: Installation, backend_name: str) -> None:
    """Wrap ``prepare`` on the concrete backend class ``get_backend`` returns,
    and ``run`` / ``run_batch`` on the class of each program it prepares."""
    try:
        from repro.backends import get_backend

        backend_cls = type(get_backend(backend_name))
        getattr(backend_cls, "prepare")
    except (ImportError, AttributeError, KeyError):
        path = f"repro.backends:get_backend({backend_name!r}).prepare"
        installation.missing += [("backends.prepare", path), ("backends.run", path)]
        return
    seen: set = set()

    def after_prepare(ledger: Ledger, args, kwargs, program) -> None:
        cls = type(program)
        if cls in seen:
            return
        seen.add(cls)
        for name in ("run", "run_batch"):
            if hasattr(cls, name):
                installation.wrap_attribute(cls, name, Target("backends.run", name))

    installation.wrap_attribute(
        backend_cls, "prepare", Target("backends.prepare", "prepare", after_prepare)
    )


# ---------------------------------------------------------------------- #
def merge_ledgers(ledgers: Dict[str, Any], window: List[float], missing: List[Any]):
    """One pass's ledger from the cumulative snapshots around it.

    On the service workload the worker process keeps its own ledger; the two
    are added.  The worker waits in ``recv_message`` while the service
    handles its frame, so the scheduler's and the journal's time is taken
    out of the wire's: each layer then holds time no other layer holds.
    The worker's stretches without a lease are clipped to ``window``, the
    pass's [start, end] on the wall clock.  Returns ``(snapshot, missing)``.
    """
    before, after = ledgers["before"], ledgers["after"]
    merged = diff_snapshots(before["session"], after["session"])
    missing = [tuple(m) for m in missing]
    if "worker" in after:
        worker = diff_snapshots(before["worker"], after["worker"])
        for layer, totals in worker["layers"].items():
            into = merged["layers"].setdefault(layer, dict.fromkeys(totals, 0))
            for key, value in totals.items():
                into[key] += value
        for name, value in worker["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
        wire = merged["layers"].get("cluster.protocol")
        if wire is not None:
            served = sum(
                merged["layers"].get(layer, {}).get("self_s", 0.0)
                for layer in ("cluster.scheduler", "cluster.journal")
            )
            wire["self_s"] = max(0.0, wire["self_s"] - served)
        merged["counters"]["cluster.worker.idle_s"] = sum(
            max(0.0, min(end, window[1]) - max(start, window[0]))
            for start, end in after["worker"].get("idle", [])
        )
        missing += [tuple(m) for m in after["worker"].get("missing", []) if tuple(m) not in missing]
    return merged, missing


def layer_metrics(
    snapshot: Dict[str, Any],
    tasks: int,
    pass_wall_s: float,
    untraced_wall_s: Optional[float],
    missing_layers: Set[str],
    service: bool,
) -> Dict[str, Optional[float]]:
    """The per-layer metrics of one traced pass, keyed as in ``PER_LAYER``.

    ``None`` marks a number that could not be measured: a wrapped name of
    the layer did not resolve, or a ratio had nothing to divide by.  The
    cluster layers read 0 on the in-process workloads, where they do not run.
    """
    layers, counters = snapshot["layers"], snapshot["counters"]

    def timed(layer: str, key: str, scale: float = 1.0) -> Optional[float]:
        if layer in missing_layers:
            return None
        return layers.get(layer, {}).get(key, 0) * scale

    def counted(name: str) -> Optional[float]:
        return None if name.rsplit(".", 1)[0] in missing_layers else counters.get(name, 0)

    def ratio(num: Optional[float], den: Optional[float]) -> Optional[float]:
        return None if num is None or not den else num / den

    out: Dict[str, Optional[float]] = {}
    for layer in _TIMED:
        out[f"{layer}.self_ms"] = timed(layer, "self_s", 1000.0)
        out[f"{layer}.calls"] = timed(layer, "calls")
    out["workloads.build.program_nodes"] = counted("workloads.build.program_nodes")
    out["transforms.enumerate.matches"] = counted("transforms.enumerate.matches")
    out["core.cutout.node_ratio"] = ratio(
        counted("core.cutout.ratio_sum"), counted("core.cutout.ratio_n"))
    out["core.change_isolation.black_box_calls"] = counted("core.change_isolation.black_box_calls")
    out["core.mincut.minimized_share"] = ratio(
        counted("core.mincut.minimized"), out["core.mincut.calls"])
    out["core.mincut.volume_ratio"] = ratio(
        counted("core.mincut.volume_after"), counted("core.mincut.volume_before"))
    out["sdfg.clone.calls_per_task"] = ratio(out["sdfg.clone.calls"], tasks)
    out["backends.run.us_per_call"] = ratio(
        timed("backends.run", "self_s", 1e6), out["backends.run.calls"])

    out["core.fuzzing.loop_self_ms"] = timed("core.fuzzing", "self_s", 1000.0)
    out["core.fuzzing.compare_ms"] = timed("core.fuzzing.compare", "self_s", 1000.0)
    out["core.fuzzing.trials_attempted"] = counted("core.fuzzing.trials_attempted")
    out["core.fuzzing.trials_effective"] = counted("core.fuzzing.trials_effective")
    out["core.fuzzing.useful_ratio"] = ratio(
        out["core.fuzzing.trials_effective"], out["core.fuzzing.trials_attempted"])

    task_s = timed("pipeline.runner", "total_s")
    out["pipeline.runner.self_ms"] = timed("pipeline.runner", "self_s", 1000.0)
    unnamed = ratio(timed("pipeline.runner", "self_s"), task_s)
    out["pipeline.runner.attributed_share"] = None if unnamed is None else 1.0 - unnamed

    for layer in CLUSTER_LAYERS:
        out[f"{layer}.self_ms"] = timed(layer, "self_s", 1000.0)
    out["cluster.scheduler.lease_calls"] = counted("cluster.scheduler.lease_calls")
    out["cluster.scheduler.tasks_per_lease"] = ratio(
        counted("cluster.scheduler.tasks_leased"), out["cluster.scheduler.lease_calls"])
    out["cluster.protocol.frames"] = timed("cluster.protocol", "calls")
    out["cluster.protocol.bytes"] = counted("cluster.protocol.bytes")
    out["cluster.journal.records"] = timed("cluster.journal", "calls")
    out["cluster.journal.bytes"] = counted("cluster.journal.bytes")
    if not service:
        for name in out:
            if name.startswith(CLUSTER_LAYERS):
                out[name] = 0.0
    out["cluster.worker.idle_ms"] = counters.get("cluster.worker.idle_s", 0.0) * 1000.0
    out["cluster.worker.overhead_ms_per_task"] = (
        None if task_s is None or not tasks else (pass_wall_s - task_s) * 1000.0 / tasks
    )
    out["harness.traced_over_untraced"] = ratio(pass_wall_s, untraced_wall_s)
    out["harness.layers_missing"] = len(missing_layers)
    return {name: out[name] for name, _, _ in PER_LAYER}
