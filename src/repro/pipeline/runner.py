"""Shared-nothing sweep execution: serial loop or multiprocessing pool.

Each worker receives only plain picklable :class:`SweepTask` descriptions,
rebuilds the workload from its suite/name (or serialized JSON), re-derives
the transformation instance by index, runs the full FuzzyFlow verification,
and returns a JSON-safe outcome dict.  With ``workers <= 1`` the same task
function runs inline, so serial and parallel sweeps are bit-identical in
everything but wall-clock time.

Outcomes stream back incrementally (``imap_unordered``) and are reassembled
into task order, so a progress callback sees every verdict as it lands while
the aggregated :class:`SweepResult` remains identical to a serial run.

Any run -- serial or parallel -- can journal outcomes to a
:class:`repro.cluster.journal.ResultStore` (``store=``) and resume from one
(``completed=``): tasks whose deterministic :attr:`SweepTask.task_id` is
already journaled are restored instead of re-executed, so a killed sweep
re-runs only its unfinished tail.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import faultinject
from repro.core.reporting import Verdict
from repro.core.verifier import FuzzyFlowVerifier
from repro.pipeline.result import SweepResult
from repro.pipeline.tasks import SweepTask, sweep_labels, untested_outcome
from repro.telemetry import TRACER as _TRACER
from repro.telemetry import MetricsRegistry, capture
from repro.telemetry import perf_counter as _perf_counter

__all__ = ["SweepRunner", "execute_task", "execute_task_with_metrics"]

#: Callback signature: (task index, outcome dict, completed count, total).
ProgressCallback = Callable[[int, Dict[str, Any], int, int], None]


def execute_task(task: SweepTask) -> Dict[str, Any]:
    """Run one sweep task and return its JSON-safe outcome.

    Infrastructure failures (a workload that no longer builds, an unknown
    transformation, ...) are captured in the ``error`` field instead of
    killing the whole sweep.
    """
    try:
        # Inside the try block: an `exception` fault becomes a journaled
        # UNTESTED outcome (like any infrastructure error) while `crash` /
        # `hang` faults take down or stall this process, exactly like a
        # real segfault or livelock in the verifier.
        faultinject.hit("task.execute", key=task.workload)
        with _TRACER.span("task.build", "sweep"):
            sdfg = task.build_sdfg()
        xform = task.transformation.instantiate()
        verifier = FuzzyFlowVerifier(**task.verifier_kwargs)
        report = verifier.verify_instance(
            sdfg, xform, task.match_index, symbol_values=task.symbols
        )
    except Exception as exc:  # noqa: BLE001 - reported per task
        return untested_outcome(task, f"{type(exc).__name__}: {exc}")
    error = None
    if report.verdict == Verdict.UNTESTED and report.error_message:
        # E.g. the worker-side rebuild produced fewer matches than the
        # sweep's owner enumerated: an infrastructure problem, not a verdict
        # -- surface it through SweepResult.errors() instead of letting the
        # instance silently vanish from the verdict table.
        error = report.error_message
    return {
        "suite": task.suite,
        "workload": task.workload,
        "transformation": task.transformation.name,
        "match_index": task.match_index,
        "task_id": task.task_id,
        "worker": None,
        "error": error,
        "verdict": report.verdict.value,
        "match_description": report.match_description,
        "report": report.to_dict(),
    }


def execute_task_with_metrics(
    task: SweepTask,
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one sweep task, returning ``(outcome, metrics delta snapshot)``.

    The outcome dict is *identical* to :func:`execute_task`'s (journals and
    verdicts stay bitwise unaffected); the metrics delta rides alongside it
    so pool workers, cluster workers and serial loops can all report
    per-task telemetry without touching the journaled payload.  The trace
    buffer is flushed after each task so pool workers never lose events to
    an unclean process exit.
    """
    with capture() as sink:
        with _TRACER.span("task", "sweep") as span:
            span.set("task_id", task.task_id)
            outcome = execute_task(task)
            span.set("verdict", outcome.get("verdict"))
    _TRACER.flush()
    return outcome, sink.snapshot()


def _execute_indexed(
    item: Tuple[int, SweepTask],
) -> Tuple[int, Dict[str, Any], Dict[str, Any]]:
    """Pool worker wrapper carrying the task index through imap_unordered."""
    index, task = item
    outcome, metrics = execute_task_with_metrics(task)
    return index, outcome, metrics


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap on Linux); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class SweepRunner:
    """Fans sweep tasks out to a worker pool and aggregates the outcomes."""

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))

    def run(
        self,
        tasks: Sequence[SweepTask],
        suite: Optional[str] = None,
        buggy: Optional[bool] = None,
        backend: Optional[str] = None,
        progress_callback: Optional[ProgressCallback] = None,
        store: Optional[Any] = None,
        completed: Optional[Mapping[str, Dict[str, Any]]] = None,
    ) -> SweepResult:
        """Execute all tasks and aggregate them into a :class:`SweepResult`.

        Parallel outcomes stream back as workers finish
        (``imap_unordered``) and are reassembled into task order, so serial
        and parallel runs aggregate identically while ``progress_callback``
        (if given) observes every verdict the moment it lands.  ``suite``,
        ``buggy`` and ``backend`` label the result; by default they are
        derived from the tasks themselves so the report header cannot
        contradict what was actually run.

        ``store`` (a :class:`repro.cluster.journal.ResultStore`) journals
        every fresh outcome as it lands; ``completed`` maps task IDs to
        already-journaled outcomes, which are restored at their task index
        without re-execution -- the resume path.  The progress callback only
        fires for freshly executed tasks, but its ``completed`` count
        includes the restored ones, so ``[k/total]`` lines stay truthful.
        """
        start = _perf_counter()
        tasks = list(tasks)
        total = len(tasks)
        suite, buggy, backend = sweep_labels(tasks, suite, buggy, backend)

        # Partition into restored (journaled) and pending work.
        outcomes: List[Optional[Dict[str, Any]]] = [None] * total
        pending: List[Tuple[int, SweepTask]] = []
        done = 0
        for index, task in enumerate(tasks):
            restored = completed.get(task.task_id) if completed else None
            if restored is not None:
                outcomes[index] = restored
                done += 1
            else:
                pending.append((index, task))

        agg = MetricsRegistry()

        def land(
            index: int,
            outcome: Dict[str, Any],
            metrics: Optional[Dict[str, Any]] = None,
        ) -> None:
            nonlocal done
            outcomes[index] = outcome
            done += 1
            if metrics:
                agg.merge(metrics)
            if store is not None:
                store.record(outcome["task_id"], index, outcome)
            if progress_callback is not None:
                progress_callback(index, outcome, done, total)

        if self.workers == 1 or len(pending) <= 1:
            workers_used = 1
            for index, task in pending:
                outcome, metrics = execute_task_with_metrics(task)
                land(index, outcome, metrics)
        else:
            workers_used = min(self.workers, len(pending))
            ctx = _pool_context()
            with ctx.Pool(processes=workers_used) as pool:
                for index, outcome, metrics in pool.imap_unordered(
                    _execute_indexed, pending
                ):
                    land(index, outcome, metrics)
        return SweepResult(
            suite=suite,
            buggy=buggy,
            workers=workers_used,
            backend=backend,
            outcomes=outcomes,
            duration_seconds=_perf_counter() - start,
            telemetry=(
                None if agg.is_empty() else {"metrics": agg.snapshot()}
            ),
        )
