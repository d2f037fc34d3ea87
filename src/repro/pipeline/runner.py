"""Shared-nothing sweep execution: inline, or on supervised local processes.

Each task is a plain picklable :class:`SweepTask` description: the process
that runs it rebuilds the workload from its suite/name (or serialized
JSON), re-derives the transformation instance by index, runs the full
FuzzyFlow verification, and returns a JSON-safe outcome dict.

:func:`run_shard` is the one way to run a batch of tasks locally, for
:class:`SweepRunner` (``--workers N``) and the cluster worker (``--procs
N``, ``--task-timeout T``) alike.  With one process and no deadline the
tasks run inline, in this process; otherwise they run on a
:class:`SupervisedExecutor`'s killable member processes.  Both paths call
the same task function, so serial and parallel sweeps are bit-identical
in everything but wall-clock time.  Outcomes stream back as tasks finish
and are reassembled into task order, so a progress callback sees every
verdict as it lands while the aggregated :class:`SweepResult` remains
identical to a serial run.

A member that dies mid-task (segfault, OOM kill, an injected ``crash``
fault) or overruns its deadline is killed and respawned, and its task
yields an UNTESTED outcome flagged ``"failure": "crash"`` /
``"timeout"`` instead of hanging the batch.  The flag marks the outcome
*retryable*: the scheduler counts it against the task's retry budget and
distinct-worker quarantine threshold, and a local run reports it through
:meth:`SweepResult.errors` without journaling it, so ``--resume`` re-runs
the task.

Any run can journal outcomes to a
:class:`repro.cluster.journal.ResultStore` (``store=``) and resume from one
(``completed=``): tasks whose deterministic :attr:`SweepTask.task_id` is
already journaled are restored instead of re-executed, so a killed sweep
re-runs only its unfinished tail.
"""

from __future__ import annotations

import multiprocessing
import queue
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro import faultinject
from repro.core.reporting import Verdict
from repro.core.verifier import FuzzyFlowVerifier
from repro.pipeline.result import SweepResult
from repro.pipeline.tasks import SweepTask, sweep_labels, untested_outcome
from repro.telemetry import TRACER as _TRACER
from repro.telemetry import MetricsRegistry, capture
from repro.telemetry import monotonic as _monotonic
from repro.telemetry import perf_counter as _perf_counter

__all__ = [
    "SweepRunner",
    "SupervisedExecutor",
    "local_executor",
    "run_shard",
    "execute_task",
    "execute_task_with_metrics",
]

#: Callback signature: (task index, outcome dict, completed count, total).
ProgressCallback = Callable[[int, Dict[str, Any], int, int], None]

#: One shard item: (index, task_id, task).
_Item = Tuple[int, str, SweepTask]

#: One landed task: (index, task_id, outcome, metrics delta or None).
_Landed = Tuple[int, str, Dict[str, Any], Optional[Dict[str, Any]]]

#: How long the supervisor blocks on the result queue per watchdog cycle.
_POLL_SECONDS = 0.05


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
    so member processes, cluster workers and inline loops can all report
    per-task telemetry without touching the journaled payload.  The trace
    buffer is flushed after each task so member processes never lose
    events to an unclean process exit.
    """
    with capture() as sink:
        with _TRACER.span("task", "sweep") as span:
            span.set("task_id", task.task_id)
            outcome = execute_task(task)
            span.set("verdict", outcome.get("verdict"))
    _TRACER.flush()
    return outcome, sink.snapshot()


def _process_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap on Linux); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _member_loop(member_id: int, task_queue: Any, result_queue: Any) -> None:
    """Body of one supervised member: execute tasks until told to stop."""
    while True:
        item = task_queue.get()
        if item is None:
            return
        index, task_id, task = item
        outcome, metrics = execute_task_with_metrics(task)
        result_queue.put((member_id, index, task_id, outcome, metrics))


class _Member:
    def __init__(self, ctx: Any, member_id: int, result_queue: Any) -> None:
        self.id = member_id
        self.task_queue = ctx.Queue()
        self.process = ctx.Process(
            target=_member_loop,
            args=(member_id, self.task_queue, result_queue),
            name=f"supervised-member-{member_id}",
            daemon=True,
        )
        self.process.start()


class SupervisedExecutor:
    """Run shards on killable member processes, under an optional deadline.

    Each member executes one task at a time off its own queue and reports
    on a shared result queue, while the parent watches liveness and
    wall-clock.  A member that dies mid-task, or runs past
    ``task_timeout`` seconds (0: no deadline), is killed and respawned,
    and its task yields a ``failure``-flagged UNTESTED outcome.
    """

    def __init__(self, procs: int, task_timeout: float) -> None:
        self._ctx = _process_context()
        self._timeout = float(task_timeout)
        self._results: Any = self._ctx.Queue()
        self._members: Dict[int, _Member] = {}
        self._next_id = 0
        for _ in range(max(1, int(procs))):
            self._spawn()

    def _spawn(self) -> None:
        member = _Member(self._ctx, self._next_id, self._results)
        self._next_id += 1
        self._members[member.id] = member

    def _retire(self, member_id: int) -> None:
        member = self._members.pop(member_id)
        member.process.kill()
        member.process.join(timeout=5.0)
        member.task_queue.close()

    @staticmethod
    def _failure_outcome(
        task: SweepTask, task_id: str, reason: str, timeout: float
    ) -> Dict[str, Any]:
        if reason == "timeout":
            error = (
                f"task exceeded its {timeout:g} s deadline; the stuck "
                f"worker process was killed and respawned"
            )
        else:
            error = "worker process died while running this task"
        outcome = untested_outcome(task, error, task_id=task_id)
        outcome["failure"] = reason
        return outcome

    def run_shard(self, items: Iterable[_Item]) -> Iterator[_Landed]:
        """Execute a shard, yielding ``(index, task_id, outcome, metrics)``
        as tasks finish (timeouts and member deaths included)."""
        pending: deque = deque(items)
        in_flight: Dict[int, Tuple[float, _Item]] = {}
        while pending or in_flight:
            for member_id, member in list(self._members.items()):
                if member_id in in_flight or not pending:
                    continue
                if not member.process.is_alive():
                    # Died while idle (e.g. a crash fault between tasks):
                    # replace it before trusting it with work.
                    self._retire(member_id)
                    self._spawn()
                    continue
                item = pending.popleft()
                member.task_queue.put(item)
                in_flight[member_id] = (_monotonic(), item)
            try:
                member_id, index, task_id, outcome, metrics = (
                    self._results.get(timeout=_POLL_SECONDS)
                )
            except queue.Empty:
                pass
            else:
                flight = in_flight.get(member_id)
                if flight is not None and flight[1][0] == index:
                    del in_flight[member_id]
                    yield index, task_id, outcome, metrics
                # else: a straggler from a member retired after its result
                # was already queued -- its failure outcome won; drop it.
            # Checked every cycle, not only when the queue runs dry: other
            # members' results must not delay noticing a dead or late one.
            now = _monotonic()
            for member_id in list(in_flight):
                started, (index, task_id, task) = in_flight[member_id]
                member = self._members[member_id]
                dead = not member.process.is_alive()
                late = self._timeout > 0 and (now - started) > self._timeout
                if not dead and not late:
                    continue
                reason = "crash" if dead else "timeout"
                del in_flight[member_id]
                self._retire(member_id)
                self._spawn()
                yield (
                    index,
                    task_id,
                    self._failure_outcome(task, task_id, reason, self._timeout),
                    None,
                )

    def close(self) -> None:
        for member_id in list(self._members):
            self._retire(member_id)
        self._results.close()


def local_executor(
    procs: int, task_timeout: float
) -> Optional[SupervisedExecutor]:
    """What :func:`run_shard` runs tasks on: ``None`` (inline, in this
    process, where per-process memos such as compiled driver code stay
    warm across tasks) for one process without a deadline
    (``task_timeout <= 0``), else ``procs`` supervised members, started
    now so that a caller can keep them across shards."""
    if procs <= 1 and task_timeout <= 0:
        return None
    return SupervisedExecutor(procs, task_timeout)


def run_shard(
    items: Iterable[_Item], executor: Optional[SupervisedExecutor]
) -> Iterator[_Landed]:
    """Run ``(index, task_id, task)`` items on a :func:`local_executor`,
    yielding ``(index, task_id, outcome, metrics)`` as each task lands."""
    if executor is not None:
        yield from executor.run_shard(items)
        return
    for index, task_id, task in items:
        outcome, metrics = execute_task_with_metrics(task)
        yield index, task_id, outcome, metrics


class SweepRunner:
    """Runs a sweep's tasks on local processes and aggregates the outcomes."""

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

        Outcomes land as tasks finish (:func:`run_shard`) and are
        reassembled into task order, so serial and parallel runs aggregate
        identically while ``progress_callback`` (if given) observes every
        verdict the moment it lands.  ``suite``, ``buggy`` and ``backend``
        label the result; by default they are derived from the tasks
        themselves so the report header cannot contradict what was
        actually run.

        ``store`` (a :class:`repro.cluster.journal.ResultStore`) journals
        every fresh outcome as it lands, except a ``failure``-flagged one
        (a member process died), which ``--resume`` must re-run;
        ``completed`` maps task IDs to already-journaled outcomes, which
        are restored at their task index without re-execution -- the
        resume path.  The progress callback only fires for freshly
        executed tasks, but its ``completed`` count includes the restored
        ones, so ``[k/total]`` lines stay truthful.
        """
        start = _perf_counter()
        tasks = list(tasks)
        total = len(tasks)
        suite, buggy, backend = sweep_labels(tasks, suite, buggy, backend)

        # Partition into restored (journaled) and pending work.
        outcomes: List[Optional[Dict[str, Any]]] = [None] * total
        pending: List[_Item] = []
        done = 0
        for index, task in enumerate(tasks):
            restored = completed.get(task.task_id) if completed else None
            if restored is not None:
                outcomes[index] = restored
                done += 1
            else:
                pending.append((index, task.task_id, task))

        agg = MetricsRegistry()
        workers_used = max(1, min(self.workers, len(pending)))
        executor = local_executor(workers_used, 0.0)
        try:
            for index, task_id, outcome, metrics in run_shard(pending, executor):
                outcomes[index] = outcome
                done += 1
                if metrics:
                    agg.merge(metrics)
                if store is not None and "failure" not in outcome:
                    store.record(task_id, index, outcome)
                if progress_callback is not None:
                    progress_callback(index, outcome, done, total)
        finally:
            if executor is not None:
                executor.close()
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
