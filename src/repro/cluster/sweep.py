"""One registered sweep: its tasks, queue, outcomes, journal and lifecycle.

The per-sweep half of the scheduler (:mod:`repro.cluster.scheduler` holds
the cross-sweep half: connections, leases, fair share).  A sweep moves
through ``submitted -> running -> draining -> complete`` -- *draining* once
the queue is empty but leases are still in flight -- and a per-sweep event
wakes waiters on completion.  A :class:`SweepEntry` takes no lock of its
own: every method is called with the scheduler's lock held.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.pipeline.result import SweepResult
from repro.pipeline.tasks import SweepTask
from repro.telemetry import MetricsRegistry

__all__ = ["SweepEntry", "SUBMITTED", "RUNNING", "DRAINING", "COMPLETE"]

#: Sweep lifecycle states, in order.
SUBMITTED, RUNNING, DRAINING, COMPLETE = (
    "submitted", "running", "draining", "complete")


class SweepEntry:
    """One registered sweep: tasks, queue, outcomes, journal, lifecycle."""

    def __init__(
        self,
        sweep_id: str,
        tasks: Sequence[SweepTask],
        *,
        suite: str,
        buggy: bool,
        backend: str,
        priority: float,
        max_task_retries: int,
        store: Optional[Any],
        progress_callback: Optional[Callable[..., None]],
        owns_store: bool,
        clock: Callable[[], float],
    ) -> None:
        self.sweep_id = sweep_id
        self.tasks = list(tasks)
        self.suite = suite
        self.buggy = buggy
        self.backend = backend
        self.priority = max(priority, 1e-6)
        self.max_task_retries = max_task_retries
        self.store = store
        self.owns_store = owns_store
        self.progress_callback = progress_callback
        self.task_ids = [t.task_id for t in self.tasks]
        self.index_of = {tid: i for i, tid in enumerate(self.task_ids)}
        self.outcomes: List[Optional[Dict[str, Any]]] = [None] * len(self.tasks)
        self.pending: deque = deque()
        self.lost_leases: Dict[int, int] = {}
        #: index -> distinct worker numbers whose lease on it failed
        #: (connection loss, contained crash, or deadline timeout).
        self.failed_workers: Dict[int, set] = {}
        #: Quarantined-task records, surfaced through ``/status``.
        self.quarantined: List[Dict[str, Any]] = []
        self.done_count = 0
        self.leased_total = 0  # tasks ever dispatched (fair-share deficit)
        self.in_flight = 0
        self.shard_sizes: List[int] = []
        self.shard_meta: List[Dict[str, Any]] = []
        self.state = SUBMITTED
        self.done_event = threading.Event()
        self.submitted_at = clock()
        self.completed_at: Optional[float] = None
        self.first_fresh_at: Optional[float] = None
        self.fresh_count = 0  # outcomes executed this service life (not restored)
        #: Per-sweep metrics: deltas piggybacked on this sweep's result
        #: frames, merged as they land (attached to the sweep's result).
        self.metrics = MetricsRegistry()
        #: Fuzzing trials attempted across this sweep's landed outcomes.
        self.trials_attempted = 0

        completed = store.completed if store is not None else {}
        for index, tid in enumerate(self.task_ids):
            outcome = completed.get(tid)
            if outcome is not None:
                self.outcomes[index] = outcome
                self.done_count += 1
            else:
                self.pending.append(index)
        if self.done_count == len(self.tasks):
            self._finish(clock)

    @property
    def total(self) -> int:
        return len(self.tasks)

    @property
    def remaining(self) -> int:
        return self.total - self.done_count

    def _finish(self, clock: Callable[[], float]) -> None:
        self.state = COMPLETE
        self.completed_at = clock()
        self.done_event.set()
        if self.store is not None and self.owns_store:
            self.store.close()

    def _refresh_state(self, clock: Callable[[], float]) -> None:
        if self.done_count == self.total:
            if self.state != COMPLETE:
                self._finish(clock)
        elif self.state != SUBMITTED:
            # Draining: nothing queued, but leases still in flight.
            self.state = DRAINING if not self.pending else RUNNING

    def result(self) -> SweepResult:
        duration = (self.completed_at or self.submitted_at) - self.submitted_at
        return SweepResult(
            suite=self.suite,
            buggy=self.buggy,
            backend=self.backend,
            outcomes=list(self.outcomes),
            duration_seconds=duration,
            sweep_id=self.sweep_id,
            telemetry=(
                None
                if self.metrics.is_empty()
                else {"metrics": self.metrics.snapshot()}
            ),
        )

    def snapshot(self, clock: Callable[[], float]) -> Dict[str, Any]:
        """Progress/ETA introspection document (JSON-safe)."""
        now = clock()
        rate = None
        eta = None
        if self.fresh_count > 1 and self.first_fresh_at is not None:
            elapsed = now - self.first_fresh_at
            if elapsed > 0:
                # The anchoring outcome's latency was not observed.
                rate = (self.fresh_count - 1) / elapsed
                if rate > 0:
                    eta = self.remaining / rate
        return {
            "sweep_id": self.sweep_id,
            "state": self.state,
            "suite": self.suite,
            "buggy": self.buggy,
            "backend": self.backend,
            "priority": self.priority,
            "total": self.total,
            "done": self.done_count,
            "pending": len(self.pending),
            "in_flight": self.in_flight,
            "shards": len(self.shard_sizes),
            "shard_sizes": list(self.shard_sizes),
            "tasks_per_second": rate,
            "eta_seconds": eta,
            "age_seconds": now - self.submitted_at,
            "quarantined": [dict(q) for q in self.quarantined],
            "journal": getattr(self.store, "path", None),
            "counters": {
                "tasks_done": self.done_count,
                "tasks_fresh": self.fresh_count,
                "trials_attempted": self.trials_attempted,
            },
        }
