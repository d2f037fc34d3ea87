"""The sweep scheduler core: multi-tenant task accounting, no transport.

This module is the *service brain*: a registry of concurrently active
sweeps, each with its own task queue, journal, retry budget and lifecycle
state, plus weighted fair-share dispatch across them.  It deliberately
knows nothing about sockets, HTTP or asyncio -- the transport layer
(:mod:`repro.cluster.service`) translates wire messages into the three
scheduler verbs and nothing else:

* :meth:`SweepScheduler.lease` -- hand a connection a shard of tasks,
  picked from the active sweep with the smallest priority-weighted share
  of dispatched work (deficit fair-share: a sweep of priority 3 receives
  ~3x the leases of a priority-1 sweep while both have pending work);
* :meth:`SweepScheduler.record_result` -- route a finished outcome back to
  its sweep through the reporting connection's lease table, journal it,
  and fire the progress callback;
* :meth:`SweepScheduler.release` -- return a lost connection's in-flight
  leases to their queues with bounded per-task retries.

Per-sweep state and the ``submitted -> running -> draining -> complete``
lifecycle live in :mod:`repro.cluster.sweep`.  The invariants hold *per
sweep*: requeue-on-disconnect with bounded retries and retry
anti-affinity, tail-leveled shard sizing, and bitwise
``comparable_dict()`` parity with a serial run.

A result is accepted only on the connection that leased its task: the
service releases a connection only after its read loop ends, and a worker
delivers a shard's results on the socket that leased it.  A result with no
matching lease (a duplicate, a late report for a cancelled sweep, or a
report on a connection already released) is dropped -- it never lands in
another sweep that happens to contain the same task id.

A shard holds at most what the worker asked for (its process count) and,
with more than one active worker, at most ``ceil(pending / (2 * active))``
tasks, so the tail of a sweep spreads across the fleet.

Everything is guarded by one lock and calls only the standard threading /
time modules, so the core is unit-testable with plain function calls (see
``tests/test_service.py::TestScheduler`` and the reference model in
``tests/test_scheduler_model.py``) -- no event loop required.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import faultinject
from repro.cluster.sweep import COMPLETE, RUNNING, SUBMITTED, SweepEntry
from repro.pipeline.result import SweepResult
from repro.pipeline.tasks import SweepTask, sweep_labels, untested_outcome
from repro.telemetry import MetricsRegistry
from repro.telemetry import monotonic as _monotonic
from repro.telemetry.metrics import parse_metric_key

__all__ = ["SweepScheduler"]


class _ConnState:
    """Per-connection accounting: identity and lease table."""

    def __init__(self, number: int) -> None:
        self.number = number
        self.info: Dict[str, Any] = {"worker": number}
        self.introduced = False
        #: Outstanding leases: (sweep_id, index, task_id) triples.
        self.leases: List[Tuple[str, int, str]] = []


class SweepScheduler:
    """Multi-sweep task scheduler behind the always-on service.

    Transport-free: drive it with plain method calls (tests) or from the
    asyncio socket/HTTP service (:mod:`repro.cluster.service`).
    """

    def __init__(
        self,
        *,
        max_task_retries: int = 2,
        done_when_idle: bool = False,
        quarantine_workers: int = 3,
        clock: Callable[[], float] = _monotonic,
    ) -> None:
        #: Default re-lease budget per task (per sweep override on submit).
        self.max_task_retries = max_task_retries
        #: A task whose lease fails on this many *distinct* workers is
        #: quarantined with a synthetic outcome even while retry budget
        #: remains (a poison task must not burn its budget against every
        #: worker in the fleet); 0 disables quarantine.
        self.quarantine_workers = quarantine_workers
        #: ``True``: an idle scheduler (every sweep complete) answers leases
        #: with ``done`` so workers drain and exit (the one-shot ``--serve``
        #: mode); a persistent service leaves this ``False`` and idle
        #: workers park on ``wait`` until the next sweep arrives.
        self.done_when_idle = done_when_idle
        self._clock = clock
        self._lock = threading.Lock()
        #: Fleet-wide metrics: every sweep's piggybacked worker deltas plus
        #: the scheduler's own counters/gauges, rendered by ``GET /metrics``.
        self.metrics = MetricsRegistry()
        self._sweeps: Dict[str, SweepEntry] = {}  # insertion-ordered
        self._conns: Dict[Any, _ConnState] = {}
        self._shard_counter = 0
        self._worker_counter = 0
        self._active_workers = 0
        self._started_at = clock()

    # ------------------------------------------------------------------ #
    # Sweep registry
    # ------------------------------------------------------------------ #
    def submit(
        self,
        tasks: Sequence[SweepTask],
        *,
        sweep_id: Optional[str] = None,
        suite: Optional[str] = None,
        buggy: Optional[bool] = None,
        backend: Optional[str] = None,
        priority: float = 1.0,
        max_task_retries: Optional[int] = None,
        store: Optional[Any] = None,
        progress_callback: Optional[Callable[..., None]] = None,
        owns_store: bool = False,
    ) -> str:
        """Register a sweep; returns its id.  Safe while workers run."""
        tasks = list(tasks)
        suite, buggy, backend = sweep_labels(tasks, suite, buggy, backend)
        with self._lock:
            if sweep_id is None:
                sweep_id = f"sweep-{len(self._sweeps) + 1:03d}"
                while sweep_id in self._sweeps:
                    sweep_id = f"{sweep_id}x"
            elif sweep_id in self._sweeps:
                raise ValueError(f"sweep id {sweep_id!r} already registered")
            self._sweeps[sweep_id] = SweepEntry(
                sweep_id,
                tasks,
                suite=suite,
                buggy=buggy,
                backend=backend,
                priority=priority,
                max_task_retries=(
                    max_task_retries
                    if max_task_retries is not None
                    else self.max_task_retries
                ),
                store=store,
                progress_callback=progress_callback,
                owns_store=owns_store,
                clock=self._clock,
            )
        return sweep_id

    def sweep_ids(self) -> List[str]:
        with self._lock:
            return list(self._sweeps)

    def _entry(self, sweep_id: str) -> SweepEntry:
        entry = self._sweeps.get(sweep_id)
        if entry is None:
            raise KeyError(f"unknown sweep {sweep_id!r}")
        return entry

    # ------------------------------------------------------------------ #
    # Connection registry
    # ------------------------------------------------------------------ #
    def _conn(self, conn_key: Any) -> _ConnState:
        conn = self._conns.get(conn_key)
        if conn is None:
            self._worker_counter += 1
            conn = _ConnState(self._worker_counter)
            self._conns[conn_key] = conn
        return conn

    def worker_joined(self, conn_key: Any, info: Dict[str, Any]) -> Dict[str, Any]:
        """Record a ``hello``; returns the welcome payload (JSON-safe)."""
        with self._lock:
            conn = self._conn(conn_key)
            if not conn.introduced:
                conn.introduced = True
                self._active_workers += 1
            conn.info = dict(info or {})
            conn.info["worker"] = conn.number
            active = [e for e in self._sweeps.values() if e.state != COMPLETE]
            first = active[0] if active else None
            return {
                "type": "welcome",
                "total": sum(e.total for e in active),
                "sweeps": len(active),
                "suite": first.suite if first else None,
                "buggy": first.buggy if first else False,
                "backend": first.backend if first else None,
            }

    def release(self, conn_key: Any) -> None:
        """Forget a connection, requeueing its in-flight leases.

        Each lost lease counts against the task's retry budget; exhaustion
        completes the task with a synthetic infrastructure-error outcome so
        a poisonous task cannot wedge its sweep forever.
        """
        with self._lock:
            conn = self._conns.pop(conn_key, None)
            if conn is None:
                return
            if conn.introduced:
                self._active_workers -= 1
            for sweep_id, index, task_id in conn.leases:
                entry = self._sweeps[sweep_id]
                entry.in_flight -= 1
                self._fail_task(entry, index, task_id, conn, "connection lost")
            conn.leases.clear()

    def _fail_task(
        self,
        entry: SweepEntry,
        index: int,
        task_id: str,
        conn: "_ConnState",
        kind: str,
        worker_outcome: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Account one retryable failure of a leased task (lock held).

        ``kind``: ``"connection lost"`` (worker vanished mid-lease) or
        ``"timeout"`` / ``"crash"`` (a supervised worker contained it).
        Requeues at the front unless the distinct-worker quarantine
        threshold or retry budget is exhausted, in which case a synthetic
        UNTESTED outcome lands (the worker's own ``worker_outcome`` when
        one was reported) so a poisonous task can never wedge its sweep.
        """
        losses = entry.lost_leases[index] = entry.lost_leases.get(index, 0) + 1
        workers = entry.failed_workers.setdefault(index, set())
        workers.add(conn.number)
        quarantined = (
            self.quarantine_workers > 0
            and len(workers) >= self.quarantine_workers
        )
        if not quarantined and losses <= entry.max_task_retries:
            # Front of the queue: a requeued task is the oldest
            # outstanding work and must not starve behind the tail.
            entry.pending.appendleft(index)
            entry._refresh_state(self._clock)
            return
        error: Optional[str]
        if quarantined:
            error = (
                f"task quarantined: {kind} on {len(workers)} distinct "
                f"worker(s) (quarantine threshold: {self.quarantine_workers})"
            )
            entry.quarantined.append({
                "task_id": task_id,
                "workload": entry.tasks[index].workload,
                "reason": kind,
                "workers": sorted(workers),
            })
            self.metrics.inc(
                "repro_tasks_quarantined_total",
                labels={"sweep": entry.sweep_id},
            )
        elif kind == "connection lost":
            error = (
                f"worker connection lost {losses} time(s) while running "
                f"this task (retry budget: {entry.max_task_retries})"
            )
        elif worker_outcome is None:
            error = (
                f"task {kind} {losses} time(s) on supervised worker(s) "
                f"(retry budget: {entry.max_task_retries})"
            )
        else:
            error = None  # the worker's own contained-failure outcome lands
        if error is None and worker_outcome is not None:
            outcome = worker_outcome
        else:
            outcome = untested_outcome(
                entry.tasks[index], error, task_id=task_id, worker=dict(conn.info)
            )
        self._land(entry, index, task_id, outcome)

    # ------------------------------------------------------------------ #
    # Dispatch (fair share + tail-leveled sizing)
    # ------------------------------------------------------------------ #
    def _shard_cap(self, entry: SweepEntry, max_tasks: int) -> int:
        """Bound a shard by the worker request and (with >1 active workers)
        the pending-count tail leveler."""
        max_tasks = max(1, max_tasks)
        if self._active_workers > 1:
            pending = len(entry.pending)
            tail_cap = max(1, -(-pending // (2 * self._active_workers)))
            max_tasks = min(max_tasks, tail_cap)
        return max_tasks

    def _fair_order(self) -> List[SweepEntry]:
        """Incomplete sweeps, smallest priority-weighted dispatch first."""
        candidates = [
            e for e in self._sweeps.values() if e.state != COMPLETE and e.pending
        ]
        return sorted(
            candidates, key=lambda e: (e.leased_total / e.priority, e.submitted_at)
        )

    def lease(self, conn_key: Any, max_tasks: int) -> Dict[str, Any]:
        """Serve a ``request``: a ``tasks`` shard, ``wait``, or ``done``."""
        faultinject.hit("scheduler.dispatch")
        with self._lock:
            conn = self._conn(conn_key)
            for entry in self._fair_order():
                cap = self._shard_cap(entry, max_tasks)
                shard: List[Dict[str, Any]] = []
                deferred: List[int] = []
                while entry.pending and len(shard) < cap:
                    index = entry.pending.popleft()
                    if len(self._conns) > 1 and (
                        conn.number in entry.failed_workers.get(index, ())
                    ):
                        # Retry anti-affinity: while other workers are
                        # connected, steer a retry away from one that already
                        # failed this task (no new quarantine evidence there).
                        deferred.append(index)
                        continue
                    conn.leases.append((entry.sweep_id, index, entry.task_ids[index]))
                    shard.append({
                        "index": index,
                        "task_id": entry.task_ids[index],
                        "task": entry.tasks[index].to_dict(),
                    })
                if deferred:  # back at the front, for the next worker
                    entry.pending.extendleft(reversed(deferred))
                if not shard:
                    continue  # only complete/anti-affine indices were queued
                self._shard_counter += 1
                entry.leased_total += len(shard)
                entry.in_flight += len(shard)
                entry.shard_sizes.append(len(shard))
                if entry.state == SUBMITTED:
                    entry.state = RUNNING
                entry._refresh_state(self._clock)
                return {
                    "type": "tasks",
                    "shard": self._shard_counter,
                    "sweep": entry.sweep_id,
                    "tasks": shard,
                }
            if self._finished():
                return {"type": "done"}
            # Outstanding work is leased elsewhere (or no sweep is active):
            # the worker backs off briefly and asks again.
            return {"type": "wait"}

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def _route(
        self, conn: _ConnState, task_id: Any
    ) -> Optional[Tuple[SweepEntry, int]]:
        """Take the lease an arriving result answers off the connection's
        lease table; ``None`` when the connection holds no such lease.

        The lease table is the only route: it is unambiguous even when two
        concurrent sweeps contain an identical task.
        """
        for pos, (sweep_id, index, tid) in enumerate(conn.leases):
            if tid == task_id:
                del conn.leases[pos]
                return self._sweeps[sweep_id], index
        return None

    def _land(
        self,
        entry: SweepEntry,
        index: int,
        task_id: str,
        outcome: Dict[str, Any],
        metrics: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one completed outcome (journal + progress); lock held."""
        entry.outcomes[index] = outcome
        entry.done_count += 1
        now = self._clock()
        if entry.first_fresh_at is None:
            entry.first_fresh_at = now
        entry.fresh_count += 1
        if metrics:
            entry.metrics.merge(metrics)
            self.metrics.merge(metrics)
        labels = {"sweep": entry.sweep_id}
        self.metrics.inc("repro_sweep_tasks_total", labels=labels)
        report = outcome.get("report") or {}
        fuzzing = report.get("fuzzing") or {}
        trials = fuzzing.get("trials_attempted") or 0
        if trials:
            entry.trials_attempted += trials
            self.metrics.inc("repro_sweep_trials_total", trials, labels=labels)
        if entry.store is not None:
            entry.store.record(task_id, index, outcome)
        # Under the lock so concurrent deliveries cannot interleave
        # progress lines with out-of-order completed counts.
        if entry.progress_callback is not None:
            entry.progress_callback(index, outcome, entry.done_count, entry.total)
        entry._refresh_state(self._clock)

    def record_result(self, conn_key: Any, message: Dict[str, Any]) -> None:
        """Consume a ``result`` message; one without a lease is dropped."""
        task_id = message.get("task_id")
        with self._lock:
            conn = self._conns.get(conn_key)
            routed = self._route(conn, task_id) if conn is not None else None
            if routed is None:
                return  # a duplicate, or a task of a cancelled sweep
            entry, index = routed
            entry.in_flight -= 1
            outcome = dict(message.get("outcome") or {})
            outcome["task_id"] = task_id
            outcome["worker"] = {**conn.info, "shard": message.get("shard")}
            failure = outcome.get("failure")
            if failure in ("timeout", "crash"):
                # A supervised worker contained this failure (deadline
                # watchdog or dead pool member).  Account it like a lost
                # lease -- retry elsewhere, quarantine on distinct workers,
                # land the worker's synthetic outcome only on exhaustion.
                if failure == "timeout":
                    self.metrics.inc(
                        "repro_task_timeouts_total",
                        labels={"sweep": entry.sweep_id},
                    )
                self._fail_task(entry, index, task_id, conn, failure,
                                worker_outcome=outcome)
                return
            self._land(entry, index, task_id, outcome, message.get("metrics"))

    def record_heartbeat(
        self, conn_key: Any, snapshot: Optional[Dict[str, Any]]
    ) -> None:
        """Fold a worker ping's status gauges into the fleet registry.

        Heartbeats carry only *gauges* of current worker state (in-flight
        count, oldest in-flight task age) so a hung task shows in
        ``GET /metrics`` before any result lands; counter/histogram deltas
        keep riding result frames exclusively (no double-counting).
        """
        if not snapshot:
            return
        with self._lock:
            conn = self._conn(conn_key)
            for key, value in (snapshot.get("gauges") or {}).items():
                name, labels = parse_metric_key(key)
                labels["worker"] = str(conn.number)
                self.metrics.set_gauge(name, value, labels)

    def cancel(self, sweep_id: str) -> Dict[str, Any]:
        """Cancel an incomplete sweep and forget it; returns a final
        status snapshot.

        Unfinished tasks get synthetic UNTESTED outcomes (not journaled:
        the caller is about to evict the sweep's state), the queue clears,
        outstanding leases drop (late results are dropped), waiters wake.
        Raises KeyError for an unknown sweep, ValueError when already
        complete (the transport's 404/409).
        """
        with self._lock:
            entry = self._entry(sweep_id)
            if entry.state == COMPLETE:
                raise ValueError(f"sweep {sweep_id!r} is already complete")
            for index, outcome in enumerate(entry.outcomes):
                if outcome is not None:
                    continue
                entry.outcomes[index] = untested_outcome(
                    entry.tasks[index], "sweep cancelled",
                    task_id=entry.task_ids[index],
                )
                entry.done_count += 1
            entry.pending.clear()
            entry.in_flight = 0
            for conn in self._conns.values():
                conn.leases = [l for l in conn.leases if l[0] != sweep_id]
            entry._finish(self._clock)
            self.metrics.inc("repro_sweeps_cancelled_total")
            snapshot = entry.snapshot(self._clock)
            snapshot["cancelled"] = True
            del self._sweeps[sweep_id]
            return snapshot

    # ------------------------------------------------------------------ #
    # Introspection / completion
    # ------------------------------------------------------------------ #
    def wait(self, sweep_id: str, timeout: Optional[float] = None) -> SweepResult:
        """Block until ``sweep_id`` completes; returns its result."""
        with self._lock:
            entry = self._entry(sweep_id)
        if not entry.done_event.wait(timeout):
            raise TimeoutError(
                f"Sweep {sweep_id} incomplete after {timeout} s "
                f"({entry.remaining}/{entry.total} tasks outstanding)"
            )
        with self._lock:
            return entry.result()

    def result(self, sweep_id: str) -> SweepResult:
        with self._lock:
            return self._entry(sweep_id).result()

    def sweep_status(self, sweep_id: str) -> Dict[str, Any]:
        with self._lock:
            return self._entry(sweep_id).snapshot(self._clock)

    def service_status(self) -> Dict[str, Any]:
        with self._lock:
            sweeps = {
                sid: e.snapshot(self._clock) for sid, e in self._sweeps.items()
            }
            return {
                "uptime_seconds": self._clock() - self._started_at,
                "active_workers": self._active_workers,
                "workers_seen": self._worker_counter,
                "sweeps": sweeps,
                "total_tasks": sum(e.total for e in self._sweeps.values()),
                "done_tasks": sum(e.done_count for e in self._sweeps.values()),
            }

    def _finished(self) -> bool:
        return self.done_when_idle and all(
            e.state == COMPLETE for e in self._sweeps.values()
        )

    @property
    def finished(self) -> bool:
        """Whether every request is now answered ``done``: a one-shot
        scheduler (``done_when_idle``) whose sweeps are all complete."""
        with self._lock:
            return self._finished()

    @property
    def worker_count(self) -> int:
        with self._lock:
            return self._worker_counter

    @property
    def active_workers(self) -> int:
        with self._lock:
            return self._active_workers

    def close(self) -> None:
        """Close every journal the scheduler owns (service shutdown)."""
        with self._lock:
            for entry in self._sweeps.values():
                if entry.store is not None and entry.owns_store:
                    entry.store.close()
