"""Deadline-supervised task execution: disposable, killable members.

A :class:`multiprocessing.Pool` cannot enforce per-task deadlines: a hung
trial wedges one pool member forever and the whole sweep with it.  The
:class:`SupervisedExecutor` runs tasks on dedicated member processes it
can kill: each member executes one task at a time off its own queue and
reports on a shared result queue, while the parent watches wall-clock.

* A member that exceeds the per-task **deadline** is killed and respawned;
  the task completes with a synthetic UNTESTED outcome flagged
  ``"failure": "timeout"``.
* A member that **dies** mid-task (segfault, OOM kill, an injected
  ``crash`` fault) is detected by liveness polling and likewise yields a
  ``"failure": "crash"`` outcome instead of taking the worker down.

The ``failure`` flag tells the scheduler the outcome is *retryable*: it
counts against the task's retry budget and distinct-worker quarantine
threshold, and only lands in the journal when those are exhausted --
exactly like a lost lease, but without losing the worker's other work.

Used by the cluster worker when ``--task-timeout`` is set; without it the
worker keeps its plain in-process / pool execution paths (warm caches, no
supervision overhead).
"""

from __future__ import annotations

import queue
from collections import deque
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from repro.pipeline.runner import _pool_context, execute_task_with_metrics
from repro.pipeline.tasks import SweepTask, untested_outcome
from repro.telemetry import monotonic as _monotonic

__all__ = ["SupervisedExecutor"]

#: How long the supervisor blocks on the result queue per watchdog cycle.
_POLL_SECONDS = 0.05

#: One shard item: (index, task_id, task).
_Item = Tuple[int, str, SweepTask]


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
    """Run shards on killable member processes with a per-task deadline."""

    def __init__(self, procs: int, task_timeout: float) -> None:
        self._ctx = _pool_context()
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

    # ------------------------------------------------------------------ #
    def run_shard(
        self, indexed: Iterable[_Item]
    ) -> Iterator[Tuple[int, str, Dict[str, Any], Optional[Dict[str, Any]]]]:
        """Execute a shard, yielding ``(index, task_id, outcome, metrics)``
        as tasks finish (timeouts and member deaths included)."""
        pending: deque = deque(indexed)
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
                # was already queued -- its timeout outcome won; drop it.
                continue
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
