"""The sweep scheduler against a plain-Python reference model.

:class:`Model` restates what :class:`~repro.cluster.scheduler.SweepScheduler`
promises: per sweep a FIFO queue with failed leases requeued at the front,
deficit fair share across sweeps, a shard capped by the worker's request
and (with several workers) by the tail leveler, retry anti-affinity,
per-task retry budgets and the distinct-worker quarantine, and results
routed through the reporting connection's lease table alone.

Seeded random event sequences drive the model and a real scheduler side by
side -- submit (sometimes over another sweep's tasks), connect, lease,
result, contained timeout / crash, duplicate result, disconnect, cancel
and a late result after cancel -- and after every step the two must agree
on every shard, every landed outcome and every queue / in-flight count.
Each sweep journals into a stub store that counts ``record`` calls, so a
task completed twice fails at once.
"""

from __future__ import annotations

import random
import re
from collections import deque

import pytest

from repro.cluster.scheduler import SweepScheduler
from repro.pipeline import SweepTask, TransformationSpec

QUARANTINE = 3


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class CountingStore:
    """Journal stub: counts ``record`` calls per task index."""

    def __init__(self):
        self.completed = {}
        self.records = {}

    def record(self, task_id, index, outcome):
        self.records[index] = self.records.get(index, 0) + 1


def make_tasks(tag, n):
    return [
        SweepTask(
            suite="no_such_suite", workload=f"{tag}{i}",
            transformation=TransformationSpec("MapTiling", {}),
            match_index=0, match_description="", verifier_kwargs={"seed": 0},
        )
        for i in range(n)
    ]


class Sweep:
    def __init__(self, sid, task_ids, priority, retries, seq):
        self.sid, self.task_ids = sid, task_ids
        self.priority, self.retries, self.seq = priority, retries, seq
        self.pending = deque(range(len(task_ids)))
        self.outcomes = [None] * len(task_ids)
        self.losses = {}
        self.failed = {}
        self.leased_total = 0

    @property
    def complete(self):
        return all(o is not None for o in self.outcomes)


class Model:
    """What the scheduler must do; outcomes are predicted as signatures."""

    def __init__(self):
        self.sweeps = {}  # sid -> Sweep, live sweeps in submission order
        self.conns = {}  # key -> [number, [(sid, index, task_id), ...]]

    def lease(self, key, max_tasks):
        number, leases = self.conns[key]
        order = sorted(
            (s for s in self.sweeps.values() if not s.complete and s.pending),
            key=lambda s: (s.leased_total / s.priority, s.seq),
        )
        for s in order:
            cap = max(1, max_tasks)
            if len(self.conns) > 1:
                cap = min(cap, max(1, -(-len(s.pending) // (2 * len(self.conns)))))
            shard, deferred = [], []
            while s.pending and len(shard) < cap:
                index = s.pending.popleft()
                if len(self.conns) > 1 and number in s.failed.get(index, ()):
                    deferred.append(index)
                else:
                    shard.append(index)
            s.pending.extendleft(reversed(deferred))
            if shard:
                s.leased_total += len(shard)
                leases.extend((s.sid, i, s.task_ids[i]) for i in shard)
                return s.sid, shard
        return None

    def result(self, key, task_id, outcome):
        """Route through the lease table; ``None`` when dropped."""
        if key not in self.conns:
            return None
        number, leases = self.conns[key]
        for pos, (sid, index, tid) in enumerate(leases):
            if tid == task_id:
                del leases[pos]
                s = self.sweeps[sid]
                if outcome.get("failure"):
                    self.fail(s, index, number, outcome["failure"], outcome)
                else:
                    s.outcomes[index] = ("result", outcome["marker"])
                return sid
        return None

    def fail(self, s, index, number, kind, outcome=None):
        s.losses[index] = s.losses.get(index, 0) + 1
        s.failed.setdefault(index, set()).add(number)
        if len(s.failed[index]) >= QUARANTINE:
            s.outcomes[index] = ("quarantine", len(s.failed[index]))
        elif s.losses[index] <= s.retries:
            s.pending.appendleft(index)
        elif kind == "connection lost":
            s.outcomes[index] = ("lost", s.losses[index])
        else:
            s.outcomes[index] = ("worker", outcome["marker"], kind)

    def disconnect(self, key):
        number, leases = self.conns.pop(key)
        for sid, index, _ in leases:
            self.fail(self.sweeps[sid], index, number, "connection lost")

    def cancel(self, sid):
        del self.sweeps[sid]
        for _, leases in self.conns.values():
            leases[:] = [l for l in leases if l[0] != sid]

    def in_flight(self, sid):
        return sum(l[0] == sid for _, ls in self.conns.values() for l in ls)


def signature(outcome):
    """The model's view of one landed outcome."""
    if outcome is None:
        return None
    if outcome.get("failure"):
        return ("worker", outcome["marker"], outcome["failure"])
    if "marker" in outcome:
        return ("result", outcome["marker"])
    quarantined = re.search(r"quarantined: .* on (\d+) distinct", outcome["error"])
    if quarantined:
        return ("quarantine", int(quarantined.group(1)))
    return ("lost", int(re.search(r"lost (\d+) time", outcome["error"]).group(1)))


def result_message(task_id, outcome):
    return {"type": "result", "shard": 0, "task_id": task_id, "outcome": outcome}


class Harness:
    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.clock = FakeClock()
        self.scheduler = SweepScheduler(
            quarantine_workers=QUARANTINE, clock=self.clock)
        self.model = Model()
        self.stores = {}
        self.task_lists = []
        self.sent = []  # (key, task_id, outcome) of every result sent
        self.cancelled = []  # (key, task_id, outcome) of leases a cancel dropped
        self.conn_counter = 0

    # -- events: each returns False when it does not apply right now ----- #
    def submit(self):
        if self.task_lists and self.rng.random() < 0.4:
            tasks = self.rng.choice(self.task_lists)  # task ids collide
        else:
            tasks = make_tasks(f"t{len(self.task_lists)}-", self.rng.randint(1, 5))
            self.task_lists.append(tasks)
        priority = self.rng.choice([1.0, 2.0])
        retries = self.rng.choice([0, 1, 2])
        store = CountingStore()
        sid = self.scheduler.submit(
            tasks, priority=priority, max_task_retries=retries, store=store)
        self.stores[sid] = store
        self.model.sweeps[sid] = Sweep(
            sid, [t.task_id for t in tasks], priority, retries, len(self.stores))
        return True

    def connect(self):
        self.conn_counter += 1
        key = f"c{self.conn_counter}"
        self.scheduler.worker_joined(key, {"host": key})
        self.model.conns[key] = [self.conn_counter, []]
        return True

    def lease(self):
        if not self.model.conns:
            return False
        self._lease(self.rng.choice(sorted(self.model.conns)), self.rng.randint(1, 4))
        return True

    def _lease(self, key, k):
        expected = self.model.lease(key, k)
        reply = self.scheduler.lease(key, k)
        if expected is None:
            assert reply["type"] == "wait"
        else:
            assert reply["type"] == "tasks"
            assert (reply["sweep"], [e["index"] for e in reply["tasks"]]) == expected

    def _send(self, key, task_id, outcome):
        self.sent.append((key, task_id, outcome))
        self.model.result(key, task_id, outcome)
        self.scheduler.record_result(key, result_message(task_id, outcome))

    def _held(self):
        return [(k, l) for k, (_, ls) in self.model.conns.items() for l in ls]

    def result(self, failure=None):
        held = self._held()
        if not held:
            return False
        key, (sid, _, task_id) = self.rng.choice(held)
        outcome = {"verdict": "pass", "marker": sid}
        if failure:
            outcome.update(verdict="untested", error=failure, failure=failure)
        self._send(key, task_id, outcome)
        return True

    def _stale_report(self, reports):
        """Resend a report whose connection holds no lease on its task any
        more (or is gone): both sides must drop it."""
        stale = [
            (key, tid, out) for key, tid, out in reports
            if all(l[2] != tid for l in self.model.conns.get(key, (0, []))[1])
        ]
        if not stale:
            return False
        key, task_id, outcome = self.rng.choice(stale)
        assert self.model.result(key, task_id, outcome) is None
        self.scheduler.record_result(key, result_message(task_id, outcome))
        return True

    def duplicate(self):
        return self._stale_report(self.sent)

    def late_after_cancel(self):
        return self._stale_report(self.cancelled)

    def disconnect(self):
        if not self.model.conns:
            return False
        key = self.rng.choice(sorted(self.model.conns))
        self.model.disconnect(key)
        self.scheduler.release(key)
        return True

    def cancel(self):
        live = [s for s in self.model.sweeps.values() if not s.complete]
        if not live:
            return False
        s = self.rng.choice(live)
        self.cancelled.extend(
            (key, l[2], {"verdict": "pass", "marker": s.sid})
            for key, l in self._held() if l[0] == s.sid
        )
        self.model.cancel(s.sid)
        assert self.scheduler.cancel(s.sid)["cancelled"] is True
        return True

    # -- the invariants, after every step -------------------------------- #
    def check(self):
        assert self.scheduler.sweep_ids() == list(self.model.sweeps)
        for sid, s in self.model.sweeps.items():
            status = self.scheduler.sweep_status(sid)
            # No task lost: every task is done, queued or in flight.
            assert status["done"] + status["pending"] + status["in_flight"] == status["total"]
            assert status["pending"] == len(s.pending)
            assert status["in_flight"] == self.model.in_flight(sid)
            # No task completed twice.
            assert all(n == 1 for n in self.stores[sid].records.values())
            # Every landed outcome is the predicted one: its own sweep's
            # marker, a retry budget spent exactly, a quarantine at the
            # threshold.
            got = [signature(o) for o in self.scheduler.result(sid).outcomes]
            assert got == s.outcomes
            assert len(status["quarantined"]) == sum(
                o is not None and o[0] == "quarantine" for o in s.outcomes)

    def run(self, steps):
        events = [
            (self.submit, 2), (self.connect, 2), (self.lease, 8),
            (self.result, 6), (lambda: self.result("timeout"), 2),
            (lambda: self.result("crash"), 2), (self.duplicate, 1),
            (self.disconnect, 2), (self.cancel, 1), (self.late_after_cancel, 1),
        ]
        funcs = [f for f, _ in events]
        weights = [w for _, w in events]
        for _ in range(steps):
            self.clock.now += 1.0
            while not self.rng.choices(funcs, weights)[0]():
                pass
            self.check()

    def drain(self):
        """Serve every sweep to completion; a fresh worker joins whenever
        a round makes no progress (anti-affinity can park a retry)."""
        if not self.model.conns:
            self.connect()
        while not all(s.complete for s in self.model.sweeps.values()):
            before = [list(s.outcomes) for s in self.model.sweeps.values()]
            for key in sorted(self.model.conns):
                for sid, _, task_id in list(self.model.conns[key][1]):
                    self._send(key, task_id, {"verdict": "pass", "marker": sid})
                self._lease(key, 4)
                self.check()
            if before == [list(s.outcomes) for s in self.model.sweeps.values()]:
                self.connect()
        self.check()
        for sid, s in self.model.sweeps.items():
            assert self.scheduler.sweep_status(sid)["state"] == "complete"
            assert len(self.stores[sid].records) == len(s.task_ids)


@pytest.mark.parametrize("seed", range(30))
def test_scheduler_matches_reference_model(seed):
    harness = Harness(seed)
    harness.run(steps=150)
    harness.drain()
