"""Tests for the always-on verification service.

Three layers, mirroring the architecture split:

* ``TestScheduler`` drives the transport-free :class:`SweepScheduler` core
  with plain method calls and an injected clock -- fair share, lifecycle,
  dedup, retry budgets, result routing (``tests/test_scheduler_model.py``
  drives it against a reference model with random event sequences).
* ``TestServiceState`` covers the state directory: persistence before
  registration, monotonic id allocation, journal-backed restore.
* ``TestService`` runs the real asyncio service end to end: concurrent
  sweeps over a shared elastic worker pool with per-sweep serial parity
  and journal isolation, the HTTP submit/status/result API, auth refusals
  on both transports, kill-and-restore without re-runs, and a worker
  surviving a service bounce via reconnect-with-backoff.
"""

import inspect
import itertools
import json
import os
import random
import socket
import threading
import time

import pytest

from repro.cluster import recv_message, send_message
from repro.cluster.client import (
    ServiceClientError,
    _request,
    cancel_sweep,
    fetch_result,
    service_status,
    submit_sweep,
    sweep_status,
    wait_sweep,
)
from repro.cluster.journal import JournalError, ResultStore
from repro.cluster.scheduler import SweepScheduler
from repro.cluster.service import VerificationService
from repro.cluster.service import main as service_main
from repro.cluster.state import ServiceState, restore_sweeps
from repro.cluster.sweep import COMPLETE, DRAINING, RUNNING, SUBMITTED
from repro.cluster.worker import ServiceRefused, _backoff_delays, run_worker
from repro.telemetry.metrics import GLOBAL as GLOBAL_METRICS
from repro.telemetry.metrics import metric_key
from repro.pipeline import (
    SweepRunner,
    SweepTask,
    TransformationSpec,
    enumerate_sweep_tasks,
)
from repro.pipeline.result import SweepResult
from repro.pipeline.runner import execute_task

#: Fast real-work task list used by the fidelity tests.
VERIFIER_KWARGS = dict(
    num_trials=2, seed=0, size_max=8, minimize_inputs=False, backend="interpreter"
)


def real_tasks(kernels, buggy=True):
    return enumerate_sweep_tasks(
        suite="npbench",
        workloads=list(kernels),
        buggy=buggy,
        max_instances=1,
        verifier_kwargs=VERIFIER_KWARGS,
    )


def cheap_tasks(n=4, tag="w"):
    """Tasks that complete instantly (infrastructure-error path): ideal for
    orchestration tests where the verdicts don't matter."""
    return [
        SweepTask(
            suite="no_such_suite",
            workload=f"{tag}{i}",
            transformation=TransformationSpec("MapTiling", {"inject_bug": False}),
            match_index=0,
            match_description=f"cheap #{i}",
            verifier_kwargs=dict(VERIFIER_KWARGS),
        )
        for i in range(n)
    ]


class FakeClock:
    """Deterministic monotonic clock for scheduler unit tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _stub_outcome(marker="stub"):
    return {"verdict": "untested", "error": "stub outcome", "marker": marker}


def _record(scheduler, conn, reply, entry, outcome=None):
    """Feed one leased task's result back through the scheduler verb."""
    scheduler.record_result(conn, {
        "type": "result",
        "shard": reply["shard"],
        "index": entry["index"],
        "task_id": entry["task_id"],
        "outcome": outcome if outcome is not None else _stub_outcome(),
    })


# Raw-socket helpers for driving the service's worker transport directly.
def _hello(sock, token=None):
    hello = {
        "type": "hello",
        "worker": {"host": "test", "pid": os.getpid(), "backend": None, "procs": 1},
    }
    if token is not None:
        hello["token"] = token
    send_message(sock, hello)
    return recv_message(sock)


def _lease(sock, max_tasks):
    send_message(sock, {"type": "request", "max_tasks": max_tasks})
    return recv_message(sock)


def _deliver(sock, reply, entry):
    outcome = execute_task(SweepTask.from_dict(entry["task"]))
    message = {
        "type": "result",
        "shard": reply["shard"],
        "index": entry["index"],
        "task_id": entry["task_id"],
        "outcome": outcome,
    }
    send_message(sock, message)
    ack = recv_message(sock)
    assert ack["type"] == "ack"


def _free_port():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def start_worker_thread(address, results=None, **kwargs):
    def target():
        executed = run_worker(*address, quiet=True, **kwargs)
        if results is not None:
            results.append(executed)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread


def _wait_until(predicate, timeout=10.0, message="condition"):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise AssertionError(f"timed out waiting for {message}")
        time.sleep(0.02)


# ---------------------------------------------------------------------- #
# Scheduler core (no transport)
# ---------------------------------------------------------------------- #
class TestScheduler:
    def test_lifecycle_submitted_running_draining_complete(self):
        scheduler = SweepScheduler()
        sid = scheduler.submit(cheap_tasks(2))
        assert scheduler.sweep_status(sid)["state"] == SUBMITTED

        first = scheduler.lease("c1", 1)
        assert first["type"] == "tasks" and first["sweep"] == sid
        assert scheduler.sweep_status(sid)["state"] == RUNNING

        second = scheduler.lease("c1", 1)
        assert second["type"] == "tasks"
        assert scheduler.sweep_status(sid)["state"] == DRAINING  # queue empty

        _record(scheduler, "c1", first, first["tasks"][0])
        assert scheduler.sweep_status(sid)["state"] == DRAINING
        _record(scheduler, "c1", second, second["tasks"][0])
        assert scheduler.sweep_status(sid)["state"] == COMPLETE

        result = scheduler.wait(sid, timeout=1.0)
        assert result.sweep_id == sid
        assert len(result.outcomes) == 2
        with pytest.raises(TimeoutError):
            incomplete = scheduler.submit(cheap_tasks(1))
            scheduler.wait(incomplete, timeout=0.01)

    def test_equal_priority_alternates(self):
        clock = FakeClock()
        scheduler = SweepScheduler(clock=clock)
        a = scheduler.submit(cheap_tasks(4, tag="a"))
        b = scheduler.submit(cheap_tasks(4, tag="b"))
        order = [scheduler.lease("c", 1)["sweep"] for _ in range(4)]
        assert order == [a, b, a, b]

    def test_weighted_fair_share_honors_priority(self):
        clock = FakeClock()
        scheduler = SweepScheduler(clock=clock)
        a = scheduler.submit(cheap_tasks(8, tag="a"), priority=3.0)
        b = scheduler.submit(cheap_tasks(8, tag="b"), priority=1.0)
        order = [scheduler.lease("c", 1)["sweep"] for _ in range(8)]
        # Deficit fair share: sweep A (priority 3) receives 3x the leases.
        assert order == [a, b, a, a, a, b, a, a]
        assert order.count(a) == 6 and order.count(b) == 2

    def test_late_duplicate_after_requeue_is_dropped(self):
        scheduler = SweepScheduler()
        sid = scheduler.submit(cheap_tasks(1))
        lost = scheduler.lease("c1", 1)
        scheduler.release("c1")  # worker presumed dead; task requeued
        retry = scheduler.lease("c2", 1)
        assert retry["tasks"][0]["task_id"] == lost["tasks"][0]["task_id"]
        _record(scheduler, "c2", retry, retry["tasks"][0], _stub_outcome("fresh"))
        # The "lost" worker's result arrives anyway: first result won.
        _record(scheduler, "c1", lost, lost["tasks"][0], _stub_outcome("late"))
        result = scheduler.result(sid)
        assert result.outcomes[0]["marker"] == "fresh"
        assert scheduler.sweep_status(sid)["done"] == 1

    def test_retry_budget_exhaustion_lands_synthetic_outcome(self):
        scheduler = SweepScheduler()
        sid = scheduler.submit(cheap_tasks(1), max_task_retries=1)
        scheduler.lease("c1", 1)
        scheduler.release("c1")  # loss 1: within budget, requeued
        assert scheduler.sweep_status(sid)["state"] != COMPLETE
        scheduler.lease("c2", 1)
        scheduler.release("c2")  # loss 2: budget exhausted
        status = scheduler.sweep_status(sid)
        assert status["state"] == COMPLETE
        outcome = scheduler.result(sid).outcomes[0]
        assert outcome["verdict"] == "untested"
        assert "connection lost 2 time(s)" in outcome["error"]

    def test_done_when_idle_controls_idle_reply(self):
        persistent = SweepScheduler(done_when_idle=False)
        sid = persistent.submit(cheap_tasks(1))
        reply = persistent.lease("c", 1)
        _record(persistent, "c", reply, reply["tasks"][0])
        assert persistent.sweep_status(sid)["state"] == COMPLETE
        # A persistent service parks idle workers; a draining one releases them.
        assert persistent.lease("c", 1)["type"] == "wait"
        assert SweepScheduler(done_when_idle=True).lease("c", 1)["type"] == "done"

    def test_routing_prefers_connection_lease_table(self):
        # Two concurrent sweeps over the *same* task list: task ids collide
        # across sweeps, so only the per-connection lease table can route
        # results unambiguously.
        tasks = cheap_tasks(2)
        scheduler = SweepScheduler()
        a = scheduler.submit(tasks)
        b = scheduler.submit(tasks)
        lease_a = scheduler.lease("c1", 2)
        lease_b = scheduler.lease("c2", 2)
        assert lease_a["sweep"] == a and lease_b["sweep"] == b
        # c2 reports first: a global incomplete-first search would misroute
        # these into sweep A (registered earlier, also incomplete).
        for entry in lease_b["tasks"]:
            _record(scheduler, "c2", lease_b, entry, _stub_outcome("b"))
        for entry in lease_a["tasks"]:
            _record(scheduler, "c1", lease_a, entry, _stub_outcome("a"))
        assert [o["marker"] for o in scheduler.result(a).outcomes] == ["a", "a"]
        assert [o["marker"] for o in scheduler.result(b).outcomes] == ["b", "b"]

    def test_welcome_totals_span_active_sweeps_only(self):
        scheduler = SweepScheduler()
        a = scheduler.submit(cheap_tasks(3, tag="a"))
        scheduler.submit(cheap_tasks(2, tag="b"), suite="other_suite")
        welcome = scheduler.worker_joined("c1", {})
        assert welcome["total"] == 5 and welcome["sweeps"] == 2
        reply = scheduler.lease("c1", 3)
        for entry in reply["tasks"]:
            _record(scheduler, "c1", reply, entry)
        assert scheduler.sweep_status(a)["state"] == COMPLETE
        welcome = scheduler.worker_joined("c2", {})
        assert welcome["total"] == 2 and welcome["sweeps"] == 1
        assert welcome["suite"] == "other_suite"

    def test_constructor_knobs_are_pinned(self):
        """Shard size comes from the worker's request and the tail cap,
        and results route through the lease table only: a fifth knob
        needs a deliberate edit here."""
        knobs = list(inspect.signature(SweepScheduler.__init__).parameters)[1:]
        assert knobs == [
            "max_task_retries", "done_when_idle", "quarantine_workers", "clock",
        ]

    def test_service_status_aggregates(self):
        scheduler = SweepScheduler()
        scheduler.submit(cheap_tasks(3))
        scheduler.worker_joined("c1", {})
        status = scheduler.service_status()
        assert status["total_tasks"] == 3 and status["done_tasks"] == 0
        assert status["active_workers"] == 1
        assert set(status["sweeps"]) == {"sweep-001"}
        scheduler.release("c1")
        assert scheduler.service_status()["active_workers"] == 0


# ---------------------------------------------------------------------- #
# State directory: persistence + restore
# ---------------------------------------------------------------------- #
class TestServiceState:
    def test_sweep_id_allocation_is_monotonic(self, tmp_path):
        state = ServiceState(str(tmp_path))
        assert state.allocate_sweep_id() == "sweep-001"
        state.persist("sweep-001", cheap_tasks(1), {"suite": "x"})
        assert state.allocate_sweep_id() == "sweep-002"
        state.persist("sweep-005", cheap_tasks(1), {"suite": "x"})
        assert state.allocate_sweep_id() == "sweep-006"
        assert state.list_sweeps() == ["sweep-001", "sweep-005"]

    def test_restore_resumes_from_journal(self, tmp_path):
        tasks = cheap_tasks(3)
        state = ServiceState(str(tmp_path))
        sid = state.allocate_sweep_id()
        state.persist(sid, tasks, {
            "suite": "no_such_suite", "buggy": False,
            "backend": "interpreter", "priority": 2.0, "max_task_retries": None,
        })
        store = state.open_store(sid, tasks, "no_such_suite", False, "interpreter")
        first = SweepScheduler()
        first.submit(tasks, sweep_id=sid, priority=2.0, store=store, owns_store=True)
        reply = first.lease("c", 2)
        for entry in reply["tasks"]:
            _record(first, "c", reply, entry)
        first.close()

        second = SweepScheduler()
        assert restore_sweeps(second, state) == [sid]
        status = second.sweep_status(sid)
        assert status["done"] == 2 and status["priority"] == 2.0
        # Only the un-journaled remainder is dispatched again.
        reply = second.lease("c", 10)
        assert [e["task_id"] for e in reply["tasks"]] == [tasks[2].task_id]
        second.close()

        # Idempotent: already-registered sweeps are skipped, so a service
        # whose sweeps were submitted before start() never collides with
        # its own state directory.
        assert restore_sweeps(second, state) == []

    def test_state_written_with_trial_batch_is_refused_at_start(self, tmp_path):
        """Services before the verifier lost ``trial_batch`` persisted it in
        every task's verifier keywords and left it out of the task ids.
        This build reads only what it writes: the persisted tasks hash to
        other ids than the journal holds, so ``start()`` refuses the state
        directory instead of patching the tasks."""
        tasks = cheap_tasks(3)
        old_format = [SweepTask.from_dict(t.to_dict()) for t in tasks]
        for task in old_format:
            task.verifier_kwargs["trial_batch"] = 1
        state = ServiceState(str(tmp_path))
        sid = state.allocate_sweep_id()
        state.persist(sid, old_format, {
            "suite": "no_such_suite", "buggy": False, "backend": "interpreter",
            "priority": 1.0, "max_task_retries": None,
        })
        # The journal header holds the ids the older service computed.
        state.open_store(sid, tasks, "no_such_suite", False, "interpreter").close()

        service = VerificationService(state_dir=str(tmp_path))
        with pytest.raises(JournalError, match="different sweep"):
            service.start()


# ---------------------------------------------------------------------- #
# The asyncio service end to end
# ---------------------------------------------------------------------- #
class TestService:
    def test_constructor_knobs_are_pinned(self):
        """Every task runs in a worker and shard sizing has no latency
        target: a twelfth knob needs a deliberate edit here."""
        knobs = list(inspect.signature(VerificationService.__init__).parameters)[1:]
        assert knobs == [
            "host", "port", "http_host", "http_port", "state_dir",
            "auth_token", "auth_exempt_loopback", "worker_timeout",
            "done_when_idle", "max_task_retries", "quarantine_workers",
        ]

    @pytest.mark.parametrize("cli, argv", [
        ("service", ["--local-procs", "2"]),
        ("service", ["--target-lease-seconds", "10"]),
        ("pipeline", ["--serve", "127.0.0.1:0", "--local-procs", "2"]),
    ])
    def test_retired_flags_are_refused(self, cli, argv, capsys):
        from repro.pipeline.cli import main as pipeline_main

        main = service_main if cli == "service" else pipeline_main
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_two_concurrent_sweeps_match_serial_with_isolated_journals(
        self, tmp_path
    ):
        tasks_a = real_tasks(("jacobi_1d",))
        tasks_b = real_tasks(("axpy_pipeline", "scaled_diff"))
        serial_a = SweepRunner(workers=1).run(tasks_a)
        serial_b = SweepRunner(workers=1).run(tasks_b)

        service = VerificationService(
            state_dir=str(tmp_path / "svc"), done_when_idle=True
        )
        sid_a = service.submit(tasks_a)
        sid_b = service.submit(tasks_b)
        service.start()
        try:
            threads = [
                start_worker_thread(service.address),
                start_worker_thread(service.address),
            ]
            result_a = service.wait_sweep(sid_a, timeout=120.0)
            result_b = service.wait_sweep(sid_b, timeout=120.0)
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            service.stop()

        # Per-sweep bitwise parity with the serial runner.
        assert result_a.comparable_dict() == serial_a.comparable_dict()
        assert result_b.comparable_dict() == serial_b.comparable_dict()
        assert result_a.sweep_id == sid_a and result_b.sweep_id == sid_b

        # Journal isolation: each sweep's journal holds exactly its own
        # task set, labeled with its service submission id.
        for sid, tasks in ((sid_a, tasks_a), (sid_b, tasks_b)):
            lines = [
                json.loads(line)
                for line in open(service.state.journal_path(sid))
            ]
            assert lines[0]["service_sweep_id"] == sid
            recorded = {rec["task_id"] for rec in lines[1:]}
            assert recorded == {t.task_id for t in tasks}
            assert len(lines) - 1 == len(tasks)  # no cross-talk, no re-runs

    def test_http_submit_status_result_round_trip(self, tmp_path):
        service = VerificationService(
            http_port=0, state_dir=str(tmp_path / "svc"), done_when_idle=True
        )
        service.start()
        host, port = service.http_address
        try:
            tasks = cheap_tasks(4)
            doc = submit_sweep(host, port, tasks, priority=2.0)
            sid = doc["sweep_id"]
            assert doc["total"] == 4 and doc["priority"] == 2.0

            worker = start_worker_thread(service.address)
            result = wait_sweep(host, port, sid, timeout=60.0, poll_seconds=0.05)
            assert isinstance(result, SweepResult)
            assert result.sweep_id == sid
            assert [o["worker"]["host"] for o in result.outcomes] == (
                [socket.gethostname()] * 4
            )
            worker.join(timeout=10.0)  # told ``done`` once the sweep landed
            assert not worker.is_alive()

            status = sweep_status(host, port, sid)
            assert status["state"] == COMPLETE and status["done"] == 4
            overview = service_status(host, port)
            assert sid in overview["sweeps"]
            assert overview["done_tasks"] == 4

            with pytest.raises(ServiceClientError) as err:
                sweep_status(host, port, "sweep-999")
            assert err.value.status == 404
        finally:
            service.stop()

    def test_pipeline_submit_client_renders_the_result(self, capsys, tmp_path):
        """``python -m repro.pipeline --submit``: tasks go to the service
        over HTTP, the fetched result renders like a local run's, and
        ``--detach`` returns once the sweep id is printed."""
        from repro.pipeline.cli import main as pipeline_main

        sweep = ["--kernels", "jacobi_1d", "--trials", "1", "--max-instances", "1"]
        local_json, served_json = tmp_path / "local.json", tmp_path / "served.json"
        assert pipeline_main(sweep + ["--quiet", "--json", str(local_json)]) == 0
        capsys.readouterr()

        service = VerificationService(http_port=0)
        service.start()
        start_worker_thread(service.address)
        host, port = service.http_address
        submit = ["--submit", f"{host}:{port}"] + sweep
        try:
            assert pipeline_main(submit + ["--json", str(served_json)]) == 0
            out = capsys.readouterr().out
            assert "as sweep sweep-001" in out and "TOTAL" in out
            served = SweepResult.from_dict(json.loads(served_json.read_text()))
            local = SweepResult.from_dict(json.loads(local_json.read_text()))
            assert served.sweep_id == "sweep-001"
            assert served.comparable_dict() == local.comparable_dict()

            assert pipeline_main(submit + ["--detach"]) == 0
            out = capsys.readouterr().out
            assert "as sweep sweep-002" in out and "TOTAL" not in out
        finally:
            service.stop()

    def test_http_result_conflict_and_bad_submission(self):
        service = VerificationService(http_port=0)  # no workers at all
        service.start()
        host, port = service.http_address
        try:
            sid = submit_sweep(host, port, cheap_tasks(2))["sweep_id"]
            with pytest.raises(ServiceClientError) as err:
                fetch_result(host, port, sid)
            assert err.value.status == 409
            assert err.value.doc["done"] == 0 and err.value.doc["total"] == 2

            with pytest.raises(ServiceClientError) as err:
                _request(host, port, "POST", "/sweeps", body={"tasks": 5})
            assert err.value.status == 400
        finally:
            service.stop()

    @pytest.mark.parametrize("key", [
        "num_trails", "trial_batch",
        "use_black_box", "use_coverage_guidance", "tolerance", "max_transitions",
    ])
    def test_http_submit_refuses_unknown_verifier_keywords(self, key):
        """A keyword the verifier does not take (a typo, or a retired knob
        an older client still writes) is a 400 naming the key, not a sweep
        whose every task lands UNTESTED with a ``TypeError``."""
        service = VerificationService(http_port=0)
        service.start()
        host, port = service.http_address
        try:
            tasks = cheap_tasks(2)
            tasks[1].verifier_kwargs[key] = 1
            with pytest.raises(ServiceClientError) as err:
                submit_sweep(host, port, tasks)
            assert err.value.status == 400
            assert repr(key) in err.value.doc["error"]
            assert service_status(host, port)["sweeps"] == {}
        finally:
            service.stop()

    def test_socket_auth_refusal_is_clean_and_token_admits(self):
        service = VerificationService(
            auth_token="sesame", auth_exempt_loopback=False, done_when_idle=True
        )
        sid = service.submit(cheap_tasks(2))
        service.start()
        host, port = service.address
        try:
            with pytest.raises(ServiceRefused, match="token"):
                run_worker(host, port, quiet=True)  # tokenless
            with pytest.raises(ServiceRefused, match="token"):
                run_worker(host, port, auth_token="wrong", quiet=True)
            # Refusals leased nothing and a reconnect budget never retries
            # them; the right token drains the sweep.
            assert service.scheduler.sweep_status(sid)["done"] == 0
            assert run_worker(host, port, auth_token="sesame", quiet=True) == 2
            assert service.wait_sweep(sid, timeout=10.0).sweep_id == sid
        finally:
            service.stop()

    def test_loopback_peers_are_exempt_by_default(self):
        service = VerificationService(auth_token="sesame", done_when_idle=True)
        service.submit(cheap_tasks(1))
        service.start()
        try:
            host, port = service.address
            assert run_worker(host, port, quiet=True) == 1  # no token needed
        finally:
            service.stop()

    def test_http_auth_requires_token(self):
        service = VerificationService(
            http_port=0, auth_token="sesame", auth_exempt_loopback=False
        )
        service.start()
        host, port = service.http_address
        try:
            with pytest.raises(ServiceClientError) as err:
                service_status(host, port)
            assert err.value.status == 401
            with pytest.raises(ServiceClientError) as err:
                service_status(host, port, token="wrong")
            assert err.value.status == 401
            assert service_status(host, port, token="sesame")["total_tasks"] == 0
        finally:
            service.stop()

    def test_kill_and_restore_reruns_nothing(self, tmp_path):
        state_dir = str(tmp_path / "svc")
        tasks = cheap_tasks(5)
        serial = SweepRunner(workers=1).run(tasks)

        first = VerificationService(state_dir=state_dir)
        first.start()
        sid = first.submit(tasks)
        sock = socket.create_connection(first.address, timeout=30)
        try:
            assert _hello(sock)["type"] == "welcome"
            reply = _lease(sock, 2)
            for entry in reply["tasks"]:
                _deliver(sock, reply, entry)
        finally:
            sock.close()
        first.stop()  # hard stop: like a process kill, journals survive

        second = VerificationService(state_dir=state_dir, done_when_idle=True)
        second.start()
        try:
            assert second.scheduler.sweep_ids() == [sid]
            assert second.scheduler.sweep_status(sid)["done"] == 2
            # The restarted service dispatches only the unfinished tail.
            executed = run_worker(*second.address, quiet=True)
            assert executed == 3
            result = second.wait_sweep(sid, timeout=30.0)
        finally:
            second.stop()
        assert result.comparable_dict() == serial.comparable_dict()
        lines = open(ServiceState(state_dir).journal_path(sid)).readlines()
        assert len(lines) == 1 + 5  # header + one outcome per task, ever

    def test_elastic_workers_join_and_leave_mid_sweep(self):
        service = VerificationService()
        sid = service.submit(cheap_tasks(6))
        service.start()
        scheduler = service.scheduler
        try:
            early = socket.create_connection(service.address, timeout=30)
            assert _hello(early)["type"] == "welcome"
            assert scheduler.active_workers == 1
            reply = _lease(early, 2)
            _deliver(early, reply, reply["tasks"][0])
            early.close()  # leaves mid-sweep with one task still leased
            _wait_until(
                lambda: scheduler.active_workers == 0,
                message="the departed worker's release",
            )

            late = socket.create_connection(service.address, timeout=30)
            try:
                assert _hello(late)["type"] == "welcome"
                assert scheduler.active_workers == 1
                seen = []
                while scheduler.sweep_status(sid)["state"] != COMPLETE:
                    reply = _lease(late, 2)
                    assert reply["type"] in ("tasks", "wait")
                    for entry in reply.get("tasks", []):
                        seen.append(entry["task_id"])
                        _deliver(late, reply, entry)
            finally:
                late.close()
            # The departed worker's undelivered task was requeued to the
            # late joiner exactly once (5 distinct = the requeued one plus
            # the 4 never-leased tasks).
            assert len(seen) == 5 and len(set(seen)) == 5
            result = service.wait_sweep(sid, timeout=10.0)
            assert sum(o is not None for o in result.outcomes) == 6
        finally:
            service.stop()

    def test_worker_survives_service_bounce(self):
        port = _free_port()
        first = VerificationService("127.0.0.1", port)
        sid1 = first.submit(cheap_tasks(2, tag="first"))
        first.start()
        executed = []
        worker = start_worker_thread(
            ("127.0.0.1", port), results=executed, reconnect_seconds=60.0
        )
        first.wait_sweep(sid1, timeout=60.0)
        first.stop()  # bounce: the worker's connection is aborted

        second = VerificationService("127.0.0.1", port, done_when_idle=True)
        sid2 = second.submit(cheap_tasks(3, tag="second"))
        second.start()
        try:
            result = second.wait_sweep(sid2, timeout=60.0)
        finally:
            worker.join(timeout=30.0)
            second.stop()
        assert not worker.is_alive()
        # One worker process served both service generations.
        assert executed == [5]
        assert sum(o is not None for o in result.outcomes) == 3


# ---------------------------------------------------------------------- #
# Failure domains: quarantine, contained deadlines, journal checksums
# ---------------------------------------------------------------------- #
class TestFailureDomains:
    def test_quarantine_on_distinct_workers_short_circuits_budget(self):
        scheduler = SweepScheduler(quarantine_workers=2)
        sid = scheduler.submit(cheap_tasks(1), max_task_retries=10)
        scheduler.lease("c1", 1)
        scheduler.release("c1")  # failure on distinct worker 1: requeued
        assert scheduler.sweep_status(sid)["state"] != COMPLETE
        scheduler.lease("c2", 1)
        scheduler.release("c2")  # distinct worker 2: quarantine trips
        status = scheduler.sweep_status(sid)
        assert status["state"] == COMPLETE
        assert len(status["quarantined"]) == 1
        record = status["quarantined"][0]
        assert record["reason"] == "connection lost"
        assert len(record["workers"]) == 2
        outcome = scheduler.result(sid).outcomes[0]
        assert outcome["verdict"] == "untested"
        assert "quarantined" in outcome["error"]
        counters = scheduler.metrics.snapshot()["counters"]
        assert counters[metric_key(
            "repro_tasks_quarantined_total", {"sweep": sid}
        )] == 1

    def test_repeat_failures_on_one_worker_use_the_retry_budget(self):
        # The same worker failing over and over is indistinguishable from a
        # task-independent flake: it consumes retry budget but never trips
        # the distinct-worker quarantine.
        scheduler = SweepScheduler(quarantine_workers=2)
        sid = scheduler.submit(cheap_tasks(1), max_task_retries=2)
        timeout_outcome = {
            "verdict": "untested",
            "error": "task exceeded its 2 s deadline; the stuck worker "
            "process was killed and respawned",
            "failure": "timeout",
        }
        for _ in range(3):  # budget 2 -> third failure lands
            reply = scheduler.lease("c1", 1)
            _record(scheduler, "c1", reply, reply["tasks"][0],
                    dict(timeout_outcome))
        status = scheduler.sweep_status(sid)
        assert status["state"] == COMPLETE
        assert status["quarantined"] == []
        outcome = scheduler.result(sid).outcomes[0]
        # Budget exhaustion lands the worker's own contained outcome.
        assert outcome["failure"] == "timeout"
        assert "deadline" in outcome["error"]

    def test_contained_timeout_outcome_is_retried_not_landed(self):
        scheduler = SweepScheduler(quarantine_workers=0)
        sid = scheduler.submit(cheap_tasks(1), max_task_retries=1)
        reply = scheduler.lease("c1", 1)
        entry = reply["tasks"][0]
        _record(scheduler, "c1", reply, entry, {
            "verdict": "untested",
            "error": "task exceeded its 2 s deadline",
            "failure": "timeout",
        })
        # Retryable: nothing landed, the task is requeued at the front.
        assert scheduler.sweep_status(sid)["done"] == 0
        retry = scheduler.lease("c1", 1)
        assert retry["tasks"][0]["task_id"] == entry["task_id"]
        _record(scheduler, "c1", retry, retry["tasks"][0],
                _stub_outcome("recovered"))
        assert scheduler.sweep_status(sid)["state"] == COMPLETE
        assert scheduler.result(sid).outcomes[0]["marker"] == "recovered"
        counters = scheduler.metrics.snapshot()["counters"]
        assert counters[metric_key(
            "repro_task_timeouts_total", {"sweep": sid}
        )] == 1

    @pytest.mark.parametrize("damage", ["payload altered", "crc removed"])
    def test_unverifiable_journal_record_is_skipped_and_rerun_on_resume(
        self, tmp_path, damage
    ):
        tasks = cheap_tasks(3)
        path = str(tmp_path / "journal.jsonl")
        store = ResultStore.open(path, tasks, "s", False, "interpreter")
        for i, task in enumerate(tasks):
            store.record(task.task_id, i, _stub_outcome(f"m{i}"))
        store.close()
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
        # Damage the middle record (line 0 is the header): either its
        # embedded CRC no longer matches the outcome, or it has none -- and
        # a record nothing vouches for is not trusted.
        assert "m1" in lines[2]
        if damage == "payload altered":
            lines[2] = lines[2].replace("m1", "mX")
        else:
            record = json.loads(lines[2])
            del record["crc"]
            lines[2] = json.dumps(record, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")

        skipped = "repro_journal_records_skipped_total"
        before = GLOBAL_METRICS.snapshot()["counters"].get(skipped, 0)
        _, completed = ResultStore._load(path)
        assert set(completed) == {tasks[0].task_id, tasks[2].task_id}
        assert GLOBAL_METRICS.snapshot()["counters"][skipped] == before + 1

        # Resume parity: the skipped task is simply incomplete -- it re-runs
        # and its fresh record wins; the intact records are untouched.
        store = ResultStore.open(
            path, tasks, "s", False, "interpreter", resume=True
        )
        assert tasks[1].task_id not in store.completed
        store.record(tasks[1].task_id, 1, _stub_outcome("fresh"))
        store.close()
        _, completed = ResultStore._load(path)
        assert completed[tasks[1].task_id]["marker"] == "fresh"
        assert completed[tasks[0].task_id]["marker"] == "m0"
        assert completed[tasks[2].task_id]["marker"] == "m2"

    def test_heartbeat_gauges_land_in_metrics_with_worker_label(self):
        scheduler = SweepScheduler()
        scheduler.worker_joined("c1", {"host": "h"})
        scheduler.record_heartbeat("c1", {"gauges": {
            "repro_worker_tasks_inflight": 3.0,
            "repro_worker_oldest_task_age_seconds": 12.5,
        }})
        scheduler.record_heartbeat("c1", None)  # plain ping: a no-op
        gauges = scheduler.metrics.snapshot()["gauges"]
        assert gauges[metric_key(
            "repro_worker_tasks_inflight", {"worker": "1"}
        )] == 3.0
        assert gauges[metric_key(
            "repro_worker_oldest_task_age_seconds", {"worker": "1"}
        )] == 12.5


# ---------------------------------------------------------------------- #
# Sweep cancellation (DELETE /sweeps/<id>)
# ---------------------------------------------------------------------- #
def _untested_by_exception(task):
    return execute_task(task)  # cheap tasks name a suite that does not exist


def _untested_by_lost_lease(task):
    scheduler = SweepScheduler(max_task_retries=0)
    sid = scheduler.submit([task])
    scheduler.lease("c1", 1)
    scheduler.release("c1")
    return scheduler.result(sid).outcomes[0]


def _untested_by_supervisor(task):
    from repro.cluster.supervise import SupervisedExecutor

    return SupervisedExecutor._failure_outcome(task, task.task_id, "timeout", 1.0)


@pytest.mark.parametrize(
    "site, extra",
    [
        (_untested_by_exception, set()),
        (_untested_by_lost_lease, set()),
        (_untested_by_supervisor, {"failure"}),
    ],
)
def test_every_untested_outcome_has_the_shape_of_a_verdict_outcome(site, extra):
    verdict_outcome = execute_task(real_tasks(["jacobi_1d"])[0])
    assert verdict_outcome["verdict"] != "untested"
    task = cheap_tasks(1)[0]
    outcome = site(task)
    assert set(outcome) == set(verdict_outcome) | extra
    assert outcome["verdict"] == "untested" and outcome["error"]
    assert outcome["report"] is None
    assert outcome["task_id"] == task.task_id


class TestSweepCancellation:
    def test_delete_cancels_and_evicts_a_running_sweep(self, tmp_path):
        service = VerificationService(
            "127.0.0.1", 0, http_port=0, state_dir=str(tmp_path)
        )
        service.start()
        try:
            host, port = service.http_address
            sid = submit_sweep(host, port, cheap_tasks(3))["sweep_id"]
            assert (tmp_path / f"{sid}.meta.json").exists()
            assert (tmp_path / f"{sid}.jsonl").exists()

            doc = cancel_sweep(host, port, sid)
            assert doc["cancelled"] is True
            assert doc["done"] == doc["total"] == 3

            # Gone from the registry and the state dir: a restart on this
            # directory cannot resurrect it.
            with pytest.raises(ServiceClientError) as err:
                sweep_status(host, port, sid)
            assert err.value.status == 404
            assert not (tmp_path / f"{sid}.meta.json").exists()
            assert not (tmp_path / f"{sid}.jsonl").exists()
        finally:
            service.stop()

    def test_delete_unknown_404_and_complete_409(self):
        service = VerificationService("127.0.0.1", 0, http_port=0)
        service.start()
        try:
            host, port = service.http_address
            with pytest.raises(ServiceClientError) as err:
                cancel_sweep(host, port, "sweep-999")
            assert err.value.status == 404

            sid = submit_sweep(host, port, cheap_tasks(1))["sweep_id"]
            reply = service.scheduler.lease("t", 1)
            _record(service.scheduler, "t", reply, reply["tasks"][0])
            assert sweep_status(host, port, sid)["state"] == COMPLETE
            with pytest.raises(ServiceClientError) as err:
                cancel_sweep(host, port, sid)
            assert err.value.status == 409
            # A complete sweep's result stays immutable and queryable.
            assert fetch_result(host, port, sid).outcomes[0] is not None
        finally:
            service.stop()

    def test_cancel_drops_outstanding_leases(self):
        tasks = cheap_tasks(2)
        scheduler = SweepScheduler()
        sid = scheduler.submit(tasks)
        other = scheduler.submit(tasks)  # the same task ids, still queued
        reply = scheduler.lease("c1", 1)
        assert reply["sweep"] == sid
        doc = scheduler.cancel(sid)
        assert doc["cancelled"] is True
        # The late result is dropped: it must neither raise nor land in the
        # other sweep's copy of the same task.
        _record(scheduler, "c1", reply, reply["tasks"][0], _stub_outcome("a"))
        assert scheduler.sweep_ids() == [other]
        status = scheduler.sweep_status(other)
        assert status["done"] == 0 and status["pending"] == 2
        assert scheduler.result(other).outcomes == [None, None]


# ---------------------------------------------------------------------- #
# Reconnect backoff + fatal refusals
# ---------------------------------------------------------------------- #
class TestReconnectBackoff:
    def test_backoff_delays_grow_jittered_and_cap(self):
        delays = list(itertools.islice(
            _backoff_delays(random.Random(42)), 12
        ))
        for attempt, delay in enumerate(delays):
            ceiling = min(2.0, 0.05 * 2.0 ** attempt)
            assert ceiling / 2.0 <= delay <= ceiling + 1e-9
        # The tail saturates at the cap window rather than growing forever.
        assert all(1.0 <= d <= 2.0 for d in delays[7:])

    def test_backoff_jitter_decorrelates_workers(self):
        a = list(itertools.islice(_backoff_delays(random.Random(1)), 6))
        b = list(itertools.islice(_backoff_delays(random.Random(2)), 6))
        assert a != b  # two workers never retry in lockstep

    def test_auth_refusal_is_fatal_despite_reconnect_budget(self):
        service = VerificationService(
            auth_token="sesame", auth_exempt_loopback=False
        )
        service.start()
        try:
            started = time.monotonic()
            with pytest.raises(ServiceRefused, match="token"):
                run_worker(
                    *service.address, quiet=True, reconnect_seconds=60.0
                )
            # A refusal is a configuration error: it must surface at once,
            # not burn the reconnect budget retrying a hopeless hello.
            assert time.monotonic() - started < 10.0
        finally:
            service.stop()


class TestRetryAntiAffinity:
    def test_retry_is_steered_to_a_different_worker(self):
        scheduler = SweepScheduler(quarantine_workers=0)
        sid = scheduler.submit(cheap_tasks(1), max_task_retries=10)
        reply = scheduler.lease("c1", 1)
        entry = reply["tasks"][0]
        scheduler.lease("c2", 1)  # c2 connects (gets "wait")
        _record(scheduler, "c1", reply, entry, {
            "verdict": "untested", "error": "deadline", "failure": "timeout",
        })
        # c1 already failed this task and c2 is connected: c1 must not get
        # it back -- a re-failure there gathers no quarantine evidence.
        assert scheduler.lease("c1", 1)["type"] == "wait"
        retry = scheduler.lease("c2", 1)
        assert retry["type"] == "tasks"
        assert retry["tasks"][0]["task_id"] == entry["task_id"]
        _record(scheduler, "c2", retry, retry["tasks"][0],
                _stub_outcome("elsewhere"))
        assert scheduler.result(sid).outcomes[0]["marker"] == "elsewhere"

    def test_sole_surviving_worker_still_gets_the_retry(self):
        scheduler = SweepScheduler(quarantine_workers=0)
        scheduler.submit(cheap_tasks(1), max_task_retries=10)
        reply = scheduler.lease("c1", 1)
        _record(scheduler, "c1", reply, reply["tasks"][0], {
            "verdict": "untested", "error": "deadline", "failure": "timeout",
        })
        # No other worker connected: anti-affinity must not starve the task.
        assert scheduler.lease("c1", 1)["type"] == "tasks"
