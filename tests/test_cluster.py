"""Tests for the distributed sweep service (repro.cluster)."""

import importlib.util
import json
import pathlib
import socket
import threading
import time

import pytest

from repro.cluster import (
    JournalError,
    ProtocolError,
    ResultStore,
    VerificationService,
    parse_endpoint,
    recv_message,
    run_worker,
    send_message,
    sweep_identity,
)
from repro.pipeline import SweepRunner, SweepTask, TransformationSpec, enumerate_sweep_tasks
from repro.pipeline.runner import execute_task

#: Fast real-work task list used by the fidelity tests.
VERIFIER_KWARGS = dict(
    num_trials=2, seed=0, size_max=8, minimize_inputs=False, backend="interpreter"
)


def real_tasks(kernels=("jacobi_1d", "axpy_pipeline", "scaled_diff"), buggy=True):
    return enumerate_sweep_tasks(
        suite="npbench",
        workloads=list(kernels),
        buggy=buggy,
        max_instances=1,
        verifier_kwargs=VERIFIER_KWARGS,
    )


def cheap_tasks(n=4):
    """Tasks that complete instantly (infrastructure-error path): ideal for
    orchestration tests where the verdicts don't matter."""
    return [
        SweepTask(
            suite="no_such_suite",
            workload=f"w{i}",
            transformation=TransformationSpec("MapTiling", {"inject_bug": False}),
            match_index=0,
            match_description=f"cheap #{i}",
            verifier_kwargs=dict(VERIFIER_KWARGS),
        )
        for i in range(n)
    ]


# ---------------------------------------------------------------------- #
# Protocol framing
# ---------------------------------------------------------------------- #
class TestProtocol:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "result", "payload": {"x": [1, 2.5, None], "s": "é"}}
            send_message(a, message)
            assert recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_multiple_frames_keep_boundaries(self):
        a, b = socket.socketpair()
        try:
            for i in range(5):
                send_message(a, {"type": "n", "i": i})
            assert [recv_message(b)["i"] for _ in range(5)] == list(range(5))
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_message(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\x00\x00\x00\xff{\"type\":")  # header promises 255 bytes
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_message(b)
        finally:
            b.close()

    def test_oversized_frame_claim_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(ProtocolError, match="desync"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_untyped_message_raises(self):
        a, b = socket.socketpair()
        try:
            payload = json.dumps([1, 2]).encode()
            a.sendall(len(payload).to_bytes(4, "big") + payload)
            with pytest.raises(ProtocolError, match="typed message"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_parse_endpoint(self):
        assert parse_endpoint("example.org:8765") == ("example.org", 8765)
        assert parse_endpoint(":8765") == ("127.0.0.1", 8765)
        assert parse_endpoint("8765") == ("127.0.0.1", 8765)
        with pytest.raises(ValueError):
            parse_endpoint("host:notaport")


# ---------------------------------------------------------------------- #
# Deterministic task identity
# ---------------------------------------------------------------------- #
class TestTaskIds:
    def test_stable_across_enumerations(self):
        ids1 = [t.task_id for t in real_tasks()]
        ids2 = [t.task_id for t in real_tasks()]
        assert ids1 == ids2
        assert len(set(ids1)) == len(ids1)  # all distinct

    def test_id_ignores_backend_but_not_config(self):
        task = real_tasks()[0]
        baseline = task.task_id
        task.verifier_kwargs["backend"] = "compiled"
        assert task.task_id == baseline  # backends are bitwise-equivalent
        task.verifier_kwargs["num_trials"] = 99
        assert task.task_id != baseline  # a different sweep

    def test_id_tracks_coordinates(self):
        task = real_tasks()[0]
        baseline = task.task_id
        task.match_index += 1
        assert task.task_id != baseline

    def test_wire_roundtrip_preserves_identity(self):
        for task in real_tasks():
            clone = SweepTask.from_dict(task.to_dict())
            assert clone.task_id == task.task_id
            assert clone.describe() == task.describe()

    def test_sweep_identity_order_insensitive(self):
        ids = [t.task_id for t in real_tasks()]
        assert sweep_identity(ids) == sweep_identity(list(reversed(ids)))
        assert sweep_identity(ids) != sweep_identity(ids[:-1])


# ---------------------------------------------------------------------- #
# Journaled result store
# ---------------------------------------------------------------------- #
class TestResultStore:
    def test_record_and_reload(self, tmp_path):
        tasks = cheap_tasks(3)
        path = str(tmp_path / "j.jsonl")
        with ResultStore.open(path, tasks, "npbench", False, "interpreter") as store:
            for i, t in enumerate(tasks):
                store.record(t.task_id, i, {"task_id": t.task_id, "verdict": "untested"})
        header, completed = ResultStore._load(path)
        assert header["total_tasks"] == 3
        assert header["sweep_id"] == sweep_identity([t.task_id for t in tasks])
        assert set(completed) == {t.task_id for t in tasks}

    def test_resume_loads_completed_and_appends(self, tmp_path):
        tasks = cheap_tasks(3)
        path = str(tmp_path / "j.jsonl")
        with ResultStore.open(path, tasks, "npbench", False, "interpreter") as store:
            store.record(tasks[0].task_id, 0, {"task_id": tasks[0].task_id})
        resumed = ResultStore.open(
            path, tasks, "npbench", False, "interpreter", resume=True
        )
        assert set(resumed.completed) == {tasks[0].task_id}
        resumed.record(tasks[1].task_id, 1, {"task_id": tasks[1].task_id})
        resumed.close()
        _, completed = ResultStore._load(path)
        assert set(completed) == {tasks[0].task_id, tasks[1].task_id}

    def test_resume_refuses_foreign_journal(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        ResultStore.open(path, cheap_tasks(3), "npbench", False, "interpreter").close()
        with pytest.raises(JournalError, match="different sweep"):
            ResultStore.open(
                path, cheap_tasks(5), "npbench", False, "interpreter", resume=True
            )

    def test_resume_refuses_a_journal_of_another_schema_version(self, tmp_path):
        tasks = cheap_tasks(2)
        path = tmp_path / "j.jsonl"
        ResultStore.open(str(path), tasks, "npbench", False, "interpreter").close()
        header = json.loads(path.read_text())
        header["schema_version"] = 5
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(JournalError, match=r"version 5.*version 6"):
            ResultStore.open(
                str(path), tasks, "npbench", False, "interpreter", resume=True
            )

    def test_resume_without_journal_starts_fresh(self, tmp_path):
        path = str(tmp_path / "missing.jsonl")
        store = ResultStore.open(
            path, cheap_tasks(2), "npbench", False, "interpreter", resume=True
        )
        assert store.completed == {}
        store.close()

    def test_resume_of_empty_journal_starts_fresh(self, tmp_path):
        """A crash before the header flushed leaves an empty file; resuming
        it must start fresh, not refuse with JournalError."""
        path = tmp_path / "empty.jsonl"
        path.touch()
        store = ResultStore.open(
            str(path), cheap_tasks(2), "npbench", False, "interpreter", resume=True
        )
        assert store.completed == {}
        store.close()
        header, _ = ResultStore._load(str(path))  # header was rewritten
        assert header["total_tasks"] == 2

    def test_truncated_tail_dropped_and_repaired(self, tmp_path):
        tasks = cheap_tasks(2)
        path = str(tmp_path / "j.jsonl")
        with ResultStore.open(path, tasks, "npbench", False, "interpreter") as store:
            store.record(tasks[0].task_id, 0, {"task_id": tasks[0].task_id})
            store.record(tasks[1].task_id, 1, {"task_id": tasks[1].task_id})
        # Simulate a crash mid-append: cut the final record in half.
        with open(path, "rb+") as f:
            data = f.read()
            f.truncate(len(data) - len(data.splitlines(keepends=True)[-1]) // 2 - 1)
        resumed = ResultStore.open(
            path, tasks, "npbench", False, "interpreter", resume=True
        )
        # Task 1's record was cut: it must re-run; task 0 survives.
        assert set(resumed.completed) == {tasks[0].task_id}
        resumed.record(tasks[1].task_id, 1, {"task_id": tasks[1].task_id, "r": 2})
        resumed.close()
        _, completed = ResultStore._load(path)  # file is parseable end to end
        assert set(completed) == {tasks[0].task_id, tasks[1].task_id}

    def test_non_journal_file_rejected(self, tmp_path):
        path = tmp_path / "not_a_journal.jsonl"
        path.write_text("definitely not json\n{}\n")
        with pytest.raises(JournalError):
            ResultStore._load(str(path))
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            ResultStore._load(str(path))

    def test_duplicate_records_resolve_last_wins(self, tmp_path):
        tasks = cheap_tasks(1)
        path = str(tmp_path / "j.jsonl")
        with ResultStore.open(path, tasks, "npbench", False, "interpreter") as store:
            store.record(tasks[0].task_id, 0, {"n": 1})
            store.record(tasks[0].task_id, 0, {"n": 2})
        _, completed = ResultStore._load(path)
        assert completed[tasks[0].task_id] == {"n": 2}


# ---------------------------------------------------------------------- #
# Store-backed local runner (kill + --resume, single machine)
# ---------------------------------------------------------------------- #
class TestRunnerResume:
    def test_resume_runs_only_incomplete_tasks(self, tmp_path, monkeypatch):
        tasks = real_tasks()
        path = str(tmp_path / "j.jsonl")
        reference = SweepRunner(workers=1).run(tasks)

        # "Kill" a journaled sweep after 2 tasks by journaling a prefix.
        store = ResultStore.open(path, tasks, "npbench", True, "interpreter")
        for i, task in enumerate(tasks[:2]):
            store.record(task.task_id, i, execute_task(task))
        store.close()

        executed = []
        import repro.pipeline.runner as runner_mod

        original = runner_mod.execute_task

        def counting(task):
            executed.append(task.task_id)
            return original(task)

        monkeypatch.setattr(runner_mod, "execute_task", counting)
        resumed_store = ResultStore.open(
            path, tasks, "npbench", True, "interpreter", resume=True
        )
        result = SweepRunner(workers=1).run(
            tasks, store=resumed_store, completed=resumed_store.completed
        )
        resumed_store.close()

        # Only the unfinished tail ran, and the aggregate is identical.
        assert executed == [t.task_id for t in tasks[2:]]
        assert result.comparable_dict() == reference.comparable_dict()

    def test_progress_counts_include_restored_prefix(self, tmp_path):
        tasks = cheap_tasks(4)
        path = str(tmp_path / "j.jsonl")
        store = ResultStore.open(path, tasks, "x", False, "interpreter")
        for i, task in enumerate(tasks[:3]):
            store.record(task.task_id, i, execute_task(task))
        store.close()

        calls = []
        resumed = ResultStore.open(path, tasks, "x", False, "interpreter", resume=True)
        SweepRunner(workers=1).run(
            tasks,
            completed=resumed.completed,
            progress_callback=lambda i, o, c, t: calls.append((c, t)),
        )
        resumed.close()
        # One fresh task; its progress line reads [4/4], not [1/4].
        assert calls == [(4, 4)]


# ---------------------------------------------------------------------- #
# One-shot service / worker loopback
# ---------------------------------------------------------------------- #
def serve(tasks, store=None, progress_callback=None, **service_kwargs):
    """One sweep on a started one-shot loopback service, the way
    ``python -m repro.pipeline --serve`` builds it."""
    service = VerificationService(
        "127.0.0.1", 0, done_when_idle=True, **service_kwargs
    )
    sweep_id = service.submit(
        tasks, store=store, progress_callback=progress_callback
    )
    service.start()
    return service, sweep_id


def finish(service, sweep_id, timeout):
    try:
        return service.wait_sweep(sweep_id, timeout)
    finally:
        service.stop()


def start_worker_thread(address, **kwargs):
    host, port = address
    thread = threading.Thread(
        target=run_worker,
        args=(host, port),
        kwargs=dict(quiet=True, **kwargs),
        daemon=True,
    )
    thread.start()
    return thread


class TestOneShotService:
    def test_loopback_two_workers_matches_serial(self):
        tasks = real_tasks()
        serial = SweepRunner(workers=1).run(tasks)
        service, sweep_id = serve(tasks)
        address = service.address
        threads = [
            start_worker_thread(address, backend="interpreter"),
            start_worker_thread(address, backend="compiled"),
        ]
        result = finish(service, sweep_id, timeout=120.0)
        for thread in threads:
            thread.join(timeout=10.0)
        assert result.comparable_dict() == serial.comparable_dict()
        # Shard metadata is attached to every distributed outcome.
        for outcome in result.outcomes:
            assert outcome["worker"] is not None
            assert outcome["worker"]["backend"] in ("interpreter", "compiled")
            assert outcome["worker"]["shard"] >= 1

    def test_worker_disconnect_requeues_inflight_tasks(self):
        tasks = cheap_tasks(3)
        progress = []
        service, sweep_id = serve(
            tasks, progress_callback=lambda i, o, c, t: progress.append((c, t))
        )
        host, port = service.address

        # An evil worker leases one task and vanishes without a result.
        sock = socket.create_connection((host, port))
        send_message(sock, {"type": "hello", "worker": {"host": "evil"}})
        assert recv_message(sock)["type"] == "welcome"
        send_message(sock, {"type": "request", "max_tasks": 1})
        lease = recv_message(sock)
        assert lease["type"] == "tasks" and len(lease["tasks"]) == 1
        sock.close()

        # A real worker then completes the whole sweep, including the
        # requeued task.
        thread = start_worker_thread((host, port))
        result = finish(service, sweep_id, timeout=60.0)
        thread.join(timeout=10.0)
        assert all(o is not None for o in result.outcomes)
        assert len(result.outcomes) == 3
        # Progress never drifted: total constant, completed strictly
        # monotonic, final count exact despite the requeue.
        assert [t for _, t in progress] == [3, 3, 3]
        assert [c for c, _ in progress] == [1, 2, 3]

    def test_retry_budget_exhaustion_records_infra_error(self):
        tasks = cheap_tasks(1)
        service, sweep_id = serve(tasks, max_task_retries=1)
        host, port = service.address
        # Two lost leases exhaust a budget of 1 requeue.
        for _ in range(2):
            sock = socket.create_connection((host, port))
            send_message(sock, {"type": "hello", "worker": {}})
            recv_message(sock)
            send_message(sock, {"type": "request", "max_tasks": 1})
            assert recv_message(sock)["type"] == "tasks"
            sock.close()
        result = finish(service, sweep_id, timeout=30.0)
        outcome = result.outcomes[0]
        assert outcome["verdict"] == "untested"
        assert "connection lost" in outcome["error"]
        assert result.errors() == [outcome]

    def test_late_duplicate_result_is_dropped(self):
        tasks = cheap_tasks(1)
        service, sweep_id = serve(tasks)
        host, port = service.address
        task_id = tasks[0].task_id

        def deliver(tag):
            sock = socket.create_connection((host, port))
            send_message(sock, {"type": "hello", "worker": {"host": tag}})
            recv_message(sock)
            send_message(sock, {
                "type": "result", "shard": 1, "index": 0, "task_id": task_id,
                "outcome": {"task_id": task_id, "verdict": "untested",
                            "transformation": "MapTiling", "tag": tag,
                            "error": None},
            })
            assert recv_message(sock)["type"] == "ack"
            sock.close()

        deliver("first")
        deliver("second")  # late duplicate (e.g. a worker presumed lost)
        # Drain the queue so the sweep is complete-by-results.
        result = finish(service, sweep_id, timeout=30.0)
        assert result.outcomes[0]["tag"] == "first"
        assert result.outcomes[0]["worker"]["host"] == "first"

    def test_requeued_task_not_re_leased_after_late_result(self):
        """A lost worker's task is requeued; if its result then arrives
        anyway, the pending entry must not be handed to the next worker."""
        tasks = cheap_tasks(2)
        service, sweep_id = serve(tasks)
        host, port = service.address

        # Worker A leases BOTH tasks, then vanishes -> both requeued.
        a = socket.create_connection((host, port))
        send_message(a, {"type": "hello", "worker": {"host": "a"}})
        recv_message(a)
        send_message(a, {"type": "request", "max_tasks": 2})
        lease = recv_message(a)
        assert len(lease["tasks"]) == 2
        a.close()
        import time as _time

        _time.sleep(0.2)  # let the service notice the disconnect

        # Worker B delivers A's result for task 0 (the "late arrival").
        entry0 = lease["tasks"][0]
        b = socket.create_connection((host, port))
        send_message(b, {"type": "hello", "worker": {"host": "b"}})
        recv_message(b)
        send_message(b, {
            "type": "result", "shard": lease["shard"], "index": entry0["index"],
            "task_id": entry0["task_id"],
            "outcome": {"task_id": entry0["task_id"], "verdict": "untested",
                        "transformation": "MapTiling", "error": None},
        })
        assert recv_message(b)["type"] == "ack"
        # B now asks for work: only task 1 may be served -- task 0 is
        # complete even though its requeued index is still in the queue.
        send_message(b, {"type": "request", "max_tasks": 2})
        second = recv_message(b)
        assert second["type"] == "tasks"
        assert [e["index"] for e in second["tasks"]] == [lease["tasks"][1]["index"]]
        entry1 = second["tasks"][0]
        send_message(b, {
            "type": "result", "shard": second["shard"], "index": entry1["index"],
            "task_id": entry1["task_id"],
            "outcome": {"task_id": entry1["task_id"], "verdict": "untested",
                        "transformation": "MapTiling", "error": None},
        })
        assert recv_message(b)["type"] == "ack"
        b.close()
        result = finish(service, sweep_id, timeout=30.0)
        assert all(o is not None for o in result.outcomes)

    def test_worker_echoes_service_issued_task_id(self):
        """The worker must key results by the lease's task_id, never by a
        worker-side recomputation."""
        from repro.cluster.worker import _rebuild_tasks

        task = cheap_tasks(1)[0]
        entry = {"index": 7, "task_id": "service-issued", "task": task.to_dict()}
        [(index, task_id, rebuilt)] = _rebuild_tasks([entry], backend="compiled")
        assert (index, task_id) == (7, "service-issued")
        assert rebuilt.verifier_kwargs["backend"] == "compiled"
        assert task_id != rebuilt.task_id  # even when they would differ

    def test_distributed_resume_skips_journaled_tasks(self, tmp_path):
        tasks = real_tasks()
        path = str(tmp_path / "j.jsonl")
        serial = SweepRunner(workers=1).run(tasks)

        store = ResultStore.open(path, tasks, "npbench", True, "interpreter")
        for i, task in enumerate(tasks[:-2]):
            store.record(task.task_id, i, execute_task(task))
        store.close()

        resumed = ResultStore.open(
            path, tasks, "npbench", True, "interpreter", resume=True
        )
        service, sweep_id = serve(tasks, store=resumed)
        address = service.address
        executed = []
        thread = threading.Thread(
            target=lambda: executed.append(
                run_worker(address[0], address[1], quiet=True)
            ),
            daemon=True,
        )
        thread.start()
        result = finish(service, sweep_id, timeout=60.0)
        thread.join(timeout=10.0)
        resumed.close()
        assert executed == [2]  # only the unfinished tail crossed the wire
        assert result.comparable_dict() == serial.comparable_dict()

    def test_empty_task_list_completes_immediately(self):
        result = finish(*serve([]), timeout=5.0)
        assert result.outcomes == []

    def test_a_request_racing_the_stop_is_answered_done(self):
        """The worker's last ack completes the sweep, the caller stops the
        service, and only then does the worker's next request arrive: it is
        answered ``done``, not with a reset."""
        service, sweep_id = serve(cheap_tasks(1))
        sock = socket.create_connection(service.address)
        try:
            send_message(sock, {"type": "hello", "worker": {}})
            assert recv_message(sock)["type"] == "welcome"
            send_message(sock, {"type": "request", "max_tasks": 1})
            _complete_shard(sock, recv_message(sock))
            service.wait_sweep(sweep_id, 10.0)
            stopper = threading.Thread(target=service.stop)
            stopper.start()
            while not service._stop_async.is_set():
                time.sleep(0.001)
            send_message(sock, {"type": "request", "max_tasks": 1})
            assert recv_message(sock) == {"type": "done"}
        finally:
            sock.close()
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()


def _fake_outcome(entry):
    return {
        "task_id": entry["task_id"], "verdict": "untested",
        "transformation": "MapTiling", "error": None,
    }


def _complete_shard(sock, reply):
    for entry in reply["tasks"]:
        send_message(sock, {
            "type": "result", "shard": reply["shard"], "index": entry["index"],
            "task_id": entry["task_id"], "outcome": _fake_outcome(entry),
        })
        assert recv_message(sock)["type"] == "ack"


class TestAdaptiveSharding:
    def test_tail_shards_shrink_with_multiple_workers(self):
        """Guided self-scheduling: shards start at the requested size and
        fall toward one as the remaining work approaches the worker count."""
        tasks = cheap_tasks(12)
        service, sweep_id = serve(tasks)
        host, port = service.address
        idle = socket.create_connection((host, port))
        send_message(idle, {"type": "hello", "worker": {"host": "idle"}})
        recv_message(idle)
        busy = socket.create_connection((host, port))
        send_message(busy, {"type": "hello", "worker": {"host": "busy"}})
        recv_message(busy)
        sizes = []
        while True:
            send_message(busy, {"type": "request", "max_tasks": 4})
            reply = recv_message(busy)
            if reply["type"] == "done":
                break
            assert reply["type"] == "tasks"
            sizes.append(len(reply["tasks"]))
            _complete_shard(busy, reply)
        idle.close()
        busy.close()
        result = finish(service, sweep_id, timeout=30.0)
        assert all(o is not None for o in result.outcomes)
        assert sum(sizes) == len(tasks)
        # 2 active workers, requests of 4: ceil(pending / 4) caps the tail.
        assert sizes[0] > sizes[-1], f"tail shards never shrank: {sizes}"
        assert sizes == sorted(sizes, reverse=True), f"non-monotone: {sizes}"
        assert sizes[-1] == 1
        assert service.scheduler.sweep_status(sweep_id)["shard_sizes"] == sizes

    def test_lone_worker_is_never_capped(self):
        """With nobody to level against, a single worker gets what it asks
        for -- capping would only multiply request round-trips."""
        tasks = cheap_tasks(6)
        service, sweep_id = serve(tasks)
        host, port = service.address
        w = socket.create_connection((host, port))
        send_message(w, {"type": "hello", "worker": {"host": "solo"}})
        recv_message(w)
        send_message(w, {"type": "request", "max_tasks": 6})
        reply = recv_message(w)
        assert len(reply["tasks"]) == 6
        _complete_shard(w, reply)
        w.close()
        result = finish(service, sweep_id, timeout=30.0)
        assert all(o is not None for o in result.outcomes)


class TestHeartbeats:
    def test_ping_gets_pong(self):
        service, _ = serve(cheap_tasks(1))
        host, port = service.address
        w = socket.create_connection((host, port))
        try:
            send_message(w, {"type": "ping"})
            assert recv_message(w)["type"] == "pong"
        finally:
            w.close()
            service.stop()

    def test_hung_worker_times_out_and_tasks_requeue(self):
        """A worker that leases tasks and then goes silent (no pings, no
        results) is reaped after ``worker_timeout``; its in-flight shard is
        requeued and completed by a healthy worker."""
        tasks = cheap_tasks(2)
        service, sweep_id = serve(tasks, worker_timeout=0.5)
        host, port = service.address
        hung = socket.create_connection((host, port))
        send_message(hung, {"type": "hello", "worker": {"host": "hung"}})
        recv_message(hung)
        send_message(hung, {"type": "request", "max_tasks": 2})
        lease = recv_message(hung)
        assert len(lease["tasks"]) == 2
        # The hung worker never speaks again.  A healthy heartbeat-enabled
        # worker joins and must end up executing the requeued tasks.
        executed = run_worker(
            host, port, heartbeat_seconds=0.1, quiet=True
        )
        assert executed == 2
        result = finish(service, sweep_id, timeout=30.0)
        hung.close()
        for outcome in result.outcomes:
            assert outcome is not None
            assert "connection lost" not in (outcome.get("error") or "")

    def test_pinging_busy_worker_is_not_reaped(self):
        """Heartbeats prove liveness: a worker 'executing' for several
        timeout periods while pinging keeps its lease and delivers."""
        import time as _time

        tasks = cheap_tasks(1)
        service, sweep_id = serve(tasks, worker_timeout=0.4)
        host, port = service.address
        w = socket.create_connection((host, port))
        send_message(w, {"type": "hello", "worker": {"host": "slow"}})
        recv_message(w)
        send_message(w, {"type": "request", "max_tasks": 1})
        reply = recv_message(w)
        assert reply["type"] == "tasks" and len(reply["tasks"]) == 1
        # "Execute" for ~3x the timeout, pinging the whole while.
        for _ in range(12):
            send_message(w, {"type": "ping"})
            assert recv_message(w)["type"] == "pong"
            _time.sleep(0.1)
        _complete_shard(w, reply)  # the ack proves we were never reaped
        send_message(w, {"type": "request", "max_tasks": 1})
        assert recv_message(w)["type"] == "done"
        w.close()
        result = finish(service, sweep_id, timeout=30.0)
        outcome = result.outcomes[0]
        assert outcome["verdict"] == "untested"
        assert "connection lost" not in (outcome.get("error") or "")


# ---------------------------------------------------------------------- #
# End-to-end loopback smoke (subprocess workers), small scale
# ---------------------------------------------------------------------- #
def load_smoke_dist():
    """``tools/smoke_dist.py`` as a module (``tools/`` is not a package)."""
    path = pathlib.Path(__file__).resolve().parent.parent / "tools" / "smoke_dist.py"
    spec = importlib.util.spec_from_file_location("smoke_dist", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSmoke:
    def test_smoke_main_mini(self):
        rc = load_smoke_dist().main([
            "--kernels", "jacobi_1d,scaled_diff", "--trials", "1",
            "--max-instances", "1",
        ])
        assert rc == 0

    def test_smoke_survives_a_late_worker(self, monkeypatch):
        """One worker starts 2 s late: its peer has finished the 2-task
        sweep by then.  The service must still answer the latecomer
        (with ``done``) instead of having closed the port under it."""
        import subprocess

        smoke = load_smoke_dist()
        real_popen = subprocess.Popen
        spawned = []

        def late_second_worker(cmd, **kwargs):
            spawned.append(cmd)
            if len(spawned) == 2:
                cmd = ["sh", "-c", 'sleep 2; exec "$@"', "sh", *cmd]
            return real_popen(cmd, **kwargs)

        monkeypatch.setattr(smoke.subprocess, "Popen", late_second_worker)
        rc = smoke.main([
            "--kernels", "jacobi_1d,scaled_diff", "--trials", "1",
            "--max-instances", "1",
        ])
        assert len(spawned) == 2
        assert rc == 0
