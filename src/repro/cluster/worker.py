"""The sweep worker: pulls task shards from a service, streams results.

Run one per machine (or several, they are independent)::

    python -m repro.cluster.worker --connect HOST:PORT --backend compiled --procs 4

The worker connects, introduces itself, and loops: request a shard sized to
its local process count, execute it, stream each outcome back the moment it
lands, repeat until the service says ``done``.  Execution reuses the
pipeline's :func:`~repro.pipeline.runner.execute_task` verbatim, so a
distributed sweep computes bitwise the same outcome dicts as a local one.

* ``--procs 1`` (the default) executes in-process, which keeps the
  process-wide memo of compiled driver code warm across all tasks of a
  shard -- equal driver sources compile once per worker, not once per task.
* ``--procs N`` runs the shard on N supervised member processes (the
  same :func:`~repro.pipeline.runner.run_shard` as ``repro.pipeline
  --workers N``), streaming results as they complete.
* ``--backend B`` overrides the sweep's execution backend *for this worker
  only*.  Backends are bitwise-equivalent, so heterogeneous workers are a
  free cross-machine cross-check: the aggregated report must be identical
  no matter which worker ran which shard (``make smoke-dist`` exploits
  exactly this).

Workers are *elastic* against an always-on verification service
(:mod:`repro.cluster.service`): they may join mid-sweep, are handed shards
from whichever active sweep fair-share picks (delivering each shard's
results on the connection that leased it), park on ``wait`` when every
task is leased elsewhere, and may simply be killed -- the service
requeues their in-flight shard.  With ``--reconnect-seconds T`` a worker also *survives a
service bounce*: when the connection drops mid-service it retries the
connection with *jittered* exponential backoff for up to ``T`` seconds
(fresh budget per drop) instead of treating the EOF as end-of-sweep --
the jitter de-correlates a fleet's reconnect stampede after a bounce.
The default 0 keeps the one-shot behavior: a vanished service means
the sweep is over.

Whenever tasks run on member processes (``--procs N`` or ``--task-timeout
T``) they run on *killable supervised processes*
(:class:`~repro.pipeline.runner.SupervisedExecutor`): a task whose process
dies (segfault, OOM kill), or, with ``--task-timeout T``, that hangs past
its ``T``-second deadline, is contained -- the member is killed and
respawned, and the task reports a retryable ``failure``-flagged UNTESTED
outcome the scheduler can retry elsewhere or quarantine, instead of
stalling the sweep or losing the worker's other in-flight work.

Talking to a non-loopback service started with an auth token requires the
shared secret (``--auth-token`` or ``REPRO_CLUSTER_TOKEN``), presented in
the ``hello`` message.  A refusal is fatal and never retried: a wrong
token cannot become right by reconnecting.

While executing tasks the worker keeps a *heartbeat* thread that pings the
service every ``--heartbeat-seconds`` (default 5; 0 disables).  All socket
transactions -- requests, result deliveries, pings -- are serialized
behind one lock, so the strict request/response protocol is preserved; the
heartbeat lets a service running with ``--worker-timeout`` distinguish a
*hung* worker (silent, leases wedged forever) from a merely *busy* one.

If the service is not up yet, the worker retries the initial connection
for ``--connect-retry-seconds`` before giving up, so workers may be
launched first (or supervised and restarted freely -- a reconnecting
worker simply requests the next shard; any shard it lost is requeued).
"""

from __future__ import annotations

import argparse
import os
import random
import socket
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro import faultinject
from repro.backends import get_backend
from repro.cluster.protocol import (
    ProtocolError,
    TOKEN_ENV,
    recv_message,
    send_message,
)
from repro.pipeline.runner import local_executor, run_shard
from repro.pipeline.tasks import SweepTask
from repro.telemetry import monotonic as _monotonic

__all__ = ["run_worker", "main", "parse_endpoint", "ServiceRefused"]


class ServiceRefused(ProtocolError):
    """The service replied with an ``error`` frame (e.g. a bad auth token).

    Fatal by design: unlike a dropped connection, a refusal is a policy
    decision that reconnecting cannot change, so the reconnect loop never
    retries it.
    """


def parse_endpoint(value: str) -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (or bare ``PORT``, implying loopback)."""
    host, sep, port = value.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", value
    try:
        return (host or "127.0.0.1", int(port))
    except ValueError:
        raise ValueError(f"Invalid endpoint {value!r}: expected HOST:PORT") from None


def _backoff_delays(
    rng: Optional[random.Random] = None,
    base: float = 0.05,
    cap: float = 2.0,
) -> Iterator[float]:
    """Jittered exponential backoff delays: 50-100% of an exponentially
    growing ceiling (``base`` doubling up to ``cap``).

    The jitter matters with a fleet: after a service bounce every worker
    reconnects at once, and a fixed cadence keeps them synchronized --
    each retry wave hammers the listener together.  Randomizing within
    the window de-correlates the herd while keeping the same budget.
    """
    rng_random = (rng or random).random
    attempt = 0
    while True:
        ceiling = min(cap, base * (2.0 ** attempt))
        yield ceiling * (0.5 + rng_random() / 2.0)
        attempt += 1


def _connect(
    host: str,
    port: int,
    retry_seconds: float,
    rng: Optional[random.Random] = None,
) -> socket.socket:
    deadline = _monotonic() + retry_seconds
    delays = _backoff_delays(rng)
    while True:
        try:
            return socket.create_connection((host, port), timeout=30.0)
        except OSError:
            if _monotonic() >= deadline:
                raise
            time.sleep(next(delays))


def _worker_metadata(backend: Optional[str], procs: int) -> Dict[str, Any]:
    return {
        "host": socket.gethostname(),
        "pid": os.getpid(),
        "backend": backend,
        "procs": procs,
    }


def _rebuild_tasks(
    entries: List[Dict[str, Any]],
    backend: Optional[str],
) -> List[Tuple[int, str, SweepTask]]:
    """Deserialize a shard, applying this worker's backend override
    (excluded from task identity, so overriding it never forks the
    sweep's accounting).

    The service-issued ``task_id`` travels with each task and is echoed
    back verbatim in the result message: the service keys its accounting
    on the IDs *it* issued, so the worker never recomputes them.
    """
    out = []
    for entry in entries:
        task = SweepTask.from_dict(entry["task"])
        if backend is not None:
            task.verifier_kwargs["backend"] = backend
        out.append((entry["index"], entry["task_id"], task))
    return out


class _Heartbeat:
    """Pings the service periodically from a background thread.

    All transactions on the shared socket (the main loop's requests and
    deliveries, and these pings) are serialized behind ``lock``, so every
    request still receives exactly its own response.  A failed ping stops
    the heartbeat silently: the main loop will hit the same broken socket
    and raise with full context.

    Each ping piggybacks the worker's current status gauges (``status``
    callable: in-flight task count, oldest in-flight task age) so a hung
    or long-running task is visible in the service's ``/metrics`` before
    its result frame lands.
    """

    def __init__(
        self,
        sock: socket.socket,
        lock: threading.Lock,
        interval: float,
        status: Optional[Callable[[], Dict[str, float]]] = None,
    ) -> None:
        self._sock = sock
        self._lock = lock
        self._interval = interval
        self._status = status
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        if self._interval <= 0:
            return
        self._thread = threading.Thread(
            target=self._run, name="worker-heartbeat", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                ping: Dict[str, Any] = {"type": "ping"}
                gauges = self._status() if self._status is not None else None
                if gauges:
                    ping["metrics"] = {"gauges": gauges}
                with self._lock:
                    if self._stop.is_set():
                        return
                    send_message(self._sock, ping)
                    reply = recv_message(self._sock)
                if reply is None or reply.get("type") != "pong":
                    return
            except (OSError, ProtocolError):
                return


def run_worker(
    host: str,
    port: int,
    backend: Optional[str] = None,
    procs: int = 1,
    connect_retry_seconds: float = 10.0,
    heartbeat_seconds: float = 5.0,
    reconnect_seconds: float = 0.0,
    task_timeout: float = 0.0,
    auth_token: Optional[str] = None,
    quiet: bool = False,
) -> int:
    """Serve one service until it reports the sweeps complete.

    With ``reconnect_seconds > 0`` a dropped connection (service bounce,
    network flake) is retried with jittered exponential backoff for up to
    that many seconds per drop; an auth refusal (:class:`ServiceRefused`)
    is always fatal.  Shards run through
    :func:`~repro.pipeline.runner.run_shard`: inline for one process
    without a deadline, else on killable supervised processes, where a
    crashed task (or one past ``task_timeout`` seconds, when that is
    > 0) yields a retryable ``failure``-flagged outcome instead of
    stalling or killing the worker.
    Returns the number of tasks this worker executed.
    """
    if backend is not None:
        get_backend(backend)  # fail fast on a typo, before connecting
    procs = max(1, int(procs))

    def say(text: str) -> None:
        if not quiet:
            print(f"[worker {os.getpid()}] {text}", flush=True)

    executed = 0

    # In-flight task starts, keyed by task_id -- feeds the heartbeat's
    # status gauges so the service can see a hung task's age.
    in_flight: Dict[str, float] = {}
    in_flight_lock = threading.Lock()

    def status_gauges() -> Dict[str, float]:
        with in_flight_lock:
            gauges = {"repro_worker_tasks_inflight": float(len(in_flight))}
            if in_flight:
                gauges["repro_worker_oldest_task_age_seconds"] = (
                    _monotonic() - min(in_flight.values())
                )
            return gauges

    def session(sock: socket.socket) -> bool:
        """One connection's request/execute/deliver loop.

        Returns ``True`` when the service said ``done`` (drain and exit),
        ``False`` on a clean EOF (the peer went away mid-service).
        """
        nonlocal executed
        sock_lock = threading.Lock()
        heartbeat = _Heartbeat(
            sock, sock_lock, heartbeat_seconds, status=status_gauges
        )
        try:
            hello: Dict[str, Any] = {
                "type": "hello",
                "worker": _worker_metadata(backend, procs),
            }
            if auth_token is not None:
                hello["token"] = auth_token
            with sock_lock:
                send_message(sock, hello)
                welcome = recv_message(sock)
            if welcome is not None and welcome.get("type") == "error":
                raise ServiceRefused(
                    f"service refused this worker: {welcome.get('error')}"
                )
            if welcome is None or welcome.get("type") != "welcome":
                raise ProtocolError(f"Expected welcome, got {welcome!r}")
            say(
                f"connected to {host}:{port}: "
                f"{welcome.get('total')} task(s) across "
                f"{welcome.get('sweeps', 1)} sweep(s), "
                f"backend {backend or welcome.get('backend')!r}, {procs} proc(s)"
            )
            heartbeat.start()

            def deliver(
                shard: Any, index: int, task_id: str,
                outcome: Dict[str, Any],
                metrics: Optional[Dict[str, Any]] = None,
            ) -> None:
                message = {
                    "type": "result",
                    "shard": shard,
                    "index": index,
                    "task_id": task_id,
                    "outcome": outcome,
                }
                if metrics and any(
                    metrics.get(k)
                    for k in ("counters", "gauges", "histograms")
                ):
                    message["metrics"] = metrics
                with sock_lock:
                    send_message(sock, message)
                    ack = recv_message(sock)
                with in_flight_lock:
                    in_flight.pop(task_id, None)
                if ack is None or ack.get("type") != "ack":
                    raise ProtocolError(f"Expected ack, got {ack!r}")

            while True:
                with sock_lock:
                    send_message(sock, {"type": "request", "max_tasks": procs})
                    reply = recv_message(sock)
                if reply is None:
                    return False  # peer hung up between messages
                if reply.get("type") == "done":
                    return True
                if reply.get("type") == "wait":
                    time.sleep(0.05)
                    continue
                if reply.get("type") == "error":
                    raise ServiceRefused(
                        f"service refused this worker: {reply.get('error')}"
                    )
                if reply.get("type") != "tasks":
                    raise ProtocolError(f"Expected tasks/wait/done, got {reply!r}")
                shard = reply.get("shard")
                indexed = _rebuild_tasks(reply.get("tasks", []), backend)
                now = _monotonic()
                with in_flight_lock:
                    for _, task_id, _ in indexed:
                        in_flight[task_id] = now
                for index, task_id, outcome, metrics in run_shard(
                    indexed, executor
                ):
                    deliver(shard, index, task_id, outcome, metrics)
                    executed += 1
        finally:
            heartbeat.stop()
            sock.close()
            with in_flight_lock:
                in_flight.clear()

    # Members start before the first connection and serve every lease.
    executor = local_executor(procs, task_timeout)
    try:
        retry_budget = connect_retry_seconds
        while True:
            sock = _connect(host, port, retry_budget)
            try:
                done = session(sock)
            except ServiceRefused:
                raise
            except (OSError, ProtocolError) as exc:
                if reconnect_seconds <= 0:
                    raise
                say(f"connection lost ({exc}); reconnecting")
                done = False
            if done or reconnect_seconds <= 0:
                break
            # A clean EOF mid-service (or a caught drop): the service
            # bounced.  Each drop gets a fresh backoff budget; a requeued
            # shard is re-leased after we re-introduce ourselves.
            retry_budget = reconnect_seconds
            say(f"service went away; retrying for up to {reconnect_seconds:g} s")
        say(f"sweeps complete; this worker executed {executed} task(s)")
    finally:
        if executor is not None:
            executor.close()
    return executed


# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.worker",
        description="Sweep worker: pulls task shards from a verification "
        "service (repro.pipeline --serve / repro.cluster.service) and "
        "streams outcomes back.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="service endpoint to pull tasks from",
    )
    parser.add_argument(
        "--backend", default=None, metavar="BACKEND",
        help="override the sweep's execution backend for this worker only "
        "(backends are bitwise-equivalent; mixing them cross-checks the "
        "execution layer across machines)",
    )
    parser.add_argument(
        "--procs", type=int, default=1,
        help="local worker processes; 1 (default) executes in-process and "
        "shares compiled driver code across a shard's tasks, more run on "
        "supervised processes that contain a crashed task",
    )
    parser.add_argument(
        "--connect-retry-seconds", type=float, default=10.0,
        help="keep retrying the initial connection this long (workers may "
        "be launched before the service is listening)",
    )
    parser.add_argument(
        "--reconnect-seconds", type=float, default=0.0,
        help="survive a service bounce: when an established connection "
        "drops, retry it with backoff for up to this many seconds per "
        "drop instead of exiting; 0 (default) treats a vanished service "
        "as end-of-sweep",
    )
    parser.add_argument(
        "--heartbeat-seconds", type=float, default=5.0,
        help="ping the service this often from a background thread so a "
        "--worker-timeout service can tell busy from hung; 0 disables "
        "(pings piggyback in-flight status gauges for /metrics)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=0.0, metavar="SECONDS",
        help="per-task wall-clock deadline: tasks run on killable "
        "supervised processes, and a hung task yields a retryable "
        "UNTESTED outcome instead of stalling this worker; 0 (default) "
        "sets no deadline (with --procs > 1 a crashed task is still "
        "contained)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="arm deterministic fault injection (see repro.faultinject; "
        f"exported as {faultinject.FAULTS_ENV} so task processes inherit it)",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for probabilistic fault decisions (default 0)",
    )
    parser.add_argument(
        "--auth-token", default=os.environ.get(TOKEN_ENV),
        help="shared secret presented in the hello message; required when "
        "the service was started with --auth-token and this worker is "
        f"not on its loopback (default: ${TOKEN_ENV})",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress status lines")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        host, port = parse_endpoint(args.connect)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.backend is not None:
        try:
            get_backend(args.backend)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    if args.faults:
        try:
            faultinject.configure(args.faults, seed=args.fault_seed)
        except faultinject.FaultSpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        run_worker(
            host,
            port,
            backend=args.backend,
            procs=args.procs,
            connect_retry_seconds=args.connect_retry_seconds,
            heartbeat_seconds=args.heartbeat_seconds,
            reconnect_seconds=args.reconnect_seconds,
            task_timeout=args.task_timeout,
            auth_token=args.auth_token,
            quiet=args.quiet,
        )
    except (OSError, ProtocolError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
