"""The always-on verification service: asyncio transport over the scheduler.

This is the *only* cluster module that touches asyncio or opens listening
sockets (``tools/lint_arch.py`` enforces it).  It owns no task accounting:
every wire message translates into one call on the transport-free
:class:`~repro.cluster.scheduler.SweepScheduler` -- ``lease``,
``record_result``, ``release``, ``worker_joined`` -- and nothing else.

Three transports multiplex over one scheduler:

* **Worker socket** -- the accept/dispatch loop speaking the
  length-prefixed JSON protocol (:mod:`repro.cluster.protocol`).
  Workers are elastic -- they join and leave mid-service and are assigned
  shards from whichever active sweep fair-share picks.
* **HTTP/JSON** (optional second port) -- ``POST /sweeps`` submits a
  serialized task list, ``GET /sweeps/<id>`` / ``GET /status`` report
  progress, workers and ETA, ``GET /sweeps/<id>/result`` returns a
  completed sweep's full :class:`~repro.pipeline.result.SweepResult`
  document.  A tiny hand-rolled HTTP/1.1 server (one request per
  connection) keeps the dependency surface at zero.
* **Local executors** (``local_procs > 0``) -- in-process threads that
  lease from the scheduler directly and run
  :func:`~repro.pipeline.runner.execute_task`, so a ``--serve
  --local-procs N`` service makes progress with no external workers at
  all.

With a state directory (:class:`~repro.cluster.state.ServiceState`) every
submission is persisted (meta + per-sweep journal) before it is
acknowledged: killing the service process and starting a new one on the
same directory restores every in-flight sweep from its journal, completed
tasks are never re-dispatched, and reconnecting workers (bounded
reconnect-with-backoff in :mod:`repro.cluster.worker`) resume pulling
shards.

Non-loopback deployments can require a shared secret (``auth_token`` /
``REPRO_CLUSTER_TOKEN``): socket workers present it in ``hello``, HTTP
clients in the ``X-Repro-Token`` header; a bad token gets a clean refusal
(an ``error`` frame / HTTP 401), never a hang.  Loopback peers stay
tokenless.

The event loop runs in a dedicated daemon thread, so synchronous callers
(the pipeline CLI, tests) drive the service with plain ``start()`` /
``submit()`` / ``wait_sweep()`` / ``stop()`` calls.

Entry point::

    python -m repro.cluster.service --listen :8765 --http :8766 \\
        --state-dir service-state --local-procs 2
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import struct
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import faultinject
from repro.cluster.protocol import MAX_MESSAGE_BYTES, ProtocolError, TOKEN_ENV
from repro.cluster.scheduler import SweepScheduler
from repro.cluster.state import ServiceState, restore_sweeps
from repro.cluster.sweep import COMPLETE
from repro.pipeline.result import SweepResult
from repro.pipeline.tasks import SweepTask, sweep_labels
from repro.telemetry import monotonic as _monotonic

__all__ = ["VerificationService", "main"]

_LENGTH = struct.Struct(">I")

#: How long a stopping one-shot service whose sweeps are complete waits for
#: its connected workers to ask, hear ``done`` and disconnect.
DONE_GRACE_SECONDS = 2.0

_HTTP_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
}


async def _read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """One length-prefixed JSON frame; ``None`` on clean EOF at a boundary."""
    try:
        header = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("Connection closed mid-frame") from exc
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"Incoming frame claims {length} bytes (limit {MAX_MESSAGE_BYTES})"
        )
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError("Connection closed mid-frame") from exc
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"Undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"Frame is not a typed message object: {message!r}")
    return message


def _write_frame(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    # Same fault point as the worker-side send_message: one garble clause
    # corrupts frames in either direction (length is preserved, so framing
    # survives and the receiver sees a clean ProtocolError).
    payload = faultinject.garble_bytes("protocol.send", payload,
                                       key=message.get("type"))
    writer.write(_LENGTH.pack(len(payload)) + payload)


def _is_loopback(peer: Optional[Tuple[Any, ...]]) -> bool:
    if peer is None:
        return True  # socketpair / unix transport: local by construction
    host = str(peer[0])
    return host == "::1" or host.startswith("127.")


class VerificationService:
    """Persistent multi-tenant verification service (see module docstring).

    Typical embedded use::

        service = VerificationService(state_dir="svc", http_port=0)
        service.start()                      # addresses now concrete
        sid = service.submit(tasks)          # as many sweeps as you like
        result = service.wait_sweep(sid)
        service.stop()
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        http_host: Optional[str] = None,
        http_port: Optional[int] = None,
        state_dir: Optional[str] = None,
        auth_token: Optional[str] = None,
        auth_exempt_loopback: bool = True,
        worker_timeout: float = 0.0,
        local_procs: int = 0,
        done_when_idle: bool = False,
        max_task_retries: int = 2,
        target_lease_seconds: float = 10.0,
        quarantine_workers: int = 3,
    ) -> None:
        self.host = host
        self.port = port
        self.http_host = http_host if http_host is not None else host
        #: ``None`` disables the HTTP endpoint; 0 picks a free port.
        self.http_port = http_port
        self.scheduler = SweepScheduler(
            max_task_retries=max_task_retries,
            done_when_idle=done_when_idle,
            target_lease_seconds=target_lease_seconds,
            quarantine_workers=quarantine_workers,
        )
        self.state = ServiceState(state_dir) if state_dir else None
        self.auth_token = auth_token
        #: With the default ``True``, loopback peers never need the token
        #: (local tooling stays friction-free).  Tests set ``False`` to
        #: exercise refusals without a second network namespace.
        self.auth_exempt_loopback = auth_exempt_loopback
        self.worker_timeout = worker_timeout
        self.local_procs = max(0, int(local_procs))

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_async: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._sock_addr: Optional[Tuple[str, int]] = None
        self._http_addr: Optional[Tuple[str, int]] = None
        #: writer -> {"last": monotonic} for the hung-worker reaper.
        self._conn_meta: Dict[Any, Dict[str, float]] = {}
        self._submit_lock = threading.Lock()
        self._local_threads: List[threading.Thread] = []
        self._local_stop = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        """Worker-socket (host, port); concrete only after :meth:`start`."""
        return self._sock_addr or (self.host, self.port)

    @property
    def http_address(self) -> Optional[Tuple[str, int]]:
        """HTTP (host, port), or ``None`` when the endpoint is disabled."""
        return self._http_addr

    def start(self) -> Tuple[str, int]:
        """Restore persisted sweeps, bind, listen; returns the socket address."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        if self.state is not None:
            restore_sweeps(self.scheduler, self.state)
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()),
            name="verification-service",
            daemon=True,
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            self._thread.join(timeout=2.0)
            raise self._startup_error
        for n in range(self.local_procs):
            thread = threading.Thread(
                target=self._local_loop, args=(n,),
                name=f"service-local-{n}", daemon=True,
            )
            thread.start()
            self._local_threads.append(thread)
        return self.address

    def stop(self) -> None:
        """Stop listening and abort live connections (idempotent).

        Deliberately *not* a graceful drain: in-flight leases die with
        their connections, exactly like a process kill -- restartability
        comes from the journals, not from shutdown choreography.  The one
        exception is a one-shot service whose sweeps are complete: there
        is nothing left to lose, and each connected worker's next request
        is answered ``done`` before the connections close (for at most
        :data:`DONE_GRACE_SECONDS`), so no worker sees a reset.
        """
        self._local_stop.set()
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self._stop_async.set)
            except RuntimeError:
                pass  # loop already closed
            self._thread.join(timeout=5.0)
        for thread in self._local_threads:
            thread.join(timeout=5.0)
        self.scheduler.close()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_async = asyncio.Event()
        http_server = None
        reaper = None
        try:
            server = await asyncio.start_server(
                self._handle_worker, self.host, self.port
            )
            self._sock_addr = server.sockets[0].getsockname()[:2]
            if self.http_port is not None:
                http_server = await asyncio.start_server(
                    self._handle_http, self.http_host, self.http_port
                )
                self._http_addr = http_server.sockets[0].getsockname()[:2]
            if self.worker_timeout > 0:
                reaper = asyncio.ensure_future(self._reap_loop())
        except BaseException as exc:  # noqa: BLE001 - reported to start()
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self._stop_async.wait()
        server.close()
        if http_server is not None:
            http_server.close()
        if reaper is not None:
            reaper.cancel()
        if self.scheduler.finished:
            # The last ack completed the sweep, so a worker's next request
            # may already be on the wire: let every connected worker hear
            # ``done`` and hang up first.
            deadline = _monotonic() + DONE_GRACE_SECONDS
            while self._conn_meta and _monotonic() < deadline:
                await asyncio.sleep(0.01)
        # Abort (not drain) live worker connections: a service bounce must
        # look like a crash to the requeue/retry machinery, which is the
        # path the journals make safe.
        for writer in list(self._conn_meta):
            try:
                writer.transport.abort()
            except Exception:  # noqa: BLE001 - already-dead transports
                pass
        await server.wait_closed()
        if http_server is not None:
            await http_server.wait_closed()

    async def _reap_loop(self) -> None:
        """Force-close connections silent for longer than ``worker_timeout``.

        A hung worker (wedged process, dead-but-undetected TCP peer) holds
        its leases forever without failing the socket; aborting from this
        side unwinds its handler through the ordinary lost-worker requeue
        path.  Healthy workers never trip this: they ping between tasks.
        """
        interval = max(0.05, min(self.worker_timeout / 4, 0.25))
        while True:
            await asyncio.sleep(interval)
            deadline = _monotonic() - self.worker_timeout
            for writer, meta in list(self._conn_meta.items()):
                if meta["last"] < deadline:
                    try:
                        writer.transport.abort()
                    except Exception:  # noqa: BLE001
                        pass

    # ------------------------------------------------------------------ #
    # Submission (thread-safe; used by CLI, HTTP and tests)
    # ------------------------------------------------------------------ #
    def submit(
        self,
        tasks: Sequence[SweepTask],
        *,
        suite: Optional[str] = None,
        buggy: Optional[bool] = None,
        backend: Optional[str] = None,
        priority: float = 1.0,
        max_task_retries: Optional[int] = None,
        store: Optional[Any] = None,
        progress_callback: Optional[Callable[..., None]] = None,
    ) -> str:
        """Register a sweep; with a state dir, persist it first.

        An explicitly passed ``store`` (the one-shot ``--journal`` path)
        bypasses state-dir journal multiplexing and stays caller-owned.
        """
        tasks = list(tasks)
        if self.state is None or store is not None:
            return self.scheduler.submit(
                tasks,
                suite=suite,
                buggy=buggy,
                backend=backend,
                priority=priority,
                max_task_retries=max_task_retries,
                store=store,
                progress_callback=progress_callback,
            )
        with self._submit_lock:
            sweep_id = self.state.allocate_sweep_id()
            suite, buggy, backend = sweep_labels(tasks, suite, buggy, backend)
            self.state.persist(sweep_id, tasks, {
                "suite": suite,
                "buggy": buggy,
                "backend": backend,
                "priority": priority,
                "max_task_retries": max_task_retries,
            })
            journal = self.state.open_store(sweep_id, tasks, suite, buggy, backend)
            return self.scheduler.submit(
                tasks,
                sweep_id=sweep_id,
                suite=suite,
                buggy=buggy,
                backend=backend,
                priority=priority,
                max_task_retries=max_task_retries,
                store=journal,
                owns_store=True,
                progress_callback=progress_callback,
            )

    def wait_sweep(self, sweep_id: str, timeout: Optional[float] = None) -> SweepResult:
        return self.scheduler.wait(sweep_id, timeout)

    # ------------------------------------------------------------------ #
    # Worker-socket transport
    # ------------------------------------------------------------------ #
    def _auth_required(self, peer: Optional[Tuple[Any, ...]]) -> bool:
        if self.auth_token is None:
            return False
        if self.auth_exempt_loopback and _is_loopback(peer):
            return False
        return True

    async def _handle_worker(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_key = object()  # scheduler-side identity of this connection
        peer = writer.get_extra_info("peername")
        meta = {"last": _monotonic()}
        self._conn_meta[writer] = meta
        must_auth = self._auth_required(peer)
        authed = not must_auth
        try:
            while True:
                try:
                    message = await _read_frame(reader)
                except ProtocolError:
                    break  # died mid-frame: treat as a lost worker
                if message is None:
                    break  # clean disconnect
                meta["last"] = _monotonic()
                mtype = message.get("type")
                if mtype == "hello":
                    if must_auth and message.get("token") != self.auth_token:
                        _write_frame(writer, {
                            "type": "error",
                            "error": "authentication failed: missing or "
                            "invalid token (set --auth-token / "
                            f"{TOKEN_ENV})",
                        })
                        await writer.drain()
                        break  # clean refusal, never a hang
                    authed = True
                    _write_frame(
                        writer,
                        self.scheduler.worker_joined(
                            conn_key, message.get("worker") or {}
                        ),
                    )
                elif not authed:
                    _write_frame(writer, {
                        "type": "error",
                        "error": "authentication required: say hello with "
                        "a token first",
                    })
                    await writer.drain()
                    break
                elif mtype == "request":
                    _write_frame(
                        writer,
                        self.scheduler.lease(
                            conn_key, int(message.get("max_tasks", 1))
                        ),
                    )
                elif mtype == "result":
                    self.scheduler.record_result(conn_key, message)
                    _write_frame(writer, {"type": "ack"})
                elif mtype == "ping":
                    self.scheduler.record_heartbeat(
                        conn_key, message.get("metrics")
                    )
                    _write_frame(writer, {"type": "pong"})
                else:
                    _write_frame(writer, {
                        "type": "error",
                        "error": f"unknown message type {mtype!r}",
                    })
                await writer.drain()
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass  # connection-level failure: fall through to requeue
        finally:
            self._conn_meta.pop(writer, None)
            self.scheduler.release(conn_key)
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    # ------------------------------------------------------------------ #
    # HTTP transport
    # ------------------------------------------------------------------ #
    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, doc = 400, {"error": "malformed HTTP request"}
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) >= 2:
                method, path = parts[0].upper(), parts[1]
                headers: Dict[str, str] = {}
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n", b""):
                        break
                    key, _, value = line.decode("latin-1").partition(":")
                    headers[key.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0") or "0")
                body = await reader.readexactly(length) if length else b""
                status, doc = self._http_dispatch(
                    method, path, headers, body,
                    writer.get_extra_info("peername"),
                )
        except (asyncio.IncompleteReadError, ConnectionError, OSError, ValueError):
            pass
        try:
            if isinstance(doc, str):
                # Plain-text endpoint (GET /metrics): Prometheus exposition
                # format 0.0.4, hand-rolled like the rest of the server.
                payload = doc.encode("utf-8")
                ctype = "text/plain; version=0.0.4; charset=utf-8"
            else:
                payload = json.dumps(doc, separators=(",", ":")).encode("utf-8")
                ctype = "application/json"
            head = (
                f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + payload)
            await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    def _http_dispatch(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        peer: Optional[Tuple[Any, ...]],
    ) -> Tuple[int, Any]:  # doc: JSON-safe dict, or str for text/plain
        if self._auth_required(peer) and (
            headers.get("x-repro-token") != self.auth_token
        ):
            return 401, {
                "error": "authentication failed: missing or invalid "
                f"X-Repro-Token header (set --auth-token / {TOKEN_ENV})"
            }
        if method == "POST" and path == "/sweeps":
            return self._http_submit(body)
        if method == "GET" and path == "/status":
            return 200, self.scheduler.service_status()
        if method == "GET" and path == "/metrics":
            # Fleet-wide aggregation: every worker's piggybacked metric
            # deltas plus the scheduler's own per-sweep counters and
            # latency gauges, as Prometheus text (no client library).
            return 200, self.scheduler.metrics.render_prometheus()
        if method == "GET" and path.startswith("/sweeps/"):
            rest = path[len("/sweeps/"):]
            sweep_id, _, tail = rest.partition("/")
            try:
                status_doc = self.scheduler.sweep_status(sweep_id)
            except KeyError:
                return 404, {"error": f"unknown sweep {sweep_id!r}"}
            if not tail:
                return 200, status_doc
            if tail == "result":
                if status_doc["state"] != COMPLETE:
                    return 409, {
                        "error": f"sweep {sweep_id} is not complete",
                        "state": status_doc["state"],
                        "done": status_doc["done"],
                        "total": status_doc["total"],
                    }
                return 200, self.scheduler.result(sweep_id).to_dict()
            return 404, {"error": f"unknown endpoint {path!r}"}
        if method == "DELETE" and path.startswith("/sweeps/"):
            sweep_id = path[len("/sweeps/"):]
            try:
                doc = self.scheduler.cancel(sweep_id)
            except KeyError:
                return 404, {"error": f"unknown sweep {sweep_id!r}"}
            except ValueError:
                return 409, {
                    "error": f"sweep {sweep_id} is already complete; its "
                    f"result is immutable (GET /sweeps/{sweep_id}/result)"
                }
            if self.state is not None:
                # The scheduler closed the journal when it finished the
                # entry; dropping the state-dir pair makes the eviction
                # durable -- the sweep will not resurrect on restart.
                self.state.evict(sweep_id)
            return 200, doc
        if method not in ("GET", "POST", "DELETE"):
            return 405, {"error": f"method {method} not allowed"}
        return 404, {"error": f"unknown endpoint {path!r}"}

    def _http_submit(self, body: bytes) -> Tuple[int, Dict[str, Any]]:
        from repro.core.verifier import FuzzyFlowVerifier

        try:
            doc = json.loads(body.decode("utf-8"))
            task_dicts = doc["tasks"]
            if not isinstance(task_dicts, list):
                raise TypeError("'tasks' must be a list")
            tasks = [SweepTask.from_dict(d) for d in task_dicts]
            for task in tasks:
                # A keyword the verifier does not take is refused here, not
                # as one UNTESTED outcome per task later.
                FuzzyFlowVerifier(**task.verifier_kwargs)
        except Exception as exc:  # noqa: BLE001 - reported to the client
            return 400, {"error": f"bad submission: {type(exc).__name__}: {exc}"}
        sweep_id = self.submit(
            tasks,
            suite=doc.get("suite"),
            buggy=doc.get("buggy"),
            backend=doc.get("backend"),
            priority=float(doc.get("priority", 1.0)),
            max_task_retries=doc.get("max_task_retries"),
        )
        return 200, self.scheduler.sweep_status(sweep_id)

    # ------------------------------------------------------------------ #
    # Local in-process executors
    # ------------------------------------------------------------------ #
    def _local_loop(self, n: int) -> None:
        """One in-process execution client: lease, execute, record, repeat.

        Each task runs under a telemetry capture scope (ContextVar-backed,
        so concurrent executor threads never mix deltas) and piggybacks its
        metric delta on the result message, exactly like a remote worker.
        """
        from repro.pipeline.runner import execute_task_with_metrics

        conn_key = f"local-{n}"
        self.scheduler.worker_joined(conn_key, {
            "host": "in-process",
            "pid": os.getpid(),
            "backend": None,
            "procs": 1,
        })
        try:
            while not self._local_stop.is_set():
                reply = self.scheduler.lease(conn_key, 1)
                if reply["type"] == "done":
                    return
                if reply["type"] != "tasks":
                    self._local_stop.wait(0.05)
                    continue
                for entry in reply["tasks"]:
                    outcome, metrics = execute_task_with_metrics(
                        SweepTask.from_dict(entry["task"])
                    )
                    message = {
                        "type": "result",
                        "shard": reply["shard"],
                        "sweep": reply["sweep"],
                        "index": entry["index"],
                        "task_id": entry["task_id"],
                        "outcome": outcome,
                    }
                    if any(metrics.get(k) for k in
                           ("counters", "gauges", "histograms")):
                        message["metrics"] = metrics
                    self.scheduler.record_result(conn_key, message)
        finally:
            self.scheduler.release(conn_key)


# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster.service",
        description="Always-on verification service: accepts sweep "
        "submissions over HTTP, serves task shards to elastic socket "
        "workers, journals every outcome, and restores all in-flight "
        "sweeps from its state directory after a restart.",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:8765", metavar="HOST:PORT",
        help="worker-socket endpoint (default 127.0.0.1:8765; port 0 picks "
        "a free port)",
    )
    parser.add_argument(
        "--http", default="127.0.0.1:0", metavar="HOST:PORT",
        help="HTTP submit/status endpoint (default 127.0.0.1 on a free "
        "port, printed at startup); 'off' disables",
    )
    parser.add_argument(
        "--state-dir", default=".repro-service", metavar="DIR",
        help="service state directory: one journal + meta file per sweep; "
        "restarting on the same directory restores every sweep "
        "(default .repro-service)",
    )
    parser.add_argument(
        "--local-procs", type=int, default=0, metavar="N",
        help="also execute tasks in-process with N local executor threads "
        "(default 0: external workers only)",
    )
    parser.add_argument(
        "--auth-token", default=os.environ.get(TOKEN_ENV),
        help="shared secret required from non-loopback workers and HTTP "
        f"clients (default: ${TOKEN_ENV}; loopback peers are exempt)",
    )
    parser.add_argument(
        "--worker-timeout", type=float, default=0.0,
        help="seconds of worker silence before its connection is reaped "
        "and its shard requeued; 0 disables (default)",
    )
    parser.add_argument(
        "--max-task-retries", type=int, default=2,
        help="default re-lease budget per task after lost workers "
        "(default 2)",
    )
    parser.add_argument(
        "--target-lease-seconds", type=float, default=10.0,
        help="latency-adaptive shard sizing target: shards are sized so "
        "one shard takes roughly this long on the requesting worker "
        "(default 10)",
    )
    parser.add_argument(
        "--quarantine-workers", type=int, default=3,
        help="quarantine a task once it has failed on this many distinct "
        "workers, even with retry budget left (default 3; 0 disables)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="arm deterministic fault injection (exported to local "
        f"executors via ${faultinject.FAULTS_ENV}); chaos testing only",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help=f"fault-injection decision seed (default: ${faultinject.SEED_ENV} "
        "or 0)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.cluster.worker import parse_endpoint

    args = build_parser().parse_args(argv)
    try:
        host, port = parse_endpoint(args.listen)
        http_endpoint = None if args.http == "off" else parse_endpoint(args.http)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        faultinject.configure(args.faults, seed=args.fault_seed)
    except faultinject.FaultSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    service = VerificationService(
        host,
        port,
        http_host=http_endpoint[0] if http_endpoint else None,
        http_port=http_endpoint[1] if http_endpoint else None,
        state_dir=args.state_dir,
        auth_token=args.auth_token,
        worker_timeout=args.worker_timeout,
        local_procs=args.local_procs,
        max_task_retries=args.max_task_retries,
        target_lease_seconds=args.target_lease_seconds,
        quarantine_workers=args.quarantine_workers,
    )
    service.start()
    shost, sport = service.address
    print(f"[service] workers:  python -m repro.cluster.worker --connect {shost}:{sport}", flush=True)
    if service.http_address:
        hhost, hport = service.http_address
        print(f"[service] submit:   python -m repro.pipeline --submit {hhost}:{hport} ...", flush=True)
        print(f"[service] status:   curl http://{hhost}:{hport}/status", flush=True)
    print(f"[service] state dir {service.state.root}; Ctrl-C to stop "
          f"(sweeps resume on restart)", flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("[service] stopping (journals preserved)", flush=True)
        service.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
