"""The worker of a traced ``service_loopback`` session.

Wraps the layers inside the worker process, then runs the stock worker loop
(``repro.cluster.worker.main``) unchanged.  On top of the shared layer
table it times the worker's end of the wire (``send_message`` /
``recv_message``, counting frames and bytes through a socket proxy) and the
stretches the worker spends without a lease: from a ``wait`` reply to the
next ``tasks`` reply.

The session asks for the ledger with SIGUSR1.  The handler only raises a
flag; the cumulative ledger is written at the next reply the worker
receives (an idle worker polls every 50 ms), from ordinary code, so the
dump never interrupts a half-updated ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import threading
import time
from typing import Any, List, Optional

import interpose
import layers


class _CountingSocket:
    """Forwards the two calls the framing layer makes, counting bytes."""

    def __init__(self, sock: Any) -> None:
        self._sock = sock
        self.nbytes = 0

    def sendall(self, data: bytes) -> None:
        self.nbytes += len(data)
        self._sock.sendall(data)

    def recv(self, size: int) -> bytes:
        chunk = self._sock.recv(size)
        self.nbytes += len(chunk)
        return chunk


def _count_bytes(args: tuple, kwargs: dict):
    return (_CountingSocket(args[0]),) + args[1:], kwargs


def _after_send(ledger: interpose.Ledger, args, kwargs, result) -> None:
    ledger.count("cluster.protocol.bytes", args[0].nbytes)


class _WorkerTrace:
    def __init__(self, ledger: interpose.Ledger, path: str) -> None:
        self.ledger = ledger
        self.path = path
        self.missing: List[Any] = []
        self.dump_requested = threading.Event()
        #: [start, end] of every stretch without a lease, on the wall clock
        #: (``time.time()``) so the session can clip them to a pass.
        self.idle: List[List[float]] = []
        self.idle_since: Optional[float] = None

    def after_recv(self, ledger: interpose.Ledger, args, kwargs, reply) -> None:
        ledger.count("cluster.protocol.bytes", args[0].nbytes)
        kind = reply.get("type") if reply else None
        now = time.time()
        if kind == "wait" and self.idle_since is None:
            self.idle_since = now
        elif kind == "tasks" and self.idle_since is not None:
            self.idle.append([self.idle_since, now])
            self.idle_since = None
        if self.dump_requested.is_set():
            self.dump_requested.clear()
            open_stretch = [] if self.idle_since is None else [[self.idle_since, now]]
            document = dict(ledger.snapshot(), missing=self.missing,
                            idle=self.idle + open_stretch)
            tmp = self.path + ".tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(document, handle)
            os.replace(tmp, self.path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ledger", required=True, help="where to write the ledger")
    parser.add_argument("--backend", required=True)
    args, worker_argv = parser.parse_known_args(argv)

    # Imported before the wrappers go in: install() patches the copies of
    # send_message / recv_message the worker module bound at import.
    from repro.cluster import worker

    ledger = interpose.Ledger()
    trace = _WorkerTrace(ledger, args.ledger)
    installation = interpose.install(
        ledger,
        layers.targets() + [
            interpose.Target("cluster.protocol", "repro.cluster.protocol:send_message",
                             _after_send, _count_bytes),
            interpose.Target("cluster.protocol", "repro.cluster.protocol:recv_message",
                             trace.after_recv, _count_bytes),
        ],
        "repro",
    )
    layers.wrap_backend(installation, args.backend)
    trace.missing = installation.missing
    signal.signal(signal.SIGUSR1, lambda *_: trace.dump_requested.set())
    return worker.main(worker_argv + ["--backend", args.backend])


if __name__ == "__main__":
    raise SystemExit(main())
