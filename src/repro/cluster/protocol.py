"""Length-prefixed JSON message framing for the sweep cluster.

Every message on a service/worker connection is one UTF-8 JSON object
preceded by a 4-byte big-endian length.  JSON keeps the protocol
debuggable (``nc`` + a hex dump suffices) and reuses the sweep's existing
JSON-safe outcome dicts verbatim; the length prefix makes message
boundaries explicit so a reader never has to guess where one document ends.

The conversation is strictly request/response, always initiated by the
worker:

========================  ===========================================
worker sends              service replies
========================  ===========================================
``hello`` {worker: {...}, ``welcome`` {total, sweeps, suite, buggy,
  token?}                 backend} | ``error`` {error} on auth refusal
``request`` {max_tasks}   ``tasks`` {shard, sweep, latency_ewma,
                          tasks: [{index, task_id, task}]}
                          | ``wait`` {} (nothing leasable right now)
                          | ``done`` {} (one-shot mode, all sweeps done)
``result`` {index, shard, ``ack`` {}
  sweep?, task_id,
  outcome, metrics?}
``ping`` {metrics?}       ``pong`` {} (heartbeat; proves a busy worker is
                          alive so a ``worker_timeout`` service does not
                          requeue its in-flight shard; ``metrics`` carries
                          optional worker gauges, e.g. tasks in flight and
                          oldest-task age, for hung-task visibility)
========================  ===========================================

Multi-tenancy rides on two optional fields: leases carry the ``sweep``
submission id and workers echo it back in results.  Pre-service workers
that echo only ``task_id`` still route correctly -- the service resolves
results through the connection's lease table first -- so old workers
connect to the always-on service unchanged.

``result`` frames may additionally carry an optional ``metrics`` field:
the task's telemetry delta snapshot (``{counters, gauges, histograms}``,
see :class:`repro.telemetry.MetricsRegistry`), which the service merges
into its fleet-wide and per-sweep registries for ``GET /metrics``.
Metrics never touch the ``outcome`` dict itself, so journals and verdicts
stay bitwise identical whether or not a worker reports them; a receiver
that does not understand the field ignores it.

A clean EOF between messages returns ``None`` from :func:`recv_message`
(the peer hung up); an EOF *inside* a frame raises :class:`ProtocolError`
(the peer died mid-send, and the partial frame must not be interpreted).
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Dict, Optional

from repro import faultinject

__all__ = [
    "ProtocolError",
    "send_message",
    "recv_message",
    "MAX_MESSAGE_BYTES",
    "TOKEN_ENV",
]

#: Frames above this size indicate a bug (or a stream desync), not a
#: legitimate message: even a full npbench sweep outcome is a few KiB.
MAX_MESSAGE_BYTES = 256 * 1024 * 1024

#: Environment variable carrying the shared cluster secret.  A service
#: started with an auth token requires it from *non-loopback* peers: in the
#: ``hello`` message (``token`` field) on socket connections and in the
#: ``X-Repro-Token`` header over HTTP.  Loopback peers stay tokenless.
TOKEN_ENV = "REPRO_CLUSTER_TOKEN"

_LENGTH = struct.Struct(">I")


class ProtocolError(Exception):
    """A malformed, truncated or oversized protocol frame."""


def send_message(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Serialize ``message`` and send it as one length-prefixed frame."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"Refusing to send a {len(payload)}-byte frame "
            f"(limit {MAX_MESSAGE_BYTES})"
        )
    try:
        faultinject.hit("protocol.send", key=message.get("type"))
    except faultinject.FaultInjected as exc:
        raise ProtocolError(str(exc)) from exc
    # A garbled payload keeps its length (framing stays synchronized) but
    # can no longer decode as JSON: the receiver sees ProtocolError, drops
    # the connection, and the requeue/retry machinery takes over.
    payload = faultinject.garble_bytes("protocol.send", payload,
                                       key=message.get("type"))
    sock.sendall(_LENGTH.pack(len(payload)) + payload)


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on EOF before the first byte."""
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if remaining == n:
                return None
            raise ProtocolError(
                f"Connection closed mid-frame ({n - remaining}/{n} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Receive one frame; ``None`` on clean EOF at a message boundary."""
    header = _recv_exact(sock, _LENGTH.size)
    if header is None:
        return None
    (length,) = _LENGTH.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"Incoming frame claims {length} bytes (limit {MAX_MESSAGE_BYTES}); "
            f"stream is desynchronized or the peer is not speaking this protocol"
        )
    payload = _recv_exact(sock, length)
    if payload is None:  # EOF exactly between header and payload
        raise ProtocolError("Connection closed between frame header and payload")
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"Undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"Frame is not a typed message object: {message!r}")
    return message
