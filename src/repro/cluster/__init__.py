"""Distributed sweep verification: scheduler, transports, journal, workers.

``repro.cluster`` turns the sweep pipeline (:mod:`repro.pipeline`) into a
distributed, fault-tolerant, resumable *service*.  The pieces compose in
layers:

1. **Protocol** (:mod:`repro.cluster.protocol`) -- length-prefixed JSON
   messages over TCP; strictly worker-initiated request/response.
2. **Journal** (:mod:`repro.cluster.journal`) -- an append-only JSONL
   result store keyed by deterministic task IDs
   (:attr:`repro.pipeline.tasks.SweepTask.task_id`), crash-safe by
   construction; any sweep (distributed or single-machine) journals its
   outcomes and can be killed and resumed, re-running only incomplete
   tasks.
3. **Scheduler core** (:mod:`repro.cluster.scheduler`, per-sweep state in
   :mod:`repro.cluster.sweep`) -- the transport-free service brain: a
   registry of concurrently active sweeps, each with its own queue,
   journal, retry budget and lifecycle state
   (``submitted -> running -> draining -> complete``), dispatched to
   workers by weighted fair share with tail-leveled shard sizing.
4. **Transport** (:mod:`repro.cluster.service`) -- the asyncio
   :class:`VerificationService`: the worker socket loop, an HTTP
   submit/status API and shared-secret auth for non-loopback peers.
   State-dir persistence (:mod:`repro.cluster.state`) makes the whole
   service kill-and-restartable with every in-flight sweep restored.
5. **Execution clients** -- elastic socket workers
   (:mod:`repro.cluster.worker`) that join/leave mid-service and survive
   service bounces (``--reconnect-seconds``), and the thin HTTP client
   (:mod:`repro.cluster.client`) behind ``repro.pipeline --submit``.

Entry points::

    python -m repro.cluster.service --listen :8765 --http :8766 \\
        --state-dir svc                  # the always-on service
    python -m repro.pipeline --submit HOST:8766 ...   # thin submit client
    python -m repro.pipeline --serve :8765 --journal sweep.jsonl [--resume]
                                         # one sweep, served until complete
    python -m repro.cluster.worker --connect HOST:8765 --backend B --procs N

The loopback and fault-injection scenarios that diff all of this against
the serial runner are scripts outside the package: ``tools/smoke_dist.py``
(``make smoke-dist``) and ``tools/smoke_chaos.py`` (``make smoke-chaos``).

The invariant everything here defends: a distributed, killed-and-resumed,
heterogeneous-backend sweep -- even one of several running concurrently on
a shared worker pool -- aggregates to a :class:`SweepResult` whose
:meth:`~repro.pipeline.result.SweepResult.comparable_dict` is identical to
a plain serial run's.
"""

from repro.cluster.journal import JournalError, ResultStore, sweep_identity
from repro.cluster.protocol import (
    ProtocolError,
    TOKEN_ENV,
    recv_message,
    send_message,
)
from repro.cluster.scheduler import SweepScheduler
from repro.cluster.service import VerificationService
from repro.cluster.state import ServiceState, restore_sweeps

__all__ = [
    "SweepScheduler",
    "VerificationService",
    "ServiceState",
    "restore_sweeps",
    "ResultStore",
    "JournalError",
    "sweep_identity",
    "ProtocolError",
    "TOKEN_ENV",
    "send_message",
    "recv_message",
    "run_worker",
    "parse_endpoint",
]


def __getattr__(name):
    # The worker module is imported lazily so `python -m repro.cluster.worker`
    # does not see itself pre-imported by this package (runpy would warn).
    if name in ("run_worker", "parse_endpoint"):
        from repro.cluster import worker

        return getattr(worker, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
