"""Loopback distributed-sweep smoke checks (``make smoke-dist``).

**Default scenario** -- runs the npbench mini sweep twice: once through
the serial in-process runner, once through a loopback one-shot service
feeding two worker *subprocesses* -- and diffs the two reports field by field
(:meth:`SweepResult.comparable_dict`, i.e. modulo timing and per-outcome
worker metadata).  The two workers deliberately run *different* execution
backends (interpreter and compiled), so the diff simultaneously checks:

* the wire protocol and shard accounting deliver every task exactly once,
* ordered reassembly matches the serial runner bit for bit,
* backend bitwise-equivalence holds across process boundaries.

The distributed run also journals to a temp file, and the journal is
re-loaded and reassembled as a second independent cross-check of the
store-backed path.

**Service scenario** (``--two-sweeps``) -- exercises the always-on
verification service end to end: two *concurrent* sweeps over disjoint
kernel subsets are submitted over HTTP to one service with a state
directory, a shared pool of two reconnecting worker subprocesses pulls
shards from both, and mid-run the service is hard-stopped and a fresh
instance started on the same state directory and port.  Checks: both
sweeps finish bitwise identical to their serial references, their journals
are isolated (each holds exactly its own sweep's task ids, one outcome
line per task -- i.e. the restart re-ran nothing already journaled), and
the elastic workers survived the bounce.

Exit status 0 on a clean run; any mismatch prints the first differing
outcome and exits 1.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import re
import shutil
import socket as socket_module
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional

import repro

from repro.cluster.client import submit_sweep, sweep_status, wait_sweep
from repro.cluster.journal import ResultStore
from repro.cluster.service import VerificationService
from repro.pipeline.result import SweepResult
from repro.pipeline.runner import SweepRunner
from repro.pipeline.tasks import enumerate_sweep_tasks
from repro.telemetry import monotonic as _monotonic

__all__ = ["main"]

#: Backends the two loopback workers run (heterogeneous on purpose).
WORKER_BACKENDS = ("interpreter", "compiled")


def _first_difference(a: Dict[str, Any], b: Dict[str, Any], path: str = "") -> Optional[str]:
    """Human-readable location of the first difference between two docs."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                return f"{path}.{key}: only in {'serial' if key in a else 'distributed'}"
            found = _first_difference(a[key], b[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} vs {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            found = _first_difference(x, y, f"{path}[{i}]")
            if found:
                return found
        return None
    if a != b and not (a != a and b != b):  # NaN == NaN for this purpose
        return f"{path}: {a!r} vs {b!r}"
    return None


def _worker_env() -> Dict[str, str]:
    """Environment for worker subprocesses: make ``repro`` importable for
    fresh interpreters no matter where the smoke check was launched from."""
    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    return env


def _free_port() -> int:
    """A currently-free loopback port the service can bind (twice: the
    restarted instance must come back on the same address the workers
    reconnect to)."""
    probe = socket_module.socket()
    try:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]
    finally:
        probe.close()


def _enumerate(kernels: Optional[List[str]], args: argparse.Namespace):
    return enumerate_sweep_tasks(
        suite="npbench",
        workloads=kernels,
        buggy=args.buggy,
        max_instances=args.max_instances,
        verifier_kwargs=dict(
            num_trials=args.trials,
            seed=0,
            size_max=10,
            minimize_inputs=False,
            backend="interpreter",
        ),
    )


#: One non-comment Prometheus text-exposition sample line:
#: ``name{label="value",...} number`` (the label block optional).
_EXPOSITION_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9a-zA-Z+.eE-]+$"
)


def _scrape_metrics(host: str, port: int) -> str:
    """``GET /metrics`` (plain text, not JSON -- the service's one
    non-JSON endpoint, so the JSON client wrapper does not apply)."""
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request("GET", "/metrics")
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    if response.status != 200:
        raise RuntimeError(f"GET /metrics failed: HTTP {response.status}")
    return raw.decode("utf-8")


def _two_sweep_service_scenario(args: argparse.Namespace) -> int:
    """Two concurrent HTTP-submitted sweeps, one shared elastic worker
    pool, and a kill/restore of the service in the middle."""
    subsets = (["gemm", "atax"], ["mvt", "bicg"])
    task_sets = [_enumerate(subset, args) for subset in subsets]
    print(
        f"[smoke-svc] sweeps of {[len(t) for t in task_sets]} task(s) "
        f"({' | '.join(','.join(s) for s in subsets)}); serial references ...",
        flush=True,
    )
    serials = [SweepRunner(workers=1).run(tasks) for tasks in task_sets]

    state_dir = tempfile.mkdtemp(prefix="smoke_svc_state_")
    port = _free_port()
    workers: List[subprocess.Popen] = []
    service = VerificationService(
        "127.0.0.1", port, http_port=0, state_dir=state_dir,
    )
    try:
        service.start()
        http_host, http_port = service.http_address
        sweep_ids = [
            submit_sweep(http_host, http_port, tasks)["sweep_id"]
            for tasks in task_sets
        ]
        print(
            f"[smoke-svc] service on 127.0.0.1:{port} "
            f"(http {http_host}:{http_port}, state {state_dir}); "
            f"submitted {sweep_ids}; spawning 2 reconnecting workers ...",
            flush=True,
        )
        env = _worker_env()
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cluster.worker",
                    "--connect", f"127.0.0.1:{port}",
                    "--backend", backend,
                    "--reconnect-seconds", "120",
                    "--quiet",
                ],
                env=env,
            )
            for backend in WORKER_BACKENDS
        ]

        # Let both sweeps make real progress, then bounce the service.
        deadline = _monotonic() + 300.0
        while True:
            done = [
                sweep_status(http_host, http_port, sid)["done"]
                for sid in sweep_ids
            ]
            if all(d >= 1 for d in done):
                break
            if _monotonic() > deadline:
                print(
                    f"[smoke-svc] FAIL: no progress on both sweeps "
                    f"(done counts {done})",
                    file=sys.stderr,
                )
                return 1
            time.sleep(0.2)
        # Fleet-wide observability: the workers piggyback metric deltas on
        # their result frames, so with >= 1 result landed per sweep the
        # first instance's /metrics must already expose aggregated
        # counters for both sweeps.  (Scraped before the bounce: the
        # restarted instance starts with fresh registries and may receive
        # no fresh results at all if the sweeps finished early.)
        exposition = _scrape_metrics(http_host, http_port)
        print(
            f"[smoke-svc] progress {done}; hard-stopping the service "
            f"mid-run ...",
            flush=True,
        )
        service.stop()

        # Fresh instance, same state dir and socket address: every sweep is
        # restored from its journal, the workers reconnect on their own.
        # done_when_idle lets the workers drain once everything completes.
        service = VerificationService(
            "127.0.0.1", port, http_port=0, state_dir=state_dir,
            done_when_idle=True,
        )
        service.start()
        http_host, http_port = service.http_address
        restored = service.scheduler.sweep_ids()
        if sorted(restored) != sorted(sweep_ids):
            print(
                f"[smoke-svc] FAIL: restart restored {restored}, "
                f"expected {sweep_ids}",
                file=sys.stderr,
            )
            return 1
        print(
            f"[smoke-svc] restarted on the same address; restored "
            f"{restored}; waiting for completion ...",
            flush=True,
        )
        results = [
            wait_sweep(http_host, http_port, sid, timeout=300.0, poll_seconds=0.2)
            for sid in sweep_ids
        ]
    finally:
        for proc in workers:
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
        for proc in workers:
            proc.wait(timeout=30.0)
        service.stop()

    failures = [p.returncode for p in workers if p.returncode != 0]
    if failures:
        print(
            f"[smoke-svc] FAIL: worker exit codes {failures} (a reconnecting "
            f"worker must survive the service bounce)",
            file=sys.stderr,
        )
        return 1

    for sid, serial, result, tasks in zip(sweep_ids, serials, results, task_sets):
        diff = _first_difference(serial.comparable_dict(), result.comparable_dict())
        if diff:
            print(
                f"[smoke-svc] FAIL: sweep {sid} differs from its serial "
                f"reference at {diff}",
                file=sys.stderr,
            )
            return 1
        # Journal isolation + no re-runs across the restart: exactly one
        # outcome line per task, all belonging to this sweep.
        journal = os.path.join(state_dir, f"{sid}.jsonl")
        with open(journal, "r", encoding="utf-8") as f:
            records = [json.loads(line) for line in f if line.strip()]
        outcome_ids = [r["task_id"] for r in records if r.get("kind") == "outcome"]
        expected = {t.task_id for t in tasks}
        if set(outcome_ids) != expected or len(outcome_ids) != len(tasks):
            print(
                f"[smoke-svc] FAIL: journal {journal} holds "
                f"{len(outcome_ids)} outcome(s) over "
                f"{len(set(outcome_ids))} task id(s); expected exactly "
                f"{len(tasks)} of this sweep's tasks (isolation or re-run "
                f"violation)",
                file=sys.stderr,
            )
            return 1

    bad = [
        line
        for line in exposition.splitlines()
        if line and not line.startswith("#")
        and not _EXPOSITION_LINE.match(line)
    ]
    if bad:
        print(
            f"[smoke-svc] FAIL: /metrics line(s) violate the Prometheus "
            f"text exposition format: {bad[:3]!r}",
            file=sys.stderr,
        )
        return 1
    # repro_trials_total is counted inside the workers' fuzz loops and
    # reaches the service only on result frames.
    wanted = ["repro_trials_total"] + [
        f'repro_sweep_tasks_total{{sweep="{sid}"}}' for sid in sweep_ids
    ]
    for needle in wanted:
        if needle not in exposition:
            print(
                f"[smoke-svc] FAIL: /metrics is missing {needle} "
                f"(worker metric piggyback broken?)",
                file=sys.stderr,
            )
            return 1

    shutil.rmtree(state_dir, ignore_errors=True)  # keep state only on failure
    total = sum(len(t) for t in task_sets)
    print(
        f"[smoke-svc] OK: {total} task(s) across 2 concurrent sweeps "
        f"identical to serial references, journals isolated, service "
        f"kill/restore re-ran nothing, both workers survived the bounce, "
        f"/metrics exposed fleet-wide counters"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/smoke_dist.py",
        description="Loopback one-shot service + 2 heterogeneous workers vs. "
        "the serial runner on the npbench mini sweep.",
    )
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--max-instances", type=int, default=1)
    parser.add_argument(
        "--kernels", default=None,
        help="comma-separated kernel subset (default: full npbench suite)",
    )
    parser.add_argument(
        "--buggy", action="store_true",
        help="sweep the injected-bug transformation variants",
    )
    parser.add_argument(
        "--two-sweeps", action="store_true",
        help="run the always-on service scenario instead: two concurrent "
        "HTTP-submitted sweeps on one service, kill/restore mid-run, "
        "elastic reconnecting workers",
    )
    args = parser.parse_args(argv)

    if args.two_sweeps:
        return _two_sweep_service_scenario(args)

    kernels = None
    if args.kernels:
        kernels = [k.strip() for k in args.kernels.split(",") if k.strip()]
    tasks = _enumerate(kernels, args)
    print(f"[smoke-dist] {len(tasks)} task(s); serial reference run ...", flush=True)
    serial = SweepRunner(workers=1).run(tasks)

    with tempfile.NamedTemporaryFile(
        mode="w", suffix=".jsonl", prefix="smoke_dist_journal_", delete=False
    ) as tmp:
        journal_path = tmp.name
    store = ResultStore.open(
        journal_path, tasks, serial.suite, serial.buggy, serial.backend
    )
    # done_when_idle: workers are told ``done`` once the sweep completes.
    service = VerificationService("127.0.0.1", 0, done_when_idle=True)
    sweep_id = service.submit(tasks, store=store)
    host, port = service.start()
    print(
        f"[smoke-dist] service on {host}:{port}; spawning workers "
        f"{' + '.join(WORKER_BACKENDS)} ...",
        flush=True,
    )
    env = _worker_env()
    workers = [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro.cluster.worker",
                "--connect", f"{host}:{port}",
                "--backend", backend,
                "--quiet",
            ],
            env=env,
        )
        for backend in WORKER_BACKENDS
    ]
    try:
        distributed = service.wait_sweep(sweep_id, timeout=600.0)
    finally:
        # The service stays up until both workers have exited: a worker
        # still starting up while its peer finished a small sweep would
        # otherwise find the port closed, retry for
        # --connect-retry-seconds and exit 1.  Workers exit on their own
        # once a request is answered with "done"; give them that
        # round-trip before resorting to SIGTERM.
        for proc in workers:
            try:
                proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                proc.terminate()
        for proc in workers:
            proc.wait(timeout=30.0)
        service.stop()
        store.close()

    failures = [p.returncode for p in workers if p.returncode != 0]
    if failures:
        print(f"[smoke-dist] FAIL: worker exit codes {failures}", file=sys.stderr)
        return 1

    diff = _first_difference(serial.comparable_dict(), distributed.comparable_dict())
    if diff:
        print(f"[smoke-dist] FAIL: serial vs distributed differ at {diff}", file=sys.stderr)
        return 1

    # Independent check of the journaled path: reload the journal and
    # reassemble a result from it alone.
    reloaded_header, completed = ResultStore._load(journal_path)
    journaled = SweepResult(
        suite=reloaded_header["suite"],
        buggy=reloaded_header["buggy"],
        backend=reloaded_header["backend"],
        outcomes=[completed[t.task_id] for t in tasks],
    )
    diff = _first_difference(serial.comparable_dict(), journaled.comparable_dict())
    if diff:
        print(f"[smoke-dist] FAIL: serial vs journal differ at {diff}", file=sys.stderr)
        return 1

    os.unlink(journal_path)  # keep the journal around only on failure
    table = distributed.render_text()
    print(table)
    print(
        f"[smoke-dist] OK: {len(tasks)} task(s) identical across serial, "
        f"distributed ({' + '.join(WORKER_BACKENDS)}) and journal reassembly"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
