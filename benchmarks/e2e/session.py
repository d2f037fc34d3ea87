"""One benchmark session: a fresh process that sets up, then sweeps.

Run by ``run.py`` as a subprocess.  Set-up is everything from the moment
the parent spawned this process to the start of the first pass: interpreter
start, importing the program, enumerating the task list and, on the service
workload, starting the service and connecting the worker.  Then one cold
pass and warm passes over the same list until the time budget is used (at
least ``--min-warm``).  The last line of standard output is one JSON
document with the raw measurements; ``run.py`` aggregates them.

With ``--traced 1`` the layers' public calls are wrapped (``interpose``)
before the first pass and every pass also carries its per-layer ledger.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = os.path.join(HERE, ".work")
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class SerialSweep:
    """Passes through ``SweepRunner(workers=1)`` in this process."""

    def start(self) -> None:
        from repro.pipeline import SweepRunner

        self.runner = SweepRunner(workers=1)

    def run_pass(self, tasks: List[Any], land: Callable[[], None]) -> List[Any]:
        result = self.runner.run(tasks, progress_callback=lambda *_: land())
        return result.outcomes

    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mib(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def stop(self) -> None:
        pass


class LoopbackService:
    """Passes over HTTP to an in-process service fed by one worker process.

    The worker is the stock ``python -m repro.cluster.worker``; a traced
    session starts it through ``worker_entry.py`` instead, which wraps the
    layers inside the worker and hands its ledger back on SIGUSR1.
    """

    def __init__(self, backend: str, traced: bool) -> None:
        self.backend = backend
        self.traced = traced
        self.land: Callable[[], None] = lambda: None
        self.worker: Optional[subprocess.Popen] = None

    def start(self) -> None:
        from repro.cluster.service import VerificationService

        os.makedirs(WORK_DIR, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="session-", dir=WORK_DIR)
        self.service = VerificationService(
            http_port=0, state_dir=os.path.join(self.dir, "state")
        )
        host, port = self.service.start()
        self.http = self.service.http_address
        # An HTTP client only polls, so verdict landings are stamped where
        # they reach the service: the counterpart of progress_callback.
        record = self.service.scheduler.record_result

        def stamped(conn_key: Any, message: Dict[str, Any]) -> None:
            record(conn_key, message)
            self.land()

        self.service.scheduler.record_result = stamped
        self.ledger_path = os.path.join(self.dir, "worker-ledger.json")
        entry = (
            [os.path.join(HERE, "worker_entry.py"), "--ledger", self.ledger_path]
            if self.traced
            else ["-m", "repro.cluster.worker"]
        )
        self.worker = subprocess.Popen(
            [sys.executable, *entry, "--connect", f"{host}:{port}", "--backend",
             self.backend, "--reconnect-seconds", "120", "--quiet"],
            stdout=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 60
        while self.service.scheduler.worker_count < 1:
            if self.worker.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("the worker did not connect to the loopback service")
            time.sleep(0.005)

    def run_pass(self, tasks: List[Any], land: Callable[[], None]) -> List[Any]:
        from repro.cluster.client import submit_sweep, wait_sweep

        self.land = land
        host, port = self.http
        doc = submit_sweep(host, port, tasks)
        result = wait_sweep(host, port, doc["sweep_id"], timeout=120, poll_seconds=0.02)
        return result.outcomes

    def worker_ledger(self) -> Dict[str, Any]:
        """Ask the traced worker for its cumulative ledger and wait for it."""
        if os.path.exists(self.ledger_path):
            os.remove(self.ledger_path)
        self.worker.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 30
        while not os.path.exists(self.ledger_path):
            if time.monotonic() > deadline:
                raise RuntimeError("the traced worker did not write its ledger")
            time.sleep(0.002)
        with open(self.ledger_path, encoding="utf-8") as handle:
            return json.load(handle)

    def _worker_stat(self) -> List[str]:
        with open(f"/proc/{self.worker.pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()

    def cpu_seconds(self) -> float:
        fields = self._worker_stat()  # utime, stime: fields 14, 15 of stat(5)
        return time.process_time() + (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.worker.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the worker process")

    def stop(self) -> None:
        if self.worker is not None:
            self.worker.terminate()
            try:
                self.worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.worker.kill()
                self.worker.wait()
        self.service.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


def measure_pass(driver: Any, tasks: List[Any]) -> Dict[str, Any]:
    stamps: List[float] = []
    cpu0 = driver.cpu_seconds()
    started_at = time.time()
    start = time.perf_counter()
    outcomes = driver.run_pass(tasks, lambda: stamps.append(time.perf_counter()))
    wall = time.perf_counter() - start
    cpu = driver.cpu_seconds() - cpu0
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "window": [started_at, started_at + wall],
        "task_ms": [(b - a) * 1000.0 for a, b in zip([start] + stamps, stamps)],
        # Kept small: whole outcome dicts held across passes would show up
        # in this process's peak RSS.
        "verdicts": [
            None if o is None else (o.get("verdict"), o.get("error")) for o in outcomes
        ],
    }


def check_verdicts(
    passes: List[Dict[str, Any]], keys: List[str], expected: Dict[str, str]
) -> Dict[str, Any]:
    """Tasks whose verdict differs from the reference, errored, or are missing."""
    attempted = failed = 0
    examples: List[str] = []
    for number, measured in enumerate(passes):
        verdicts = measured.pop("verdicts")
        verdicts += [None] * (len(keys) - len(verdicts))
        for key, got in zip(keys, verdicts):
            attempted += 1
            want = expected.get(key)
            if got is None or got[1] is not None or want is None or got[0] != want:
                failed += 1
                if len(examples) < 5:
                    examples.append(f"pass {number} {key}: got {got}, expected {want!r}")
    return {"attempted": attempted, "failed": failed, "examples": examples}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--fuzz-seed", type=int, default=0)
    parser.add_argument("--order-seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds from spawn after which no further pass starts")
    parser.add_argument("--min-warm", type=int, default=2)
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--kernels", default="",
                        help="comma-separated npbench kernels (the --check subset)")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before the spawn")
    args = parser.parse_args(argv)

    import sweeps

    workload = sweeps.WORKLOADS[args.workload]
    kernels = [k for k in args.kernels.split(",") if k]
    tasks = sweeps.build_tasks(workload, args.fuzz_seed, args.order_seed, kernels)
    backend = workload.verifier["backend"]
    service = workload.mode == "service"
    driver = LoopbackService(backend, bool(args.traced)) if service else SerialSweep()

    installation = ledger = None
    if args.traced:
        import interpose
        import layers

        ledger = interpose.Ledger()
        installation = interpose.install(ledger, layers.targets(), "repro")
        layers.wrap_backend(installation, backend)

    def ledgers() -> Dict[str, Any]:
        out = {"session": ledger.snapshot()}
        if service:
            out["worker"] = driver.worker_ledger()
        return out

    passes: List[Dict[str, Any]] = []
    try:
        driver.start()
        setup_s = time.time() - args.spawned_at
        before = ledgers() if args.traced else None
        while True:
            measured = measure_pass(driver, tasks)
            if args.traced:
                after = ledgers()
                measured["ledgers"] = {"before": before, "after": after}
                before = after  # nothing wrapped runs between two passes
            passes.append(measured)
            warm = len(passes) - 1
            elapsed = time.time() - args.spawned_at
            if warm >= args.min_warm and elapsed + measured["wall_s"] > args.budget:
                break
        peak_rss_mib = driver.peak_rss_mib()
    finally:
        driver.stop()
        if installation is not None:
            installation.restore()

    keys = [sweeps.key_of_task(t) for t in tasks]
    checked = check_verdicts(passes, keys, sweeps.load_expected(workload, args.fuzz_seed))
    document = {
        "workload": workload.name,
        "tasks": len(tasks),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
        "passes": passes,
        "missing": installation.missing if installation is not None else [],
        **checked,
    }
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
