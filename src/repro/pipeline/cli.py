"""Command-line interface of the sweep pipeline.

Run with::

    python -m repro.pipeline --suite npbench [--buggy] --workers 4 --trials 6

The defaults mirror the historical serial sweep script
(``examples/npbench_sweep.py``): 6 trials per instance, at most 4 instances
per (kernel, transformation) pair, seed 0, size_max 10, no input
minimization.  ``--json`` / ``--markdown`` persist the aggregated
:class:`repro.pipeline.result.SweepResult` for downstream tooling.

Distributed / resumable operation (see :mod:`repro.cluster`):

* ``--serve HOST:PORT`` serves the enumerated tasks to remote workers
  (``python -m repro.cluster.worker --connect HOST:PORT``) instead of
  running them locally, requeueing the in-flight shard of any worker that
  disconnects; ``--http HOST:PORT`` exposes a live status endpoint;
* ``--submit HOST:PORT`` is the *thin client* of an always-on verification
  service (``python -m repro.cluster.service``): the enumerated tasks are
  POSTed to the service's HTTP endpoint, progress is polled, and the
  completed result is fetched and rendered exactly like a local run
  (``--detach`` returns immediately after printing the sweep id);
* ``--journal PATH`` appends every completed outcome to a crash-safe JSONL
  journal, and ``--resume`` reloads it so a killed sweep (local or served)
  re-runs only its incomplete tasks.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional, TextIO

from repro import faultinject
from repro.backends import BACKEND_NAMES, DEFAULT_BACKEND, get_backend
from repro.faultinject import FAULTS_ENV as _FAULTS_ENV
from repro.faultinject import SEED_ENV as _FAULT_SEED_ENV
from repro.pipeline.runner import SweepRunner
from repro.pipeline.tasks import enumerate_sweep_tasks
from repro.telemetry import TRACE_ENV, configure_tracing
from repro.telemetry import perf_counter as _perf_counter
from repro.workloads import list_workload_suites

__all__ = ["main", "build_parser", "ProgressPrinter", "format_eta"]


def _backend_name(value: str) -> str:
    """Validate a backend name (including ``cross:REF,CAND`` pairs) without
    giving up argparse's error reporting."""
    try:
        get_backend(value)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(str(exc.args[0]))
    return value


def _auth_token(args: argparse.Namespace) -> Optional[str]:
    """``--auth-token``, else the cluster token variable: read only by the
    modes that talk to a cluster, so a local sweep never imports it."""
    from repro.cluster.protocol import TOKEN_ENV

    if args.auth_token is not None:
        return args.auth_token
    return os.environ.get(TOKEN_ENV)


def format_eta(seconds: float) -> str:
    """Render a remaining-time estimate compactly (``42s``, ``3m07s``,
    ``2h05m``); unknown/unbounded estimates render as ``--``."""
    if seconds != seconds or seconds == float("inf"):
        return "--"
    seconds = max(0, int(round(seconds)))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


class ProgressPrinter:
    """``--progress`` callback: per-verdict lines with throughput and ETA.

    The rate comes from the *streaming reassembly clock*: tasks this
    process actually saw land, divided by the time since the printer was
    armed.  Two properties keep the line truthful under failure:

    * the displayed ``completed`` / ``total`` counts come from the runner
      or scheduler, which count each task exactly once -- a requeued task
      (worker died mid-sweep) neither inflates the denominator nor double-
      counts on redelivery, so ``[k/total]`` never drifts;
    * restored (journal-resumed) outcomes are excluded from the rate, so a
      resume's ETA reflects the speed of the tasks actually being re-run,
      not the instantly-restored prefix.

    With ``arm_on_first_outcome=True`` the clock starts at the first landed
    task instead of at construction: a served sweep may wait arbitrarily
    long for its first worker to connect, and that idle prelude must not
    dilute the rate for the rest of the sweep.  (The anchoring outcome is
    then excluded from the rate -- its latency was not observed.)
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        clock=_perf_counter,
        arm_on_first_outcome: bool = False,
    ) -> None:
        self._stream = stream if stream is not None else sys.stdout
        self._clock = clock
        self._start: Optional[float] = None if arm_on_first_outcome else clock()
        self._anchored = 0
        self._fresh = 0

    def __call__(
        self, index: int, outcome: Dict[str, Any], completed: int, total: int
    ) -> None:
        now = self._clock()
        if self._start is None:
            self._start = now
            self._anchored = 1
        self._fresh += 1
        elapsed = now - self._start
        observed = self._fresh - self._anchored
        rate = observed / elapsed if elapsed > 0 and observed > 0 else float("inf")
        remaining = max(total - completed, 0)
        eta = remaining / rate if rate > 0 else float("inf")
        line = (
            f"[{completed}/{total}] {outcome['workload']} / "
            f"{outcome['transformation']} #{outcome['match_index']}: "
            f"{outcome['verdict']}"
            + (f" (error: {outcome['error']})" if outcome.get("error") else "")
            + (
                f" | {rate:.2f} task/s, ETA {format_eta(eta)}"
                if rate != float("inf")
                else ""
            )
        )
        print(line, file=self._stream, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline",
        description="Parallel transformation x workload verification sweep (Sec. 6.3 / Table 2).",
    )
    parser.add_argument(
        "--suite", default="npbench", choices=list_workload_suites(),
        help="workload suite to sweep (default: npbench)",
    )
    parser.add_argument(
        "--buggy", action="store_true",
        help="sweep the injected-bug transformation variants (Table 2 reproduction)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial, default)",
    )
    parser.add_argument("--trials", type=int, default=6, help="fuzzing trials per instance")
    parser.add_argument(
        "--max-instances", type=int, default=4,
        help="maximum instances per (kernel, transformation) pair",
    )
    parser.add_argument(
        "--kernels", default=None,
        help="comma-separated subset of suite kernels to sweep (default: all)",
    )
    parser.add_argument(
        "--backend", default=None, type=_backend_name,
        metavar="BACKEND",
        help="execution backend: one of "
        f"{', '.join(BACKEND_NAMES)}, or 'cross:REF,CAND' to cross-check "
        "any pair of two different backends (e.g. "
        "'cross:compiled,interpreter'); any divergence fails the sweep as "
        f"an infrastructure error (default: {DEFAULT_BACKEND})",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print each task's verdict as it completes, with tasks/s and ETA",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="arm deterministic fault injection, e.g. "
        "'task.execute=crash:0.1;journal.record=garble:0.2@3+' (sets "
        f"{_FAULTS_ENV} so pool and cluster worker processes inherit the "
        "plan); chaos testing only -- leave unset for real sweeps",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="seed for fault-injection decisions (default: "
        f"${_FAULT_SEED_ENV} or 0); same seed + spec => same faults",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append Chrome-compatible trace events (JSONL, one complete "
        f"event per line) to PATH; sets {TRACE_ENV} so pool and cluster "
        "worker processes trace into the same file (inspect with "
        "python -m repro.telemetry --summary PATH)",
    )
    parser.add_argument("--seed", type=int, default=0, help="fuzzing seed")
    parser.add_argument("--size-max", type=int, default=10, help="maximum sampled size-symbol value")
    parser.add_argument("--json", default=None, metavar="PATH", help="write the JSON report here")
    parser.add_argument(
        "--markdown", default=None, metavar="PATH", help="write the Markdown report here"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress the stdout table")
    cluster = parser.add_argument_group("distributed / resumable operation")
    cluster.add_argument(
        "--serve", default=None, metavar="HOST:PORT",
        help="serve tasks to remote workers (python -m repro.cluster.worker) "
        "instead of executing locally; PORT 0 picks a free port",
    )
    cluster.add_argument(
        "--submit", default=None, metavar="HOST:PORT",
        help="submit the enumerated tasks to an always-on verification "
        "service's HTTP endpoint (python -m repro.cluster.service --http), "
        "poll progress, and fetch the completed result",
    )
    cluster.add_argument(
        "--detach", action="store_true",
        help="with --submit: return immediately after printing the sweep "
        "id instead of waiting for completion",
    )
    cluster.add_argument(
        "--priority", type=float, default=1.0,
        help="with --submit: fair-share weight of this sweep relative to "
        "others active on the service (default 1.0; a priority-3 sweep "
        "receives ~3x the worker time of a priority-1 sweep)",
    )
    cluster.add_argument(
        "--http", default=None, metavar="HOST:PORT",
        help="with --serve: expose the service's HTTP status endpoint "
        "(GET /status, GET /sweeps/<id>) on this address",
    )
    cluster.add_argument(
        "--auth-token", default=None,
        help="shared cluster secret: with --serve, require it from "
        "non-loopback workers/clients; with --submit, present it to the "
        "service (default: $REPRO_CLUSTER_TOKEN)",
    )
    cluster.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append every completed outcome to this crash-safe JSONL journal",
    )
    cluster.add_argument(
        "--resume", action="store_true",
        help="reload --journal and re-run only tasks without a journaled "
        "outcome (safe to pass unconditionally: a missing journal starts fresh)",
    )
    cluster.add_argument(
        "--max-task-retries", type=int, default=2,
        help="re-leases allowed per task after a lost worker before the "
        "task is recorded as an infrastructure error (with --serve; default 2)",
    )
    cluster.add_argument(
        "--worker-timeout", type=float, default=0.0,
        help="with --serve: seconds of worker silence (no request, result "
        "or heartbeat ping) before the worker is declared hung and its "
        "in-flight tasks are requeued; 0 disables (default; only enable "
        "when every worker sends heartbeats)",
    )
    return parser


def _render_result(result: Any, args: argparse.Namespace) -> int:
    """Print/persist a completed sweep's report; returns the exit code.

    Shared by every mode that ends up owning a full result -- local run,
    ``--serve``, and a non-detached ``--submit``.
    """
    if args.progress:
        # The final --progress line: where lowering gave up, fleet-wide,
        # sourced from the sweep's aggregated telemetry section.
        reasons = getattr(result, "fallback_reasons", lambda: [])()
        if reasons:
            summary = ", ".join(f"{reason}={count}" for reason, count in reasons)
            print(f"[pipeline] top fallback reasons: {summary}", flush=True)
    if not args.quiet:
        print(result.render_text())
        print(f"\nduration: {result.duration_seconds:.2f} s")
        for err in result.errors():
            print(
                f"error: {err['workload']} / {err['transformation']} "
                f"#{err['match_index']}: {err['error']}",
                file=sys.stderr,
            )
        if args.buggy:
            print("(buggy sweep: every failing row corresponds to a Table 2 entry)")
        else:
            print("(faithful sweep: all instances are expected to pass)")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            f.write(result.to_json())
        if not args.quiet:
            print(f"JSON report written to {args.json}")
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as f:
            f.write(result.to_markdown())
        if not args.quiet:
            print(f"Markdown report written to {args.markdown}")
    return 1 if result.errors() else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.serve and args.submit:
        parser.error("--serve and --submit are mutually exclusive")
    if args.resume and not args.journal:
        parser.error("--resume requires --journal PATH")
    if args.submit and args.journal:
        parser.error(
            "--journal applies to the invocation executing the sweep; a "
            "--submit client delegates execution (and journaling, via its "
            "state directory) to the service"
        )

    if args.trace:
        # Environment-propagated: every process in the sweep
        # (pool workers, cluster workers spawned from here) appends to the
        # same JSONL file under an exclusive lock.
        configure_tracing(args.trace)
    if args.faults or args.fault_seed is not None:
        # Exported to the environment so pool members replay the same
        # seeded plan (per-process hit counters reset at fork).
        try:
            faultinject.configure(args.faults, seed=args.fault_seed)
        except faultinject.FaultSpecError as exc:
            parser.error(str(exc))

    backend = args.backend or DEFAULT_BACKEND
    workloads = None
    if args.kernels:
        workloads = [k.strip() for k in args.kernels.split(",") if k.strip()]

    try:
        tasks = enumerate_sweep_tasks(
            suite=args.suite,
            workloads=workloads,
            buggy=args.buggy,
            max_instances=args.max_instances,
            verifier_kwargs=dict(
                num_trials=args.trials,
                seed=args.seed,
                size_max=args.size_max,
                minimize_inputs=False,
                backend=backend,
            ),
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    # ------------------------------------------------------------------ #
    # Thin-client mode: hand the tasks to an always-on service over HTTP.
    # ------------------------------------------------------------------ #
    if args.submit:
        from repro.cluster.client import (
            ServiceClientError,
            submit_sweep,
            wait_sweep,
        )
        from repro.cluster.worker import parse_endpoint

        try:
            host, port = parse_endpoint(args.submit)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            status = submit_sweep(
                host, port, tasks,
                suite=args.suite,
                buggy=args.buggy,
                backend=backend,
                priority=args.priority,
                max_task_retries=args.max_task_retries,
                token=_auth_token(args),
            )
            sweep_id = status["sweep_id"]
            if not args.quiet:
                print(
                    f"[pipeline] submitted {status['total']} task(s) as "
                    f"sweep {sweep_id} to {host}:{port} "
                    f"(priority {args.priority:g}); "
                    f"status: curl http://{host}:{port}/sweeps/{sweep_id}",
                    flush=True,
                )
            if args.detach:
                return 0

            def on_progress(doc: Dict[str, Any]) -> None:
                if args.progress:
                    eta = doc.get("eta_seconds")
                    print(
                        f"[{doc['done']}/{doc['total']}] sweep {sweep_id} "
                        f"{doc['state']}"
                        + (f", ETA {format_eta(eta)}" if eta else ""),
                        flush=True,
                    )

            result = wait_sweep(
                host, port, sweep_id,
                token=_auth_token(args),
                poll_seconds=0.25,
                on_progress=on_progress,
            )
        except (ServiceClientError, TimeoutError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return _render_result(result, args)

    store = None
    if args.journal:
        from repro.cluster.journal import JournalError, ResultStore

        try:
            store = ResultStore.open(
                args.journal, tasks, args.suite, args.buggy, backend,
                resume=args.resume,
            )
        except JournalError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not args.quiet and store.completed:
            print(
                f"[pipeline] resuming from {args.journal}: "
                f"{len(store.completed)}/{len(tasks)} task(s) journaled, "
                f"{len(tasks) - len(store.completed)} to run"
            )

    progress = None
    if args.progress:
        # A served sweep idles until its first worker connects; arm the
        # rate clock at the first landed outcome so that wait does not
        # dilute tasks/s and ETA for the whole run.
        progress = ProgressPrinter(arm_on_first_outcome=bool(args.serve))

    try:
        if args.serve:
            from repro.cluster.service import VerificationService
            from repro.cluster.worker import parse_endpoint

            try:
                host, port = parse_endpoint(args.serve)
                http_endpoint = parse_endpoint(args.http) if args.http else None
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            # done_when_idle: once the sweep completes workers are told
            # ``done`` and drain, instead of parking for a next sweep.
            service = VerificationService(
                host,
                port,
                http_host=http_endpoint[0] if http_endpoint else None,
                http_port=http_endpoint[1] if http_endpoint else None,
                auth_token=_auth_token(args),
                worker_timeout=args.worker_timeout,
                done_when_idle=True,
                max_task_retries=args.max_task_retries,
            )
            sweep_id = service.submit(
                tasks,
                suite=args.suite,
                buggy=args.buggy,
                backend=backend,
                store=store,
                progress_callback=progress,
            )
            bound_host, bound_port = service.start()
            try:
                if not args.quiet:
                    status = ""
                    if service.http_address:
                        hh, hp = service.http_address
                        status = f", status on http://{hh}:{hp}/status"
                    restored = len(store.completed) if store is not None else 0
                    print(
                        f"[pipeline] serving {len(tasks) - restored}/{len(tasks)} "
                        f"task(s) on {bound_host}:{bound_port} "
                        f"(suite '{args.suite}', "
                        f"{'buggy' if args.buggy else 'faithful'}, "
                        f"backend '{backend}'{status}); waiting for workers: "
                        f"python -m repro.cluster.worker "
                        f"--connect {bound_host}:{bound_port}",
                        flush=True,
                    )
                result = service.wait_sweep(sweep_id)
            finally:
                service.stop()
            result.workers = max(1, service.scheduler.worker_count)
            result.sweep_id = None  # a one-shot sweep has no service identity
        else:
            workers = max(1, args.workers)
            if not args.quiet:
                print(
                    f"[pipeline] {len(tasks)} task(s) over suite '{args.suite}' "
                    f"({'buggy' if args.buggy else 'faithful'}), {workers} worker(s), "
                    f"backend '{backend}'"
                )
            runner = SweepRunner(workers=workers)
            result = runner.run(
                tasks,
                suite=args.suite,
                buggy=args.buggy,
                backend=backend,
                progress_callback=progress,
                store=store,
                completed=store.completed if store is not None else None,
            )
    finally:
        if store is not None:
            store.close()

    return _render_result(result, args)


if __name__ == "__main__":
    raise SystemExit(main())
