"""Tests for the parallel sweep pipeline (repro.pipeline)."""

import json
import os
import subprocess
import sys

import pytest
from support import add_scale

import repro
from repro import faultinject
from repro.core import Verdict
from repro.pipeline import (
    SweepResult,
    SweepRunner,
    SweepTask,
    TransformationSpec,
    default_transformation_specs,
    enumerate_sweep_tasks,
    execute_task,
)
from repro.cluster.journal import ResultStore
from repro.cluster.worker import main as worker_main
from repro.pipeline.cli import main as pipeline_main
from repro.pipeline.runner import SupervisedExecutor, local_executor, run_shard
from repro.sdfg import SDFG, float64
from repro.sdfg.serialize import sdfg_to_json
from repro.transforms import all_builtin_transformations
from repro.workloads import (
    get_workload,
    get_workload_suite,
    list_workload_suites,
    register_workload_suite,
)

#: Small, fast kernel subset used throughout these tests.
KERNELS = ["jacobi_1d", "axpy_pipeline", "scaled_diff"]
VERIFIER_KWARGS = dict(num_trials=2, seed=0, size_max=8, minimize_inputs=False)


def _tasks(buggy=False, kernels=KERNELS, max_instances=1):
    return enumerate_sweep_tasks(
        suite="npbench",
        workloads=kernels,
        buggy=buggy,
        max_instances=max_instances,
        verifier_kwargs=VERIFIER_KWARGS,
    )


def scale_program():
    sdfg = SDFG("scale")
    sdfg.add_array("X", ["N"], float64)
    sdfg.add_array("Y", ["N"], float64)
    sdfg.add_scalar("factor", float64)
    state = sdfg.add_state("s")
    add_scale(sdfg, state, "X", "Y", "factor")
    return sdfg


class TestWorkloadRegistry:
    def test_npbench_registered(self):
        assert "npbench" in list_workload_suites()
        specs = get_workload_suite("npbench")
        assert len(specs) >= 10

    def test_lookup_by_name(self):
        spec = get_workload("npbench", "gemm")
        assert spec.name == "gemm"
        assert spec.build().name == "gemm"

    def test_unknown_suite_and_workload(self):
        with pytest.raises(KeyError):
            get_workload_suite("no_such_suite")
        with pytest.raises(KeyError):
            get_workload("npbench", "no_such_kernel")

    def test_register_custom_suite(self):
        from repro.workloads.npbench import KernelSpec

        register_workload_suite(
            "test_suite", lambda: [KernelSpec("scale", scale_program, {"N": 8}, "test")]
        )
        try:
            assert get_workload("test_suite", "scale").symbols == {"N": 8}
        finally:
            from repro.workloads import _SUITE_LOADERS

            _SUITE_LOADERS.pop("test_suite", None)


class TestTaskEnumeration:
    def test_enumeration_is_deterministic(self):
        t1 = _tasks(buggy=True)
        t2 = _tasks(buggy=True)
        assert [(t.workload, t.transformation.name, t.match_index) for t in t1] == [
            (t.workload, t.transformation.name, t.match_index) for t in t2
        ]
        assert [t.match_description for t in t1] == [t.match_description for t in t2]

    def test_default_specs_cover_registry(self):
        specs = default_transformation_specs(buggy=True)
        assert {s.name for s in specs} == set(all_builtin_transformations())
        assert all(s.kwargs == {"inject_bug": True} for s in specs)

    def test_max_instances_bounds_tasks(self):
        unbounded = _tasks(max_instances=None)
        bounded = _tasks(max_instances=1)
        per_pair = {}
        for t in bounded:
            per_pair.setdefault((t.workload, t.transformation.name), []).append(t)
        assert all(len(v) == 1 for v in per_pair.values())
        assert len(bounded) <= len(unbounded)

    def test_unknown_kernel_rejected(self):
        with pytest.raises(KeyError):
            _tasks(kernels=["no_such_kernel"])

    def test_unknown_transformation_rejected(self):
        with pytest.raises(KeyError):
            TransformationSpec("NoSuchTransformation").instantiate()

    @pytest.mark.parametrize("backend", ["interpreter", "compiled"])
    def test_task_ids_are_pinned(self, backend):
        """The ids of the CLI's default ``--buggy`` tasks are literals: a
        ``--journal`` written by an earlier build resumes with zero re-runs
        only while they stay put.  The backend is not part of the identity."""
        tasks = enumerate_sweep_tasks(
            suite="npbench",
            buggy=True,
            max_instances=4,
            verifier_kwargs=dict(
                num_trials=6, seed=0, size_max=10, minimize_inputs=False,
                backend=backend,
            ),
        )
        assert len(tasks) == 95
        assert {
            (t.workload, t.transformation.name, t.match_index): t.task_id
            for t in (tasks[0], tasks[1], tasks[2], tasks[40], tasks[-1])
        } == {
            ("gemm", "BufferTiling", 0): "3c5224202c9dcefc",
            ("gemm", "MapExpansion", 0): "64b831d63b072983",
            ("gemm", "MapExpansion", 1): "93df4ae4c37e9cfc",
            ("2mm", "Vectorization", 1): "814cddb175dde309",
            ("iterative_smoother", "Vectorization", 0): "e5e37cd558264aeb",
        }


class TestExecuteTask:
    def test_single_task_roundtrip(self):
        task = _tasks(buggy=False)[0]
        outcome = execute_task(task)
        assert outcome["workload"] == task.workload
        assert outcome["error"] is None
        assert outcome["verdict"] == Verdict.PASS.value
        assert outcome["report"]["fuzzing"]["trials_run"] >= 1
        json.dumps(outcome)  # JSON-safe end to end

    def test_out_of_range_instance_is_untested_and_surfaced(self):
        task = _tasks()[0]
        task.match_index = 999
        outcome = execute_task(task)
        assert outcome["verdict"] == Verdict.UNTESTED.value
        # An out-of-range instance is an infrastructure problem (e.g. a
        # worker-side rebuild with fewer matches), not a silent no-op: it
        # must show up in SweepResult.errors().
        assert outcome["error"] is not None and "out of range" in outcome["error"]
        result = SweepResult(suite="npbench", outcomes=[outcome])
        assert result.errors() == [outcome]

    def test_custom_sdfg_task(self):
        """A program outside any registered suite travels as serialized JSON."""
        sdfg = scale_program()
        task = SweepTask(
            suite="custom",
            workload="scale",
            transformation=TransformationSpec("Vectorization", {"vector_size": 4}),
            match_index=0,
            match_description="",
            symbols={"N": 8},
            verifier_kwargs=VERIFIER_KWARGS,
            sdfg_json=sdfg_to_json(sdfg),
        )
        outcome = execute_task(task)
        assert outcome["error"] is None
        assert outcome["verdict"] == Verdict.PASS.value

    def test_infrastructure_error_captured(self):
        task = _tasks()[0]
        task.suite = "no_such_suite"
        task.sdfg_json = None
        outcome = execute_task(task)
        assert outcome["error"] is not None
        assert outcome["verdict"] == Verdict.UNTESTED.value


class TestSweepRunner:
    def test_parallel_matches_serial_faithful(self):
        tasks = _tasks(buggy=False)
        serial = SweepRunner(workers=1).run(tasks, suite="npbench", buggy=False)
        parallel = SweepRunner(workers=2).run(tasks, suite="npbench", buggy=False)
        assert serial.verdict_table() == parallel.verdict_table()
        assert serial.totals()[1] == 0

    def test_parallel_matches_serial_buggy(self):
        """The acceptance check in miniature: the buggy sweep aggregates to
        the identical verdict table regardless of worker count."""
        tasks = _tasks(buggy=True)
        serial = SweepRunner(workers=1).run(tasks, suite="npbench", buggy=True)
        parallel = SweepRunner(workers=2).run(tasks, suite="npbench", buggy=True)
        assert serial.verdict_table() == parallel.verdict_table()
        assert [o["verdict"] for o in serial.outcomes] == [
            o["verdict"] for o in parallel.outcomes
        ]
        assert serial.totals()[1] >= 1  # the injected bugs are detected

    def test_result_labels_derived_from_tasks(self):
        """run() derives suite/buggy from the tasks, so the report header
        cannot claim a faithful sweep over injected-bug tasks."""
        tasks = _tasks(buggy=True, kernels=["jacobi_1d"])
        result = SweepRunner(workers=1).run(tasks)
        assert result.suite == "npbench"
        assert result.buggy is True
        faithful = SweepRunner(workers=1).run(_tasks(buggy=False, kernels=["jacobi_1d"]))
        assert faithful.buggy is False

    def test_outcome_order_follows_task_order(self):
        tasks = _tasks(buggy=True)
        result = SweepRunner(workers=2).run(tasks, suite="npbench", buggy=True)
        assert [(o["workload"], o["transformation"], o["match_index"]) for o in result.outcomes] == [
            (t.workload, t.transformation.name, t.match_index) for t in tasks
        ]


@pytest.fixture
def faults():
    """Arm a fault plan in this process (member processes fork it along);
    disarmed again after the test."""
    yield lambda spec: faultinject.configure(spec, export=False)
    faultinject.configure(None, export=False)


def _cheap_items(n):
    """Tasks that fail fast (unknown suite) after the ``task.execute``
    fault point: enough to drive the executor without verifying anything."""
    tasks = [
        SweepTask(
            suite="no_such_suite",
            workload=f"w{i}",
            transformation=TransformationSpec("MapTiling", {}),
            match_index=0,
            match_description=f"cheap #{i}",
            verifier_kwargs=dict(VERIFIER_KWARGS),
        )
        for i in range(n)
    ]
    return [(i, task.task_id, task) for i, task in enumerate(tasks)]


class TestSupervisedExecution:
    def test_hang_past_the_deadline_is_a_timeout_outcome(self, faults):
        faults("task.execute[w0]=hang:60")
        executor = SupervisedExecutor(1, 0.5)
        try:
            landed = {i: o for i, _, o, _ in executor.run_shard(_cheap_items(2))}
        finally:
            executor.close()
        assert landed[0]["failure"] == "timeout"
        assert landed[0]["verdict"] == Verdict.UNTESTED.value
        assert "0.5 s deadline" in landed[0]["error"]
        # The respawned member runs the rest of the shard.
        assert "failure" not in landed[1]

    def test_crash_without_a_deadline_is_a_crash_outcome(self, faults):
        faults("task.execute[w1]=crash")
        executor = SupervisedExecutor(2, 0.0)
        try:
            landed = {i: o for i, _, o, _ in executor.run_shard(_cheap_items(3))}
        finally:
            executor.close()
        assert landed[1]["failure"] == "crash"
        assert landed[1]["error"] == "worker process died while running this task"
        assert "failure" not in landed[0] and "failure" not in landed[2]

    def test_one_process_without_a_deadline_runs_inline(self, faults):
        faults("task.execute[w0]=exception")
        items = _cheap_items(2)
        assert local_executor(1, 0.0) is None
        landed = list(run_shard(items, None))
        assert [i for i, _, _, _ in landed] == [0, 1]
        # The plan armed here fires here: no member process in between.
        assert "FaultInjected" in landed[0][2]["error"]
        assert faultinject.hit_counts()


class TestSweepResult:
    def _result(self):
        return SweepRunner(workers=1).run(_tasks(buggy=True), suite="npbench", buggy=True)

    def test_json_roundtrip(self):
        result = self._result()
        restored = SweepResult.from_dict(json.loads(result.to_json()))
        assert restored.verdict_table() == result.verdict_table()
        assert restored.totals() == result.totals()
        assert restored.suite == "npbench" and restored.buggy

    def test_json_schema_fields(self):
        doc = json.loads(self._result().to_json())
        assert doc["schema_version"] == 6
        assert set(doc) >= {
            "suite", "buggy", "workers", "backend", "sweep_id", "telemetry",
            "duration_seconds", "verdict_table", "totals", "outcomes",
        }
        assert doc["backend"] == "interpreter"
        # The service submission id; None for sweeps run outside it.
        assert doc["sweep_id"] is None
        for entry in doc["verdict_table"].values():
            assert set(entry) == {"instances", "failing", "verdicts"}
        # Every outcome carries its deterministic task identity plus
        # shard metadata (None for local runs).
        for outcome in doc["outcomes"]:
            assert isinstance(outcome["task_id"], str) and outcome["task_id"]
            assert outcome["worker"] is None

    def test_document_of_another_schema_version_is_refused(self):
        """This build reads what it writes: a v5 document (no telemetry
        section) is an error naming both versions, not a guess at what the
        missing fields meant."""
        v5 = json.loads(self._result().to_json())
        v5["schema_version"] = 5
        v5.pop("telemetry")
        with pytest.raises(ValueError, match=r"schema_version 5.*version 6"):
            SweepResult.from_dict(v5)
        v5.pop("schema_version")
        with pytest.raises(ValueError, match=r"schema_version None.*version 6"):
            SweepResult.from_dict(v5)

    def test_comparable_dict_strips_the_service_submission_id(self):
        doc = json.loads(self._result().to_json())
        plain = SweepResult.from_dict(doc)
        labeled = SweepResult.from_dict(doc)
        labeled.sweep_id = "sweep-042"
        assert "sweep_id" not in labeled.comparable_dict()
        assert labeled.comparable_dict() == plain.comparable_dict()

    def test_journal_roundtrips_to_sweep_result(self, tmp_path):
        """The journaled path end to end: journal a sweep, reassemble a SweepResult
        from the journal alone, and compare its to_dict() (modulo timing)
        against the directly aggregated result."""
        from repro.cluster.journal import ResultStore

        tasks = _tasks(buggy=True)
        path = str(tmp_path / "sweep.jsonl")
        store = ResultStore.open(path, tasks, "npbench", True, "interpreter")
        direct = SweepRunner(workers=1).run(tasks, store=store)
        store.close()

        header, completed = ResultStore._load(path)
        assert header["schema_version"] == 6
        assert header["total_tasks"] == len(tasks)
        reassembled = SweepResult(
            suite=header["suite"],
            buggy=header["buggy"],
            backend=header["backend"],
            outcomes=[completed[t.task_id] for t in tasks],
        )
        assert reassembled.comparable_dict() == direct.comparable_dict()
        # And the reassembled document round-trips through from_dict.
        restored = SweepResult.from_dict(json.loads(reassembled.to_json()))
        assert restored.comparable_dict() == direct.comparable_dict()

    def test_crashed_outcomes_are_reported_but_not_journaled(
        self, tmp_path, faults
    ):
        """A task whose process died lands in the result (``errors()``, exit
        code 1) but not in the journal, so ``--resume`` runs it again."""
        tasks = _tasks(buggy=True, kernels=["jacobi_1d", "axpy_pipeline"])
        serial = SweepRunner(workers=1).run(tasks)
        path = str(tmp_path / "sweep.jsonl")
        store = ResultStore.open(path, tasks, "npbench", True, "interpreter")
        faults("task.execute[jacobi_1d]=crash")
        crashed = SweepRunner(workers=2).run(tasks, store=store)
        faults(None)
        store.close()

        poisoned = {t.task_id for t in tasks if t.workload == "jacobi_1d"}
        assert poisoned and len(poisoned) < len(tasks)
        for outcome in crashed.outcomes:
            if outcome["task_id"] in poisoned:
                assert outcome["failure"] == "crash"
        assert len(crashed.errors()) == len(poisoned)
        _, journaled = ResultStore._load(path)
        assert set(journaled) == {t.task_id for t in tasks} - poisoned

        resumed = SweepRunner(workers=1).run(tasks, completed=journaled)
        assert resumed.comparable_dict() == serial.comparable_dict()

    def test_cross_pair_backend_label_roundtrips(self):
        result = SweepRunner(workers=1).run(
            [], suite="npbench", buggy=False, backend="cross:compiled,interpreter"
        )
        doc = json.loads(result.to_json())
        assert doc["backend"] == "cross:compiled,interpreter"
        assert SweepResult.from_dict(doc).backend == "cross:compiled,interpreter"

    def test_markdown_and_text_renderers(self):
        result = self._result()
        md = result.to_markdown()
        assert "| Transformation |" in md and "**TOTAL**" in md
        text = result.render_text()
        assert text.startswith("Transformation")
        assert "TOTAL" in text


class TestCLI:
    def test_cli_smoke(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        md_path = tmp_path / "sweep.md"
        rc = pipeline_main([
            "--suite", "npbench", "--kernels", "jacobi_1d", "--trials", "1",
            "--max-instances", "1", "--workers", "1",
            "--json", str(json_path), "--markdown", str(md_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TOTAL" in out
        assert json.loads(json_path.read_text())["suite"] == "npbench"
        assert "| Transformation |" in md_path.read_text()

    def test_cli_parallel_buggy(self, capsys):
        rc = pipeline_main([
            "--suite", "npbench", "--kernels", "jacobi_1d,axpy_pipeline",
            "--buggy", "--trials", "2", "--max-instances", "1", "--workers", "2",
        ])
        assert rc == 0
        assert "buggy sweep" in capsys.readouterr().out

    def test_cli_parallel_sweep_survives_a_crashed_process(
        self, capsys, tmp_path
    ):
        """A process that dies under ``--workers 2`` costs its task, not the
        sweep: the task is UNTESTED, every other verdict is the serial one,
        and the exit code reports the error."""
        sweep = [
            "--suite", "npbench", "--buggy", "--trials", "2",
            "--max-instances", "1", "--kernels", "gemm,atax",
            "--backend", "compiled", "--quiet",
        ]
        serial_json = tmp_path / "serial.json"
        assert pipeline_main(sweep + ["--json", str(serial_json)]) == 0
        capsys.readouterr()

        crashed_json = tmp_path / "crashed.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.pipeline", *sweep,
             "--workers", "2", "--json", str(crashed_json),
             "--faults", "task.execute[gemm]=crash"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr

        serial = json.loads(serial_json.read_text())["outcomes"]
        crashed = json.loads(crashed_json.read_text())["outcomes"]
        assert len(crashed) == len(serial)
        assert any(o["workload"] == "gemm" for o in serial)
        for ref, got in zip(serial, crashed):
            if got["workload"] == "gemm":
                assert got["verdict"] == Verdict.UNTESTED.value
                assert got["failure"] == "crash"
            else:
                assert got["verdict"] == ref["verdict"]

    def test_importing_the_cli_loads_no_cluster_module(self):
        """Only ``--serve`` and ``--submit`` import the cluster (and with it
        asyncio and ssl); a local sweep pays for none of it at start-up."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys, repro.pipeline.cli\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'asyncio' or m.startswith('repro.cluster')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_auth_token_help_names_the_cluster_variable(self):
        from repro.cluster.protocol import TOKEN_ENV
        from repro.pipeline.cli import build_parser

        assert f"${TOKEN_ENV}" in build_parser().format_help()

    def test_cli_resume_requires_journal(self, capsys):
        with pytest.raises(SystemExit):
            pipeline_main(["--resume"])
        assert "--journal" in capsys.readouterr().err

    def test_cli_refuses_a_former_tier_name_as_backend(self, capsys):
        with pytest.raises(SystemExit):
            pipeline_main(["--backend", "batched"])
        err = capsys.readouterr().err
        assert "Unknown execution backend 'batched'" in err
        assert "compiled, cross, interpreter" in err

    @pytest.mark.parametrize("backend", ["native", "cross:native,interpreter"])
    def test_both_clis_refuse_the_deleted_kernel_tier(self, capsys, backend):
        with pytest.raises(SystemExit):
            pipeline_main(["--backend", backend])
        err = capsys.readouterr().err
        assert "Unknown execution backend 'native'" in err
        assert "(available: compiled, cross, interpreter" in err
        # The worker validates before it connects to anything.
        assert worker_main(["--connect", "127.0.0.1:1", "--backend", backend]) == 2
        err = capsys.readouterr().err
        assert "Unknown execution backend 'native'" in err
        assert "(available: compiled, cross, interpreter" in err

    def test_neither_cli_takes_a_cache_dir(self, capsys):
        for main in (pipeline_main, lambda argv: worker_main(["--connect", "127.0.0.1:1", *argv])):
            with pytest.raises(SystemExit):
                main(["--cache-dir", "somewhere"])
            assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err

    def test_neither_cli_takes_a_trial_batch(self, capsys):
        for main in (pipeline_main, lambda argv: worker_main(["--connect", "127.0.0.1:1", *argv])):
            with pytest.raises(SystemExit):
                main(["--trial-batch", "4"])
            assert "unrecognized arguments: --trial-batch" in capsys.readouterr().err

    def test_cli_serve_submit_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            pipeline_main(["--serve", ":0", "--submit", "localhost:1"])
        assert "mutually exclusive" in capsys.readouterr().err

    def test_cli_has_no_worker_mode(self, capsys):
        """``python -m repro.cluster.worker`` is the one worker entrance."""
        with pytest.raises(SystemExit):
            pipeline_main(["--connect", "localhost:1"])
        assert "unrecognized arguments: --connect" in capsys.readouterr().err


class TestProgressPrinter:
    """The --progress line: rate + ETA from the streaming reassembly clock."""

    def _printer(self, times):
        import io

        from repro.pipeline.cli import ProgressPrinter

        ticks = iter(times)
        stream = io.StringIO()
        return ProgressPrinter(stream=stream, clock=lambda: next(ticks)), stream

    def _outcome(self, **over):
        base = {
            "workload": "gemm", "transformation": "MapTiling", "match_index": 0,
            "verdict": "pass", "error": None,
        }
        base.update(over)
        return base

    def test_rate_and_eta_printed(self):
        # Armed at t=0; outcomes land at t=1 and t=2 -> 1 task/s, 2 left.
        printer, stream = self._printer([0.0, 1.0, 2.0])
        printer(0, self._outcome(), 1, 4)
        printer(1, self._outcome(match_index=1), 2, 4)
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[1/4] gemm / MapTiling #0: pass")
        assert "1.00 task/s" in lines[0] and "ETA 3s" in lines[0]
        assert "1.00 task/s" in lines[1] and "ETA 2s" in lines[1]

    def test_error_still_shown(self):
        printer, stream = self._printer([0.0, 1.0])
        printer(0, self._outcome(verdict="untested", error="boom"), 1, 2)
        assert "(error: boom)" in stream.getvalue()

    def test_restored_tasks_excluded_from_rate(self):
        """On resume, `completed` includes instantly-restored outcomes; the
        rate must reflect only freshly executed tasks."""
        printer, stream = self._printer([0.0, 2.0])
        # First fresh outcome of a resumed sweep: 90 already restored.
        printer(90, self._outcome(), 91, 100)
        line = stream.getvalue()
        assert line.startswith("[91/100]")
        assert "0.50 task/s" in line  # 1 fresh task / 2 s, not 91 / 2 s
        assert "ETA 18s" in line  # 9 remaining at 0.5/s

    def test_denominator_stable_across_requeue(self):
        """A requeued task (worker died) must not inflate the total or
        double-count: the coordinator reports each task once, so the
        printed counts reach exactly [total/total]."""
        printer, stream = self._printer([0.0, 1.0, 2.0, 3.0])
        for completed in (1, 2, 3):
            printer(completed - 1, self._outcome(), completed, 3)
        lines = stream.getvalue().splitlines()
        assert [l.split()[0] for l in lines] == ["[1/3]", "[2/3]", "[3/3]"]

    def test_arm_on_first_outcome_ignores_idle_prelude(self):
        """In --serve mode the clock must not start until the first task
        lands (workers may connect minutes after the coordinator binds)."""
        import io

        from repro.pipeline.cli import ProgressPrinter

        ticks = iter([100.0, 101.0])  # constructed at t=0 is never observed
        stream = io.StringIO()
        printer = ProgressPrinter(
            stream=stream, clock=lambda: next(ticks), arm_on_first_outcome=True
        )
        printer(0, self._outcome(), 1, 3)  # arms the clock; no rate yet
        printer(1, self._outcome(match_index=1), 2, 3)
        lines = stream.getvalue().splitlines()
        assert "task/s" not in lines[0]  # anchoring outcome: unobserved latency
        # One observed task in one second since arming -- not diluted by the
        # 100 s of pre-worker idle time.
        assert "1.00 task/s" in lines[1] and "ETA 1s" in lines[1]

    def test_format_eta(self):
        from repro.pipeline.cli import format_eta

        assert format_eta(42.4) == "42s"
        assert format_eta(187) == "3m07s"
        assert format_eta(7512) == "2h05m"
        assert format_eta(float("inf")) == "--"
        assert format_eta(float("nan")) == "--"
