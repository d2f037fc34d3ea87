"""Parallel sweep pipeline for transformation x workload verification.

This subsystem scales the paper's headline evaluation (Sec. 6.3 / Table 2):
sweeping every built-in transformation over the NPBench-style kernel suite
and counting, per transformation, how many instances differential fuzzing
flags as semantics-changing.  Where the original experiment is a serial
loop, the pipeline

1. **enumerates** (workload x transformation x match instance) tasks as
   plain picklable descriptions (:mod:`repro.pipeline.tasks`) -- instance
   enumeration is separable from execution via
   :meth:`repro.core.verifier.FuzzyFlowVerifier.enumerate_instances`,
2. **fans them out** to a shared-nothing worker pool
   (:mod:`repro.pipeline.runner`) -- each worker rebuilds its workload from
   the suite registry (:func:`repro.workloads.get_workload`) or from JSON
   shipped via :func:`repro.sdfg.serialize.sdfg_to_json`, and
3. **aggregates** the per-task ``TransformationTestReport`` dicts into a
   :class:`repro.pipeline.result.SweepResult` with JSON and Markdown
   renderers, whose verdict table is the reproduction of Table 2.

Serial (``workers=1``) and parallel runs execute the identical task
function in the identical order, so their verdict tables match exactly.

Every task has a deterministic identity (:attr:`SweepTask.task_id`), and
any run can journal its outcomes to -- and resume from -- an append-only
result store; :mod:`repro.cluster` builds the distributed service and
its workers on exactly these seams.

CLI::

    python -m repro.pipeline --suite npbench --buggy --workers 4 --trials 6
    python -m repro.pipeline --serve :8765 --journal sweep.jsonl [--resume]
    python -m repro.cluster.worker --connect HOST:8765 --procs 8
"""

from repro.pipeline.result import SweepResult
from repro.pipeline.runner import SweepRunner, execute_task
from repro.pipeline.tasks import (
    SweepTask,
    TransformationSpec,
    default_transformation_specs,
    enumerate_sweep_tasks,
)

__all__ = [
    "SweepResult",
    "SweepRunner",
    "SweepTask",
    "TransformationSpec",
    "default_transformation_specs",
    "enumerate_sweep_tasks",
    "execute_task",
]
