"""The benchmark's four workloads: task lists and reference verdicts.

A workload is a list of sweep tasks (the program sees nothing else) plus
the way a pass over it is driven: in-process through ``SweepRunner`` or
over HTTP through a loopback verification service.  Session and minimum
pass counts are constants of the benchmark, the same on every commit.

Two seeds shape the inputs.  ``fuzz_seed`` is the verifier's fuzzing seed
(``verifier_kwargs["seed"]``); references are committed for seeds 0 and 1,
and 1 is the held-out seed.  ``order_seed`` (the command's ``--seed``)
permutes the task list.  The cost of a sweep depends on the fuzzing seed
by up to 25 % (sampled sizes, trials until the first failure), far above
any regression bound, so the per-run seed varies the order and leaves the
work equal.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_DIR = os.path.join(HERE, "expected")

#: Seeds whose reference verdicts are committed.
FUZZ_SEEDS = (0, 1)
#: The Table-2 invariant of the full npbench ``--buggy`` sweep.
TABLE2 = (95, 59)
#: ``--check`` restricts the npbench workloads to these kernels.
CHECK_KERNELS = ("gemm", "jacobi_2d")


class Sweep(NamedTuple):
    """One ``enumerate_sweep_tasks`` call of a workload."""

    suite: str
    buggy: bool


class Workload(NamedTuple):
    name: str
    why: str
    sweeps: Tuple[Sweep, ...]
    max_instances: int
    verifier: Dict[str, Any]
    #: Fresh-process sessions per run; each is 1 cold + >= ``min_warm`` passes.
    sessions: int
    min_warm: int
    #: ``"serial"`` (SweepRunner, workers=1) or ``"service"`` (HTTP loopback).
    mode: str = "serial"
    #: Workload whose reference file holds this workload's verdicts.
    expected: Optional[str] = None


_SHALLOW = dict(num_trials=6, size_max=10, minimize_inputs=False, backend="compiled")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "npbench_buggy_shallow",
            "Table-2 sweep, 95 tasks, few trials and early stop: harness layers "
            "(clone, workload build, cutout) dominate, trials are about 7 %",
            (Sweep("npbench", True),), 4, _SHALLOW, sessions=6, min_warm=2,
        ),
        Workload(
            "npbench_clean_deep",
            "45 clean tasks, all 50 default trials run with min-cut on: the fuzz "
            "loop (backend run, sampling, compare) dominates, prepare is near 0",
            (Sweep("npbench", False),), 1,
            dict(num_trials=50, size_max=32, minimize_inputs=True, backend="compiled"),
            sessions=5, min_warm=2,
        ),
        Workload(
            "apps_oracle_mincut",
            "bert and cloudsc, clean and buggy, on the interpreter oracle: large "
            "multi-state programs, state cutouts and the min-cut path npbench skips",
            tuple(Sweep(s, b) for s in ("bert", "cloudsc") for b in (False, True)), 4,
            dict(num_trials=6, size_max=10, minimize_inputs=True, backend="interpreter"),
            sessions=5, min_warm=2,
        ),
        Workload(
            "service_loopback",
            "the shallow task list over HTTP to an in-process service and one stock "
            "worker: same verification work, so the difference is the cluster layers",
            (Sweep("npbench", True),), 4, _SHALLOW, sessions=5, min_warm=2,
            mode="service", expected="npbench_buggy_shallow",
        ),
    )
}


def build_tasks(
    workload: Workload,
    fuzz_seed: int,
    order_seed: Optional[int] = None,
    kernels: Optional[Sequence[str]] = None,
    backend: Optional[str] = None,
) -> List[Any]:
    """The workload's task list (imports the program, so call it late)."""
    from repro.pipeline import enumerate_sweep_tasks

    kwargs = dict(workload.verifier, seed=fuzz_seed)
    if backend is not None:
        kwargs["backend"] = backend
    tasks: List[Any] = []
    for sweep in workload.sweeps:
        tasks += enumerate_sweep_tasks(
            suite=sweep.suite,
            workloads=list(kernels) if kernels and sweep.suite == "npbench" else None,
            buggy=sweep.buggy,
            max_instances=workload.max_instances,
            verifier_kwargs=kwargs,
        )
    if order_seed is not None:
        random.Random(order_seed).shuffle(tasks)
    return tasks


def task_key(suite: str, workload: str, transformation: str, buggy: bool, index: int) -> str:
    """Reference key of a task; clean and buggy lists share the other fields."""
    return f"{suite}/{workload}/{transformation}{'+bug' if buggy else ''}#{index}"


def key_of_task(task: Any) -> str:
    return task_key(
        task.suite, task.workload, task.transformation.name,
        bool(task.transformation.kwargs.get("inject_bug")), task.match_index,
    )


def expected_path(workload: Workload, fuzz_seed: int) -> str:
    return os.path.join(EXPECTED_DIR, f"{workload.expected or workload.name}.seed{fuzz_seed}.json")


def load_expected(workload: Workload, fuzz_seed: int) -> Dict[str, str]:
    """Committed reference verdicts, keyed by :func:`task_key`."""
    with open(expected_path(workload, fuzz_seed), encoding="utf-8") as handle:
        return json.load(handle)["verdicts"]
