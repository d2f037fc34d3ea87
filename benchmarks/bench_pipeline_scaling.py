"""Serial-vs-parallel scaling of the sweep pipeline (Sec. 6.3 at scale).

Runs the injected-bug NPBench sweep once through the serial runner and once
through 4 worker processes, checks that both aggregate to the identical
verdict table (the pipeline's shared-nothing workers must not change any
result), and records the speedup.  The >= 2x speedup assertion only fires
on machines with at least 4 CPUs -- on smaller containers the parallel run
cannot physically beat the serial one, so only the equivalence is enforced
and the measured speedup is reported.

Set ``REPRO_PAPER_SCALE=1`` for the full suite at higher trial counts.
"""

import os

from conftest import paper_scale

from repro.pipeline import SweepRunner, enumerate_sweep_tasks

PARALLEL_WORKERS = 4


def _tasks():
    if paper_scale():
        kernels, trials, max_instances = None, 8, 4
    else:
        kernels = ["gemm", "atax", "jacobi_2d", "heat_3d", "softmax_rows", "sum_of_squares"]
        trials, max_instances = 6, 3
    return enumerate_sweep_tasks(
        suite="npbench",
        workloads=kernels,
        buggy=True,
        max_instances=max_instances,
        verifier_kwargs=dict(num_trials=trials, seed=0, size_max=10, minimize_inputs=False),
    )


def test_pipeline_scaling(benchmark, report_lines):
    tasks = _tasks()

    serial = SweepRunner(workers=1).run(tasks, suite="npbench", buggy=True)
    parallel = benchmark.pedantic(
        lambda: SweepRunner(workers=PARALLEL_WORKERS).run(tasks, suite="npbench", buggy=True),
        rounds=1, iterations=1,
    )

    assert parallel.verdict_table() == serial.verdict_table(), (
        "parallel sweep changed the verdict table"
    )

    speedup = serial.duration_seconds / max(parallel.duration_seconds, 1e-9)
    total_i, total_f = serial.totals()
    report_lines.append(f"{'tasks':<22}{len(tasks):>10}")
    report_lines.append(f"{'instances/failing':<22}{total_i:>6}/{total_f}")
    report_lines.append(f"{'serial [s]':<22}{serial.duration_seconds:>10.2f}")
    report_lines.append(
        f"{'parallel x' + str(PARALLEL_WORKERS) + ' [s]':<22}{parallel.duration_seconds:>10.2f}"
    )
    report_lines.append(f"{'speedup':<22}{speedup:>10.2f}x  (cpus={os.cpu_count()})")

    if (os.cpu_count() or 1) >= PARALLEL_WORKERS:
        assert speedup >= 2.0, f"expected >= 2x speedup at {PARALLEL_WORKERS} workers, got {speedup:.2f}x"
