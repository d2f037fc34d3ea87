"""Execution-backend throughput: interpreter vs. compiled.

Measures elements/second (map iterations executed per second) and
trials/second (full program executions per second) for the oracle and the
optimising backend on five kernels -- a large affine matmul (``gemm``), a 2-D stencil
(``jacobi_2d``), an element-wise producer/consumer pipeline
(``axpy_pipeline``), a sequential **loop nest** (``loop_smoother``, a
time-stepped smoothing sweep whose state machine takes ``2T + 3`` interstate
transitions) and a **fusion-stressing multi-scope pipeline**
(``fused_pipeline``: a loop whose body chains eight elementwise map scopes
through seven transient intermediates) -- and, once every floor below
holds, writes the series to ``BENCH_backends.json`` (a failing run leaves
the file alone).

Beyond raw kernel throughput the file also records:

* an **end-to-end fuzz-trial series**: wall-clock time per
  ``DifferentialFuzzer`` trial (sample + two program executions + system
  state comparison) per backend -- the unit the Table 2 sweep actually
  pays per task;
* a **scope-fusion series**: the compiled backend with fusion enabled vs.
  disabled on ``fused_pipeline``;
* a **telemetry-overhead series**: fused_pipeline trial time untraced vs.
  traced, plus the disabled null-span fast-path cost -- asserting the
  disabled overhead stays under 2% and enabled tracing under 10%;
* a **fault-injection-overhead series**: per-call cost of a disarmed
  ``repro.faultinject.hit()`` pass-through and of an armed plan whose
  clauses match *other* fault points, extrapolated to a generous
  fault-point density per trial -- asserting the disabled layer stays
  under 2% of fused_pipeline trial time.

The backends must agree bitwise on every measured run (the measurement
doubles as an equivalence check), and three speedup floors are asserted:

* the compiled backend's array kernels must beat the interpreter by at
  least 5x on the large affine matmul (the PR 2 margin),
* the compiled whole-program backend must beat the interpreter by at least
  5x on the loop nest -- the workload class where per-transition interpreter
  re-entry used to swallow the vectorized speedup,
* scope fusion must beat the unfused compiled backend by at least 2x on
  the multi-scope pipeline (the PR 5 margin).

Set ``REPRO_BENCH_QUICK=1`` (the ``make bench-quick`` target) for tiny sizes,
``REPRO_PAPER_SCALE=1`` for larger ones.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

import numpy as np

from conftest import paper_scale

from repro.backends import get_backend
from repro.backends.compiled import CompiledExecutor
from repro.core.fuzzing import DifferentialFuzzer
from repro.core.sampling import InputSampler
from repro.sdfg import SDFG, Memlet, float64
from repro.workloads import get_workload

OUTPUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "BENCH_backends.json")

BACKENDS = ("interpreter", "compiled")

#: Required interpreter-to-compiled speedup on the large affine matmul.
REQUIRED_MATMUL_SPEEDUP = 5.0
#: Required interpreter-to-compiled speedup on the sequential loop nest.
REQUIRED_LOOP_NEST_SPEEDUP = 5.0
#: Required fused-vs-unfused compiled speedup on the multi-scope pipeline.
REQUIRED_FUSION_SPEEDUP = 2.0
#: Ceiling on the *disabled* telemetry fast path (null-span cost x spans
#: per trial) as a fraction of fused_pipeline trial time.
MAX_DISABLED_TELEMETRY_OVERHEAD = 0.02
#: Ceiling on the *enabled* tracing slowdown (traced vs. untraced trial
#: wall clock) on the same path.
MAX_ENABLED_TELEMETRY_OVERHEAD = 0.10
#: Ceiling on the disabled fault-injection layer (pass-through ``hit()``
#: cost x fault-point calls per trial) as a fraction of trial time.
MAX_DISABLED_FAULT_OVERHEAD = 0.02
#: Generous ceiling on fault-point pass-throughs per trial: the wired
#: points fire per *task* (task.execute, journal.record, protocol.send,
#: scheduler.dispatch), far below this density.
FAULT_HITS_PER_TRIAL = 64


def quick_scale() -> bool:
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def build_loop_smoother() -> SDFG:
    """A time-stepped smoothing sweep: ``T`` sequential loop iterations,
    each running two element-wise maps over ``N`` elements."""
    sdfg = SDFG("loop_smoother")
    sdfg.add_array("A", ["N"], float64)
    sdfg.add_transient("B", ["N"], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("sweep")
    _, _, e1 = body.add_mapped_tasklet(
        "smooth", {"i": "1:N-2"},
        {"w": Memlet.simple("A", "i - 1"), "c": Memlet.simple("A", "i"),
         "e": Memlet.simple("A", "i + 1")},
        "o = (w + c + e) / 3.0", {"o": Memlet.simple("B", "i")},
    )
    b_node = next(e.dst for e in body.out_edges(e1))
    body.add_mapped_tasklet(
        "writeback", {"i": "1:N-2"},
        {"b": Memlet.simple("B", "i")}, "a = b",
        {"a": Memlet.simple("A", "i")},
        input_nodes={"B": b_node},
    )
    sdfg.add_loop(init, body, None, "t", "0", "t < T", "t + 1")
    return sdfg


FUSED_PIPELINE_STAGES = 8


def build_fused_pipeline(stages: int = FUSED_PIPELINE_STAGES) -> SDFG:
    """A loop whose body chains ``stages`` elementwise map scopes.

    Each stage reads its predecessor's output elementwise over the identical
    domain -- exactly the shape scope fusion collapses into one composed
    kernel with no intermediate materialization.  The final stage writes
    back to ``A``, making the chain a time-stepped recurrence."""
    sdfg = SDFG("fused_pipeline")
    sdfg.add_array("A", ["N"], float64)
    init = sdfg.add_state("init", is_start_state=True)
    body = sdfg.add_state("pipeline")
    prev, prev_node = "A", None
    for k in range(stages):
        out = "A" if k == stages - 1 else f"t{k}"
        if out != "A":
            sdfg.add_transient(out, ["N"], float64)
        _, _, mexit = body.add_mapped_tasklet(
            f"stage{k}", {"i": "0:N-1"},
            {"x": Memlet.simple(prev, "i")},
            "y = 0.5 * x + 0.25",
            {"y": Memlet.simple(out, "i")},
            input_nodes={prev: prev_node} if prev_node is not None else None,
        )
        prev_node = next(e.dst for e in body.out_edges(mexit))
        prev = out
    sdfg.add_loop(init, body, None, "t", "0", "t < T", "t + 1")
    return sdfg


def _suite_builder(kernel):
    spec = get_workload("npbench", kernel)
    return spec.build


def _fusion_scale():
    """(N, T) of the fused_pipeline kernel at the current scale."""
    if quick_scale():
        return 1024, 8
    if paper_scale():
        return 4096, 24
    return 1024, 12


def _cases():
    """(kernel, builder, symbols, iteration-space volume) tuples to measure."""
    if quick_scale():
        n_mm, n_st, n_ew, n_ln, t_ln = 16, 24, 4096, 256, 8
    elif paper_scale():
        n_mm, n_st, n_ew, n_ln, t_ln = 64, 96, 65536, 2048, 32
    else:
        n_mm, n_st, n_ew, n_ln, t_ln = 40, 64, 16384, 1024, 16
    n_fp, t_fp = _fusion_scale()
    return [
        # gemm runs NI*NJ*NK matmul iterations plus two NI*NJ element-wise maps.
        ("gemm", _suite_builder("gemm"), {"NI": n_mm, "NJ": n_mm, "NK": n_mm},
         n_mm ** 3 + 2 * n_mm ** 2),
        ("jacobi_2d", _suite_builder("jacobi_2d"), {"N": n_st}, (n_st - 2) ** 2),
        ("axpy_pipeline", _suite_builder("axpy_pipeline"), {"N": n_ew}, 2 * n_ew),
        ("loop_smoother", build_loop_smoother, {"N": n_ln, "T": t_ln},
         t_ln * 2 * (n_ln - 2)),
        # range "0:N-1" is inclusive: N points per stage.
        ("fused_pipeline", build_fused_pipeline, {"N": n_fp, "T": t_fp},
         t_fp * FUSED_PIPELINE_STAGES * n_fp),
    ]


def _arguments(sdfg, symbols, seed=0):
    rng = np.random.default_rng(seed)
    args = {}
    for name, desc in sdfg.arrays.items():
        if desc.transient:
            continue
        args[name] = rng.standard_normal(desc.concrete_shape(symbols))
    return args


def _measure(program, args, symbols, min_trials=2, min_seconds=0.2):
    """Run at least ``min_trials`` trials for at least ``min_seconds``."""
    trials = 0
    elapsed = 0.0
    result = None
    while trials < min_trials or elapsed < min_seconds:
        start = time.perf_counter()
        result = program.run(dict(args), symbols)
        elapsed += time.perf_counter() - start
        trials += 1
        if trials >= 64:  # the interpreter rows would otherwise take minutes
            break
    return result, trials, elapsed


def test_backend_throughput(report_lines):
    rows = []
    speedups = {}
    report_lines.append(
        f"{'kernel':<16}{'backend':<14}{'elements/s':>14}{'trials/s':>12}{'speedup':>10}"
    )
    for kernel, builder, symbols, volume in _cases():
        sdfg = builder()
        args = _arguments(sdfg, symbols)
        results = {}
        rates = {}
        for backend_name in BACKENDS:
            program = get_backend(backend_name).prepare(builder())
            program.run(dict(args), symbols)  # warm-up: plans built here
            result, trials, elapsed = _measure(program, args, symbols)
            results[backend_name] = result
            rates[backend_name] = dict(
                elements_per_second=volume * trials / elapsed,
                trials_per_second=trials / elapsed,
                trials=trials,
                seconds=elapsed,
            )
        speedups[kernel] = {
            backend_name: (
                rates[backend_name]["elements_per_second"]
                / rates["interpreter"]["elements_per_second"]
            )
            for backend_name in BACKENDS
            if backend_name != "interpreter"
        }
        for backend_name in BACKENDS:
            r = rates[backend_name]
            rows.append(
                dict(kernel=kernel, backend=backend_name, symbols=symbols,
                     iteration_elements=volume, **r)
            )
            sp = speedups[kernel].get(backend_name)
            report_lines.append(
                f"{kernel:<16}{backend_name:<14}{r['elements_per_second']:>14.3g}"
                f"{r['trials_per_second']:>12.3g}"
                + (f"{sp:>9.1f}x" if sp is not None else f"{'':>10}")
            )
        # The measurement doubles as a backend-equivalence check.
        ref = results["interpreter"]
        for backend_name in BACKENDS[1:]:
            cand = results[backend_name]
            for name in ref.outputs:
                assert np.array_equal(ref.outputs[name], cand.outputs[name]), (
                    f"{kernel}: interpreter/{backend_name} outputs diverge on '{name}'"
                )
            assert ref.transitions == cand.transitions, (
                f"{kernel}: interpreter/{backend_name} transition counts diverge"
            )

    fusion = _measure_fusion(report_lines)
    fuzz_trials = _measure_fuzz_trials(report_lines)
    telemetry = _measure_telemetry_overhead(report_lines)
    faults = _measure_fault_overhead(
        report_lines, telemetry["untraced_seconds_per_trial"]
    )

    assert speedups["gemm"]["compiled"] >= REQUIRED_MATMUL_SPEEDUP, (
        f"compiled backend only {speedups['gemm']['compiled']:.1f}x faster "
        f"than the interpreter on the affine matmul "
        f"(required: {REQUIRED_MATMUL_SPEEDUP}x)"
    )
    assert speedups["loop_smoother"]["compiled"] >= REQUIRED_LOOP_NEST_SPEEDUP, (
        f"compiled backend only {speedups['loop_smoother']['compiled']:.1f}x "
        f"faster than the interpreter on the loop nest "
        f"(required: {REQUIRED_LOOP_NEST_SPEEDUP}x)"
    )
    assert fusion["speedup"] >= REQUIRED_FUSION_SPEEDUP, (
        f"scope fusion only {fusion['speedup']:.2f}x faster than the unfused "
        f"compiled backend on the multi-scope pipeline "
        f"(required: {REQUIRED_FUSION_SPEEDUP}x)"
    )
    assert telemetry["disabled_overhead"] <= MAX_DISABLED_TELEMETRY_OVERHEAD, (
        f"disabled telemetry costs {telemetry['disabled_overhead'] * 100:.3f}% "
        f"of fused_pipeline trial time (the null-span fast path must stay "
        f"under {MAX_DISABLED_TELEMETRY_OVERHEAD * 100:.0f}%)"
    )
    assert telemetry["enabled_overhead"] <= MAX_ENABLED_TELEMETRY_OVERHEAD, (
        f"enabled tracing slows fused_pipeline trials by "
        f"{telemetry['enabled_overhead'] * 100:.1f}% "
        f"(required: <= {MAX_ENABLED_TELEMETRY_OVERHEAD * 100:.0f}%)"
    )
    assert faults["disabled_overhead"] <= MAX_DISABLED_FAULT_OVERHEAD, (
        f"the disarmed fault-injection layer costs "
        f"{faults['disabled_overhead'] * 100:.3f}% of fused_pipeline trial "
        f"time (the pass-through must stay under "
        f"{MAX_DISABLED_FAULT_OVERHEAD * 100:.0f}%)"
    )

    # Written only once every floor holds: a failing run leaves the
    # recorded series as they were.
    with open(OUTPUT_PATH, "w", encoding="utf-8") as f:
        json.dump(
            dict(
                benchmark="backend_throughput",
                quick=quick_scale(),
                paper_scale=paper_scale(),
                backends=list(BACKENDS),
                required_matmul_speedup=REQUIRED_MATMUL_SPEEDUP,
                required_loop_nest_speedup=REQUIRED_LOOP_NEST_SPEEDUP,
                required_fusion_speedup=REQUIRED_FUSION_SPEEDUP,
                speedups=speedups,
                rows=rows,
                fusion=fusion,
                fuzz_trials=fuzz_trials,
                telemetry=telemetry,
                faults=faults,
            ),
            f,
            indent=2,
        )
    report_lines.append(f"written to {OUTPUT_PATH}")


# ---------------------------------------------------------------------- #
# Scope fusion: compiled backend with vs. without chain fusion
# ---------------------------------------------------------------------- #
def _measure_fusion(report_lines):
    n_fp, t_fp = _fusion_scale()
    symbols = {"N": n_fp, "T": t_fp}
    sdfg = build_fused_pipeline()
    args = _arguments(sdfg, symbols)
    results = {}
    programs = {}
    for fused in (True, False):
        program = CompiledExecutor(sdfg)
        if not fused:
            # Disable every chain the way a chain that fails at runtime is
            # disabled: its members then execute scope by scope.
            for table in program.tables:
                for chain in table.heads.values():
                    chain.usable = False
        results[fused] = program.run(dict(args), symbols)
        if fused:
            assert program.stats["fused"] > 0, "fusion never fired on the pipeline"
        programs[fused] = program
    # About 1 s per side, in alternating 50 ms windows: the machine's speed
    # drifts by up to 2x over seconds, and sequential windows would hand
    # the whole drift to one side of the ratio.
    elapsed = {True: 0.0, False: 0.0}
    trials = {True: 0, False: 0}
    while (min(trials.values()) < 2 or min(elapsed.values()) < 1.0) and max(
        trials.values()
    ) < 8192:
        for fused, program in programs.items():
            window_end = elapsed[fused] + 0.05
            while elapsed[fused] < window_end:
                start = time.perf_counter()
                program.run(dict(args), symbols)
                elapsed[fused] += time.perf_counter() - start
                trials[fused] += 1
    times = {fused: elapsed[fused] / trials[fused] for fused in programs}
    for name in results[True].outputs:
        assert np.array_equal(results[True].outputs[name], results[False].outputs[name]), (
            f"fused/unfused outputs diverge on '{name}'"
        )
    speedup = times[False] / times[True]
    report_lines.append(
        f"\nscope fusion (fused_pipeline, N={n_fp}, T={t_fp}, "
        f"{FUSED_PIPELINE_STAGES} scopes/iteration): "
        f"fused {times[True] * 1e3:.3f} ms/run, unfused {times[False] * 1e3:.3f} "
        f"ms/run -> {speedup:.2f}x"
    )
    return dict(
        kernel="fused_pipeline", symbols=symbols, stages=FUSED_PIPELINE_STAGES,
        fused_seconds_per_run=times[True], unfused_seconds_per_run=times[False],
        speedup=speedup,
    )


# ---------------------------------------------------------------------- #
# End-to-end fuzz trials: time per DifferentialFuzzer trial
# ---------------------------------------------------------------------- #
def _measure_fuzz_trials(report_lines):
    """Seconds per differential trial (the sweep's unit of work) per backend.

    Original and transformed are clones of the same program, so every trial
    exercises the full path -- sampling, two complete executions, system
    state comparison -- without depending on a verdict.
    """
    n_fp, t_fp = _fusion_scale()
    trials = 4 if quick_scale() else 8
    series = {}
    report_lines.append(f"\nfuzz trials (fused_pipeline, {trials} trials/backend):")
    original = build_fused_pipeline()
    transformed = original.clone()
    for backend_name in BACKENDS:
        sampler = InputSampler(
            original, ["A"], ["A"],
            fixed_symbols={"N": n_fp, "T": t_fp}, vary_sizes=False, seed=0,
        )
        fuzzer = DifferentialFuzzer(
            original, transformed, ["A"], sampler, backend=backend_name
        )
        fuzzer.run(num_trials=1)  # warm-up: plans + driver built here
        start = time.perf_counter()
        report = fuzzer.run(num_trials=trials)
        elapsed = time.perf_counter() - start
        per_trial = elapsed / max(report.trials_attempted, 1)
        assert report.failures == 0, "identical programs produced a failing trial"
        series[backend_name] = dict(
            seconds_per_trial=per_trial,
            trials=report.trials_attempted,
        )
        report_lines.append(
            f"  {backend_name:<14}{per_trial * 1e3:>10.2f} ms/trial"
        )
    return dict(kernel="fused_pipeline", trials=trials, backends=series)


# ---------------------------------------------------------------------- #
# Telemetry overhead: traced / untraced trial time
# ---------------------------------------------------------------------- #
def _measure_telemetry_overhead(report_lines):
    """Cost of the observability layer on the fused_pipeline trial path.

    Two numbers:

    * **disabled** -- the null-span fast path.  Wall-clock differencing
      cannot resolve sub-percent effects, so the overhead is computed as
      (cost of one disabled ``TRACER.span()`` call, measured in a tight
      loop) x (spans one traced trial actually emits) relative to the
      untraced per-trial time.
    * **enabled** -- per-trial wall clock with tracing to a temp file vs.
      untraced, measured directly: five windows per side, alternating
      between the two so a drift in machine speed reaches both, and the
      best window of each side to shed scheduler noise.
    """
    from repro.telemetry import TRACER, configure_tracing

    n_fp, t_fp = _fusion_scale()
    trials = 8 if quick_scale() else 16
    original = build_fused_pipeline()
    transformed = original.clone()

    def warm_fuzzer():
        sampler = InputSampler(
            original, ["A"], ["A"],
            fixed_symbols={"N": n_fp, "T": t_fp}, vary_sizes=False, seed=0,
        )
        fuzzer = DifferentialFuzzer(
            original, transformed, ["A"], sampler, backend="compiled"
        )
        fuzzer.run(num_trials=1)  # warm-up: plans + driver built here
        return fuzzer

    def window(fuzzer):
        """Seconds per trial over one window and the trials it ran; a
        traced window includes writing its buffered events."""
        start = time.perf_counter()
        report = fuzzer.run(num_trials=trials)
        TRACER.flush()
        elapsed = time.perf_counter() - start
        return elapsed / max(report.trials_attempted, 1), report.trials_attempted

    assert not TRACER.enabled, "benchmarks must start untraced"
    untraced_fuzzer = warm_fuzzer()

    reps = 200_000
    start = time.perf_counter()
    for _ in range(reps):
        TRACER.span("bench", "execute")
    null_span_seconds = (time.perf_counter() - start) / reps

    trace_dir = tempfile.mkdtemp(prefix="bench_trace_")
    trace_path = os.path.join(trace_dir, "trace.jsonl")
    try:
        configure_tracing(trace_path)
        spans_before = TRACER.spans_started
        traced_fuzzer = warm_fuzzer()
        traced_trials = 1  # the warm-up trial
        configure_tracing(None)
        baseline = traced = None
        for _ in range(5):
            rate, _ = window(untraced_fuzzer)
            baseline = rate if baseline is None else min(baseline, rate)
            configure_tracing(trace_path)
            rate, ran = window(traced_fuzzer)
            configure_tracing(None)
            traced = rate if traced is None else min(traced, rate)
            traced_trials += ran
        spans_per_trial = (TRACER.spans_started - spans_before) / traced_trials
    finally:
        configure_tracing(None)
        shutil.rmtree(trace_dir, ignore_errors=True)

    disabled_overhead = null_span_seconds * spans_per_trial / baseline
    enabled_overhead = max(0.0, traced / baseline - 1.0)
    report_lines.append(
        f"\ntelemetry overhead (fused_pipeline, compiled, {trials} trials): "
        f"untraced {baseline * 1e3:.2f} ms/trial, traced {traced * 1e3:.2f} "
        f"ms/trial ({enabled_overhead * 100:.1f}%); disabled fast path "
        f"{null_span_seconds * 1e9:.0f} ns/span x {spans_per_trial:.0f} "
        f"spans/trial = {disabled_overhead * 100:.3f}%"
    )
    return dict(
        kernel="fused_pipeline", trials=trials,
        untraced_seconds_per_trial=baseline,
        traced_seconds_per_trial=traced,
        null_span_seconds=null_span_seconds,
        spans_per_trial=spans_per_trial,
        disabled_overhead=disabled_overhead,
        enabled_overhead=enabled_overhead,
    )


# ---------------------------------------------------------------------- #
# Fault-injection overhead: the disarmed / non-matching hit() pass-through
# ---------------------------------------------------------------------- #
def _measure_fault_overhead(report_lines, baseline):
    """Cost of the fault-injection seam when it is *not* firing.

    Wall-clock differencing cannot resolve the pass-through (it is a
    single module-global check per fault point), so -- like the telemetry
    series -- the overhead is computed as (cost of one ``hit()`` call,
    measured in a tight loop) x a generous fault-point density per trial,
    relative to the untraced per-trial baseline.  Two variants:

    * **disarmed** -- no plan loaded: the common production case.
    * **armed, non-matching** -- a plan is armed but its clauses target
      other fault points, so every call scans the clause list and declines.
    """
    from repro import faultinject

    assert not faultinject.active(), "benchmarks must start fault-free"
    reps = 200_000
    start = time.perf_counter()
    for _ in range(reps):
        faultinject.hit("bench.point", key="k")
    disarmed_seconds = (time.perf_counter() - start) / reps

    faultinject.configure("other.point=delay:0.01", seed=1, export=False)
    try:
        start = time.perf_counter()
        for _ in range(reps):
            faultinject.hit("bench.point", key="k")
        armed_seconds = (time.perf_counter() - start) / reps
    finally:
        faultinject.configure(None, export=False)

    disabled_overhead = disarmed_seconds * FAULT_HITS_PER_TRIAL / baseline
    armed_overhead = armed_seconds * FAULT_HITS_PER_TRIAL / baseline
    report_lines.append(
        f"fault-injection pass-through: disarmed "
        f"{disarmed_seconds * 1e9:.0f} ns/hit, armed non-matching "
        f"{armed_seconds * 1e9:.0f} ns/hit; x {FAULT_HITS_PER_TRIAL} "
        f"hits/trial = {disabled_overhead * 100:.3f}% / "
        f"{armed_overhead * 100:.3f}% of fused_pipeline trial time"
    )
    return dict(
        kernel="fused_pipeline",
        hits_per_trial=FAULT_HITS_PER_TRIAL,
        disarmed_hit_seconds=disarmed_seconds,
        armed_nonmatching_hit_seconds=armed_seconds,
        disabled_overhead=disabled_overhead,
        armed_overhead=armed_overhead,
    )
