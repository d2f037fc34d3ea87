# Convenience targets; CI runs `make smoke` on every PR.

PY ?= python
export PYTHONPATH := src

.PHONY: test smoke smoke-dist smoke-chaos sweep bench-scaling bench-quick bench-figs bench-e2e bench-e2e-check bench-pairs lint-arch reach

test:
	$(PY) -m pytest -x -q

# Exercise the sweep pipeline end to end (2 workers, tiny budget) once per
# registered execution backend -- the oracle, the optimiser, and the 'cross'
# pair that checks the optimiser against the oracle --
# then a traced mini sweep whose JSONL is validated against the trace-event
# schema, the distributed loopback check, the sweep-level benchmark's smoke
# run and the tier-1 test suite.
smoke:
	$(MAKE) lint-arch
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend interpreter
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend compiled
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend cross:compiled,interpreter
	rm -f .smoke-trace.jsonl && \
	$(PY) -m repro.pipeline --suite npbench --workers 2 --trials 2 --max-instances 1 --backend compiled --trace .smoke-trace.jsonl && \
	$(PY) -m repro.telemetry --validate .smoke-trace.jsonl && \
	rm -f .smoke-trace.jsonl
	$(MAKE) smoke-dist
	$(MAKE) smoke-chaos
	$(MAKE) bench-e2e-check
	$(PY) -m pytest -x -q

# Loopback distributed sweep, two scenarios:
# 1. a one-shot service plus two worker subprocesses (running
#    *different* backends), journaled, diffed field-by-field against the
#    serial runner (modulo timing/host metadata);
# 2. the always-on verification service: two concurrent HTTP-submitted
#    sweeps on one service with a state directory, hard-stopped and
#    restored mid-run, served by elastic reconnecting workers -- both
#    sweeps must match their serial references with isolated journals and
#    zero re-runs across the restart.
smoke-dist:
	$(PY) tools/smoke_dist.py --trials 2 --max-instances 1
	$(PY) tools/smoke_dist.py --two-sweeps --trials 2 --max-instances 1

# The chaos kill-matrix (seeded fault injection, repro.faultinject):
# scenario A runs one sweep through a worker SIGKILL mid-lease, garbled
# frames in both directions, a deterministically garbled journal record, a
# hard service bounce and a torn journal tail -- and must land bitwise
# identical to the serial runner with faults disabled; scenario B poisons
# two workloads (crash / hang) under --task-timeout supervised workers and
# must complete with the poison quarantined, clean verdicts unchanged, and
# the deadline/hung-task metrics exposed.
smoke-chaos:
	$(PY) tools/smoke_chaos.py --trials 2 --max-instances 1

# The full injected-bug sweep at default scale.
sweep:
	$(PY) -m repro.pipeline --suite npbench --buggy --workers 4

bench-scaling:
	cd benchmarks && PYTHONPATH=../src $(PY) -m pytest bench_pipeline_scaling.py -q -s

# The paper-figure benchmarks (Figs. 2-6) and the CLOUDSC case study: the
# only callers of the verifier's vary_sizes / stop_on_failure knobs and of
# verify_whole_program; a few seconds, writes nothing.
bench-figs:
	cd benchmarks && PYTHONPATH=../src $(PY) -m pytest bench_fig*.py bench_cloudsc_case_study.py -q

# Interpreter / compiled throughput at tiny sizes, including the loop-nest
# kernel and the multi-scope fusion kernel (asserts the >=2x scope-fusion
# speedup), plus fuzz-trial, telemetry-overhead and fault-overhead series
# (BENCH_backends.json, rewritten only when every floor holds).
bench-quick:
	cd benchmarks && PYTHONPATH=../src REPRO_BENCH_QUICK=1 $(PY) -m pytest bench_backend_throughput.py -q -s

# The sweep-level benchmark of BENCHMARK.json (benchmarks/e2e/README.md):
# four workloads, end-to-end metrics with tracing off plus a per-layer
# ledger from a traced session; about 2 min.  It checks every verdict,
# rewrites benchmarks/e2e/latest.json and appends a history.jsonl row.
bench-e2e:
	$(PY) benchmarks/e2e/run.py

# Its smoke form (under 15 s): every workload, every verdict and every
# wrapped layer name, no timing claims and no files written.
bench-e2e-check:
	$(PY) benchmarks/e2e/run.py --check

# What a gain-claiming PR has to show (benchmarks/e2e/README.md): N
# alternating runs of workload W on the committed files of BASE and on the
# working tree; per end-to-end metric both medians with quartiles, wins /
# pairs and the gain / within-bound / regressed verdict.  N=10 takes about
# 2 x N x 24 s.  FUZZ_SEED=1 is the held-out fuzzing seed; TRACE=1 pairs the
# driver's traced form and prints per-layer medians (where a move came from).
BASE ?= HEAD~1
N ?= 10
bench-pairs:
	$(PY) tools/bench_pairs.py --workload $(W) --base $(BASE) --pairs $(N) $(if $(FUZZ_SEED),--fuzz-seed $(FUZZ_SEED)) $(if $(TRACE),--trace)

# Structural invariants of src/repro/backends/ and src/repro/cluster/:
# module-size caps, the codegen -> execute layering rule (emitters never
# import the runtime), cluster transport containment (only the service
# module imports asyncio; the scheduler core stays socket-free), clock
# containment (only repro.telemetry touches time.monotonic/perf_counter), and fault
# containment (only repro.faultinject may hard-kill/signal a process;
# fault helpers import from the package root only), graph containment
# (only repro.sdfg.graph touches a graph's internals or bumps its version),
# and copy containment (sdfg/, core/, transforms/ and backends/ never use the
# copy module: the IR is copied only by repro.sdfg.copier).
lint-arch:
	$(PY) tools/lint_arch.py

# The reach ledger (README "Reach ledger"): runs the product paths under a
# profiler and fails on any function of the verification core that none of
# them enters and tools/reach_allow.txt does not name.  About 2.5 min; not
# part of `make smoke`.
reach:
	$(PY) tools/reach.py
