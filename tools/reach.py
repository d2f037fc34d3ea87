#!/usr/bin/env python
"""Reach ledger: the functions of the verification core no product path enters.

Runs the product paths in this one process (``workers=1``) under
``sys.setprofile`` / ``threading.setprofile``:

* the six suite x side task lists (npbench, bert, cloudsc; clean and
  ``--buggy``) through the pipeline CLI at its shallow defaults (6 trials,
  ``size_max`` 10, 4 instances) and at deep settings (the verifier's
  defaults: 50 trials, ``size_max`` 32, min-cut on; 1 instance), on
  ``cross:compiled,interpreter``;
* the three case-study transformations (``builtin = False``) on every
  registered workload, clean and buggy;
* one custom-workload sweep (``enumerate_sweep_tasks(custom_workloads=...)``),
  which ships its program through the serialiser;
* ``bench_fig*.py``, ``bench_cloudsc_case_study.py`` and
  ``bench_table1_requirements.py`` through ``pytest.main`` with
  ``--benchmark-disable`` (without it pytest-benchmark switches the
  profiler off around every benchmarked call).

It then prints every function of the packages in ``PACKAGES`` that was
never entered, as ``path:qualname`` with its size in lines, and exits 1 if
one of them is not covered by the allowlist (``tools/reach_allow.txt``).
Each allowlist line is ``path:qualname  reason``; ``path`` is relative to
``src/``, ``Class.*`` covers a whole class and ``*`` a whole module, and an
entry also covers the functions nested in the one it names.

The cluster, pipeline, telemetry and faultinject packages are out of
scope: ``make smoke-dist`` and ``make smoke-chaos`` run them in
subprocesses, which an in-process profiler cannot see.

    PYTHONPATH=src python tools/reach.py

About 2.5 minutes on two cores.
"""

from __future__ import annotations

import ast
import contextlib
import inspect
import io
import os
import sys
import tempfile
import threading
import types
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE_ROOT = os.path.join(SRC, "repro")
ALLOWLIST = os.path.join(ROOT, "tools", "reach_allow.txt")

#: The verification core: the packages whose every function a product path
#: must enter, or the allowlist must name.
PACKAGES = (
    "sdfg", "symbolic", "core", "transforms", "interpreter",
    "backends", "frontend", "workloads", "distributed",
)

BACKEND = "cross:compiled,interpreter"
SUITES = ("npbench", "bert", "cloudsc")
BENCH_FILES = (
    "bench_fig2_tiling_bug.py",
    "bench_fig3_cutout_extraction.py",
    "bench_fig4_input_min.py",
    "bench_fig5_input_space_reduction.py",
    "bench_fig6_distributed_sddmm.py",
    "bench_cloudsc_case_study.py",
    "bench_table1_requirements.py",
)

#: (co_filename, co_firstlineno, co_qualname): one function of the source.
Key = Tuple[str, int, str]


class Function(NamedTuple):
    path: str  # relative to src/
    qualname: str
    lines: int


# ---------------------------------------------------------------------- #
# The functions of the verification core
# ---------------------------------------------------------------------- #
def _module_files() -> Iterator[str]:
    for package in PACKAGES:
        for dirpath, dirnames, filenames in os.walk(os.path.join(PACKAGE_ROOT, package)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _def_spans(tree: ast.AST) -> Dict[int, int]:
    """First line (decorators included) -> last line of every ``def``."""
    spans = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans[first] = node.end_lineno
    return spans


def _code_objects(code: types.CodeType) -> Iterator[types.CodeType]:
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _code_objects(const)


def source_functions() -> Dict[Key, Function]:
    """Every named function defined in the packages of ``PACKAGES``."""
    functions: Dict[Key, Function] = {}
    for filename in _module_files():
        with open(filename, encoding="utf-8") as f:
            source = f.read()
        spans = _def_spans(ast.parse(source, filename))
        relpath = os.path.relpath(filename, SRC)
        for code in _code_objects(compile(source, filename, "exec")):
            if code.co_name.startswith("<") or not code.co_flags & inspect.CO_OPTIMIZED:
                continue  # lambdas, comprehensions, generator expressions, class bodies
            first = code.co_firstlineno
            functions[(filename, first, code.co_qualname)] = Function(
                relpath, code.co_qualname, spans.get(first, first) - first + 1
            )
    return functions


# ---------------------------------------------------------------------- #
# The allowlist
# ---------------------------------------------------------------------- #
class AllowEntry(NamedTuple):
    path: str
    pattern: str  # a qualname, "Class.*" or "*"
    reason: str
    lineno: int

    def covers(self, fn: Function) -> bool:
        if fn.path != self.path:
            return False
        if self.pattern == "*":
            return True
        if self.pattern.endswith(".*"):
            return fn.qualname.startswith(self.pattern[:-1])
        return fn.qualname == self.pattern or fn.qualname.startswith(
            self.pattern + ".<locals>."
        )


def parse_allowlist(text: str) -> List[AllowEntry]:
    """The entries of an allowlist file; ``#`` starts a comment line.

    Raises ``ValueError`` for a line that is not ``path:qualname  reason``.
    """
    entries = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        target, _, reason = line.partition(" ")
        path, sep, pattern = target.partition(":")
        if not sep or not path.endswith(".py") or not pattern:
            raise ValueError(f"line {lineno}: expected 'path:qualname  reason': {raw!r}")
        entries.append(AllowEntry(path, pattern, reason.strip(), lineno))
    return entries


def load_allowlist() -> List[AllowEntry]:
    with open(ALLOWLIST, encoding="utf-8") as f:
        return parse_allowlist(f.read())


# ---------------------------------------------------------------------- #
# The product paths
# ---------------------------------------------------------------------- #
def _run_cli_sweeps() -> None:
    from repro.pipeline.cli import main

    with tempfile.TemporaryDirectory() as outdir:
        for suite in SUITES:
            for buggy in (False, True):
                out = os.path.join(outdir, f"{suite}{'-buggy' if buggy else ''}")
                argv = ["--suite", suite, "--backend", BACKEND, "--workers", "1",
                        "--json", out + ".json", "--markdown", out + ".md"]
                status = main(argv + (["--buggy"] if buggy else []))
                if status not in (0, 1):  # 1: the sweep found failing instances
                    raise RuntimeError(f"pipeline CLI {argv} exited {status}")


def _run_deep_sweeps() -> None:
    from repro.pipeline import SweepRunner, enumerate_sweep_tasks

    for suite in SUITES:
        for buggy in (False, True):
            tasks = enumerate_sweep_tasks(
                suite=suite, buggy=buggy, max_instances=1,
                verifier_kwargs=dict(backend=BACKEND),
            )
            _check(SweepRunner(workers=1).run(tasks))


def _run_case_studies() -> None:
    from repro.core import FuzzyFlowVerifier
    from repro.transforms import GPUKernelExtraction, LoopUnrolling, RedundantWriteElimination
    from repro.workloads import build_workload, get_workload_suite, list_workload_suites

    verifier = FuzzyFlowVerifier(num_trials=6, size_max=10, seed=0, backend=BACKEND)
    custom = (GPUKernelExtraction, LoopUnrolling, RedundantWriteElimination)
    for suite in list_workload_suites():
        for spec in get_workload_suite(suite):
            sdfg = build_workload(suite, spec.name)
            for cls in custom:
                for buggy in (False, True):
                    verifier.verify_all_instances(
                        sdfg, cls(inject_bug=buggy), symbol_values=spec.symbols,
                        max_instances=4,
                    )


def _run_custom_sweep() -> None:
    from repro.pipeline import SweepRunner, enumerate_sweep_tasks
    from repro.workloads import build_matmul_chain

    tasks = enumerate_sweep_tasks(
        suite="custom", buggy=True, max_instances=2,
        verifier_kwargs=dict(num_trials=6, size_max=10, backend=BACKEND),
        custom_workloads=[("matmul_chain", build_matmul_chain(), {})],
    )
    _check(SweepRunner(workers=1).run(tasks))


def _run_benchmarks() -> None:
    import pytest

    bench_dir = os.path.join(ROOT, "benchmarks")
    args = ["-q", "-p", "no:cacheprovider", "--benchmark-disable"]
    status = pytest.main(args + [os.path.join(bench_dir, f) for f in BENCH_FILES])
    if status != 0:
        raise RuntimeError(f"benchmarks exited {status}")


def _check(result) -> None:
    errors = result.errors()
    if errors:
        raise RuntimeError(f"{len(errors)} sweep task(s) errored, first: {errors[0]}")


PATHS = (
    ("cli sweeps", _run_cli_sweeps),
    ("deep sweeps", _run_deep_sweeps),
    ("case studies", _run_case_studies),
    ("custom sweep", _run_custom_sweep),
    ("benchmarks", _run_benchmarks),
)


@contextlib.contextmanager
def profiled(seen: Set[types.CodeType]) -> Iterator[None]:
    """Record the code object of every Python function entered meanwhile."""
    add = seen.add

    def hook(frame, event, arg):
        add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        yield
    finally:
        sys.setprofile(None)
        threading.setprofile(None)


def run_product_paths() -> Set[Key]:
    from repro.telemetry import perf_counter

    seen: Set[types.CodeType] = set()
    for name, path in PATHS:
        start = perf_counter()
        with profiled(seen), contextlib.redirect_stdout(io.StringIO()):
            path()
        print(f"[reach] {name}: {perf_counter() - start:.0f} s", file=sys.stderr)
    return {(os.path.realpath(c.co_filename), c.co_firstlineno, c.co_qualname) for c in seen}


# ---------------------------------------------------------------------- #
def main() -> int:
    allow = load_allowlist()
    functions = source_functions()
    reached = run_product_paths()
    unreached = [fn for key, fn in sorted(functions.items()) if
                 (os.path.realpath(key[0]),) + key[1:] not in reached]

    missing = [fn for fn in unreached if not any(e.covers(fn) for e in allow)]
    used = {e for e in allow for fn in unreached if e.covers(fn)}
    for fn in unreached:
        flag = "" if fn in missing else "  (allowed)"
        print(f"{fn.path}:{fn.qualname}  {fn.lines}{flag}")
    # A function nested in an unreached one is listed but not counted twice.
    outer = {(fn.path, fn.qualname) for fn in unreached}
    total = sum(fn.lines for fn in unreached if not any(
        (fn.path, fn.qualname.rsplit(".<locals>.", i)[0]) in outer
        for i in range(1, fn.qualname.count(".<locals>.") + 1)))
    print(f"\n{len(unreached)} of {len(functions)} functions ({total} lines) never entered; "
          f"{len(missing)} not in the allowlist")
    for entry in allow:
        if entry not in used:
            print(f"stale allowlist entry (reached or gone), line {entry.lineno}: "
                  f"{entry.path}:{entry.pattern}")
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
