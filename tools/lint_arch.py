#!/usr/bin/env python
"""Architecture lint for the backend lowering pipeline.

Enforces seven structural invariants of ``src/repro/`` -- two of the
backends (see that package's docstring for the analyze -> codegen -> execute
pipeline), one of the cluster, three of the whole tree and one of
the IR packages:

1. **Module size** -- no module under ``src/repro/backends/`` may exceed
   800 lines.  The pre-split backend grew monolithic modules where legality
   analysis, code generation and runtime execution interleaved; the cap
   keeps each layer's modules reviewable and the layers honest.

2. **Layer direction** -- codegen modules (``repro/backends/codegen/``:
   the lowering records, chain composition and the driver generator) must
   not import from the execute layer (``repro.backends.execute``), in any
   spelling: absolute imports, ``from repro.backends import execute``, or
   relative forms (``from ..execute import ...``, ``from .. import
   execute``).  The execute layer consumes codegen, never the reverse; a
   back-edge would let runtime state leak into code generation.

3. **Transport containment** -- within ``src/repro/cluster/``, only the
   transport module (``repro/cluster/service.py``) may import
   :mod:`asyncio`, and the scheduler core (``scheduler.py``, ``sweep.py``,
   ``state.py``) must not import :mod:`socket` either: the service
   brain stays transport-free and unit-testable with plain function
   calls, and every socket/event-loop detail stays behind one auditable
   module.  (The worker and protocol modules are *clients* and may use
   blocking sockets.)  The 800-line module cap applies to
   ``src/repro/cluster/`` too, so the service split cannot silently
   regrow a monolith.

4. **Clock containment** -- within ``src/repro/``, only the telemetry
   clock seam (``repro/telemetry/``) may call :func:`time.monotonic` or
   :func:`time.perf_counter` (or import them from :mod:`time`).  Every
   other module takes its clock from :mod:`repro.telemetry` --
   ``monotonic()`` / ``perf_counter()`` -- so tests can inject a fake
   clock and trace timestamps stay on one monotonic domain.  Benchmarks
   (``benchmarks/``) sit outside ``src/`` and are exempt.

5. **Fault containment** -- within ``src/repro/``, only the fault
   injection seam (``repro/faultinject/``) may hard-kill or signal a
   process (``os._exit``, ``os.kill``, ``os.abort``,
   ``signal.raise_signal``): ad-hoc process faults scattered through the
   harness would be invisible to chaos replay and impossible to disarm.
   Every production module injects failures exclusively through the
   :mod:`repro.faultinject` package root (``hit`` / ``garble_bytes`` /
   ``garble_text``), which is also the only sanctioned import path --
   reaching into the package's internals from elsewhere is a violation.

6. **Graph containment** -- within ``src/repro/``, only the graph module
   (``repro/sdfg/graph.py``) may touch a graph's internals: no other module
   reads or writes another object's ``_in`` / ``_out`` / ``_edges``,
   assigns a ``version`` that is not its own, or subclasses
   ``OrderedMultiDiGraph``.  Every structural mutation must go through the
   graph's methods, which bump ``version``: each state's scope index is
   valid exactly while the version is unchanged, so a mutation that
   bypassed them would leave every scope query silently stale.

7. **Copy containment** -- no module under ``src/repro/sdfg/``,
   ``src/repro/core/``, ``src/repro/transforms/`` or
   ``src/repro/backends/`` may import :mod:`copy` (in any spelling) or
   call ``copy.copy`` / ``copy.deepcopy``.  The structural copier
   (``repro/sdfg/copier.py``) is the one way to copy the IR: it shares the
   immutable leaves and copies each map once per state copy, so a ``MapEntry``
   and its ``MapExit`` keep sharing one map; a generic deep copy pays for a
   memo over every leaf and would bring back a second copy semantics.

Exits non-zero listing every violation.  Wired into ``make lint-arch`` and
``make smoke``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent
BACKENDS = ROOT / "src" / "repro" / "backends"
CODEGEN = BACKENDS / "codegen"
MAX_LINES = 800
EXECUTE_MODULE = "repro.backends.execute"


def _module_package(path: Path) -> List[str]:
    """Dotted package path of the module at ``path`` (under ``src/``)."""
    parts = list(path.relative_to(ROOT / "src").with_suffix("").parts)
    parts.pop()  # the module (or __init__) itself; what remains is the package
    return parts


def _targets_execute(module: str) -> bool:
    return module == EXECUTE_MODULE or module.startswith(EXECUTE_MODULE + ".")


def _check_imports(path: Path) -> List[str]:
    """Violations of the codegen -> execute layering rule in one module."""
    violations: List[str] = []
    rel = path.relative_to(ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    package = _module_package(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _targets_execute(alias.name):
                    violations.append(
                        f"{rel}:{node.lineno}: codegen imports the execute "
                        f"layer ('import {alias.name}')"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                # Resolve the relative import against this module's package:
                # level 1 is the package itself, each extra level one parent.
                anchor = package[: len(package) - (node.level - 1)]
                base = ".".join(anchor + (node.module or "").split("."))
                base = base.rstrip(".")
            if _targets_execute(base):
                violations.append(
                    f"{rel}:{node.lineno}: codegen imports the execute "
                    f"layer ('from {node.module or '.' * node.level} import ...')"
                )
            elif base == "repro.backends" and any(
                alias.name == "execute" for alias in node.names
            ):
                violations.append(
                    f"{rel}:{node.lineno}: codegen imports the execute "
                    f"layer ('from repro.backends import execute')"
                )
    return violations


CLUSTER = ROOT / "src" / "repro" / "cluster"
#: The sole cluster module allowed to import asyncio (the transport).
TRANSPORT = CLUSTER / "service.py"
#: Cluster modules that must stay transport-free entirely (no socket):
#: the scheduler core.
TRANSPORT_FREE = ("scheduler.py", "sweep.py", "state.py")


def _imported_modules(path: Path):
    """Yield (lineno, module) for every top-level-name import in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module or ""


def _check_transport(path: Path) -> List[str]:
    """Violations of the cluster transport-containment rule in one module."""
    violations: List[str] = []
    rel = path.relative_to(ROOT)
    core = path.name in TRANSPORT_FREE
    for lineno, module in _imported_modules(path):
        top = module.split(".", 1)[0]
        if top == "asyncio" and path != TRANSPORT:
            violations.append(
                f"{rel}:{lineno}: only the transport module "
                f"({TRANSPORT.relative_to(ROOT)}) may import asyncio"
            )
        elif top == "socket" and core:
            violations.append(
                f"{rel}:{lineno}: the scheduler core must stay "
                f"transport-free (no socket imports)"
            )
    return violations


SRC = ROOT / "src" / "repro"
#: The sole package allowed to touch the raw monotonic clocks.
CLOCK_HOME = SRC / "telemetry"
_CLOCK_NAMES = ("monotonic", "perf_counter")


def _check_clock(path: Path) -> List[str]:
    """Violations of the clock-containment rule in one module."""
    violations: List[str] = []
    rel = path.relative_to(ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
            and node.attr in _CLOCK_NAMES
        ):
            violations.append(
                f"{rel}:{node.lineno}: time.{node.attr} outside "
                f"repro.telemetry -- use the repro.telemetry clock seam"
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module == "time"
        ):
            for alias in node.names:
                if alias.name in _CLOCK_NAMES:
                    violations.append(
                        f"{rel}:{node.lineno}: 'from time import "
                        f"{alias.name}' outside repro.telemetry -- use "
                        f"the repro.telemetry clock seam"
                    )
    return violations


#: The sole package allowed to hard-kill or signal a process.
FAULT_HOME = SRC / "faultinject"
#: ``(module, attribute)`` call forms that inject a raw process fault.
_FAULT_CALLS = {
    ("os", "_exit"),
    ("os", "kill"),
    ("os", "abort"),
    ("signal", "raise_signal"),
}


def _check_faults(path: Path) -> List[str]:
    """Violations of the fault-containment rule in one module."""
    violations: List[str] = []
    rel = path.relative_to(ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and (node.func.value.id, node.func.attr) in _FAULT_CALLS
        ):
            violations.append(
                f"{rel}:{node.lineno}: {node.func.value.id}."
                f"{node.func.attr}() outside repro.faultinject -- inject "
                f"process faults through the faultinject seam"
            )
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and (
            node.module or ""
        ).startswith("repro.faultinject."):
            violations.append(
                f"{rel}:{node.lineno}: import fault helpers from the "
                f"repro.faultinject package root, not its internals"
            )
    return violations


#: The sole module allowed to touch a graph's internals.
GRAPH_HOME = SRC / "sdfg" / "graph.py"
_GRAPH_INTERNALS = ("_in", "_out", "_edges")


def _is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _check_graph(path: Path) -> List[str]:
    """Violations of the graph-containment rule in one module."""
    violations: List[str] = []
    rel = path.relative_to(ROOT)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            (base.id if isinstance(base, ast.Name) else getattr(base, "attr", None))
            == "OrderedMultiDiGraph"
            for base in node.bases
        ):
            violations.append(
                f"{rel}:{node.lineno}: only repro.sdfg.graph may subclass "
                f"OrderedMultiDiGraph"
            )
        elif isinstance(node, ast.Attribute) and not _is_self(node.value) and (
            node.attr in _GRAPH_INTERNALS
            or (node.attr == "version" and not isinstance(node.ctx, ast.Load))
        ):
            violations.append(
                f"{rel}:{node.lineno}: '.{node.attr}' of another object -- "
                f"mutate and read graphs only through OrderedMultiDiGraph "
                f"methods (its version keeps the scope indexes valid)"
            )
    return violations


#: The IR packages, which copy only through ``repro/sdfg/copier.py``.
COPY_FREE = tuple(SRC / name for name in ("sdfg", "core", "transforms", "backends"))


def _check_copy(path: Path) -> List[str]:
    """Violations of the copy-containment rule in one module."""
    violations: List[str] = []
    rel = path.relative_to(ROOT)
    hint = "copy the IR through repro.sdfg.copier"
    for lineno, module in _imported_modules(path):
        if module.split(".", 1)[0] == "copy":
            violations.append(f"{rel}:{lineno}: imports copy -- {hint}")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "copy"
            and node.func.attr in ("copy", "deepcopy")
        ):
            violations.append(
                f"{rel}:{node.lineno}: copy.{node.func.attr}() -- {hint}"
            )
    return violations


def main() -> int:
    failures: List[str] = []
    for path in sorted(BACKENDS.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").count("\n") + 1
        if lines > MAX_LINES:
            failures.append(
                f"{path.relative_to(ROOT)}: {lines} lines exceeds the "
                f"{MAX_LINES}-line backend-module cap"
            )
    for path in sorted(CODEGEN.rglob("*.py")):
        failures.extend(_check_imports(path))
    for path in sorted(CLUSTER.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").count("\n") + 1
        if lines > MAX_LINES:
            failures.append(
                f"{path.relative_to(ROOT)}: {lines} lines exceeds the "
                f"{MAX_LINES}-line module cap"
            )
        failures.extend(_check_transport(path))
    for path in sorted(SRC.rglob("*.py")):
        if CLOCK_HOME not in path.parents:
            failures.extend(_check_clock(path))
        if FAULT_HOME not in path.parents:
            failures.extend(_check_faults(path))
        if path != GRAPH_HOME:
            failures.extend(_check_graph(path))
        if any(home in path.parents for home in COPY_FREE):
            failures.extend(_check_copy(path))
    if failures:
        print("Architecture lint FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(
        "Architecture lint OK (module sizes, codegen->execute layering, "
        "cluster transport containment, clock "
        "containment, fault containment, graph containment, copy containment)."
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
