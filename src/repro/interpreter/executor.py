"""The SDFG interpreter.

Executes a parametric dataflow program on concrete inputs:

* allocates transient containers, binds provided arguments and symbol values,
* walks the control-flow state machine (with a transition budget so
  non-terminating programs are reported as hangs rather than blocking the
  fuzzer),
* executes each state's dataflow graph in topological order, expanding map
  scopes into concrete iteration spaces,
* checks every memlet against its container bounds (the interpreter analogue
  of a segmentation fault),
* optionally records AFL-style coverage features for coverage-guided fuzzing.

Performance notes (this is the hot loop of every fuzzing trial): subset bound
expressions are compiled to Python code objects once per memlet and evaluated
against a plain ``dict`` of symbol values, and tasklet code objects are cached
by the :class:`~repro.interpreter.tasklet_exec.TaskletRunner`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.interpreter.coverage import CoverageMap
from repro.interpreter.errors import (
    ExecutionError,
    HangError,
    InvalidValueError,
    MemoryViolation,
    MissingArgumentError,
)
from repro.interpreter.tasklet_exec import TaskletRunner, compile_expression
from repro.sdfg.data import Array, Scalar
from repro.sdfg.dtypes import reduction_function
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    MapEntry,
    MapExit,
    NestedSDFGNode,
    Node,
    Tasklet,
)
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.symbolic.expressions import Integer
from repro.telemetry import TRACER as _TRACER

__all__ = ["SDFGExecutor", "ExecutionResult", "execute_sdfg"]

_EVAL_GLOBALS = {
    "__builtins__": {},
    "Min": min,
    "Max": max,
    "min": min,
    "max": max,
    "abs": abs,
    "int": int,
    "True": True,
    "False": False,
}


@dataclass
class ExecutionResult:
    """Outcome of running a program."""

    #: Final contents of every non-transient container (copies).
    outputs: Dict[str, np.ndarray]
    #: Final symbol values (including loop counters).
    symbols: Dict[str, Any]
    #: Number of control-flow state transitions taken.
    transitions: int
    #: Coverage features (empty unless coverage collection was requested).
    coverage: CoverageMap = field(default_factory=CoverageMap)

    def output(self, name: str) -> np.ndarray:
        return self.outputs[name]


class SDFGExecutor:
    """Interprets an SDFG on concrete argument values."""

    def __init__(
        self,
        sdfg: SDFG,
        max_transitions: int = 100_000,
        copy_inputs: bool = True,
    ) -> None:
        self.sdfg = sdfg
        self.max_transitions = max_transitions
        self.copy_inputs = copy_inputs
        self._runner = TaskletRunner()
        # Per-run data store and symbol bindings.
        self._store: Dict[str, np.ndarray] = {}
        self._symbols: Dict[str, Any] = {}
        self._coverage: Optional[CoverageMap] = None
        self._tasklet_counts: Dict[int, int] = {}
        # Caches invariant across runs (execution order and scopes come from
        # each state's own scope index).  Per tasklet, its ``(connector,
        # memlet)`` reads and writes and the connectors it must assign.
        self._tasklet_io: Dict[int, Tuple[List, List, Set[str]]] = {}
        self._subset_code_cache: Dict[int, List[Tuple[Any, Any, Any]]] = {}
        self._free_symbols_cache: Optional[Set[str]] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        arguments: Optional[Mapping[str, Any]] = None,
        symbols: Optional[Mapping[str, Any]] = None,
        collect_coverage: bool = False,
    ) -> ExecutionResult:
        """Execute the program and return the final system state."""
        arguments = dict(arguments or {})
        symbols = dict(symbols or {})
        self._coverage = CoverageMap() if collect_coverage else None
        self._tasklet_counts = {}
        self._setup(arguments, symbols)

        transitions = self._run_control_loop()

        if self._coverage is not None:
            for guid, count in self._tasklet_counts.items():
                self._coverage.record_tasklet(guid, count)

        outputs = {
            name: np.array(self._store[name], copy=True)
            for name, desc in self.sdfg.arrays.items()
            if not desc.transient and name in self._store
        }
        return ExecutionResult(
            outputs=outputs,
            symbols=dict(self._symbols),
            transitions=transitions,
            coverage=self._coverage or CoverageMap(),
        )

    def _run_control_loop(self) -> int:
        """Walk the state machine until termination; returns the transition
        count.  The only part of the run contract backends may override:
        the compiled backend replaces this generic loop with a generated
        whole-program driver while inheriting setup/teardown and result
        construction verbatim."""
        state: Optional[SDFGState] = self.sdfg.start_state
        transitions = 0
        prev_label = "__start__"
        while state is not None:
            if transitions > self.max_transitions:
                raise HangError(self.max_transitions)
            if self._coverage is not None:
                self._coverage.record_transition(prev_label, state.label)
            self._execute_state(state)
            prev_label = state.label
            state = self._next_state(state)
            transitions += 1
        return transitions

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _setup(self, arguments: Dict[str, Any], symbols: Dict[str, Any]) -> None:
        self._store = {}
        self._symbols = {}
        # Constants and explicit symbol values.
        self._symbols.update(self.sdfg.constants)
        for name, value in symbols.items():
            self._symbols[name] = self._as_symbol_value(value)
        # Symbols may also arrive through the arguments dictionary.
        for name in list(arguments.keys()):
            if name not in self.sdfg.arrays and isinstance(
                arguments[name], (int, np.integer, float, np.floating)
            ):
                self._symbols[name] = self._as_symbol_value(arguments.pop(name))

        # free_symbols walks every memlet subset and interstate expression;
        # cache it across runs (this assumes the program is not mutated
        # after preparation -- the repeated-trial contract every backend
        # already relies on).
        if self._free_symbols_cache is None:
            self._free_symbols_cache = self.sdfg.free_symbols
        missing_syms = self._free_symbols_cache - set(self._symbols)
        if missing_syms:
            raise MissingArgumentError(
                f"Missing values for symbols: {sorted(missing_syms)}"
            )

        # Bind containers.
        for name, desc in self.sdfg.arrays.items():
            if desc.transient:
                self._store[name] = desc.allocate(self._symbols)
                continue
            if name not in arguments:
                raise MissingArgumentError(f"Missing argument for container '{name}'")
            value = arguments[name]
            self._store[name] = self._coerce_argument(name, desc, value)
        # Unknown extra arguments are rejected to catch harness mistakes.
        extra = set(arguments) - set(self.sdfg.arrays)
        if extra:
            raise MissingArgumentError(
                f"Arguments do not correspond to program containers: {sorted(extra)}"
            )

    @staticmethod
    def _as_symbol_value(value: Any) -> Any:
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        return value

    def _coerce_argument(self, name: str, desc, value: Any) -> np.ndarray:
        dtype = desc.dtype.as_numpy()
        if isinstance(desc, Scalar):
            arr = np.asarray(value, dtype=dtype).reshape((1,))
            out = arr.copy() if self.copy_inputs else arr
            return out
        arr = np.asarray(value, dtype=dtype)
        expected = desc.concrete_shape(self._symbols)
        if arr.shape != expected:
            raise InvalidValueError(
                f"Argument '{name}' has shape {arr.shape}, expected {expected}"
            )
        return arr.copy() if self.copy_inputs else arr

    # ------------------------------------------------------------------ #
    # Control flow
    # ------------------------------------------------------------------ #
    def _interstate_namespace(self) -> Dict[str, Any]:
        ns = dict(self._symbols)
        # Scalar containers are visible to conditions/assignments.
        for name, desc in self.sdfg.arrays.items():
            if isinstance(desc, Scalar) and name in self._store:
                ns[name] = self._store[name][0]
        return ns

    def _next_state(self, state: SDFGState) -> Optional[SDFGState]:
        out_edges = self.sdfg.out_edges(state)
        if not out_edges:
            return None
        ns = self._interstate_namespace()
        for edge in out_edges:
            isedge = edge.data
            try:
                cond = bool(
                    eval(  # noqa: S307 - restricted namespace
                        compile_expression(isedge.condition), _EVAL_GLOBALS, ns
                    )
                )
            except Exception as exc:  # noqa: BLE001
                raise ExecutionError(
                    f"Failed to evaluate interstate condition "
                    f"{isedge.condition!r}: {exc}"
                ) from exc
            if self._coverage is not None:
                self._coverage.record_condition(
                    f"{state.label}->{edge.dst.label}", cond
                )
            if not cond:
                continue
            for sym, expr in isedge.assignments.items():
                try:
                    val = eval(  # noqa: S307 - restricted namespace
                        compile_expression(expr), _EVAL_GLOBALS, ns
                    )
                except Exception as exc:  # noqa: BLE001
                    raise ExecutionError(
                        f"Failed to evaluate interstate assignment "
                        f"{sym} = {expr!r}: {exc}"
                    ) from exc
                if isinstance(val, float) and val.is_integer():
                    val = int(val)
                self._symbols[sym] = val
                ns[sym] = val
            return edge.dst
        return None

    # ------------------------------------------------------------------ #
    # Dataflow execution
    # ------------------------------------------------------------------ #
    def _execute_state(self, state: SDFGState) -> None:
        # Null span (free) unless tracing is enabled; then one per-state
        # execute span, with per-scope spans nesting inside it.
        with _TRACER.span("execute.state", "execute") as span:
            span.set("state", state.label)
            bindings = dict(self._symbols)
            # Top-level nodes in execution order; the rest run inside their
            # enclosing map scope, map exits with their entry.
            for node in state.scope_children().get(None, ()):
                self._execute_node(state, node, bindings)

    def _execute_node(self, state: SDFGState, node: Node, bindings: Dict[str, Any]) -> None:
        if isinstance(node, Tasklet):
            self._execute_tasklet(state, node, bindings)
        elif isinstance(node, MapEntry):
            self._execute_map_scope(state, node, bindings)
        elif isinstance(node, MapExit):
            pass  # handled by the corresponding entry
        elif isinstance(node, AccessNode):
            self._execute_copies_into(state, node, bindings)
        elif isinstance(node, NestedSDFGNode):
            self._execute_nested(state, node, bindings)
        else:  # pragma: no cover - future node types
            raise ExecutionError(f"Cannot execute node of type {type(node).__name__}")

    # .................................................................. #
    def _execute_tasklet(self, state: SDFGState, node: Tasklet, bindings: Dict[str, Any]) -> None:
        io = self._tasklet_io.get(id(node))
        if io is None:
            reads = [
                (e.dst_conn, e.data)
                for e in state.in_edges(node)
                if e.data is not None and not e.data.is_empty and e.dst_conn is not None
            ]
            writes = [
                (e.src_conn, e.data)
                for e in state.out_edges(node)
                if e.data is not None and not e.data.is_empty and e.src_conn is not None
            ]
            io = self._tasklet_io[id(node)] = (reads, writes, {conn for conn, _ in writes})
        reads, writes, out_conns = io
        inputs = {conn: self._read(memlet, bindings) for conn, memlet in reads}
        outputs = self._runner.run(node.label, node.code, inputs, out_conns, bindings)
        for conn, memlet in writes:
            self._write(memlet, outputs[conn], bindings)
        self._tasklet_counts[node.guid] = self._tasklet_counts.get(node.guid, 0) + 1

    def _execute_copies_into(
        self, state: SDFGState, node: AccessNode, bindings: Dict[str, Any]
    ) -> None:
        for edge in state.in_edges(node):
            if not isinstance(edge.src, AccessNode):
                continue
            memlet: Memlet = edge.data
            if memlet is None or memlet.is_empty:
                continue
            src_data = memlet.data if memlet.data is not None else edge.src.data
            src_subset = memlet.subset
            dst_subset = memlet.other_subset
            if src_data == node.data and memlet.other_subset is not None:
                # Memlet was annotated with respect to the destination.
                src_data = edge.src.data
            value = self._read(
                Memlet(src_data, src_subset, wcr=None), bindings
            )
            if dst_subset is None:
                dst_subset = src_subset
            self._write(
                Memlet(node.data, dst_subset, wcr=memlet.wcr), value, bindings,
            )

    def _execute_nested(
        self, state: SDFGState, node: NestedSDFGNode, bindings: Dict[str, Any]
    ) -> None:
        nested = node.sdfg
        args: Dict[str, Any] = {}
        for edge in state.in_edges(node):
            memlet: Memlet = edge.data
            if memlet is None or memlet.is_empty or edge.dst_conn is None:
                continue
            args[edge.dst_conn] = np.asarray(self._read(memlet, bindings))
        nested_syms = {
            k: int(v.evaluate(bindings)) for k, v in node.symbol_mapping.items()
        }
        # Outputs must also be materialized as inputs so partial writes work.
        for edge in state.out_edges(node):
            memlet = edge.data
            if memlet is None or memlet.is_empty or edge.src_conn is None:
                continue
            if edge.src_conn not in args:
                args[edge.src_conn] = np.asarray(self._read(memlet, bindings))
        executor = SDFGExecutor(nested, max_transitions=self.max_transitions)
        result = executor.run(args, nested_syms)
        for edge in state.out_edges(node):
            memlet = edge.data
            if memlet is None or memlet.is_empty or edge.src_conn is None:
                continue
            self._write(memlet, result.outputs[edge.src_conn], bindings)
        self._tasklet_counts[node.guid] = self._tasklet_counts.get(node.guid, 0) + 1

    # .................................................................. #
    def _execute_map_scope(
        self, state: SDFGState, entry: MapEntry, bindings: Dict[str, Any]
    ) -> None:
        children = state.scope_children().get(entry, ())
        params = entry.map.params
        # Concretize iteration ranges once per scope execution.
        dims: List[range] = []
        for rng in entry.map.ranges:
            b, e, s = rng.evaluate(bindings)
            if s == 0:
                raise ExecutionError(f"Map '{entry.label}' has a zero step")
            dims.append(range(b, e + 1, s) if s > 0 else range(b, e - 1, s))
        local = dict(bindings)
        for point in itertools.product(*dims):
            for p, v in zip(params, point):
                local[p] = v
            for node in children:
                self._execute_node(state, node, local)

    # ------------------------------------------------------------------ #
    # Memory access
    # ------------------------------------------------------------------ #
    def _subset_code(self, memlet: Memlet) -> List[Tuple[Any, Any, Any]]:
        """Per range ``(begin, end, step)`` terms: an ``int`` for an integer
        literal, a compiled expression otherwise; ``end`` is ``None`` for a
        point range (it is the begin, evaluated once)."""
        # Keyed by the subset object (owned by the program's memlets), not by
        # the memlet wrapper, because temporary Memlet wrappers are created
        # during copies and their ids may be reused after garbage collection.
        key = id(memlet.subset)
        cached = self._subset_code_cache.get(key)
        if cached is None:

            def term(expr):
                if isinstance(expr, Integer):
                    return expr.value
                return compile_expression(str(expr))

            cached = [
                (term(r.begin), None if r.is_point() else term(r.end), term(r.step))
                for r in memlet.subset.ranges
            ]
            self._subset_code_cache[key] = cached
        return cached

    def _concrete_subset(
        self, memlet: Memlet, bindings: Dict[str, Any]
    ) -> List[Tuple[int, int, int]]:
        out: List[Tuple[int, int, int]] = []
        for bc, ec, sc in self._subset_code(memlet):
            try:
                b = bc if bc.__class__ is int else int(eval(bc, _EVAL_GLOBALS, bindings))  # noqa: S307
                if ec is None:
                    e = b
                else:
                    e = ec if ec.__class__ is int else int(eval(ec, _EVAL_GLOBALS, bindings))  # noqa: S307
                s = sc if sc.__class__ is int else int(eval(sc, _EVAL_GLOBALS, bindings))  # noqa: S307
            except Exception as exc:  # noqa: BLE001
                raise ExecutionError(
                    f"Cannot evaluate subset of memlet {memlet}: {exc}"
                ) from exc
            out.append((b, e, s))
        return out

    def _check_bounds(
        self, data: str, concrete: List[Tuple[int, int, int]], shape: Tuple[int, ...]
    ) -> None:
        if len(concrete) != len(shape):
            raise MemoryViolation(data, str(concrete), shape, "dimensionality mismatch")
        for (b, e, s), dim in zip(concrete, shape):
            if s > 0 and b > e:
                continue  # empty range
            lo, hi = (b, e) if b <= e else (e, b)
            if lo < 0 or hi >= dim:
                raise MemoryViolation(
                    data,
                    ", ".join(
                        f"{bb}:{ee}:{ss}" if bb != ee else str(bb) for bb, ee, ss in concrete
                    ),
                    shape,
                )

    def _read(self, memlet: Memlet, bindings: Dict[str, Any]) -> Any:
        if memlet.data not in self._store:
            raise ExecutionError(f"Read from unknown container '{memlet.data}'")
        arr = self._store[memlet.data]
        concrete = self._concrete_subset(memlet, bindings)
        self._check_bounds(memlet.data, concrete, arr.shape)
        if all(b == e for b, e, _ in concrete):
            idx = tuple(b for b, _, _ in concrete)
            return arr[idx]
        slices = tuple(
            slice(b, e + 1, s) if s > 0 else slice(b, None if e - 1 < 0 else e - 1, s)
            for b, e, s in concrete
        )
        return arr[slices].copy()

    def _write(self, memlet: Memlet, value: Any, bindings: Dict[str, Any]) -> None:
        if memlet.data not in self._store:
            raise ExecutionError(f"Write to unknown container '{memlet.data}'")
        arr = self._store[memlet.data]
        subset = memlet.other_subset if memlet.other_subset is not None else memlet.subset
        target = Memlet(memlet.data, subset, wcr=memlet.wcr) if subset is not memlet.subset else memlet
        concrete = self._concrete_subset(target, bindings)
        self._check_bounds(memlet.data, concrete, arr.shape)
        if all(b == e for b, e, _ in concrete):
            idx: Any = tuple(b for b, _, _ in concrete)
        else:
            idx = tuple(
                slice(b, e + 1, s) if s > 0 else slice(b, None if e - 1 < 0 else e - 1, s)
                for b, e, s in concrete
            )
        if memlet.wcr is not None:
            func = reduction_function(memlet.wcr)
            arr[idx] = func(arr[idx], value)
        else:
            val = np.asarray(value)
            if isinstance(idx, tuple) and all(isinstance(i, slice) for i in idx):
                region_shape = arr[idx].shape
                if val.shape != region_shape and val.size == np.prod(region_shape, dtype=int):
                    val = val.reshape(region_shape)
            arr[idx] = val


def execute_sdfg(
    sdfg: SDFG,
    arguments: Optional[Mapping[str, Any]] = None,
    symbols: Optional[Mapping[str, Any]] = None,
    collect_coverage: bool = False,
    max_transitions: int = 100_000,
) -> ExecutionResult:
    """Convenience one-shot execution of an SDFG."""
    return SDFGExecutor(sdfg, max_transitions=max_transitions).run(
        arguments, symbols, collect_coverage=collect_coverage
    )
