"""The SDFG interpreter.

Executes a parametric dataflow program on concrete inputs:

* allocates transient containers, binds provided arguments and symbol values,
* walks the control-flow state machine (with a transition budget so
  non-terminating programs are reported as hangs rather than blocking the
  fuzzer),
* executes each state's dataflow graph in topological order, expanding map
  scopes into concrete iteration spaces,
* checks every memlet against its container bounds (the interpreter analogue
  of a segmentation fault).

Performance notes (this is the hot loop of every fuzzing trial): a memory
access costs one ``eval``.  Each memlet subset compiles once per executor
(keyed by ``id(subset)``) into one code object that yields all of its terms,
left to right, against a plain ``dict`` of symbol values.  A *static point*
subset (every range a point with a literal step, the element-wise access of a
map body) yields its index tuple directly -- a constant tuple when every term
is a literal -- and is bounds-checked inline; error messages are built only on
failure.  Tasklet code objects are cached by the
:class:`~repro.interpreter.tasklet_exec.TaskletRunner`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.interpreter.errors import (
    ExecutionError,
    HangError,
    InvalidValueError,
    MemoryViolation,
    MissingArgumentError,
)
from repro.interpreter.tasklet_exec import TaskletRunner, compile_expression
from repro.sdfg.data import Scalar
from repro.sdfg.dtypes import reduction_function
from repro.sdfg.memlet import Memlet
from repro.sdfg.nodes import (
    AccessNode,
    MapEntry,
    MapExit,
    Node,
    Tasklet,
)
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.symbolic.expressions import Integer
from repro.symbolic.ranges import Subset
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

#: The real ``int`` in generated subset code, reached through a constant so
#: that no symbol (not even one named ``int``) can shadow it.
_INT = "(0).__class__"


class _Access:
    """One memlet subset, compiled for an executor.

    ``code`` evaluates every term in one ``eval``, each coerced with the real
    ``int``; it is the value tuple itself when every term is a literal.  A
    static point subset (``inside`` set) yields its index tuple; any other
    yields ``begin, [end,] step`` per range, ``end`` left out of a point range
    (``points``).  The subset is held so its ``id`` stays its own."""

    __slots__ = ("subset", "code", "inside", "points")

    def __init__(self, subset: Subset) -> None:
        ranges = subset.ranges
        self.subset = subset
        self.points = tuple(r.is_point() for r in ranges)
        static = bool(ranges) and all(
            p and isinstance(r.step, Integer) for p, r in zip(self.points, ranges)
        )
        if static:
            terms = [r.begin for r in ranges]
            self.inside = _inside(len(ranges))
        else:
            terms = [
                t for p, r in zip(self.points, ranges)
                for t in ((r.begin, r.step) if p else (r.begin, r.end, r.step))
            ]
            self.inside = None
        if all(isinstance(t, Integer) for t in terms):
            self.code = tuple(t.value for t in terms)
        else:
            self.code = compile_expression(
                "(" + "".join(
                    f"{t.value}, " if isinstance(t, Integer) else f"{_INT}({t}), "
                    for t in terms
                ) + ")"
            )


_INSIDE: Dict[int, Any] = {}


def _inside(rank: int):
    """``inside(index, shape)``: whether a rank-``rank`` index tuple lies in
    ``shape``, one chained comparison per dimension (built once per rank)."""
    check = _INSIDE.get(rank)
    if check is None:
        dims = "".join(f" and 0 <= i[{d}] < s[{d}]" for d in range(rank))
        check = _INSIDE[rank] = eval(f"lambda i, s: len(s) == {rank}{dims}")  # noqa: S307
    return check


def _check_bounds(data: str, concrete: List[Tuple[int, int, int]], shape: Tuple[int, ...]) -> None:
    """Raise :class:`MemoryViolation` unless every ``(begin, end, step)``
    range lies inside ``shape`` (an empty positive-step range always does)."""
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


@dataclass
class ExecutionResult:
    """Outcome of running a program."""

    #: Final contents of every non-transient container (arrays of the run
    #: that produced them; no later run writes them).
    outputs: Dict[str, np.ndarray]
    #: Final symbol values (including loop counters).
    symbols: Dict[str, Any]
    #: Number of control-flow state transitions taken.
    transitions: int


class SDFGExecutor:
    """Interprets an SDFG on concrete argument values."""

    def __init__(
        self,
        sdfg: SDFG,
        max_transitions: int = 100_000,
    ) -> None:
        self.sdfg = sdfg
        self.max_transitions = max_transitions
        self._runner = TaskletRunner()
        # Per-run data store and symbol bindings.
        self._store: Dict[str, np.ndarray] = {}
        self._symbols: Dict[str, Any] = {}
        # Caches invariant across runs (execution order and scopes come from
        # each state's own scope index).  Per tasklet, its ``(connector,
        # data, subset, memlet)`` reads, ``(connector, data, subset, wcr)``
        # writes and the connectors it must assign; per subset, by id, its
        # compiled access.
        self._tasklet_io: Dict[int, Tuple[List, List, Set[str]]] = {}
        self._accesses: Dict[int, _Access] = {}
        self._free_symbols_cache: Optional[Set[str]] = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        arguments: Optional[Mapping[str, Any]] = None,
        symbols: Optional[Mapping[str, Any]] = None,
    ) -> ExecutionResult:
        """Execute the program and return the final system state."""
        arguments = dict(arguments or {})
        symbols = dict(symbols or {})
        try:
            self._setup(arguments, symbols)
            transitions = self._run_control_loop()
            # No copy: every store array is private to this run (arguments
            # are copied in, transients allocated), and the next run binds
            # new ones.
            outputs = {
                name: self._store[name]
                for name, desc in self.sdfg.arrays.items()
                if not desc.transient and name in self._store
            }
            return ExecutionResult(
                outputs=outputs,
                symbols=dict(self._symbols),
                transitions=transitions,
            )
        finally:
            # A prepared program outlives its runs (one per trial): drop the
            # per-run data store and symbols so an idle program does not pin
            # its last trial's arrays.
            self._store = {}
            self._symbols = {}

    def _run_control_loop(self) -> int:
        """Walk the state machine until termination; returns the transition
        count.  The only part of the run contract a subclass may override:
        :class:`~repro.backends.compiled.CompiledExecutor` replaces this
        generic loop with a generated whole-program driver while inheriting
        setup, result construction and the per-trial reset verbatim."""
        state: Optional[SDFGState] = self.sdfg.start_state
        transitions = 0
        while state is not None:
            if transitions > self.max_transitions:
                raise HangError(self.max_transitions)
            self._execute_state(state)
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
        # Always one copy, the run's only one: the fuzzer and ``cross`` hand
        # one argument dict to two programs, and neither may see the other's
        # writes (nor the caller its own).
        dtype = desc.dtype.as_numpy()
        if isinstance(desc, Scalar):
            return np.asarray(value, dtype=dtype).reshape((1,)).copy()
        arr = np.array(value, dtype=dtype, order="C")
        expected = desc.concrete_shape(self._symbols)
        if arr.shape != expected:
            raise InvalidValueError(
                f"Argument '{name}' has shape {arr.shape}, expected {expected}"
            )
        return arr

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
        else:  # pragma: no cover - future node types
            raise ExecutionError(f"Cannot execute node of type {type(node).__name__}")

    # .................................................................. #
    def _execute_tasklet(self, state: SDFGState, node: Tasklet, bindings: Dict[str, Any]) -> None:
        io = self._tasklet_io.get(id(node))
        if io is None:
            reads = [
                (e.dst_conn, e.data.data, e.data.subset, e.data)
                for e in state.in_edges(node)
                if e.data is not None and not e.data.is_empty and e.dst_conn is not None
            ]
            writes = [
                (e.src_conn, *_write_target(e.data))
                for e in state.out_edges(node)
                if e.data is not None and not e.data.is_empty and e.src_conn is not None
            ]
            io = self._tasklet_io[id(node)] = (reads, writes, {w[0] for w in writes})
        reads, writes, out_conns = io
        inputs = {
            conn: self._read(data, subset, bindings, memlet)
            for conn, data, subset, memlet in reads
        }
        outputs = self._runner.run(node.label, node.code, inputs, out_conns, bindings)
        for conn, data, subset, wcr in writes:
            self._write(data, subset, wcr, outputs[conn], bindings)

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
            value = self._read(src_data, src_subset, bindings)
            if dst_subset is None:
                dst_subset = src_subset
            self._write(node.data, dst_subset, memlet.wcr, value, bindings)

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
    def _index(
        self,
        data: str,
        subset: Subset,
        wcr: Optional[str],
        bindings: Dict[str, Any],
        shape: Tuple[int, ...],
        memlet: Optional[Memlet] = None,
    ) -> tuple:
        """The bounds-checked index of ``subset`` into a ``data`` container
        of ``shape``: a tuple of ints for a single element, of slices for a
        region.  Errors quote ``memlet``, or the memlet ``data[subset]``
        with ``wcr``, built only then."""
        access = self._accesses.get(id(subset))
        if access is None:
            access = self._accesses[id(subset)] = _Access(subset)
        values = access.code
        if values.__class__ is not tuple:
            try:
                values = eval(values, _EVAL_GLOBALS, bindings)  # noqa: S307
            except Exception as exc:  # noqa: BLE001
                if memlet is None:
                    memlet = Memlet(data, subset, wcr=wcr)
                raise ExecutionError(
                    f"Cannot evaluate subset of memlet {memlet}: {exc}"
                ) from exc
        if access.inside is not None:
            if not access.inside(values, shape):
                _check_bounds(
                    data, [(i, i, r.step.value) for i, r in zip(values, subset.ranges)], shape
                )
            return values
        concrete = []
        terms = iter(values)
        for point in access.points:
            b = next(terms)
            concrete.append((b, b if point else next(terms), next(terms)))
        _check_bounds(data, concrete, shape)
        if all(b == e for b, e, _ in concrete):
            return tuple(b for b, _, _ in concrete)
        return tuple(
            slice(b, e + 1, s) if s > 0 else slice(b, None if e - 1 < 0 else e - 1, s)
            for b, e, s in concrete
        )

    def _read(
        self,
        data: str,
        subset: Subset,
        bindings: Dict[str, Any],
        memlet: Optional[Memlet] = None,
    ) -> Any:
        """One element as a scalar, a region as a copy."""
        arr = self._store.get(data)
        if arr is None:
            raise ExecutionError(f"Read from unknown container '{data}'")
        idx = self._index(data, subset, None, bindings, arr.shape, memlet)
        if idx and idx[0].__class__ is slice:
            return arr[idx].copy()
        return arr[idx]

    def _write(
        self,
        data: str,
        subset: Subset,
        wcr: Optional[str],
        value: Any,
        bindings: Dict[str, Any],
    ) -> None:
        arr = self._store.get(data)
        if arr is None:
            raise ExecutionError(f"Write to unknown container '{data}'")
        idx = self._index(data, subset, wcr, bindings, arr.shape)
        if wcr is not None:
            func = reduction_function(wcr)
            arr[idx] = func(arr[idx], value)
        else:
            val = np.asarray(value)
            # A region (and a rank-0 index, as always) takes a value of its
            # element count in any shape.
            if not idx or idx[0].__class__ is slice:
                region_shape = arr[idx].shape
                if val.shape != region_shape and val.size == np.prod(region_shape, dtype=int):
                    val = val.reshape(region_shape)
            arr[idx] = val


def _write_target(memlet: Memlet) -> Tuple[str, Subset, Optional[str]]:
    """``(data, subset, wcr)`` of a memlet's write: a copy edge writes its
    ``other_subset``."""
    subset = memlet.other_subset if memlet.other_subset is not None else memlet.subset
    return memlet.data, subset, memlet.wcr


def execute_sdfg(
    sdfg: SDFG,
    arguments: Optional[Mapping[str, Any]] = None,
    symbols: Optional[Mapping[str, Any]] = None,
    max_transitions: int = 100_000,
) -> ExecutionResult:
    """Convenience one-shot execution of an SDFG."""
    return SDFGExecutor(sdfg, max_transitions=max_transitions).run(arguments, symbols)
