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

A run's state is a value: :meth:`SDFGExecutor.run` builds a
:class:`TrialStore` (the run's arrays and symbols), passes it down to every
node executor and drops it when it returns, so each trial starts from a
fresh, reproducible state and an idle executor holds only what it compiled
from the program.  The compiled backend holds one of these executors and
calls the same node executors with its own run's store.

Performance notes (this is the hot loop of every fuzzing trial): a tasklet
compiles once per executor into an access plan (:class:`_Plan`).  One
execution costs at most one ``eval``, of the distinct index terms of its
*static point* accesses (every range a point with a literal step: a map
body's element access) that are not bare symbols, and one generated bounds
check over all of those accesses; point reads and writes index the arrays
directly.  A failed check re-runs the execution access by access, raising
what failed, in order.  A region access (:meth:`SDFGExecutor._index`) costs
one ``eval`` of its subset, compiled once per ``id(subset)``; a region of
extent 1 stays a region.
"""

from __future__ import annotations

import builtins
import itertools
from dataclasses import dataclass
from keyword import iskeyword
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.interpreter.errors import (
    ExecutionError,
    HangError,
    InvalidValueError,
    MemoryViolation,
    MissingArgumentError,
    TaskletExecutionError,
)
from repro.interpreter.tasklet_exec import TASKLET_GLOBALS, compile_code, compile_expression
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

__all__ = ["SDFGExecutor", "ExecutionResult", "TrialStore", "execute_sdfg"]

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

    ``code`` evaluates every term in one ``eval``, left to right, each
    coerced with the real ``int``; it is the value tuple itself when every
    term is a literal.  It yields ``(begin, end, step)`` per range, a point
    range's ``begin`` once more as its ``end`` (``points``).  The subset is
    held so its ``id`` stays its own."""

    __slots__ = ("subset", "code", "points")

    def __init__(self, subset: Subset) -> None:
        ranges = subset.ranges
        self.subset = subset
        self.points = tuple(r.is_point() for r in ranges)
        triples = [(r.begin, r.begin if p else r.end, r.step) for p, r in zip(self.points, ranges)]
        if all(isinstance(t, Integer) for triple in triples for t in triple):
            self.code = tuple(tuple(t.value for t in triple) for triple in triples)
        else:
            self.code = compile_expression("(" + "".join(
                "(" + "".join(
                    f"{t.value}, " if isinstance(t, Integer) else f"{_INT}({t}), " for t in triple
                ) + "), "
                for triple in triples
            ) + ")")


def _static_point(subset: Subset) -> bool:
    """Whether every range of ``subset`` is a point with a literal step."""
    ranges = subset.ranges
    return bool(ranges) and all(r.is_point() and isinstance(r.step, Integer) for r in ranges)


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


class _Plan:
    """One tasklet's accesses and code, compiled for an executor; it holds
    names and code, never arrays.  ``terms`` evaluates the distinct index
    terms of its static points that are neither literals nor bare symbols
    in one ``eval``; the generated ``locate(values, store, namespace)``
    coerces each term once with the real ``int``, checks every static point,
    binds the point reads and returns ``(array, index)`` per point write
    (``k`` in ``writes``), or ``None`` when a check fails.  Regions go
    through ``_read`` / ``_write``."""

    __slots__ = ("label", "source", "code", "reads", "regions", "writes", "out_conns", "terms",
                 "locate")

    def __init__(self, state: SDFGState, node: Tasklet) -> None:
        self.label, self.source = node.label, node.code
        try:
            self.code = compile_code(node.code)
        except Exception:  # noqa: BLE001 - the tasklet's error when it runs, after its reads
            self.code = None
        self.reads = [
            (e.dst_conn, e.data.data, e.data.subset, e.data)
            for e in state.in_edges(node)
            if e.data is not None and not e.data.is_empty and e.dst_conn is not None
        ]
        writes = [
            (e.src_conn, *_write_target(e.data))
            for e in state.out_edges(node)
            if e.data is not None and not e.data.is_empty and e.src_conn is not None
        ]
        self.out_conns = {w[0] for w in writes}
        # Local names per term, container and (container, rank); checks.
        terms, arrays, shapes, checks = {}, {}, {}, []

        def index(data: str, subset: Subset) -> Tuple[str, str]:
            a = arrays.setdefault(data, f"a{len(arrays)}")
            idx = [
                str(r.begin.value) if isinstance(r.begin, Integer)
                else terms.setdefault(str(r.begin), f"t{len(terms)}")
                for r in subset.ranges
            ]
            # Unpacking the shape checks the rank (a ValueError fails the plan).
            shape = shapes.setdefault((a, len(idx)), [f"{a}_{len(idx)}_{d}" for d in range(len(idx))])
            checks.extend(f"0 <= {i}" for i in idx)
            checks.extend(f"{i} < {n}" for i, n in zip(idx, shape))
            return a, f"({', '.join(idx)},)"

        self.regions = [r for r in self.reads if not _static_point(r[2])]
        binds = [
            "ns[{!r}] = {}[{}]".format(conn, *index(data, subset))
            for conn, data, subset, _ in self.reads
            if _static_point(subset)
        ]
        self.writes, targets = [], []
        for conn, data, subset, wcr in writes:
            static = _static_point(subset)
            if static:
                targets.append("({}, {})".format(*index(data, subset)))
            self.writes.append((conn, data, subset, wcr, len(targets) - 1 if static else None))
        # A bare symbol is read from the namespace (unbound: KeyError), and
        # an enclosing map's parameter is an int already; the other terms
        # come evaluated (``v``).
        params, scope = set(), state.scope_dict().get(node)
        while scope is not None:
            params.update(scope.map.params)
            scope = state.scope_dict().get(scope)
        named = [t for t in terms if t.isidentifier() and not iskeyword(t)]
        evaluated = [t for t in terms if t not in named]
        coerced = [t for t in named if t not in params]
        lines = ["def locate(v, st, ns):"]
        if evaluated:
            lines.append(f"({''.join(terms[t] + ', ' for t in evaluated)}) = map(int, v)")
        if coerced:
            lines.append(f"({''.join(terms[t] + ', ' for t in coerced)}) = "
                         f"map(int, ({''.join(f'ns[{t!r}], ' for t in coerced)}))")
        lines += [f"{terms[t]} = ns[{t!r}]" for t in named if t in params]
        lines += [f"{a} = st[{d!r}]" for d, a in arrays.items()]
        lines += [f"({''.join(n + ', ' for n in dims)}) = {a}.shape" for (a, _), dims in shapes.items()]
        if checks:
            lines.append(f"if not ({' and '.join(dict.fromkeys(checks))}): return None")
        lines += binds
        lines.append(f"return ({''.join(t + ', ' for t in targets)})")
        self.terms = (
            compile_expression(f"({''.join(t + ', ' for t in evaluated)})") if evaluated else None
        )
        # ``locate`` sees the real builtins (``int``, ``map``), never a symbol.
        defined: Dict[str, Any] = {}
        exec(compile_code("\n    ".join(lines), "<plan>"), {"__builtins__": builtins}, defined)  # noqa: S102
        self.locate = defined["locate"]


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


class TrialStore:
    """One run's state: ``run`` creates it and drops it when it returns, so a
    prepared program pins no trial's data between runs.  ``arrays`` holds
    every container (arguments copied in, transients allocated),
    ``symbols`` the symbol values, ``setups`` the compiled backend's scope
    setups by ``id`` of the lowered scope (they capture arrays, so they
    live exactly as long)."""

    __slots__ = ("arrays", "symbols", "setups")

    def __init__(self, arrays: Dict[str, np.ndarray], symbols: Dict[str, Any]) -> None:
        self.arrays = arrays
        self.symbols = symbols
        self.setups: Dict[int, Tuple[Tuple, Any]] = {}


class SDFGExecutor:
    """Interprets an SDFG on concrete argument values.  Everything it keeps
    between runs is compiled from the program (plans, accesses, symbol and
    scalar names); a run's data lives in its :class:`TrialStore`, passed
    down to every node executor."""

    def __init__(
        self,
        sdfg: SDFG,
        max_transitions: int = 100_000,
    ) -> None:
        self.sdfg = sdfg
        self.max_transitions = max_transitions
        # Caches invariant across runs (execution order and scopes come from
        # each state's own scope index).  Per tasklet, by id, its access
        # plan; per subset, by id, its compiled access.
        self._plans: Dict[int, _Plan] = {}
        self._accesses: Dict[int, _Access] = {}
        self._free_symbols_cache: Optional[Set[str]] = None
        #: The scalar containers, which interstate edges read as values.
        self._scalars = [name for name, desc in sdfg.arrays.items() if isinstance(desc, Scalar)]

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        arguments: Optional[Mapping[str, Any]] = None,
        symbols: Optional[Mapping[str, Any]] = None,
    ) -> ExecutionResult:
        """Execute the program and return the final system state."""
        store = self._setup(arguments, symbols)
        return self._result(store, self._run_control_loop(store, self._execute_state))

    def _result(self, store: TrialStore, transitions: int) -> ExecutionResult:
        """The result of a finished run.  No copy: every store array is
        private to its run (arguments are copied in, transients allocated)."""
        arrays = store.arrays
        outputs = {
            name: arrays[name]
            for name, desc in self.sdfg.arrays.items()
            if not desc.transient and name in arrays
        }
        return ExecutionResult(outputs=outputs, symbols=store.symbols, transitions=transitions)

    def _run_control_loop(self, store: TrialStore, execute_state) -> int:
        """Walk the state machine until termination, running each state as
        ``execute_state(store, state)``; returns the transition count.  The
        interpreter passes its :meth:`_execute_state`; the compiled
        backend's ``interpreted`` safety net passes its op lists'."""
        state: Optional[SDFGState] = self.sdfg.start_state
        transitions = 0
        while state is not None:
            if transitions > self.max_transitions:
                raise HangError(self.max_transitions)
            execute_state(store, state)
            state = self._next_state(store, state)
            transitions += 1
        return transitions

    # ------------------------------------------------------------------ #
    # Setup
    # ------------------------------------------------------------------ #
    def _setup(
        self, arguments: Optional[Mapping[str, Any]], symbols: Optional[Mapping[str, Any]]
    ) -> TrialStore:
        """A new run's store: symbols bound, arguments copied in, transients
        allocated."""
        arguments = dict(arguments or {})
        # Constants and explicit symbol values.
        values: Dict[str, Any] = dict(self.sdfg.constants)
        for name, value in (symbols or {}).items():
            values[name] = self._as_symbol_value(value)
        # Symbols may also arrive through the arguments dictionary.
        for name in list(arguments.keys()):
            if name not in self.sdfg.arrays and isinstance(
                arguments[name], (int, np.integer, float, np.floating)
            ):
                values[name] = self._as_symbol_value(arguments.pop(name))

        # free_symbols walks every memlet subset and interstate expression;
        # cache it across runs (this assumes the program is not mutated
        # after preparation -- the repeated-trial contract every backend
        # already relies on).
        if self._free_symbols_cache is None:
            self._free_symbols_cache = self.sdfg.free_symbols
        missing_syms = self._free_symbols_cache - set(values)
        if missing_syms:
            raise MissingArgumentError(
                f"Missing values for symbols: {sorted(missing_syms)}"
            )

        # Bind containers.
        arrays: Dict[str, np.ndarray] = {}
        for name, desc in self.sdfg.arrays.items():
            if desc.transient:
                arrays[name] = desc.allocate(values)
                continue
            if name not in arguments:
                raise MissingArgumentError(f"Missing argument for container '{name}'")
            arrays[name] = _coerce_argument(name, desc, arguments[name], values)
        # Unknown extra arguments are rejected to catch harness mistakes.
        extra = set(arguments) - set(self.sdfg.arrays)
        if extra:
            raise MissingArgumentError(
                f"Arguments do not correspond to program containers: {sorted(extra)}"
            )
        return TrialStore(arrays, values)

    @staticmethod
    def _as_symbol_value(value: Any) -> Any:
        if isinstance(value, (np.integer,)):
            return int(value)
        if isinstance(value, (np.floating,)):
            return float(value)
        return value

    # ------------------------------------------------------------------ #
    # Control flow
    # ------------------------------------------------------------------ #
    def _interstate_namespace(self, store: TrialStore) -> Dict[str, Any]:
        ns = dict(store.symbols)
        # Scalar containers are visible to conditions/assignments.
        arrays = store.arrays
        for name in self._scalars:
            ns[name] = arrays[name][0]
        return ns

    def _next_state(self, store: TrialStore, state: SDFGState) -> Optional[SDFGState]:
        out_edges = self.sdfg.out_edges(state)
        if not out_edges:
            return None
        ns = self._interstate_namespace(store)
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
                store.symbols[sym] = val
                ns[sym] = val
            return edge.dst
        return None

    # ------------------------------------------------------------------ #
    # Dataflow execution
    # ------------------------------------------------------------------ #
    def _execute_state(self, store: TrialStore, state: SDFGState) -> None:
        # Null span (free) unless tracing is enabled; then one per-state
        # execute span, with per-scope spans nesting inside it.
        with _TRACER.span("execute.state", "execute") as span:
            span.set("state", state.label)
            bindings = dict(store.symbols)
            # Top-level nodes in execution order; the rest run inside their
            # enclosing map scope, map exits with their entry.
            for run, node in self._bind(state, state.scope_children().get(None, ())):
                run(store, state, node, bindings)

    def _bind(self, state: SDFGState, nodes, nested=None) -> List[Tuple[Any, Node]]:
        """``(handler, node)`` for each of ``nodes``, in order; a map exit
        runs with its entry, a map entry with ``nested`` when given."""
        handlers = {Tasklet: self._execute_tasklet,
                    MapEntry: nested or self._execute_map_scope,
                    AccessNode: self._execute_copies_into}
        return [(handlers[type(node)], node) for node in nodes if type(node) is not MapExit]

    # .................................................................. #
    def _execute_tasklet(
        self, store: TrialStore, state: SDFGState, node: Tasklet, bindings: Dict[str, Any]
    ) -> None:
        plan = self._plans.get(id(node))
        if plan is None:
            plan = self._plans[id(node)] = _Plan(state, node)
        namespace, regions = dict(bindings), plan.regions
        try:
            targets = plan.locate(
                () if plan.terms is None else eval(plan.terms, _EVAL_GLOBALS, bindings),  # noqa: S307
                store.arrays,
                namespace,
            )
        except Exception:  # noqa: BLE001 - raised again below, in order
            targets = None
        if targets is None:
            regions = plan.reads  # access by access: raises what failed, in order
        for conn, data, subset, memlet in regions:
            namespace[conn] = self._read(store, data, subset, bindings, memlet)
        try:
            exec(plan.code or compile_code(plan.source), TASKLET_GLOBALS, namespace)  # noqa: S102
        except Exception as exc:  # noqa: BLE001 - converted to a typed error
            raise TaskletExecutionError(plan.label, exc) from exc
        for conn in plan.out_conns:
            if conn not in namespace:
                raise TaskletExecutionError(
                    plan.label, KeyError(f"tasklet did not assign output connector '{conn}'")
                )
        for conn, data, subset, wcr, k in plan.writes:
            if k is None or targets is None:
                self._write(store, data, subset, wcr, namespace[conn], bindings)
                continue
            arr, idx = targets[k]
            if wcr is None:
                try:
                    arr[idx] = namespace[conn]
                    continue
                except Exception:  # noqa: BLE001 - a few values convert only as arrays
                    pass
            _put(arr, idx, wcr, namespace[conn], data, subset)

    def _execute_copies_into(
        self, store: TrialStore, state: SDFGState, node: AccessNode, bindings: Dict[str, Any]
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
            value = self._read(store, src_data, src_subset, bindings)
            if dst_subset is None:
                dst_subset = src_subset
            self._write(store, node.data, dst_subset, memlet.wcr, value, bindings)

    # .................................................................. #
    def _execute_map_scope(
        self,
        store: TrialStore,
        state: SDFGState,
        entry: MapEntry,
        bindings: Dict[str, Any],
        nested=None,
    ) -> None:
        """Expand one map scope point by point.  A map nested in it runs as
        ``nested(store, state, entry, bindings)``, by default this method:
        the compiled backend hands in its scope runner when it falls back
        here, so a nested map can still vectorize."""
        calls = self._bind(state, state.scope_children().get(entry, ()), nested)
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
            local.update(zip(params, point))
            for run, node in calls:
                run(store, state, node, local)

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
        concrete = list(values)
        _check_bounds(data, concrete, shape)
        if all(access.points):
            return tuple(b for b, _, _ in concrete)
        return tuple(
            slice(b, e + 1, s) if s > 0 else slice(b, None if e - 1 < 0 else e - 1, s)
            for b, e, s in concrete
        )

    def _read(
        self,
        store: TrialStore,
        data: str,
        subset: Subset,
        bindings: Dict[str, Any],
        memlet: Optional[Memlet] = None,
    ) -> Any:
        """One element as a scalar, a region as a copy."""
        arr = store.arrays.get(data)
        if arr is None:
            raise ExecutionError(f"Read from unknown container '{data}'")
        idx = self._index(data, subset, None, bindings, arr.shape, memlet)
        if idx and idx[0].__class__ is slice:
            return arr[idx].copy()
        return arr[idx]

    def _write(
        self,
        store: TrialStore,
        data: str,
        subset: Subset,
        wcr: Optional[str],
        value: Any,
        bindings: Dict[str, Any],
    ) -> None:
        arr = store.arrays.get(data)
        if arr is None:
            raise ExecutionError(f"Write to unknown container '{data}'")
        _put(arr, self._index(data, subset, wcr, bindings, arr.shape), wcr, value, data, subset)


def _coerce_argument(name: str, desc, value: Any, symbols: Dict[str, Any]) -> np.ndarray:
    # Always one copy, the run's only one: the fuzzer and ``cross`` hand
    # one argument dict to two programs, and neither may see the other's
    # writes (nor the caller its own).
    dtype = desc.dtype.as_numpy()
    if isinstance(desc, Scalar):
        return np.asarray(value, dtype=dtype).reshape((1,)).copy()
    arr = np.array(value, dtype=dtype, order="C")
    expected = desc.concrete_shape(symbols)
    if arr.shape != expected:
        raise InvalidValueError(
            f"Argument '{name}' has shape {arr.shape}, expected {expected}"
        )
    return arr


def _put(arr: np.ndarray, idx: tuple, wcr: Optional[str], value: Any, data: str, subset: Subset) -> None:
    """Write ``value`` at a bounds-checked index of ``data``; an error NumPy
    raises names the memlet."""
    try:
        if wcr is not None:
            arr[idx] = reduction_function(wcr)(arr[idx], value)
        else:
            val = np.asarray(value)
            # A region (and a rank-0 index, as always) takes a value of its
            # element count in any shape.
            if not idx or idx[0].__class__ is slice:
                region_shape = arr[idx].shape
                if val.shape != region_shape and val.size == np.prod(region_shape, dtype=int):
                    val = val.reshape(region_shape)
            arr[idx] = val
    except Exception as exc:  # noqa: BLE001 - converted to a typed error
        raise ExecutionError(
            f"Cannot write memlet {Memlet(data, subset, wcr=wcr)}: {exc}"
        ) from exc


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
