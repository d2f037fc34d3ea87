"""The Python driver generator: whole-program control-flow codegen.

The codegen stage of the lowering pipeline (analyze -> codegen ->
execute), covering *interstate* control flow; per-state dataflow is the
analyzer's records (:mod:`repro.backends.codegen.numpy_eager`).  The state
machine is lowered to one generated Python function, a
``while``-over-current-state dispatch loop that handles every interstate
graph (loops, branches, joins and irreducible cycles alike):

* each state is one arm of an ``if``/``elif`` chain on the current state
  index, running its prepared op list inline;
* interstate edge conditions and symbol assignments become inline Python
  expressions (:func:`repro.symbolic.codegen.emit_interstate_expression`)
  reading program symbols from one shared dict and scalar containers from
  the data store -- no per-transition namespace rebuild, no ``eval``;
* out-edges are tried in order and the first true condition wins; none
  true ends the program -- the interpreter's ``_next_state`` contract.

The generated driver calls back into runtime services (``__rt._hang`` and
friends) supplied by the execute layer, but this module never imports it --
the driver receives the runtime as a parameter.  Layer direction is
enforced by ``make lint-arch``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.interpreter.executor import _EVAL_GLOBALS
from repro.interpreter.executor import SDFGExecutor as _SDFGExecutor
from repro.interpreter.tasklet_exec import compile_code
from repro.sdfg.data import Scalar
from repro.sdfg.sdfg import SDFG
from repro.sdfg.state import SDFGState
from repro.symbolic.codegen import (
    ExpressionCodegenError,
    emit_interstate_expression,
)

__all__ = ["compile_driver"]

#: Globals of the generated driver.  User expressions see exactly the
#: interpreter's ``_EVAL_GLOBALS`` vocabulary; the dunder-prefixed aliases
#: are infrastructure used by *emitted* statements only, so they cannot
#: widen what a program's own conditions can resolve.
_DRIVER_GLOBALS: Dict[str, Any] = dict(_EVAL_GLOBALS)
_DRIVER_GLOBALS.update(
    {
        "__bool": bool,
        "__isinstance": isinstance,
        "__float": float,
        "__int": int,
        "__Exception": Exception,
    }
)

#: Filename of every generated driver.  Drivers compile through the shared
#: source memo, so the name cannot be per program: programs whose drivers
#: have equal source text (most single-state cutouts) share one code object
#: and each ``exec`` it into a namespace of their own.
_DRIVER_FILENAME = "<compiled-sdfg>"


# ---------------------------------------------------------------------- #
# Driver code generation
# ---------------------------------------------------------------------- #
class _DriverEmitter:
    """Emits the Python source of one whole-program driver function."""

    def __init__(
        self,
        sdfg: SDFG,
        state_index: Dict[SDFGState, int],
        scalar_names: Set[str],
    ) -> None:
        self.sdfg = sdfg
        self.state_index = state_index
        self.scalar_names = scalar_names
        self.lines: List[str] = []
        self.indent = 0

    # .................................................................. #
    def line(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"

    # .................................................................. #
    def emit_driver(self) -> None:
        """The driver function: prologue, then one ``while``-over-current-
        state loop whose ``if``/``elif`` arms are the states."""
        self.line("def __drive(__rt):")
        self.indent += 1
        self.line("__sym = __rt._symbols")
        self.line("__store = __rt._store")
        self.line("__max = __rt.max_transitions")
        self.line("__allops = __rt._state_ops")
        for index in range(len(self.state_index)):
            self.line(f"__ops{index} = __allops[{index}]")
        self.line("__t = 0")
        self.line(f"__s = {self.state_index[self.sdfg.start_state]}")
        self.line("while __s >= 0:")
        self.indent += 1
        keyword = "if"
        for state, idx in self.state_index.items():
            self.line(f"{keyword} __s == {idx}:")
            keyword = "elif"
            self.indent += 1
            self.emit_exec(state)
            self._emit_dispatch_arms(self.sdfg.out_edges(state), 0)
            self.indent -= 1
        self.indent -= 1
        self.line("return __t")
        self.indent -= 1

    def emit_exec(self, state: SDFGState) -> None:
        """One state execution, mirroring the interpreter's per-state steps:
        hang check, dataflow, transition count.  The dataflow is the state's
        prepared op list, iterated inline."""
        self.line("if __t > __max:")
        self.line("    __rt._hang()")
        index = self.state_index[state]
        self.line(f"for __f in __ops{index}:")
        self.line("    __f(__rt, __sym)")
        self.line("__t += 1")

    # .................................................................. #
    def emit_condition(self, edge) -> None:
        """Sets ``__c`` to the edge condition's truth value (or raises the
        interpreter's :class:`ExecutionError` wrapper)."""
        cond = edge.data.condition
        try:
            src = emit_interstate_expression(cond, self.scalar_names)
            expr = f"__bool({src})"
        except ExpressionCodegenError:
            # Unparseable condition: defer to the interpreter's dynamic
            # evaluation so the failure mode (and message) is identical.
            expr = f"__bool(__rt._eval_raw({cond!r}))"
        self.line("try:")
        self.line(f"    __c = {expr}")
        self.line("except __Exception as __exc:")
        self.line(f"    __rt._cond_fail({cond!r}, __exc)")

    def emit_assignments(self, edge) -> None:
        for sym, expr in edge.data.assignments.items():
            try:
                src = emit_interstate_expression(expr, self.scalar_names)
            except ExpressionCodegenError:
                src = f"__rt._eval_raw({expr!r})"
            self.line("try:")
            self.line(f"    __v = {src}")
            self.line("except __Exception as __exc:")
            self.line(f"    __rt._assign_fail({sym!r}, {expr!r}, __exc)")
            # Interpreter parity: integral floats become Python ints.
            self.line("if __isinstance(__v, __float) and __v.is_integer():")
            self.line("    __v = __int(__v)")
            self.line(f"__sym[{sym!r}] = __v")

    # .................................................................. #
    def _emit_dispatch_arms(self, edges, i: int) -> None:
        """Evaluate out-edges in order; the first true condition sets the
        next state, no true condition ends the program (``__s = -1``)."""
        if i == len(edges):
            self.line("__s = -1")
            return
        edge = edges[i]
        if edge.data.condition.strip() in ("True", "1"):
            # The interpreter evaluates these to True, so this edge is taken
            # and the later ones are never evaluated.
            self.emit_assignments(edge)
            self.line(f"__s = {self.state_index[edge.dst]}")
            return
        self.emit_condition(edge)
        self.line("if __c:")
        self.indent += 1
        self.emit_assignments(edge)
        self.line(f"__s = {self.state_index[edge.dst]}")
        self.indent -= 1
        self.line("else:")
        self.indent += 1
        self._emit_dispatch_arms(edges, i + 1)
        self.indent -= 1


def _interpreted_drive(rt) -> int:
    """Fallback control loop: the interpreter's transition machinery verbatim
    (dataflow still runs through the vectorized scope kernels)."""
    return _SDFGExecutor._run_control_loop(rt)


def compile_driver(
    sdfg: SDFG, state_index: Dict[SDFGState, int]
) -> Tuple[str, Optional[str], Optional[Callable]]:
    """Generate the whole-program driver for ``sdfg``.

    Returns ``(mode, source, fn)`` where mode is ``"dispatch"`` (the
    generated driver), ``"interpreted"`` (dynamic-transition safety net) or
    ``"empty"`` (stateless program; running it raises like the interpreter).
    Driver code objects are memoised by source text.
    """
    if not sdfg.states():
        return "empty", None, None

    scalar_names = {
        name for name, desc in sdfg.arrays.items() if isinstance(desc, Scalar)
    }
    assigned: Set[str] = set()
    for e in sdfg.edges():
        assigned |= set(e.data.assignments)
    if assigned & scalar_names:
        # An interstate assignment shadowing a scalar container cannot be
        # routed statically (the interpreter's namespace lets the assigned
        # value win within a transition, the scalar win on the next one).
        return "interpreted", None, _interpreted_drive

    try:
        emitter = _DriverEmitter(sdfg, state_index, scalar_names)
        emitter.emit_driver()
        source = emitter.source()
        namespace: Dict[str, Any] = {}
        code = compile_code(source, _DRIVER_FILENAME)
        exec(code, dict(_DRIVER_GLOBALS), namespace)  # noqa: S102
        return "dispatch", source, namespace["__drive"]
    except Exception:  # noqa: BLE001 - never fail prepare; degrade instead
        return "interpreted", None, _interpreted_drive
