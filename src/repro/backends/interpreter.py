"""The reference backend: the node-by-node SDFG interpreter.

This is a thin adapter putting :class:`~repro.interpreter.executor.SDFGExecutor`
behind the :class:`~repro.backends.base.ExecutionBackend` seam.  ``prepare``
constructs the executor once per program; the executor's internal caches
(tasklet I/O lists, compiled subset code) then persist across ``run``
calls, so repeated fuzzing trials on the same cutout stop re-deriving them.
Execution order and scopes come from each state's own scope index.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.backends.base import CompiledProgram, ExecutionBackend
from repro.interpreter.executor import ExecutionResult, SDFGExecutor
from repro.sdfg.sdfg import SDFG

__all__ = ["InterpreterBackend", "InterpreterProgram"]


class InterpreterProgram(CompiledProgram):
    """A program bound to a reusable :class:`SDFGExecutor`."""

    def __init__(self, sdfg: SDFG, max_transitions: int = 100_000) -> None:
        super().__init__(sdfg)
        self.executor = SDFGExecutor(sdfg, max_transitions=max_transitions)

    def run(
        self,
        arguments: Optional[Mapping[str, Any]] = None,
        symbols: Optional[Mapping[str, Any]] = None,
    ) -> ExecutionResult:
        return self.executor.run(arguments, symbols)


class InterpreterBackend(ExecutionBackend):
    """The reference interpreter, executing map scopes element by element."""

    name = "interpreter"

    def prepare(self, sdfg: SDFG, max_transitions: int = 100_000) -> InterpreterProgram:
        return InterpreterProgram(sdfg, max_transitions=max_transitions)
