"""NumPy-backed execution of dataflow programs.

The paper's implementation generates C++ code from SDFGs and runs it natively;
this reproduction executes programs directly with an interpreter.  The
differential-testing workflow only needs deterministic execution with
crash/hang detection, both of which the interpreter provides:

* :class:`~repro.interpreter.executor.SDFGExecutor` -- runs a program on
  concrete inputs and symbol values,
* :class:`~repro.interpreter.errors.MemoryViolation` and friends -- the
  "crash" class of system-state changes (Sec. 5.1).
"""

from repro.interpreter.errors import (
    ExecutionError,
    HangError,
    MemoryViolation,
    MissingArgumentError,
    TaskletExecutionError,
)
from repro.interpreter.executor import ExecutionResult, SDFGExecutor, execute_sdfg

__all__ = [
    "SDFGExecutor",
    "ExecutionResult",
    "execute_sdfg",
    "ExecutionError",
    "MemoryViolation",
    "HangError",
    "TaskletExecutionError",
    "MissingArgumentError",
]
