"""The execution-backend seam.

FuzzyFlow's workflow separates *what* a dataflow program computes from *how*
it is executed: every fuzzing trial only needs an
:class:`~repro.interpreter.executor.ExecutionResult` for a (program, inputs,
symbols) triple.  An :class:`ExecutionBackend` encapsulates one execution
strategy behind a two-phase API:

* :meth:`ExecutionBackend.prepare` performs all per-program work -- argument
  coercion plans, symbol binding, subset compilation, code generation -- and
  returns a :class:`CompiledProgram`,
* :meth:`CompiledProgram.run` executes the prepared program on concrete
  inputs.  Repeated trials on the same program (the fuzzing hot loop) pay the
  preparation cost once.

Backends are looked up by name through a registry so callers (the
differential fuzzer, the verifier, the sweep pipeline CLI) can thread a plain
string through process boundaries.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Mapping, Optional, Union

from repro.interpreter.executor import ExecutionResult
from repro.sdfg.sdfg import SDFG

__all__ = [
    "CompiledProgram",
    "ExecutionBackend",
    "register_backend",
    "get_backend",
    "list_backends",
    "DEFAULT_BACKEND",
]

#: Name of the reference backend used when no selection is made.
DEFAULT_BACKEND = "interpreter"


class CompiledProgram(abc.ABC):
    """A program prepared for repeated execution by one backend."""

    def __init__(self, sdfg: SDFG) -> None:
        self.sdfg = sdfg

    @abc.abstractmethod
    def run(
        self,
        arguments: Optional[Mapping[str, Any]] = None,
        symbols: Optional[Mapping[str, Any]] = None,
    ) -> ExecutionResult:
        """Execute the prepared program and return the final system state.

        Must raise the :mod:`repro.interpreter.errors` hierarchy for runtime
        failures (crashes, hangs, memory violations) so differential testing
        classifies trials identically across backends.
        """


class ExecutionBackend(abc.ABC):
    """One strategy for executing dataflow programs."""

    #: Registry name of the backend.
    name: str = "abstract"

    @abc.abstractmethod
    def prepare(self, sdfg: SDFG, max_transitions: int = 100_000) -> CompiledProgram:
        """Compile a program for repeated execution."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_FACTORIES: Dict[str, Callable[[], ExecutionBackend]] = {}
_INSTANCES: Dict[str, ExecutionBackend] = {}


def register_backend(name: str, factory: Callable[[], ExecutionBackend]) -> None:
    """Register a backend factory under a name (overwrites silently)."""
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def list_backends() -> List[str]:
    """Names of all registered execution backends."""
    return sorted(_FACTORIES)


def get_backend(backend: Union[str, ExecutionBackend]) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    Besides plain registry names, ``cross:REF,CAND`` materializes a
    self-checking pair of any two registered backends (e.g.
    ``cross:compiled,interpreter``); the bare name ``cross`` is
    ``cross:interpreter,compiled``.

    Instances are shared per name within one process; every ``prepare``
    still returns a program of its own.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend.startswith("cross:"):
        if backend not in _INSTANCES:
            _INSTANCES[backend] = _make_cross_pair(backend)
        return _INSTANCES[backend]
    if backend not in _FACTORIES:
        raise KeyError(
            f"Unknown execution backend '{backend}' "
            f"(available: {', '.join(list_backends())}, "
            f"or 'cross:REF,CAND' for any pair)"
        )
    if backend not in _INSTANCES:
        _INSTANCES[backend] = _FACTORIES[backend]()
    return _INSTANCES[backend]


def _make_cross_pair(name: str) -> ExecutionBackend:
    """Build a ``cross:REF,CAND`` backend from two registered names."""
    from repro.backends.cross import CrossBackend

    parts = [p.strip() for p in name[len("cross:"):].split(",")]
    if len(parts) != 2 or not all(parts):
        raise KeyError(
            f"Invalid cross pair '{name}': expected 'cross:REF,CAND' with "
            f"exactly two backend names"
        )
    for part in parts:
        if part == "cross" or part.startswith("cross:"):
            raise KeyError(f"Cross pairs cannot nest ('{name}')")
        if part not in _FACTORIES:
            raise KeyError(
                f"Unknown execution backend '{part}' in cross pair '{name}' "
                f"(available: {', '.join(list_backends())})"
            )
    if parts[0] == parts[1]:
        # A backend checked against itself checks nothing.
        raise KeyError(
            f"Cross pair '{name}' checks backend '{parts[0]}' against itself"
        )
    return CrossBackend(reference=parts[0], candidate=parts[1])
