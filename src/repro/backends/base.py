"""The execution-backend seam.

FuzzyFlow's workflow separates *what* a dataflow program computes from *how*
it is executed: every fuzzing trial only needs an
:class:`~repro.interpreter.executor.ExecutionResult` for a (program, inputs,
symbols) triple.  A :class:`Backend` is a validated backend name, and
:meth:`Backend.prepare` performs all per-program work -- argument coercion
plans, subset compilation, code generation -- once, returning the executor
itself:

* ``interpreter`` -- an :class:`~repro.interpreter.executor.SDFGExecutor`,
* ``compiled`` -- a :class:`~repro.backends.compiled.CompiledExecutor`,
* a ``cross`` pair -- a :class:`~repro.backends.cross.CrossProgram` over two
  of those.

Each runs one trial per ``run(arguments, symbols)`` call, so repeated trials
on the same program (the fuzzing hot loop) pay the preparation cost once.
Backends are chosen by name so callers (the differential fuzzer, the
verifier, the sweep pipeline CLI) can thread a plain string through process
boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.backends.compiled import CompiledExecutor
from repro.backends.cross import CrossProgram
from repro.interpreter.executor import SDFGExecutor
from repro.sdfg.sdfg import SDFG
from repro.telemetry import TRACER as _TRACER

__all__ = ["BACKEND_NAMES", "DEFAULT_BACKEND", "Backend", "get_backend"]

#: Name of the reference backend used when no selection is made.
DEFAULT_BACKEND = "interpreter"

#: Every name :func:`get_backend` resolves, besides ``cross:REF,CAND`` pairs.
BACKEND_NAMES = ("compiled", "cross", "interpreter")


@dataclass(frozen=True)
class Backend:
    """One execution strategy, by name; ``pair`` is the ``(reference,
    candidate)`` of a ``cross`` backend and ``None`` otherwise."""

    name: str
    pair: Optional[Tuple[str, str]] = None

    def prepare(
        self, sdfg: SDFG, max_transitions: int = 100_000
    ) -> Union[SDFGExecutor, CrossProgram]:
        """The executor of one program.  Every ``prepare`` returns a new one:
        an executor holds the state of the run in progress, so it belongs to
        the call that made it."""
        if self.pair is None:
            return _prepare(self.name, sdfg, max_transitions)
        reference, candidate = self.pair
        return CrossProgram(
            sdfg,
            _prepare(reference, sdfg, max_transitions),
            _prepare(candidate, sdfg, max_transitions),
            reference,
            candidate,
        )


def _prepare(name: str, sdfg: SDFG, max_transitions: int) -> SDFGExecutor:
    if name == "interpreter":
        return SDFGExecutor(sdfg, max_transitions=max_transitions)
    with _TRACER.span("backend.prepare", "prepare") as span:
        span.set("tier", name)
        span.set("sdfg", sdfg.name)
        return CompiledExecutor(sdfg, max_transitions=max_transitions)


def get_backend(name: str) -> Backend:
    """Validate a backend name.

    Besides :data:`BACKEND_NAMES`, ``cross:REF,CAND`` names a self-checking
    pair of any two different non-``cross`` backends (e.g.
    ``cross:compiled,interpreter``); the bare name ``cross`` is
    ``cross:interpreter,compiled``.
    """
    if name == "cross":
        return Backend(name, ("interpreter", "compiled"))
    if name.startswith("cross:"):
        return Backend(name, _cross_pair(name))
    if name not in BACKEND_NAMES:
        raise KeyError(
            f"Unknown execution backend '{name}' "
            f"(available: {', '.join(BACKEND_NAMES)}, "
            f"or 'cross:REF,CAND' for any pair)"
        )
    return Backend(name)


def _cross_pair(name: str) -> Tuple[str, str]:
    """The two backend names of a ``cross:REF,CAND`` name."""
    parts = [p.strip() for p in name[len("cross:"):].split(",")]
    if len(parts) != 2 or not all(parts):
        raise KeyError(
            f"Invalid cross pair '{name}': expected 'cross:REF,CAND' with "
            f"exactly two backend names"
        )
    for part in parts:
        if part == "cross" or part.startswith("cross:"):
            raise KeyError(f"Cross pairs cannot nest ('{name}')")
        if part not in BACKEND_NAMES:
            raise KeyError(
                f"Unknown execution backend '{part}' in cross pair '{name}' "
                f"(available: {', '.join(BACKEND_NAMES)})"
            )
    if parts[0] == parts[1]:
        # A backend checked against itself checks nothing.
        raise KeyError(
            f"Cross pair '{name}' checks backend '{parts[0]}' against itself"
        )
    return parts[0], parts[1]
