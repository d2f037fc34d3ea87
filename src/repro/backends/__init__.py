"""Pluggable execution backends.

Execution of dataflow programs is a swappable layer behind one call,
``get_backend(name).prepare(sdfg)`` (:mod:`repro.backends.base`), which
returns the executor itself.  Two backends and a self-check resolve:

* ``"interpreter"`` -- the reference backend
  (:class:`~repro.interpreter.executor.SDFGExecutor`): node-by-node
  interpretation with element-wise map expansion.  Slow, but the semantic
  oracle.
* ``"compiled"`` -- the one optimising backend
  (:class:`~repro.backends.compiled.CompiledExecutor`).  Map scopes with
  affine memlets become NumPy array expressions (chains of elementwise
  scopes fused into one kernel), compiled once per ``prepare``; unsupported
  constructs fall back to the interpreter scope by scope.  One generated
  Python function per SDFG lowers the state machine to one
  ``while``-over-current-state dispatch loop with inline interstate
  conditions/assignments.
* ``"cross"`` -- the self-checking backend (:mod:`repro.backends.cross`):
  runs two backends in lockstep and raises
  :class:`~repro.backends.cross.BackendDivergenceError` on any bitwise
  difference -- FuzzyFlow's differential method applied to its own execution
  layer.  ``cross`` pairs the interpreter with the compiled backend;
  ``cross:REF,CAND`` (e.g. ``cross:interpreter,compiled``) pairs any two
  different backends.

``get_backend(name).prepare(sdfg).run(arguments, symbols)`` is the whole
API, one trial per call; the differential fuzzer, verifier and sweep
pipeline all thread a backend name through to :func:`get_backend`.

Internally the compiled backend is a three-stage lowering pipeline --
**analyze** (:mod:`repro.backends.analysis`, whose records are what the
runtime executes) -> **codegen** (:mod:`repro.backends.codegen`: the
records, fused-chain composition and the control-flow driver) ->
**execute** (:mod:`repro.backends.execute`, :mod:`repro.backends.compiled`)
-- see each stage's module docstring.
"""

from repro.backends.base import BACKEND_NAMES, DEFAULT_BACKEND, Backend, get_backend
from repro.backends.compiled import CompiledExecutor
from repro.backends.cross import BackendDivergenceError, CrossProgram, sdfg_content_hash

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BACKEND",
    "Backend",
    "get_backend",
    "CompiledExecutor",
    "CrossProgram",
    "BackendDivergenceError",
    "sdfg_content_hash",
]
