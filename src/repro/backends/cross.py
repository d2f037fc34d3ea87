"""The self-checking ``cross`` backend: FuzzyFlow applied to ourselves.

Runs every execution through *two* backends -- bare ``cross`` pairs the
reference interpreter with the compiled backend, and ``cross:REF,CAND``
(e.g. ``cross:compiled,interpreter``) names any other pair -- and
compares the complete system states bit for bit.  Any divergence --
different outputs, different final symbols, different transition counts, or
one backend crashing where the other does not -- is a bug in an execution
backend, not a property of the program under test, and is raised as
:class:`BackendDivergenceError`.

``BackendDivergenceError`` deliberately does **not** derive from
:class:`~repro.interpreter.errors.ExecutionError`: the differential fuzzer
treats ``ExecutionError`` as a crash of the program under test, while a
backend divergence must abort the trial loudly and surface as an
infrastructure error in sweep reports.  The error carries the backend pair
and the SDFG content hash and pickles losslessly, so a divergence raised
inside a multiprocessing pool worker still names which backends diverged on
which program once it is reconstructed on the coordinator side.
"""

from __future__ import annotations

import hashlib
from typing import Any, List, Mapping, Optional

import numpy as np

from repro.interpreter.errors import ExecutionError, HangError
from repro.interpreter.executor import ExecutionResult
from repro.sdfg.sdfg import SDFG
from repro.sdfg.serialize import sdfg_to_json

__all__ = ["CrossProgram", "BackendDivergenceError", "sdfg_content_hash"]


def sdfg_content_hash(sdfg: SDFG) -> str:
    """Content hash of a program (its canonical JSON serialization): the
    program a divergence report names."""
    return hashlib.sha256(sdfg_to_json(sdfg).encode("utf-8")).hexdigest()


class BackendDivergenceError(Exception):
    """The reference and candidate backends disagree on an execution."""

    def __init__(
        self,
        program: str,
        details: List[str],
        reference: str,
        candidate: str,
        sdfg_hash: Optional[str] = None,
    ) -> None:
        self.program = program
        self.details = list(details)
        self.reference = reference
        self.candidate = candidate
        self.sdfg_hash = sdfg_hash
        where = f"'{program}'"
        if sdfg_hash:
            where += f" [sdfg {sdfg_hash[:12]}]"
        super().__init__(
            f"Backend divergence on {where} ({reference} vs. {candidate}): "
            + "; ".join(self.details)
        )

    def __reduce__(self):
        # Default exception pickling replays ``cls(*args)`` with the joined
        # message string, which would crash the constructor and lose the
        # backend pair / hash; rebuild from the full context instead.
        return (
            type(self),
            (self.program, self.details, self.reference, self.candidate, self.sdfg_hash),
        )


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    # True byte equality, not value equality: -0.0 vs +0.0 and differing
    # NaN payloads are divergences the self-check must catch.
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class CrossProgram:
    """Runs the reference and candidate programs -- anything with the trial
    API ``run(arguments, symbols)`` -- in lockstep."""

    def __init__(
        self,
        sdfg: SDFG,
        reference: Any,
        candidate: Any,
        reference_name: str,
        candidate_name: str,
    ) -> None:
        self.sdfg = sdfg
        self.reference = reference
        self.candidate = candidate
        self.reference_name = reference_name
        self.candidate_name = candidate_name
        #: Number of executions that were cross-checked without divergence.
        self.checked_runs = 0

    # .................................................................. #
    def _diverged(self, details: List[str]) -> BackendDivergenceError:
        # The program is hashed only when there is a divergence to label.
        return BackendDivergenceError(
            self.sdfg.name,
            details,
            reference=self.reference_name,
            candidate=self.candidate_name,
            sdfg_hash=sdfg_content_hash(self.sdfg),
        )

    def run(
        self,
        arguments: Optional[Mapping[str, Any]] = None,
        symbols: Optional[Mapping[str, Any]] = None,
    ) -> ExecutionResult:
        """Run both sides on the same inputs (each copies them) and judge
        the pair: the reference's result, or its error when both failed."""
        try:
            ref_out = self.reference.run(arguments, symbols)
        except ExecutionError as exc:
            ref_out = exc
        try:
            cand_out = self.candidate.run(arguments, symbols)
        except ExecutionError as exc:
            cand_out = exc
        try:
            outcome = self._check_pair(ref_out, cand_out)
        finally:
            # A caught error's traceback holds this frame: a local still
            # naming the error would close a cycle.
            ref_out = cand_out = None
        if isinstance(outcome, ExecutionError):
            try:
                raise outcome
            finally:
                del outcome
        return outcome

    def _check_pair(self, ref_out: Any, cand_out: Any) -> Any:
        """Judge one (reference, candidate) outcome pair.

        Returns the reference outcome -- its result, or on agreeing
        failures its error, so differential trial classification is
        unchanged -- when the pair agrees; raises
        :class:`BackendDivergenceError` otherwise.
        """
        ref_error = ref_out if isinstance(ref_out, ExecutionError) else None
        cand_error = cand_out if isinstance(cand_out, ExecutionError) else None
        if ref_error is not None or cand_error is not None:
            if ref_error is None or cand_error is None:
                raise self._diverged(
                    [
                        f"{self.reference_name} "
                        + (f"raised {type(ref_error).__name__}" if ref_error else "succeeded")
                        + f", {self.candidate_name} "
                        + (f"raised {type(cand_error).__name__}" if cand_error else "succeeded")
                    ]
                )
            # Differential testing only distinguishes hangs from crashes, and
            # a compiled backend legitimately reports a different crash
            # *class* than the interpreter (e.g. the vectorized scope checks
            # a whole scope's bounds before executing any tasklet, so a
            # MemoryViolation can pre-empt the TaskletExecutionError the
            # interpreter hits first).  Only a hang-vs-crash disagreement is
            # a backend bug.
            if isinstance(ref_error, HangError) is not isinstance(cand_error, HangError):
                raise self._diverged(
                    [
                        f"crash classes differ: {self.reference_name} "
                        f"{type(ref_error).__name__}, {self.candidate_name} "
                        f"{type(cand_error).__name__}"
                    ]
                )
            return ref_error

        details = self._compare(ref_out, cand_out)
        if details:
            raise self._diverged(details)
        self.checked_runs += 1
        return ref_out

    # .................................................................. #
    @staticmethod
    def _compare(ref: ExecutionResult, cand: ExecutionResult) -> List[str]:
        details: List[str] = []
        for name in sorted(set(ref.outputs) | set(cand.outputs)):
            a, b = ref.outputs.get(name), cand.outputs.get(name)
            if a is None or b is None:
                details.append(f"container '{name}' missing from one backend")
            elif not _bitwise_equal(np.asarray(a), np.asarray(b)):
                details.append(f"container '{name}' differs bitwise")
        if ref.symbols != cand.symbols:
            details.append("final symbol values differ")
        if ref.transitions != cand.transitions:
            details.append(
                f"transition counts differ ({ref.transitions} vs. {cand.transitions})"
            )
        return details
