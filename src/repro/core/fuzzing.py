"""Differential (gray-box) fuzzing of cutouts (Sec. 5).

Each trial samples an input configuration, runs it through the original
cutout ``c`` and the transformed cutout ``T(c)``, and compares their system
states.  A trial fails -- labelling the transformation as semantics-changing
-- if the transformed program crashes or hangs while the original does not,
or if any system-state container differs by more than :data:`TOLERANCE`
(bit-wise equality when :func:`compare_system_states` is given a threshold
of 0, matching the paper's footnote 1).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.backends import DEFAULT_BACKEND, get_backend
from repro.core.reporting import FuzzingReport, TrialResult, TrialStatus
from repro.core.sampling import InputSample, InputSampler
from repro.interpreter import HangError
from repro.interpreter.errors import ExecutionError
from repro.sdfg.sdfg import SDFG
from repro.telemetry import TRACER as _TRACER
from repro.telemetry import inc as _metric_inc
from repro.telemetry import observe as _metric_observe
from repro.telemetry import perf_counter as _perf_counter

__all__ = ["TOLERANCE", "DifferentialFuzzer", "compare_system_states"]

#: The largest absolute difference at which two floating-point system-state
#: containers still compare equal.
TOLERANCE = 1e-5


def _max_abs_diff(ref: np.ndarray, cand: np.ndarray) -> float:
    """Maximum absolute element-wise difference between two same-shape arrays.

    Works for any numeric dtype: integers use exact arithmetic (a float64
    cast would round away differences above 2**53), floats treat one-sided
    NaNs as ``inf`` (pattern divergence is structural), and non-numeric
    dtypes fall back to ``inf`` since no meaningful distance exists.
    """
    if ref.size == 0:
        return 0.0
    if np.issubdtype(ref.dtype, np.integer) and np.issubdtype(cand.dtype, np.integer):
        unequal = ref != cand
        if not np.any(unequal):
            return 0.0
        return float(
            max(abs(int(a) - int(b)) for a, b in zip(ref[unequal].ravel(), cand[unequal].ravel()))
        )
    try:
        a = np.asarray(ref, dtype=np.float64)
        b = np.asarray(cand, dtype=np.float64)
    except (TypeError, ValueError):
        return float("inf")
    diff = np.abs(a - b)
    equal = (a == b) | (np.isnan(a) & np.isnan(b))
    diff = np.where(equal, 0.0, diff)
    diff = np.where(np.isnan(diff), np.inf, diff)
    return float(diff.max())


def compare_system_states(
    reference: Mapping[str, np.ndarray],
    candidate: Mapping[str, np.ndarray],
    system_state: Sequence[str],
    tolerance: float = TOLERANCE,
) -> Tuple[List[str], float]:
    """Compare two sets of program outputs on the system-state containers.

    Returns the list of mismatching container names and the maximum absolute
    error observed.  With ``tolerance == 0`` the comparison is bit-wise.
    ``inf`` is reported only for structural mismatches (a missing container,
    a shape mismatch, or a NaN/inf pattern divergence); value mismatches --
    including integer and boolean containers -- report the true maximum
    absolute difference so failures can be ranked and thresholded.
    """
    mismatched: List[str] = []
    max_err = 0.0
    for name in system_state:
        ref = reference.get(name)
        cand = candidate.get(name)
        if ref is None and cand is None:
            continue
        if ref is None or cand is None:
            mismatched.append(name)
            max_err = float("inf")
            continue
        ref = np.asarray(ref)
        cand = np.asarray(cand)
        if ref.shape != cand.shape:
            mismatched.append(name)
            max_err = float("inf")
            continue
        if np.array_equal(ref, cand):
            # Equal arrays (no NaN on either side: NaN != NaN) have equal
            # NaN/inf patterns and zero difference; only the others pay for
            # the isnan / isinf / nan_to_num passes below.
            continue
        if tolerance == 0 or not np.issubdtype(ref.dtype, np.floating):
            mismatched.append(name)
            max_err = max(max_err, _max_abs_diff(ref, cand))
            continue
        finite_mismatch = not np.array_equal(np.isnan(ref), np.isnan(cand)) or not np.array_equal(
            np.isinf(ref), np.isinf(cand)
        )
        diff = np.abs(np.nan_to_num(ref) - np.nan_to_num(cand))
        err = float(diff.max()) if diff.size else 0.0
        if finite_mismatch or err > tolerance:
            mismatched.append(name)
            max_err = max(max_err, err if not finite_mismatch else float("inf"))
        else:
            max_err = max(max_err, err)
    return mismatched, max_err


class DifferentialFuzzer:
    """Runs differential trials of an original vs. a transformed program."""

    def __init__(
        self,
        original: SDFG,
        transformed: SDFG,
        system_state: Sequence[str],
        sampler: InputSampler,
        backend: str = DEFAULT_BACKEND,
    ) -> None:
        self.original = original
        self.transformed = transformed
        self.system_state = list(system_state)
        self.sampler = sampler
        # Per-trial setup (argument coercion plans, symbol binding, compiled
        # subsets, vectorization plans) lives in prepare(), outside the
        # trial loop.  Backend errors other than ExecutionError -- notably a
        # cross-backend divergence -- propagate out of run_trial: they are
        # backend bugs, not properties of the program under test.
        self.backend = get_backend(backend)
        self._orig_exec = self.backend.prepare(original)
        self._trans_exec = self.backend.prepare(transformed)

    # ------------------------------------------------------------------ #
    def run_trial(self, sample: InputSample, index: int = 0) -> TrialResult:
        """Run one differential trial on the given input sample."""
        orig_error: Optional[Exception] = None
        trans_error: Optional[Exception] = None
        orig_result = None
        trans_result = None
        with _TRACER.span("trial", "fuzz") as span:
            span.set("index", index)
            t0 = _perf_counter()
            try:
                orig_result = self._orig_exec.run(sample.arguments, sample.symbols)
            except ExecutionError as exc:
                orig_error = exc
            try:
                trans_result = self._trans_exec.run(sample.arguments, sample.symbols)
            except ExecutionError as exc:
                trans_error = exc
            trial = self._classify(
                sample, index, orig_result, orig_error, trans_result, trans_error
            )
            # A caught error's traceback holds this frame and, through
            # ``f_back``, every caller up to the task with its programs:
            # drop the locals that would close that cycle.
            orig_error = trans_error = None
            span.set("status", trial.status.name)
            _metric_observe("repro_trial_seconds", _perf_counter() - t0)
        return trial

    def _classify(
        self,
        sample: InputSample,
        index: int,
        orig_result,
        orig_error: Optional[Exception],
        trans_result,
        trans_error: Optional[Exception],
    ) -> TrialResult:
        """Turn one trial's (original, transformed) outcome pair into a
        verdict."""
        if orig_error is not None and trans_error is not None:
            return TrialResult(
                index=index,
                status=TrialStatus.SKIPPED_BOTH_CRASH,
                error_message=str(orig_error),
                symbols=dict(sample.symbols),
            )
        if orig_error is None and trans_error is not None:
            status = (
                TrialStatus.HANG_TRANSFORMED
                if isinstance(trans_error, HangError)
                else TrialStatus.CRASH_TRANSFORMED
            )
            return TrialResult(
                index=index,
                status=status,
                error_message=str(trans_error),
                symbols=dict(sample.symbols),
            )
        if orig_error is not None and trans_error is None:
            return TrialResult(
                index=index,
                status=TrialStatus.CRASH_ORIGINAL_ONLY,
                error_message=str(orig_error),
                symbols=dict(sample.symbols),
            )

        mismatched, max_err = compare_system_states(
            orig_result.outputs, trans_result.outputs, self.system_state
        )
        if mismatched:
            return TrialResult(
                index=index,
                status=TrialStatus.MISMATCH,
                mismatched_containers=mismatched,
                max_abs_error=max_err,
                symbols=dict(sample.symbols),
            )
        return TrialResult(
            index=index, status=TrialStatus.MATCH, max_abs_error=max_err,
            symbols=dict(sample.symbols),
        )

    # ------------------------------------------------------------------ #
    def run(
        self,
        num_trials: int = 100,
        stop_on_failure: bool = False,
        samples: Optional[Sequence[InputSample]] = None,
        max_skip_retries: int = 3,
    ) -> FuzzingReport:
        """Run a fuzzing campaign of ``num_trials`` trials.

        A trial where both programs crash (``SKIPPED_BOTH_CRASH``) carries no
        differential information, so it does not consume the trial budget:
        the slot is resampled up to ``max_skip_retries`` extra times before
        being given up.  ``FuzzingReport.trials_attempted`` counts every
        executed trial (including skips and retries) while
        ``trials_effective`` counts the trials that actually compared the two
        programs.
        """
        report = FuzzingReport()
        start = _perf_counter()
        stop = False
        for slot in range(num_trials):
            if stop:
                break
            retries = 0
            while True:
                if samples is not None and slot < len(samples) and retries == 0:
                    sample = samples[slot]
                else:
                    sample = self.sampler.sample()
                trial = self.run_trial(sample, index=len(report.trials))
                report.trials.append(trial)
                report.trials_run += 1
                report.trials_attempted += 1
                _metric_inc("repro_trials_total")
                if trial.status == TrialStatus.SKIPPED_BOTH_CRASH:
                    report.trials_skipped += 1
                    if retries < max_skip_retries:
                        retries += 1
                        _metric_inc("repro_trial_retries_total")
                        continue
                    break
                report.trials_effective += 1
                if trial.is_failure:
                    report.failures += 1
                    if report.first_failure_trial is None:
                        report.first_failure_trial = len(report.trials)
                        report.failing_inputs = {
                            k: np.array(v, copy=True) for k, v in sample.arguments.items()
                        }
                        report.failing_symbols = dict(sample.symbols)
                    if stop_on_failure:
                        stop = True
                break
        report.duration_seconds = _perf_counter() - start
        return report
