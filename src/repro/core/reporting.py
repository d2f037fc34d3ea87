"""Verdicts and report data structures for transformation testing."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

__all__ = [
    "Verdict",
    "TrialStatus",
    "TrialResult",
    "FuzzingReport",
    "TransformationTestReport",
]


class Verdict(enum.Enum):
    """Outcome of testing one transformation instance.

    Mirrors the failure classes of Table 2:

    * ``PASS`` -- no semantic change observed over all trials,
    * ``SEMANTIC_CHANGE`` -- the system state differed for some input (✗),
    * ``INPUT_DEPENDENT`` -- semantic change only for *some* of the sampled
      inputs/sizes while others passed ("),
    * ``INVALID_CODE`` -- the transformed program failed validation or the
      transformation could not be applied/ran into an internal error (ὒ8),
    * ``UNTESTED`` -- no applicable match / testing skipped.
    """

    PASS = "pass"
    SEMANTIC_CHANGE = "semantic_change"
    INPUT_DEPENDENT = "input_dependent"
    INVALID_CODE = "invalid_code"
    UNTESTED = "untested"

    @property
    def is_failure(self) -> bool:
        return self in (
            Verdict.SEMANTIC_CHANGE,
            Verdict.INPUT_DEPENDENT,
            Verdict.INVALID_CODE,
        )


class TrialStatus(enum.Enum):
    """Outcome of a single differential-fuzzing trial."""

    MATCH = "match"
    MISMATCH = "mismatch"
    CRASH_TRANSFORMED = "crash_transformed"
    HANG_TRANSFORMED = "hang_transformed"
    CRASH_ORIGINAL_ONLY = "crash_original_only"
    SKIPPED_BOTH_CRASH = "skipped_both_crash"

    @property
    def is_failure(self) -> bool:
        return self in (
            TrialStatus.MISMATCH,
            TrialStatus.CRASH_TRANSFORMED,
            TrialStatus.HANG_TRANSFORMED,
            TrialStatus.CRASH_ORIGINAL_ONLY,
        )


@dataclass
class TrialResult:
    """Result of one differential trial."""

    index: int
    status: TrialStatus
    mismatched_containers: List[str] = field(default_factory=list)
    max_abs_error: float = 0.0
    error_message: str = ""
    symbols: Dict[str, int] = field(default_factory=dict)

    @property
    def is_failure(self) -> bool:
        return self.status.is_failure


def _inputs_to_dict(inputs: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
    if inputs is None:
        return None
    out: Dict[str, Any] = {}
    for name, value in inputs.items():
        arr = np.asarray(value)
        out[name] = {
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
            "data": arr.tolist(),
        }
    return out


@dataclass
class FuzzingReport:
    """Aggregate result of a differential-fuzzing campaign.

    ``trials_run`` counts every recorded trial, ``trials_attempted`` every
    executed trial including skip-retries, and ``trials_effective`` only the
    trials that actually compared the two programs (i.e. were not skipped
    because both versions crashed).
    """

    trials: List[TrialResult] = field(default_factory=list)
    trials_run: int = 0
    trials_skipped: int = 0
    trials_attempted: int = 0
    trials_effective: int = 0
    failures: int = 0
    first_failure_trial: Optional[int] = None
    failing_inputs: Optional[Dict[str, Any]] = None
    failing_symbols: Optional[Dict[str, int]] = None
    duration_seconds: float = 0.0

    @property
    def trials_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return float("inf")
        return self.trials_run / self.duration_seconds

    def verdict(self) -> Verdict:
        effective = self.trials_run - self.trials_skipped
        if self.trials_run == 0 or effective <= 0:
            return Verdict.UNTESTED
        if self.failures == 0:
            return Verdict.PASS
        if self.failures < effective:
            return Verdict.INPUT_DEPENDENT
        return Verdict.SEMANTIC_CHANGE

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation for aggregation and persistence (the
        per-trial records stay out)."""
        return {
            "trials_run": self.trials_run,
            "trials_skipped": self.trials_skipped,
            "trials_attempted": self.trials_attempted,
            "trials_effective": self.trials_effective,
            "failures": self.failures,
            "first_failure_trial": self.first_failure_trial,
            "failing_symbols": dict(self.failing_symbols) if self.failing_symbols else None,
            "failing_inputs": _inputs_to_dict(self.failing_inputs),
            "duration_seconds": self.duration_seconds,
            "verdict": self.verdict().value,
        }


@dataclass
class TransformationTestReport:
    """Full FuzzyFlow report for one transformation instance."""

    transformation: str
    match_description: str
    verdict: Verdict
    fuzzing: Optional[FuzzingReport] = None
    cutout_containers: int = 0
    cutout_nodes: int = 0
    cutout_states: int = 0
    input_configuration: List[str] = field(default_factory=list)
    system_state: List[str] = field(default_factory=list)
    input_volume_elements: Optional[int] = None
    minimized: bool = False
    warnings: List[str] = field(default_factory=list)
    error_message: str = ""
    duration_seconds: float = 0.0
    test_case_path: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (used by the sweep pipeline)."""
        return {
            "transformation": self.transformation,
            "match_description": self.match_description,
            "verdict": self.verdict.value,
            "fuzzing": self.fuzzing.to_dict() if self.fuzzing is not None else None,
            "cutout_containers": self.cutout_containers,
            "cutout_nodes": self.cutout_nodes,
            "cutout_states": self.cutout_states,
            "input_configuration": list(self.input_configuration),
            "system_state": list(self.system_state),
            "input_volume_elements": self.input_volume_elements,
            "minimized": self.minimized,
            "warnings": list(self.warnings),
            "error_message": self.error_message,
            "duration_seconds": self.duration_seconds,
            "test_case_path": self.test_case_path,
        }

    def summary(self) -> str:
        lines = [
            f"Transformation : {self.transformation}",
            f"Match          : {self.match_description}",
            f"Verdict        : {self.verdict.value}",
            f"Input config   : {', '.join(self.input_configuration) or '-'}",
            f"System state   : {', '.join(self.system_state) or '-'}",
        ]
        if self.fuzzing is not None:
            lines.append(
                f"Trials         : {self.fuzzing.trials_run} "
                f"({self.fuzzing.failures} failing, "
                f"first at #{self.fuzzing.first_failure_trial})"
            )
        if self.warnings:
            lines.append("Warnings       : " + "; ".join(self.warnings))
        if self.error_message:
            lines.append(f"Error          : {self.error_message}")
        return "\n".join(lines)
