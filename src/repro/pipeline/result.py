"""Sweep result aggregation and rendering (JSON, Markdown, plain text).

A :class:`SweepResult` collects one outcome dict per sweep task -- the
task coordinates plus the JSON-safe ``TransformationTestReport.to_dict()``
-- and derives the per-transformation verdict table the paper reports in
Table 2 (instances tested, instances failing, verdict histogram).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.backends import DEFAULT_BACKEND
from repro.core.reporting import Verdict

__all__ = ["SweepResult"]

#: Version of the JSON document :meth:`SweepResult.to_dict` writes -- and the
#: only one :meth:`SweepResult.from_dict` and the journal loader read.
SCHEMA_VERSION = 6


@dataclass
class SweepResult:
    """Aggregate outcome of one sweep run."""

    suite: str
    buggy: bool = False
    workers: int = 1
    backend: str = DEFAULT_BACKEND
    outcomes: List[Dict[str, Any]] = field(default_factory=list)
    duration_seconds: float = 0.0
    #: Submission id assigned by the verification service (``sweep-NNN``);
    #: ``None`` for sweeps run outside the service.
    sweep_id: Optional[str] = None
    #: Aggregated telemetry for the sweep (``{"metrics": snapshot}``), or
    #: ``None`` when nothing was recorded.  Observability data only --
    #: stripped by :meth:`comparable_dict`.
    telemetry: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------ #
    def verdict_table(self) -> Dict[str, Dict[str, Any]]:
        """Per-transformation verdict histogram (UNTESTED instances excluded)."""
        table: Dict[str, Dict[str, Any]] = {}
        for outcome in self.outcomes:
            verdict = outcome["verdict"]
            if verdict == Verdict.UNTESTED.value:
                continue
            entry = table.setdefault(
                outcome["transformation"],
                {"instances": 0, "failing": 0, "verdicts": {}},
            )
            entry["instances"] += 1
            entry["verdicts"][verdict] = entry["verdicts"].get(verdict, 0) + 1
            if Verdict(verdict).is_failure:
                entry["failing"] += 1
        return table

    def totals(self) -> Tuple[int, int]:
        """(total instances tested, total instances failing)."""
        table = self.verdict_table()
        return (
            sum(e["instances"] for e in table.values()),
            sum(e["failing"] for e in table.values()),
        )

    def errors(self) -> List[Dict[str, Any]]:
        """Outcomes that hit an infrastructure error (not a test verdict)."""
        return [o for o in self.outcomes if o.get("error")]

    # ------------------------------------------------------------------ #
    # Renderers
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "buggy": self.buggy,
            "workers": self.workers,
            "backend": self.backend,
            "sweep_id": self.sweep_id,
            "telemetry": copy.deepcopy(self.telemetry),
            "duration_seconds": self.duration_seconds,
            "verdict_table": self.verdict_table(),
            "totals": dict(zip(("instances", "failing"), self.totals())),
            "outcomes": list(self.outcomes),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SweepResult":
        """Load a document written by :meth:`to_dict` of this schema version.

        Documents arrive from outside the process (``--json`` files, the
        service's HTTP result endpoint), so the version is checked: any
        other ``schema_version`` is a :class:`ValueError`, never a guess at
        what the missing fields meant.
        """
        version = d.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"sweep result document has schema_version {version!r}; "
                f"this build reads only version {SCHEMA_VERSION}"
            )
        return cls(
            suite=d["suite"],
            buggy=d["buggy"],
            workers=d["workers"],
            backend=d["backend"],
            outcomes=list(d["outcomes"]),
            duration_seconds=d["duration_seconds"],
            sweep_id=d["sweep_id"],
            telemetry=d["telemetry"],
        )

    def comparable_dict(self) -> Dict[str, Any]:
        """:meth:`to_dict` minus every timing/host-dependent field.

        Two sweeps over the same tasks must agree on this document no matter
        how they were executed -- serial, multiprocess, distributed across
        heterogeneous workers, or resumed from a journal.  Stripped fields:
        wall-clock durations (sweep, per-report, per-fuzzing-campaign),
        worker counts, the service submission id, the telemetry section,
        and per-outcome ``worker`` shard metadata.
        """
        doc = copy.deepcopy(self.to_dict())
        doc.pop("duration_seconds", None)
        doc.pop("workers", None)
        doc.pop("sweep_id", None)
        doc.pop("telemetry", None)
        for outcome in doc.get("outcomes", []):
            outcome.pop("worker", None)
            report = outcome.get("report")
            if report:
                report.pop("duration_seconds", None)
                fuzzing = report.get("fuzzing")
                if fuzzing:
                    fuzzing.pop("duration_seconds", None)
        return doc

    def to_markdown(self) -> str:
        lines = [
            f"# Sweep result: suite `{self.suite}`"
            + (" (injected bugs)" if self.buggy else ""),
            "",
            f"- workers: {self.workers}",
            f"- backend: {self.backend}",
            f"- duration: {self.duration_seconds:.2f} s",
            "",
            "| Transformation | Instances | Failing | Verdicts |",
            "| --- | ---: | ---: | --- |",
        ]
        table = self.verdict_table()
        for name in sorted(table):
            entry = table[name]
            verdicts = ", ".join(
                f"{k}={v}" for k, v in sorted(entry["verdicts"].items())
            )
            lines.append(
                f"| {name} | {entry['instances']} | {entry['failing']} | {verdicts} |"
            )
        total_i, total_f = self.totals()
        lines.append(f"| **TOTAL** | **{total_i}** | **{total_f}** | |")
        reasons = self.fallback_reasons()
        if reasons:
            lines.extend(
                [
                    "",
                    "## Fallback reasons (top 5)",
                    "",
                    "| Reason | Scopes |",
                    "| --- | ---: |",
                ]
            )
            lines.extend(
                f"| {reason} | {count} |" for reason, count in reasons
            )
        return "\n".join(lines) + "\n"

    def fallback_reasons(self, top: int = 5) -> List[Tuple[str, int]]:
        """The top scope-lowering fallback reasons recorded by telemetry.

        Empty when telemetry recorded nothing (e.g. interpreter-only sweeps
        never attempt lowering)."""
        from repro.telemetry import fallback_summary

        if not self.telemetry:
            return []
        return fallback_summary(self.telemetry.get("metrics") or {}, top=top)

    def render_text(self) -> str:
        """The aligned plain-text table the serial sweep script used to print."""
        lines = [f"{'Transformation':<28}{'instances':>12}{'failing':>10}"]
        table = self.verdict_table()
        total_i = total_f = 0
        for name in sorted(table):
            entry = table[name]
            total_i += entry["instances"]
            total_f += entry["failing"]
            lines.append(f"{name:<28}{entry['instances']:>12}{entry['failing']:>10}")
        lines.append(f"{'TOTAL':<28}{total_i:>12}{total_f:>10}")
        return "\n".join(lines)
