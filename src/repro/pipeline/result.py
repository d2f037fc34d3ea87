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

from repro.core.reporting import Verdict

__all__ = ["SweepResult"]

#: Version of the JSON document produced by :meth:`SweepResult.to_dict`.
#: Version 2 adds the ``backend`` field (execution backend used for the
#: sweep); version-1 documents lack it and load as ``"interpreter"``, which
#: is what every v1 sweep actually ran.
#: Version 3 fixes the ``backend`` string format: besides plain registry
#: names (now including ``"compiled"``), it may be a cross-check pair of
#: the form ``"cross:REF,CAND"`` (the bare ``"cross"`` is shorthand for
#: ``"cross:interpreter,compiled"``; documents written when it meant
#: ``"cross:interpreter,vectorized"`` name the same pair, ``vectorized``
#: now being an alias of ``compiled``).  v2 documents load unchanged.
#: Version 4 adds two per-outcome fields for the distributed/resumable
#: sweep service (``repro.cluster``): ``task_id`` (the deterministic task
#: identity keying the result journal) and ``worker`` (shard metadata --
#: host/pid/shard/backend -- for outcomes produced by a remote worker;
#: ``None`` for local runs).  v1-v3 documents load with both defaulted to
#: ``None``; no aggregate field changed.
#: Version 5 adds the top-level ``sweep_id`` field: the submission id a
#: sweep was assigned by the always-on verification service
#: (``sweep-NNN``); ``None`` for sweeps run outside the service.  v1-v4
#: documents load with ``sweep_id=None``.  Like ``workers``, the field
#: describes *how* the sweep ran, not what it computed, so
#: :meth:`SweepResult.comparable_dict` strips it.
#: Version 6 adds the optional top-level ``telemetry`` section: the
#: aggregated metrics snapshot of the sweep (``{"metrics": {counters,
#: gauges, histograms}}``, see :mod:`repro.telemetry.metrics`), or ``None``
#: when telemetry recorded nothing.  v1-v5 documents load with
#: ``telemetry=None``.  Telemetry describes how the sweep *ran* (cache
#: luck, batching, timings), never what it computed, so
#: :meth:`SweepResult.comparable_dict` strips it.
SCHEMA_VERSION = 6

#: Per-outcome keys introduced by schema version 4, with load-time defaults
#: applied to documents written by older versions.
_V4_OUTCOME_DEFAULTS: Dict[str, Any] = {"task_id": None, "worker": None}


@dataclass
class SweepResult:
    """Aggregate outcome of one sweep run."""

    suite: str
    buggy: bool = False
    workers: int = 1
    backend: str = "interpreter"
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
    def to_dict(self, include_outcomes: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
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
        }
        if include_outcomes:
            out["outcomes"] = list(self.outcomes)
        return out

    def to_json(self, indent: Optional[int] = 2, include_outcomes: bool = True) -> str:
        return json.dumps(self.to_dict(include_outcomes=include_outcomes), indent=indent)

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "SweepResult":
        """Load any schema version (1-6), filling defaulted fields.

        v1 documents predate backend selection and load as ``"interpreter"``
        (what every v1 sweep ran); v1-v3 outcomes gain the v4 ``task_id`` /
        ``worker`` keys with ``None`` defaults so downstream consumers see a
        uniform shape; v1-v4 documents predate the verification service and
        load with ``sweep_id=None``; v1-v5 documents predate telemetry and
        load with ``telemetry=None``.
        """
        outcomes = []
        for o in d.get("outcomes", []):
            o = dict(o)
            for key, default in _V4_OUTCOME_DEFAULTS.items():
                o.setdefault(key, default)
            outcomes.append(o)
        return cls(
            suite=d["suite"],
            buggy=d.get("buggy", False),
            workers=d.get("workers", 1),
            backend=d.get("backend", "interpreter"),
            outcomes=outcomes,
            duration_seconds=d.get("duration_seconds", 0.0),
            sweep_id=d.get("sweep_id"),
            telemetry=d.get("telemetry"),
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

        Empty when the sweep ran without telemetry (schema <= 5 documents,
        or interpreter-only sweeps that never attempt lowering)."""
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
