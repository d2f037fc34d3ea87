"""The journaled sweep result store: append-only JSONL keyed by task IDs.

A sweep -- single-machine or distributed -- can journal every completed
task outcome to disk the moment it lands.  The journal is an append-only
JSON-lines file:

* line 1 is a **header** recording the sweep's identity: schema version,
  suite/buggy/backend labels, the task count and a ``sweep_id`` (a hash of
  the sorted deterministic task IDs, see :attr:`SweepTask.task_id`),
* every further line is one **outcome** record
  ``{"kind": "outcome", "task_id": ..., "index": ..., "outcome": {...}}``.

Append-only makes the journal crash-safe by construction: a hard kill can
at worst truncate the final line, which the loader detects and drops (that
task simply re-runs on resume).  Every outcome record also carries a CRC-32
of its outcome payload, so a record corrupted *in place* (bit rot, a
``garble`` fault, a torn write that still parses) is skipped on load -- the
task re-runs -- instead of poisoning the resumed sweep with altered
verdicts.  Only the line-0 header stays strict: a file whose first line is
not a valid journal header is rejected outright, because at that point
there is no evidence the file is a journal at all.  Task IDs -- not list
indices -- are the keys, so a resumed sweep re-matches journaled outcomes
even though it re-enumerates its task list from scratch; the ``sweep_id`` check refuses to
resume a journal written for a *different* task set (changed trial budget,
different kernels, ...) instead of silently mixing two sweeps.  Duplicate
records for one task (possible only across separate journaling runs -- the
scheduler drops a late duplicate result *before* it reaches the journal)
resolve last-wins on load.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple

from repro import faultinject
from repro.pipeline.result import SCHEMA_VERSION
from repro.pipeline.tasks import SweepTask
from repro.telemetry import metrics

__all__ = ["ResultStore", "JournalError", "sweep_identity"]


class JournalError(Exception):
    """An unusable journal: wrong sweep, malformed header, bad version."""


def sweep_identity(task_ids: Sequence[str]) -> str:
    """Order-insensitive identity of a task set (for resume validation)."""
    digest = hashlib.sha256("\n".join(sorted(task_ids)).encode("utf-8"))
    return digest.hexdigest()[:16]


def _outcome_crc(outcome: Dict[str, Any]) -> int:
    """CRC-32 of an outcome payload in canonical (sorted-key) JSON form."""
    canon = json.dumps(outcome, separators=(",", ":"), sort_keys=True)
    return zlib.crc32(canon.encode("utf-8"))


class ResultStore:
    """An append-only JSONL journal of per-task sweep outcomes.

    Open with :meth:`open` for a fresh sweep (truncates) or
    ``resume=True`` to load completed outcomes and append to the same file.
    """

    def __init__(
        self,
        path: str,
        header: Dict[str, Any],
        completed: Dict[str, Dict[str, Any]],
        handle: IO[str],
    ) -> None:
        self.path = path
        self.header = header
        #: task_id -> journaled outcome dict (last record wins).
        self.completed = completed
        self._handle = handle

    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        path: str,
        tasks: Sequence[SweepTask],
        suite: str,
        buggy: bool,
        backend: str,
        resume: bool = False,
        service_sweep_id: Optional[str] = None,
    ) -> "ResultStore":
        """Create (or, with ``resume=True``, reopen) a journal for ``tasks``.

        Without ``resume``, an existing file is truncated and a fresh header
        written.  With ``resume``, an existing journal is validated against
        the task set's :func:`sweep_identity` and its completed outcomes
        loaded; a missing (or empty -- a crash before the header flushed)
        file degrades to a fresh start so ``--resume`` is safe to pass
        unconditionally.

        ``service_sweep_id`` labels a journal owned by the always-on
        verification service with its *submission* id (``sweep-NNN``) --
        distinct from the content-derived ``sweep_id`` identity hash, which
        keeps guarding against resuming a journal of a different task set.
        """
        task_ids = [t.task_id for t in tasks]
        header = {
            "kind": "header",
            "schema_version": SCHEMA_VERSION,
            "suite": suite,
            "buggy": buggy,
            "backend": backend,
            "total_tasks": len(task_ids),
            "sweep_id": sweep_identity(task_ids),
        }
        if service_sweep_id is not None:
            header["service_sweep_id"] = service_sweep_id
        # A crash between creating the file and flushing the header leaves
        # an empty journal: zero outcomes were recorded, so "resuming" it is
        # just starting fresh.
        if resume and os.path.exists(path) and os.path.getsize(path) > 0:
            existing_header, completed = cls._load(path)
            if existing_header.get("sweep_id") != header["sweep_id"]:
                raise JournalError(
                    f"Journal {path!r} belongs to a different sweep "
                    f"(journal sweep_id {existing_header.get('sweep_id')!r}, "
                    f"this task set {header['sweep_id']!r}); refusing to mix. "
                    f"Delete the journal or re-run with the original "
                    f"suite/kernels/trials configuration."
                )
            # Discard journaled results for tasks no longer enumerated
            # (cannot happen when sweep_ids match, but keeps the invariant
            # local and cheap to check).
            wanted = set(task_ids)
            completed = {k: v for k, v in completed.items() if k in wanted}
            cls._trim_partial_tail(path)
            handle = open(path, "a", encoding="utf-8")
            return cls(path, existing_header, completed, handle)
        handle = open(path, "w", encoding="utf-8")
        handle.write(json.dumps(header, separators=(",", ":")) + "\n")
        handle.flush()
        return cls(path, header, {}, handle)

    @staticmethod
    def _trim_partial_tail(path: str) -> None:
        """Drop a crash-truncated final line (no trailing newline) so the
        next append starts on a clean line boundary."""
        with open(path, "rb+") as f:
            data = f.read()
            if not data or data.endswith(b"\n"):
                return
            cut = data.rfind(b"\n")
            tail = data[cut + 1 :]
            try:
                json.loads(tail.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                # Genuinely truncated record: drop it (the task re-runs).
                f.truncate(cut + 1)
            else:
                # Complete record that merely lost its newline to the
                # crash: finish the line rather than discarding data.
                f.write(b"\n")

    @staticmethod
    def _load(path: str) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
        """Parse a journal, tolerating a truncated (crash-cut) final line."""
        header: Optional[Dict[str, Any]] = None
        completed: Dict[str, Dict[str, Any]] = {}
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if lineno == 0:
                    raise JournalError(
                        f"{path!r} line 1 is not valid JSON; "
                        f"not a sweep journal"
                    ) from None
                # A crash-cut trailing line or a corrupted record: the
                # header already proved this file is a journal, so skip
                # just this record (the task re-runs on resume).
                metrics.inc("repro_journal_records_skipped_total")
                continue
            if lineno == 0:
                if record.get("kind") != "header":
                    raise JournalError(
                        f"{path!r} does not start with a journal header"
                    )
                if record.get("schema_version") != SCHEMA_VERSION:
                    raise JournalError(
                        f"{path!r} was written with schema version "
                        f"{record.get('schema_version')!r}; this build "
                        f"reads only version {SCHEMA_VERSION}"
                    )
                header = record
            elif record.get("kind") == "outcome":
                task_id = record.get("task_id")
                outcome = record.get("outcome")
                if (
                    not isinstance(task_id, str)
                    or not isinstance(outcome, dict)
                    or record.get("crc") != _outcome_crc(outcome)
                ):
                    metrics.inc("repro_journal_records_skipped_total")
                    continue
                completed[task_id] = outcome
        if header is None:
            raise JournalError(f"{path!r} is empty; not a sweep journal")
        return header, completed

    # ------------------------------------------------------------------ #
    def record(
        self,
        task_id: str,
        index: int,
        outcome: Dict[str, Any],
    ) -> None:
        """Append one completed outcome (flushed immediately)."""
        line = json.dumps(
            {
                "kind": "outcome",
                "task_id": task_id,
                "index": index,
                "outcome": outcome,
                "crc": _outcome_crc(outcome),
            },
            separators=(",", ":"),
        )
        line = faultinject.garble_text("journal.record", line, key=task_id)
        self._handle.write(line + "\n")
        self._handle.flush()
        self.completed[task_id] = outcome

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
