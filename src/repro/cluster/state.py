"""Service state directory: per-sweep journals + submission metadata.

An always-on verification service owns many sweeps at once, each needing a
crash-safe journal *and* enough metadata to re-register the sweep after a
service restart (an HTTP-submitted task list exists nowhere else).  The
state directory multiplexes both, one pair of files per sweep::

    <state_dir>/
        sweep-001.meta.json     # serialized task list + submission params
        sweep-001.jsonl         # that sweep's append-only outcome journal
        sweep-002.meta.json
        sweep-002.jsonl
        ...

The meta file is written atomically (tmp + rename) *before* the sweep is
registered, so a service killed at any instant restores every submitted
sweep: :func:`restore_sweeps` re-reads each meta file, reopens its journal
in resume mode (truncated-tail repair included, via
:class:`~repro.cluster.journal.ResultStore`), and re-submits the sweep to a
fresh scheduler -- completed tasks are restored from the journal, only the
unfinished remainder is dispatched again.  Completed sweeps re-register
too (cheaply, straight to the ``complete`` state) so their results stay
queryable over HTTP across restarts.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, List, Optional, Sequence

from repro.cluster.journal import ResultStore
from repro.pipeline.tasks import SweepTask

__all__ = ["ServiceState", "restore_sweeps"]

_SWEEP_ID_RE = re.compile(r"^sweep-(\d+)$")


class ServiceState:
    """Filesystem layout and persistence of one service's sweep registry."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    # ------------------------------------------------------------------ #
    def meta_path(self, sweep_id: str) -> str:
        return os.path.join(self.root, f"{sweep_id}.meta.json")

    def journal_path(self, sweep_id: str) -> str:
        return os.path.join(self.root, f"{sweep_id}.jsonl")

    def list_sweeps(self) -> List[str]:
        """Registered sweep ids, in numeric submission order."""
        ids = []
        for name in os.listdir(self.root):
            if name.endswith(".meta.json"):
                ids.append(name[: -len(".meta.json")])

        def order(sweep_id: str) -> Any:
            match = _SWEEP_ID_RE.match(sweep_id)
            return (0, int(match.group(1))) if match else (1, sweep_id)

        return sorted(ids, key=order)

    def allocate_sweep_id(self) -> str:
        """Next unused ``sweep-NNN`` id (monotonic across restarts)."""
        highest = 0
        for sweep_id in self.list_sweeps():
            match = _SWEEP_ID_RE.match(sweep_id)
            if match:
                highest = max(highest, int(match.group(1)))
        return f"sweep-{highest + 1:03d}"

    # ------------------------------------------------------------------ #
    def persist(
        self,
        sweep_id: str,
        tasks: Sequence[SweepTask],
        params: Dict[str, Any],
    ) -> None:
        """Atomically write a sweep's meta file (tasks + submission params).

        Runs *before* the sweep is registered with the scheduler: a crash
        after the rename restores the sweep on restart; a crash before it
        loses nothing the submitter was ever told about.
        """
        doc = {
            "sweep_id": sweep_id,
            "tasks": [t.to_dict() for t in tasks],
            **params,
        }
        path = self.meta_path(sweep_id)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(doc, f, separators=(",", ":"))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    def evict(self, sweep_id: str) -> None:
        """Delete a sweep's meta and journal files (cancellation/GC).

        Tolerates files that never existed or are already gone -- eviction
        must be idempotent so a cancel raced with a restart cannot fail.
        """
        for path in (self.meta_path(sweep_id), self.journal_path(sweep_id)):
            try:
                os.remove(path)
            except FileNotFoundError:
                pass

    def load_meta(self, sweep_id: str) -> Dict[str, Any]:
        with open(self.meta_path(sweep_id), "r", encoding="utf-8") as f:
            return json.load(f)

    def open_store(
        self,
        sweep_id: str,
        tasks: Sequence[SweepTask],
        suite: str,
        buggy: bool,
        backend: str,
        resume: bool = False,
    ) -> ResultStore:
        return ResultStore.open(
            self.journal_path(sweep_id),
            tasks,
            suite,
            buggy,
            backend,
            resume=resume,
            service_sweep_id=sweep_id,
        )


def restore_sweeps(scheduler: Any, state: ServiceState) -> List[str]:
    """Re-register every persisted sweep with ``scheduler`` after a restart.

    Journals reopen in resume mode, so completed tasks are restored and
    never re-dispatched; a sweep whose journal already covers every task
    lands directly in the ``complete`` state.  Returns the restored ids.
    """
    restored = []
    already = set(scheduler.sweep_ids())
    for sweep_id in state.list_sweeps():
        if sweep_id in already:
            continue  # submitted live before start(); nothing to restore
        meta = state.load_meta(sweep_id)
        tasks = [SweepTask.from_dict(d) for d in meta["tasks"]]
        for task in tasks:
            # Retired knob of older state directories: it never entered the
            # task id, and the verifier no longer takes it.
            task.verifier_kwargs.pop("trial_batch", None)
        store = state.open_store(
            sweep_id,
            tasks,
            meta.get("suite", "npbench"),
            bool(meta.get("buggy", False)),
            meta.get("backend", "interpreter"),
            resume=True,
        )
        scheduler.submit(
            tasks,
            sweep_id=sweep_id,
            suite=meta.get("suite"),
            buggy=meta.get("buggy"),
            backend=meta.get("backend"),
            priority=float(meta.get("priority", 1.0)),
            max_task_retries=meta.get("max_task_retries"),
            store=store,
            owns_store=True,
        )
        restored.append(sweep_id)
    return restored
