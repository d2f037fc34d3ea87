"""The vectorized compiled backend (cache + program/backend classes).

Lowers map scopes whose memlets are affine in the map parameters to NumPy
array expressions.  The lowering itself is the four-stage pipeline shared by
all compiled backends (see :mod:`repro.backends`):

* :mod:`repro.backends.analysis` decides *legality* and produces the
  serializable plan IR (:mod:`repro.backends.plan`);
* the ``numpy-eager`` emitter (:mod:`repro.backends.codegen.numpy_eager`)
  binds plans to compiled code objects, composing fused chains;
* :mod:`repro.backends.execute` hosts the runtime
  (:class:`~repro.backends.execute.VectorizedExecutor`, re-exported here).

This module keeps the backend surface: the per-thread program cache keyed
by SDFG content hash, the optional on-disk artifact tier (``cache_dir`` /
:data:`CACHE_DIR_ENV`) shared across worker processes, and the
program/backend classes the registry exposes.  Scope plans are built once
per (program, scope) and reused across runs; preparing the same cutout
twice (e.g. repeated sweep tasks) is free.  Any construct the analyzer
cannot express -- nested SDFGs or nested maps inside a scope, data-dependent
(``dynamic``) subsets, non-affine output indices, write-conflict patterns it
cannot prove race-free, tasklet code outside the vectorizable subset of
Python -- falls back node-by-node to the interpreter for exactly that scope,
keeping the backends semantically interchangeable (bitwise fidelity notes
live with the runtime in :mod:`repro.backends.execute`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, Mapping, Optional, Set, Tuple

from repro.backends.base import CompiledProgram, ExecutionBackend
from repro.backends.execute import VectorizedExecutor
from repro.interpreter.executor import ExecutionResult
from repro.sdfg.sdfg import SDFG
from repro.sdfg.serialize import sdfg_to_json
from repro.telemetry import TRACER, inc as _metric_inc

logger = logging.getLogger("repro.backends.cache")

#: One warning per process the first time a *corrupt* (vs. merely stale)
#: disk-cache entry is found and rewritten; after that, silence -- the
#: rewrite is self-healing and per-entry counts live in the metrics.
_CORRUPT_REWRITE_WARNED = False

__all__ = [
    "VectorizedBackend",
    "VectorizedProgram",
    "VectorizedExecutor",
    "ProgramDiskCache",
    "sdfg_content_hash",
    "CACHE_DIR_ENV",
]

#: Environment variable naming the on-disk compiled-program cache directory.
#: Read dynamically at each :meth:`VectorizedBackend.prepare`, so setting it
#: (e.g. via ``--cache-dir``) affects already-constructed backend instances
#: and survives ``fork``/``spawn`` into pool and cluster workers.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def sdfg_content_hash(sdfg: SDFG) -> str:
    """Content hash of a program (its canonical JSON serialization)."""
    return hashlib.sha256(sdfg_to_json(sdfg).encode("utf-8")).hexdigest()


class ProgramDiskCache:
    """A directory of compile *artifacts* keyed by SDFG content hash.

    Pool and cluster workers are separate processes: each one pays the full
    per-program compilation cost (control-flow structuring, driver code
    generation, plan analysis) even when every sibling already compiled the
    exact same program.  The disk tier shares those artifacts across
    processes -- and across sweep invocations -- so a program cluster-wide
    compiles once.

    Entries are JSON documents written atomically (temp file + ``rename``),
    so concurrent workers may race freely: the loser of a race simply
    overwrites the winner with identical content.  A corrupt or truncated
    entry degrades to a miss (and is rewritten, with one process-wide
    warning) and a stale-versioned entry to a recompile, never an error --
    the cache can always be rebuilt from source programs.  The two cases
    are *distinguished* (``corrupt`` vs. ``stale``) because they mean
    different things operationally: stale entries are expected after an
    upgrade, corrupt ones indicate torn writes or disk trouble.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        #: Entry paths whose last load was corrupt (for the rewrite warning).
        self._corrupt_paths: Set[str] = set()

    def _path(
        self, content_hash: str, max_transitions: int, variant: str = ""
    ) -> str:
        return os.path.join(
            self.directory, f"{content_hash}-{max_transitions}{variant}.json"
        )

    def load(
        self, content_hash: str, max_transitions: int, variant: str = ""
    ) -> Optional[Dict[str, Any]]:
        return self.load_classified(content_hash, max_transitions, variant)[0]

    def load_classified(
        self, content_hash: str, max_transitions: int, variant: str = ""
    ) -> Tuple[Optional[Dict[str, Any]], str]:
        """Load an entry, classifying the outcome: ``(artifact, status)``.

        ``status`` is ``"hit"`` (a parseable artifact -- the caller may
        still downgrade it to ``"stale"`` after ``check_artifact``),
        ``"miss"`` (no entry / unreadable directory) or ``"corrupt"``
        (an entry exists but is truncated, non-JSON or not an object).
        """
        path = self._path(content_hash, max_transitions, variant)
        try:
            with open(path, "r", encoding="utf-8") as f:
                artifact = json.load(f)
        except FileNotFoundError:
            return None, "miss"
        except OSError:
            return None, "miss"  # unreadable dir/permissions: no entry seen
        except ValueError:
            self._corrupt_paths.add(path)
            return None, "corrupt"
        if not isinstance(artifact, dict):
            self._corrupt_paths.add(path)
            return None, "corrupt"
        return artifact, "hit"

    def store(
        self,
        content_hash: str,
        max_transitions: int,
        artifact: Dict[str, Any],
        variant: str = "",
    ) -> None:
        global _CORRUPT_REWRITE_WARNED
        path = self._path(content_hash, max_transitions, variant)
        if path in self._corrupt_paths:
            self._corrupt_paths.discard(path)
            if not _CORRUPT_REWRITE_WARNED:
                _CORRUPT_REWRITE_WARNED = True
                logger.warning(
                    "rewriting corrupt compile-cache entry %s (torn write or "
                    "disk trouble; self-healing, warned once per process)",
                    path,
                )
        try:
            os.makedirs(self.directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=".tmp-", suffix=".json", dir=self.directory
            )
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as f:
                    json.dump(artifact, f)
                os.replace(tmp, self._path(content_hash, max_transitions, variant))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            pass  # a read-only or full cache directory degrades to no cache


# ---------------------------------------------------------------------- #
# Backend
# ---------------------------------------------------------------------- #
class VectorizedProgram(CompiledProgram):
    """A program bound to a reusable :class:`VectorizedExecutor`."""

    def __init__(
        self,
        sdfg: SDFG,
        max_transitions: int = 100_000,
        fuse: bool = True,
        artifact: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(sdfg)
        self.executor = VectorizedExecutor(
            sdfg, max_transitions=max_transitions, fuse=fuse
        )

    @property
    def stats(self) -> Dict[str, int]:
        return self.executor.stats

    #: Whether this program class produces persistable compile artifacts at
    #: all; ``False`` short-circuits the disk tier (no loads, no stores) so
    #: e.g. cross-backend workers sharing a cache directory with compiled
    #: siblings never parse artifacts they cannot use.
    persists_artifacts = False

    #: Disk-cache filename suffix distinguishing artifact *variants*.  The
    #: pure-Python backends share the empty variant (one artifact per
    #: content hash); the native backend uses ``"-native"`` so its artifacts
    #: (which embed a compiled shared object) live in separate entries.
    artifact_variant = ""

    @classmethod
    def check_artifact(cls, artifact: Dict[str, Any]) -> bool:
        """Whether a disk artifact is usable by this program class (the
        vectorized program has no persistent compile artifact)."""
        return False

    def artifact(self) -> Optional[Dict[str, Any]]:
        """The JSON-safe compile artifact to persist, if any."""
        return None

    def run(
        self,
        arguments: Optional[Mapping[str, Any]] = None,
        symbols: Optional[Mapping[str, Any]] = None,
        collect_coverage: bool = False,
    ) -> ExecutionResult:
        return self.executor.run(arguments, symbols, collect_coverage=collect_coverage)


class _ProgramLRU(threading.local):
    """The in-memory tier of one backend: an LRU *per thread*.

    A prepared program is not reentrant (its executor holds the symbols and
    data store of the run in progress), and equal content hashes are common
    across the tasks of a sweep (cutouts of one match of a shared workload
    program), so a program is only ever handed back to the thread that
    prepared it."""

    def __init__(self) -> None:  # runs once in every thread that touches it
        self.programs: "OrderedDict[Tuple[str, int], VectorizedProgram]" = OrderedDict()


class VectorizedBackend(ExecutionBackend):
    """Compiles map scopes to NumPy array programs, caching by content hash.

    The hash covers the exact serialization *including node guids* (which
    clones and JSON roundtrips preserve), so cache hits occur for repeated
    prepares of the same program object, its clones, and worker-side
    deserializations -- while two independent builds of the same kernel,
    whose coverage features are keyed by their distinct guids, correctly
    compile separately.

    With a cache *directory* configured (the ``cache_dir`` argument, the
    ``--cache-dir`` CLI option, or the ``REPRO_CACHE_DIR`` environment
    variable -- read dynamically so it reaches forked pool workers), the
    in-memory cache gains an on-disk tier: program classes with a
    persistable compile artifact (the compiled whole-program backend's
    generated driver) store it keyed by content hash and codegen version,
    and sibling worker processes skip recompilation.
    """

    name = "vectorized"
    #: Program type this backend prepares; subclasses (e.g. the compiled
    #: whole-program backend) swap it while inheriting the cache policy.
    program_class = VectorizedProgram

    def __init__(
        self,
        cache_size: int = 64,
        cache_dir: Optional[str] = None,
        fuse: bool = True,
    ) -> None:
        self.cache_size = cache_size
        self.fuse = fuse
        self._explicit_cache_dir = cache_dir
        self._lru = _ProgramLRU()
        self.cache_hits = 0
        self.cache_misses = 0
        self.disk_hits = 0
        self.disk_misses = 0

    @property
    def cache_dir(self) -> Optional[str]:
        """The active on-disk cache directory (explicit or environment)."""
        return self._explicit_cache_dir or os.environ.get(CACHE_DIR_ENV) or None

    def prepare(self, sdfg: SDFG, max_transitions: int = 100_000) -> VectorizedProgram:
        content_hash = sdfg_content_hash(sdfg)
        key = (content_hash, max_transitions)
        cache = self._lru.programs
        program = cache.get(key)
        if program is not None:
            cache.move_to_end(key)
            self.cache_hits += 1
            _metric_inc(
                "repro_prepare_cache_total",
                labels={"tier": self.name, "level": "memory", "outcome": "hit"},
            )
            return program
        self.cache_misses += 1
        _metric_inc(
            "repro_prepare_cache_total",
            labels={"tier": self.name, "level": "memory", "outcome": "miss"},
        )

        with TRACER.span("backend.prepare", "prepare") as span:
            span.set("tier", self.name)
            span.set("sdfg", sdfg.name)
            disk: Optional[ProgramDiskCache] = None
            artifact: Optional[Dict[str, Any]] = None
            directory = (
                self.cache_dir if self.program_class.persists_artifacts else None
            )
            variant = self.program_class.artifact_variant
            if directory is not None:
                disk = ProgramDiskCache(directory)
                artifact, status = disk.load_classified(
                    content_hash, max_transitions, variant
                )
                if artifact is not None and not self.program_class.check_artifact(
                    artifact
                ):
                    artifact = None
                    status = "stale"  # parseable, but wrong version/class
                if artifact is not None:
                    self.disk_hits += 1
                else:
                    self.disk_misses += 1
                span.set("disk_cache", status)
                _metric_inc(
                    "repro_disk_cache_total",
                    labels={"tier": self.name, "outcome": status},
                )

            program = self.program_class(
                sdfg, max_transitions=max_transitions, fuse=self.fuse,
                artifact=artifact,
            )
            if disk is not None and artifact is None:
                fresh = program.artifact()
                if fresh is not None:
                    disk.store(content_hash, max_transitions, fresh, variant)

        cache[key] = program
        while len(cache) > self.cache_size:
            cache.popitem(last=False)
        return program
