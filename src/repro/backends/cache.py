"""Program identity and the on-disk compile-artifact cache.

:func:`sdfg_content_hash` serialises the whole program, so it is taken
only where a program's identity is needed: the key of the disk tier below
(no directory configured, no hash) and the label of a ``cross`` backend's
divergence report.  :class:`ProgramDiskCache` is the optional directory of
compile artifacts (``cache_dir`` / :data:`CACHE_DIR_ENV`) shared across
worker processes.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from typing import Any, Dict, Optional, Set, Tuple

from repro.sdfg.sdfg import SDFG
from repro.sdfg.serialize import sdfg_to_json

logger = logging.getLogger("repro.backends.cache")

#: One warning per process the first time a *corrupt* (vs. merely stale)
#: disk-cache entry is found and rewritten; after that, silence -- the
#: rewrite is self-healing and per-entry counts live in the metrics.
_CORRUPT_REWRITE_WARNED = False

__all__ = ["ProgramDiskCache", "sdfg_content_hash", "CACHE_DIR_ENV"]

#: Environment variable naming the on-disk compiled-program cache directory.
#: Read dynamically at each :meth:`CompiledBackend.prepare`, so setting it
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
