"""Seeded, deterministic fault injection for the verification harness.

The verifier differential-tests backends against an oracle; this package
does the same for the *harness itself*.  A **fault plan** binds failure
kinds to named **fault points** (``task.execute``, ``protocol.send``,
``journal.record``, ``scheduler.dispatch``) and is armed through the
environment --
:data:`FAULTS_ENV` / :data:`SEED_ENV` -- so forked pool members and
spawned cluster workers inherit it without plumbing.

Grammar (clauses joined by ``,`` or ``;``)::

    POINT[KEY]=KIND[:ARG][@HITSPEC]

* ``POINT`` -- a fault-point name; the optional ``[KEY]`` scopes the
  clause to one context key (e.g. a workload name), so
  ``task.execute[gemm]=crash`` poisons exactly one task.
* ``KIND`` -- one of ``crash`` (hard ``os._exit``, like a segfault or
  SIGKILL), ``hang`` (sleep; default 3600 s), ``delay`` (sleep; default
  0.05 s), ``exception`` (raise :class:`FaultInjected`), ``garble``
  (corrupt a payload passed through :func:`garble_bytes` /
  :func:`garble_text`).
* ``ARG`` -- seconds for ``hang``/``delay``; a firing probability in
  ``(0, 1]`` for ``crash``/``exception``/``garble`` (default 1).
* ``HITSPEC`` -- ``@N`` fires only on the Nth hit of the point,
  ``@N+`` from the Nth hit onward; absent means every hit.

Every probabilistic decision hashes ``(seed, point, key, hit-index)``,
so two processes replaying the same call sequence with the same seed
make identical choices -- faults are reproducible, never flaky.  Hit
counters reset in forked children (:func:`os.register_at_fork`), giving
each pool member its own deterministic schedule.

Disabled is the common case and mirrors the telemetry null-span
pattern: until :data:`FAULTS_ENV` is seen, :func:`hit` is a sentinel
check and a return -- no locks, no counters, no allocation.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "FAULTS_ENV",
    "SEED_ENV",
    "FaultInjected",
    "FaultSpecError",
    "FaultPlan",
    "parse_plan",
    "configure",
    "reload",
    "active",
    "hit",
    "garble_bytes",
    "garble_text",
    "hit_counts",
]

#: Environment variables carrying the armed plan into child processes.
FAULTS_ENV = "REPRO_FAULTS"
SEED_ENV = "REPRO_FAULT_SEED"

_KINDS = ("crash", "hang", "delay", "garble", "exception")
_DEFAULT_DELAY = 0.05
_DEFAULT_HANG = 3600.0


class FaultSpecError(ValueError):
    """A fault-plan spec string does not parse."""


class FaultInjected(RuntimeError):
    """The error raised by an ``exception`` fault clause."""


class _Clause:
    __slots__ = ("point", "key", "kind", "arg", "first", "once")

    def __init__(self, point: str, key: Optional[str], kind: str,
                 arg: Optional[float], first: int, once: bool) -> None:
        self.point = point
        self.key = key          # None -> any key at this point
        self.kind = kind
        self.arg = arg
        self.first = first      # first hit index that may fire (1-based)
        self.once = once        # True -> only hit `first`, not `first`+

    def hits(self, n: int) -> bool:
        return n == self.first if self.once else n >= self.first


def _parse_clause(text: str) -> _Clause:
    left, eq, right = text.partition("=")
    if not eq or not left or not right:
        raise FaultSpecError(f"fault clause {text!r}: expected POINT=KIND")
    left = left.strip()
    key: Optional[str] = None
    if left.endswith("]"):
        point, bracket, rest = left.partition("[")
        if not bracket or not rest[:-1]:
            raise FaultSpecError(f"fault clause {text!r}: bad [KEY] scope")
        key = rest[:-1]
    else:
        point = left
    if not point or not all(c.isalnum() or c in "._-" for c in point):
        raise FaultSpecError(f"fault clause {text!r}: bad point {point!r}")
    right = right.strip()
    first, once = 1, False
    if "@" in right:
        right, _, hitspec = right.rpartition("@")
        once = not hitspec.endswith("+")
        digits = hitspec.rstrip("+")
        if not digits.isdigit() or int(digits) < 1:
            raise FaultSpecError(f"fault clause {text!r}: bad @HITSPEC")
        first = int(digits)
    kind, _, argtext = right.partition(":")
    if kind not in _KINDS:
        raise FaultSpecError(
            f"fault clause {text!r}: kind {kind!r} not in {_KINDS}"
        )
    arg: Optional[float] = None
    if argtext:
        try:
            arg = float(argtext)
        except ValueError:
            raise FaultSpecError(f"fault clause {text!r}: bad arg {argtext!r}")
        if kind in ("crash", "exception", "garble") and not 0.0 < arg <= 1.0:
            raise FaultSpecError(
                f"fault clause {text!r}: probability must be in (0, 1]"
            )
        if kind in ("hang", "delay") and arg < 0.0:
            raise FaultSpecError(f"fault clause {text!r}: negative seconds")
    return _Clause(point, key, kind, arg, first, once)


def parse_plan(spec: str, seed: int = 0) -> "FaultPlan":
    """Parse a :data:`FAULTS_ENV`-style spec into a :class:`FaultPlan`."""
    clauses: List[_Clause] = []
    for part in spec.replace(";", ",").split(","):
        part = part.strip()
        if part:
            clauses.append(_parse_clause(part))
    if not clauses:
        raise FaultSpecError("fault spec contains no clauses")
    return FaultPlan(clauses, seed)


class FaultPlan:
    """An armed set of fault clauses plus per-point hit counters."""

    def __init__(self, clauses: List[_Clause], seed: int) -> None:
        self.seed = seed
        self._clauses = clauses
        self._lock = threading.Lock()
        #: (point, key-or-"") -> hits so far.  The "" entry counts every
        #: hit at the point; keyed entries count per-key hits, so scoped
        #: and unscoped clauses each see a stable 1-based index.
        self._counts: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------ #
    def _decide(self, point: str, key: Optional[str], n: int,
                prob: float, salt: str = "") -> bool:
        if prob >= 1.0:
            return True
        digest = hashlib.sha256(
            f"{self.seed}:{point}:{key}:{n}:{salt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64 < prob

    def _match(self, point: str, key: Optional[str]) -> Optional[Tuple[_Clause, int]]:
        """Count the hit; return the firing clause (if any) and hit index."""
        with self._lock:
            n_point = self._counts.get((point, ""), 0) + 1
            self._counts[(point, "")] = n_point
            n_key = n_point
            if key is not None:
                n_key = self._counts.get((point, key), 0) + 1
                self._counts[(point, key)] = n_key
        for clause in self._clauses:
            if clause.point != point:
                continue
            if clause.key is not None and clause.key != key:
                continue
            n = n_point if clause.key is None else n_key
            if not clause.hits(n):
                continue
            if clause.kind in ("crash", "exception", "garble"):
                if not self._decide(point, key, n, clause.arg or 1.0):
                    continue
            return clause, n
        return None

    def counts(self) -> Dict[Tuple[str, str], int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            self._counts.clear()

    # ------------------------------------------------------------------ #
    def hit(self, point: str, key: Optional[str]) -> None:
        found = self._match(point, key)
        if found is None:
            return
        clause, _ = found
        _record_fire(point, clause.kind)
        if clause.kind == "delay":
            time.sleep(clause.arg if clause.arg is not None else _DEFAULT_DELAY)
        elif clause.kind == "hang":
            time.sleep(clause.arg if clause.arg is not None else _DEFAULT_HANG)
        elif clause.kind == "exception":
            raise FaultInjected(
                f"injected exception at fault point {point!r}"
                + (f" (key {key!r})" if key is not None else "")
            )
        elif clause.kind == "crash":
            os._exit(137)  # hard death: nothing catches it, like SIGKILL
        # 'garble' clauses only act through garble_bytes / garble_text.

    def garble(self, point: str, key: Optional[str], size: int) -> int:
        """Offset to corrupt in a ``size``-byte payload, or -1 for none.

        Points are probed by both :func:`hit` and the garble helpers; to
        keep hit indices one-per-operation, this only consumes a hit when
        a garble clause actually targets the point.
        """
        if not any(c.point == point and c.kind == "garble"
                   for c in self._clauses):
            return -1
        found = self._match(point, key)
        if found is None or found[0].kind != "garble" or size <= 0:
            return -1
        clause, n = found
        _record_fire(point, clause.kind)
        digest = hashlib.sha256(
            f"{self.seed}:{point}:{key}:{n}:offset".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") % size


def _record_fire(point: str, kind: str) -> None:
    from repro.telemetry import metrics

    metrics.inc(
        "repro_faults_injected_total", labels={"point": point, "kind": kind}
    )


# ---------------------------------------------------------------------- #
# Module-level arming.  `_UNLOADED` keeps the disabled fast path to one
# identity check; the plan loads lazily from the environment on first use.
# ---------------------------------------------------------------------- #

_UNLOADED = object()
_PLAN: object = _UNLOADED
_FORK_HOOK = False


def _arm_fork_reset() -> None:
    global _FORK_HOOK
    if _FORK_HOOK or not hasattr(os, "register_at_fork"):
        return
    os.register_at_fork(after_in_child=_reset_counts)
    _FORK_HOOK = True


def _reset_counts() -> None:
    if isinstance(_PLAN, FaultPlan):
        _PLAN.reset()


def _load() -> Optional[FaultPlan]:
    global _PLAN
    spec = os.environ.get(FAULTS_ENV)
    if spec:
        seed = int(os.environ.get(SEED_ENV, "0") or "0")
        _PLAN = parse_plan(spec, seed)
        _arm_fork_reset()
    else:
        _PLAN = None
    return _PLAN  # type: ignore[return-value]


def reload() -> None:
    """Re-read :data:`FAULTS_ENV` (tests; after external env changes)."""
    _load()


def configure(spec: Optional[str], seed: Optional[int] = None,
              export: bool = True) -> None:
    """Arm (or disarm, with a falsy ``spec``) fault injection in-process.

    With ``export=True`` (the default) the spec and seed are also written
    to the environment so forked pools and spawned workers inherit the
    plan; ``export=False`` arms only this process -- chaos drivers use it
    to fault the service without leaking faults into worker subprocesses.
    """
    global _PLAN
    if spec:
        _PLAN = parse_plan(spec, seed or 0)
        _arm_fork_reset()
        if export:
            os.environ[FAULTS_ENV] = spec
            os.environ[SEED_ENV] = str(seed or 0)
    else:
        _PLAN = None
        if export:
            os.environ.pop(FAULTS_ENV, None)
            os.environ.pop(SEED_ENV, None)


def active() -> bool:
    """True when a fault plan is armed (loading from the env if needed)."""
    plan = _PLAN
    if plan is _UNLOADED:
        plan = _load()
    return plan is not None


def hit(point: str, key: Optional[str] = None) -> None:
    """Pass through a fault point; may sleep, raise, or kill the process."""
    plan = _PLAN
    if plan is _UNLOADED:
        plan = _load()
    if plan is None:
        return
    plan.hit(point, key)  # type: ignore[union-attr]


def garble_bytes(point: str, data: bytes, key: Optional[str] = None) -> bytes:
    """Deterministically corrupt one byte of ``data`` if a garble clause
    fires at ``point``; otherwise return ``data`` unchanged.

    The corrupted byte becomes NUL, which no JSON payload may contain
    raw -- a garbled frame always fails to parse rather than silently
    decoding to different values.
    """
    plan = _PLAN
    if plan is _UNLOADED:
        plan = _load()
    if plan is None:
        return data
    offset = plan.garble(point, key, len(data))  # type: ignore[union-attr]
    if offset < 0:
        return data
    repl = b"\x00" if data[offset : offset + 1] != b"\x00" else b"\x01"
    return data[:offset] + repl + data[offset + 1 :]


def garble_text(point: str, text: str, key: Optional[str] = None) -> str:
    """Deterministically corrupt one character of single-line ``text``.

    The replacement is printable (never a newline), so a garbled journal
    line stays one record -- it either fails to parse or fails its
    checksum, and the loader skips it.
    """
    plan = _PLAN
    if plan is _UNLOADED:
        plan = _load()
    if plan is None:
        return text
    offset = plan.garble(point, key, len(text))  # type: ignore[union-attr]
    if offset < 0:
        return text
    repl = "~" if text[offset] != "~" else "#"
    return text[:offset] + repl + text[offset + 1 :]


def hit_counts() -> Dict[Tuple[str, str], int]:
    """Copy of the armed plan's hit counters ({} when disabled)."""
    plan = _PLAN
    return plan.counts() if isinstance(plan, FaultPlan) else {}
