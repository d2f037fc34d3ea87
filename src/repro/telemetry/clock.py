"""The clock seam: every monotonic timestamp in ``repro`` flows through here.

Architecture rule 4 (``tools/lint_arch.py``): outside ``repro.telemetry``
and the benchmarks, no module may call :func:`time.monotonic` or
:func:`time.perf_counter` directly.  Timing-dependent code takes its clock
from this module instead -- either the module-level functions (which
indirect through the installed :class:`Clock` on every call, so a test can
swap the time source mid-run) or an injected callable defaulting to them.

That containment is what makes the tracer and every duration field
testable: :func:`set_clock` installs a deterministic fake, and *all*
spans, deadlines and ``duration_seconds`` fields follow it.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["Clock", "get_clock", "set_clock", "monotonic", "perf_counter"]


class Clock:
    """An injectable pair of monotonic time sources.

    ``monotonic`` is the coarse scheduler/deadline clock; ``perf_counter``
    the high-resolution profiling clock.  Both default to :mod:`time`'s
    real clocks; tests construct fakes (e.g. a manually stepped counter).
    """

    __slots__ = ("monotonic", "perf_counter")

    def __init__(
        self,
        monotonic: Callable[[], float] = time.monotonic,
        perf_counter: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.monotonic = monotonic
        self.perf_counter = perf_counter


_ACTIVE = Clock()


def get_clock() -> Clock:
    """The currently installed clock."""
    return _ACTIVE


def set_clock(clock: Clock) -> Clock:
    """Install ``clock`` process-wide; returns the previous one.

    Tests should restore the returned clock in a ``finally`` block.
    """
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, clock
    return previous


def monotonic() -> float:
    """Monotonic seconds via the installed clock (deadline/EWMA grade)."""
    return _ACTIVE.monotonic()


def perf_counter() -> float:
    """High-resolution monotonic seconds via the installed clock."""
    return _ACTIVE.perf_counter()
