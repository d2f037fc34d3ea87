"""Time calls into the program's layers from outside the program.

The traced run of the benchmark must not rely on spans recorded by the
program itself (a change could move or drop them).  Instead the harness
replaces the layers' public callables with timing wrappers for the
duration of a traced session:

* a :class:`Ledger` keeps one span stack per thread, in memory, and adds
  each finished span to its layer's totals.  A layer's *self time* is the
  span's duration minus the part of it that child spans cover, so the self
  times of all layers add up to the time spent under the outermost spans;
* :func:`install` resolves ``"module:name"`` / ``"module:Class.method"``
  targets, swaps in the wrappers everywhere the original is referenced
  (``from x import f`` copies the binding, so every module of the package
  that holds the same object is patched) and returns an
  :class:`Installation` whose :meth:`~Installation.restore` undoes it.

A target that no longer resolves is reported in ``Installation.missing``;
it never raises, so a renamed function costs one per-layer number and
nothing else.  This module imports nothing from the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

__all__ = ["Ledger", "Target", "Installation", "install"]

#: ``after(ledger, args, kwargs, result)``: runs once the span is closed, to
#: count work where it happens (its own cost lands in the parent's self time).
AfterHook = Callable[["Ledger", tuple, dict, Any], None]
#: ``adapt(args, kwargs) -> (args, kwargs)``: runs before the span opens.
AdaptHook = Callable[[tuple, dict], Tuple[tuple, dict]]

_ABSENT = object()


class Ledger:
    """Per-layer self time, inclusive time, call counts and free counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self._layers: Dict[str, List[float]] = {}
        self._counters: Dict[str, float] = {}

    # -- recording ----------------------------------------------------- #
    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> None:
        """Push a span; every ``open`` needs one :meth:`close`."""
        frame = [layer, 0.0, 0.0]  # layer, start, time covered by children
        self._stack().append(frame)
        frame[1] = self.clock()

    def close(self) -> None:
        end = self.clock()
        stack = self._stack()
        layer, start, covered = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        # Inclusive time counts a layer once per outermost span, so a
        # layer that re-enters itself (run_batch -> run) is not doubled.
        outermost = all(frame[0] != layer for frame in stack)
        with self._lock:
            totals = self._layers.setdefault(layer, [0.0, 0.0, 0])
            totals[0] += duration - covered
            if outermost:
                totals[1] += duration
            totals[2] += 1

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def wrap(
        self,
        layer: str,
        fn: Callable[..., Any],
        after: Optional[AfterHook] = None,
        adapt: Optional[AdaptHook] = None,
    ) -> Callable[..., Any]:
        """A callable that behaves like ``fn`` and records a span per call."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if adapt is not None:
                args, kwargs = adapt(args, kwargs)
            self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                try:
                    after(self, args, kwargs, result)
                except Exception:  # noqa: BLE001 - a hook never fails the program
                    self.count("harness.hook_errors")
            return result

        return wrapper

    # -- reading ------------------------------------------------------- #
    def snapshot(self) -> Dict[str, Any]:
        """``{"layers": {layer: {self_s, total_s, calls}}, "counters": {...}}``."""
        with self._lock:
            return {
                "layers": {
                    layer: {"self_s": t[0], "total_s": t[1], "calls": t[2]}
                    for layer, t in self._layers.items()
                },
                "counters": dict(self._counters),
            }


def diff_snapshots(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Any]:
    """``after - before`` for two cumulative :meth:`Ledger.snapshot` results."""
    layers = {}
    for layer, now in after["layers"].items():
        was = before["layers"].get(layer, {})
        layers[layer] = {k: v - was.get(k, 0) for k, v in now.items()}
    counters = {
        name: value - before["counters"].get(name, 0)
        for name, value in after["counters"].items()
    }
    return {"layers": layers, "counters": counters}


class Target(NamedTuple):
    """One callable to wrap.

    ``path`` is ``"module:function"`` or ``"module:Class.method"``; a
    trailing ``*`` (``"module:Base.method*"``) wraps the method on every
    subclass of ``Base`` that defines it, for bases whose method is abstract.
    """

    layer: str
    path: str
    after: Optional[AfterHook] = None
    adapt: Optional[AdaptHook] = None


class Installation:
    """The patches one :func:`install` call made, and how to undo them."""

    def __init__(self, ledger: Ledger, package: str) -> None:
        self.ledger = ledger
        self.package = package
        #: (layer, path) of every target that did not resolve.
        self.missing: List[Tuple[str, str]] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, vars(owner).get(name, _ABSENT)))
        setattr(owner, name, value)

    def wrap_attribute(self, owner: type, name: str, target: Target) -> None:
        """Replace ``owner.name`` (a plain, class or static method)."""
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(
                self.ledger.wrap(target.layer, raw.__func__, target.after, target.adapt)
            )
        else:
            wrapped = self.ledger.wrap(target.layer, raw, target.after, target.adapt)
        self._set(owner, name, wrapped)

    def wrap_function(self, module: Any, name: str, target: Target) -> None:
        """Replace a module-level function in every module that imported it."""
        original = getattr(module, name)
        wrapped = self.ledger.wrap(target.layer, original, target.after, target.adapt)
        prefix = self.package + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def add(self, target: Target) -> None:
        try:
            module_name, _, qualname = target.path.partition(":")
            subclasses = qualname.endswith("*")
            parts = qualname.rstrip("*").split(".")
            module = importlib.import_module(module_name)
            if len(parts) == 1:
                self.wrap_function(module, parts[0], target)
                return
            owner = module
            for part in parts[:-1]:
                owner = getattr(owner, part)
            if not subclasses:
                getattr(owner, parts[-1])  # AttributeError when it is gone
                self.wrap_attribute(owner, parts[-1], target)
                return
            owners = [c for c in _all_subclasses(owner) if parts[-1] in vars(c)]
            owners = list(dict.fromkeys(owners))
            if not owners:
                raise AttributeError(f"no subclass defines {parts[-1]}")
            for cls in owners:
                self.wrap_attribute(cls, parts[-1], target)
        except (ImportError, AttributeError):
            self.missing.append((target.layer, target.path))

    def restore(self) -> None:
        """Put every original binding back, newest patch first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            if original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found


def install(ledger: Ledger, targets: List[Target], package: str) -> Installation:
    """Wrap every target; ``package`` bounds the modules scanned for copies
    of a module-level function's binding."""
    installation = Installation(ledger, package)
    for target in targets:
        installation.add(target)
    return installation
