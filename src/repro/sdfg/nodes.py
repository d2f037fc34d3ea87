"""Dataflow graph nodes: access nodes, tasklets and map scopes.

Every node carries a *guid* -- a globally unique identifier that survives
copies (:mod:`repro.sdfg.copier`).  When a program is copied and a
transformation is applied to the copy, nodes that existed before keep their
guid while newly created nodes get fresh ones; the black-box
change-isolation analysis (Sec. 3, step 2) uses this to compute the set of
modified nodes between the original and the transformed graph.
"""

from __future__ import annotations

import itertools
from typing import List, Sequence, Set, Tuple, Union

from repro.sdfg.dtypes import ScheduleType
from repro.symbolic.expressions import Expr, sympify
from repro.symbolic.ranges import Range

ExprLike = Union[Expr, int, str]

__all__ = [
    "Node",
    "AccessNode",
    "CodeNode",
    "Tasklet",
    "Map",
    "MapEntry",
    "MapExit",
    "next_guid",
]

_guid_counter = itertools.count(1)


def next_guid() -> int:
    """Return a fresh globally unique node identifier."""
    return next(_guid_counter)


class Node:
    """Base class for all dataflow graph nodes."""

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.guid = next_guid()
        #: Named input connectors (``None``-connector edges are also allowed).
        self.in_connectors: Set[str] = set()
        #: Named output connectors.
        self.out_connectors: Set[str] = set()

    def add_in_connector(self, name: str) -> str:
        self.in_connectors.add(name)
        return name

    def add_out_connector(self, name: str) -> str:
        self.out_connectors.add(name)
        return name

    @property
    def free_symbols(self) -> Set[str]:
        return set()

    def fingerprint(self) -> Tuple:
        """A content hashable summary used by graph diffing."""
        return (type(self).__name__, self.label)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.label!r})"


class AccessNode(Node):
    """A read/write access to a named data container."""

    def __init__(self, data: str) -> None:
        super().__init__(label=data)
        self.data = data

    def fingerprint(self) -> Tuple:
        return ("AccessNode", self.data)

    def __repr__(self) -> str:
        return f"AccessNode({self.data})"


class CodeNode(Node):
    """Base class for nodes that execute code (today only :class:`Tasklet`)."""


class Tasklet(CodeNode):
    """A computation consuming input connectors and producing output connectors.

    ``code`` is a block of Python statements; input connectors are bound as
    local names before execution and output connector values are read back
    afterwards.  A tasklet may be *fine-grained* (scalar connectors inside a
    map) or *coarse-grained* (whole-array connectors, e.g. ``out = A @ B``);
    the interpreter does not distinguish the two.

    ``side_effect_callback`` marks tasklets that call out to opaque library
    or user code; FuzzyFlow cannot capture side effects of such calls and
    emits a warning when they appear in a cutout (Sec. 3.1 / 7.1).
    """

    def __init__(
        self,
        label: str,
        inputs: Sequence[str],
        outputs: Sequence[str],
        code: str,
        language: str = "python",
        side_effect_callback: bool = False,
    ) -> None:
        super().__init__(label=label)
        self.in_connectors = set(inputs)
        self.out_connectors = set(outputs)
        self.code = code
        self.language = language
        self.side_effect_callback = bool(side_effect_callback)

    @property
    def free_symbols(self) -> Set[str]:
        # Symbols referenced in tasklet code are discovered lazily by the
        # interpreter; for analysis purposes the code string is opaque.
        return set()

    def fingerprint(self) -> Tuple:
        return (
            "Tasklet",
            self.label,
            tuple(sorted(self.in_connectors)),
            tuple(sorted(self.out_connectors)),
            self.code,
        )

    def __repr__(self) -> str:
        return f"Tasklet({self.label!r})"


class Map:
    """A parametric map scope: a multi-dimensional parallel (or sequential)
    loop nest over named parameters with symbolic ranges."""

    def __init__(
        self,
        label: str,
        params: Sequence[str],
        ranges: Sequence[Union[Range, Tuple, str]],
        schedule: ScheduleType = ScheduleType.Sequential,
    ) -> None:
        if len(params) != len(ranges):
            raise ValueError(
                f"Map '{label}': {len(params)} parameters but {len(ranges)} ranges"
            )
        self.label = label
        self.params: List[str] = list(params)
        self.ranges: List[Range] = [self._as_range(r) for r in ranges]
        self.schedule = schedule

    @staticmethod
    def _as_range(r) -> Range:
        if isinstance(r, Range):
            return r
        if isinstance(r, tuple):
            return Range(*r)
        if isinstance(r, str):
            return Range.from_string(r)
        raise TypeError(f"Cannot interpret {r!r} as a map range")

    @property
    def free_symbols(self) -> Set[str]:
        out: Set[str] = set()
        for r in self.ranges:
            out |= r.free_symbols
        return out - set(self.params)

    def num_iterations(self) -> Expr:
        total = sympify(1)
        for r in self.ranges:
            total = total * r.num_elements()
        return total

    def fingerprint(self) -> Tuple:
        return (
            "Map",
            self.label,
            tuple(self.params),
            tuple(str(r) for r in self.ranges),
            self.schedule.value,
        )

    def __repr__(self) -> str:
        rngs = ", ".join(f"{p}={r}" for p, r in zip(self.params, self.ranges))
        return f"Map({self.label!r}: {rngs}, {self.schedule.value})"


class MapEntry(Node):
    """Scope-opening node of a map.

    Connector convention (borrowed from DaCe): data entering the scope
    arrives on ``IN_<name>`` connectors and is forwarded to the scope body on
    matching ``OUT_<name>`` connectors.
    """

    def __init__(self, map_obj: Map) -> None:
        super().__init__(label=map_obj.label)
        self.map = map_obj

    @property
    def free_symbols(self) -> Set[str]:
        return self.map.free_symbols

    def fingerprint(self) -> Tuple:
        return ("MapEntry",) + self.map.fingerprint()

    def __repr__(self) -> str:
        return f"MapEntry({self.map!r})"


class MapExit(Node):
    """Scope-closing node of a map (shares the :class:`Map` object with its
    entry).  Data leaving the scope arrives on ``IN_<name>`` connectors and is
    forwarded outside on ``OUT_<name>`` connectors."""

    def __init__(self, map_obj: Map) -> None:
        super().__init__(label=map_obj.label)
        self.map = map_obj

    @property
    def free_symbols(self) -> Set[str]:
        return self.map.free_symbols

    def fingerprint(self) -> Tuple:
        return ("MapExit",) + self.map.fingerprint()

    def __repr__(self) -> str:
        return f"MapExit({self.map!r})"
