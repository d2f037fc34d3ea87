"""Symbolic ranges and multi-dimensional subsets.

Every data-movement edge (memlet) in the parametric dataflow IR carries a
:class:`Subset` describing *exactly* which part of a data container is read or
written.  Subsets are lists of per-dimension :class:`Range` objects with
symbolic (or constant) begin/end/step, where the end is **inclusive** -- the
same convention DaCe uses, so ``0:N-1`` covers a dimension of size ``N``.

Subsets support the operations FuzzyFlow's analyses need:

* :meth:`Subset.num_elements` -- symbolic data volume,
* :meth:`Subset.intersects` -- overlap test (concrete when symbol values are
  known, conservatively ``True`` otherwise),
* :meth:`Subset.covers` -- containment test.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence, Tuple, Union

from repro.symbolic.expressions import Expr, Immutable, Integer, Min, Mul, sympify
from repro.symbolic.simplify import simplify

Number = Union[int, float]
ExprLike = Union[Expr, int, str]

__all__ = ["Range", "Subset"]


class Range(Immutable):
    """A one-dimensional range ``begin:end:step`` with an inclusive end."""

    __slots__ = ("begin", "end", "step")

    def __init__(self, begin: ExprLike, end: ExprLike, step: ExprLike = 1) -> None:
        self.begin = sympify(begin)
        self.end = sympify(end)
        self.step = sympify(step)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_string(cls, text: str) -> "Range":
        """Parse ``"b:e"``, ``"b:e:s"`` or a single index ``"i"``."""
        parts = [p.strip() for p in text.split(":")]
        if len(parts) == 1:
            return cls(parts[0], parts[0], 1)
        if len(parts) == 2:
            return cls(parts[0], parts[1], 1)
        if len(parts) == 3:
            return cls(parts[0], parts[1], parts[2])
        raise ValueError(f"Cannot parse range string {text!r}")

    @classmethod
    def full(cls, size: ExprLike) -> "Range":
        """The range covering a whole dimension of the given size."""
        return cls(0, sympify(size) - 1, 1)

    # ------------------------------------------------------------------ #
    @property
    def free_symbols(self) -> set:
        return self.begin.free_symbols | self.end.free_symbols | self.step.free_symbols

    def num_elements(self) -> Expr:
        """Number of elements covered (symbolic)."""
        return simplify((self.end - self.begin) // self.step + 1)

    def is_point(self) -> bool:
        """True if this range statically covers a single index."""
        return self.begin == self.end

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Tuple[int, int, int]:
        """Concrete ``(begin, end, step)`` triple."""
        return (
            int(self.begin.evaluate(bindings)),
            int(self.end.evaluate(bindings)),
            int(self.step.evaluate(bindings)),
        )

    def subs(self, mapping: Mapping[str, ExprLike]) -> "Range":
        return Range(
            self.begin.subs(mapping), self.end.subs(mapping), self.step.subs(mapping)
        )

    # ------------------------------------------------------------------ #
    def intersects(
        self, other: "Range", bindings: Mapping[str, Number] | None = None
    ) -> bool:
        """Whether the two ranges may overlap.

        With ``bindings`` the check is exact on the interval hulls; without,
        it falls back to a conservative ``True`` whenever either bound cannot
        be evaluated (FuzzyFlow errs on the side of including data in the
        system state / input configuration).
        """
        try:
            b0, e0, _ = self.evaluate(bindings)
            b1, e1, _ = other.evaluate(bindings)
        except KeyError:
            return True
        lo0, hi0 = min(b0, e0), max(b0, e0)
        lo1, hi1 = min(b1, e1), max(b1, e1)
        return not (hi0 < lo1 or hi1 < lo0)

    def covers(
        self, other: "Range", bindings: Mapping[str, Number] | None = None
    ) -> bool:
        """Whether this range fully contains ``other`` (interval hulls)."""
        try:
            b0, e0, _ = self.evaluate(bindings)
            b1, e1, _ = other.evaluate(bindings)
        except KeyError:
            # Without concrete values only structural equality is certain.
            return self.begin == other.begin and self.end == other.end
        lo0, hi0 = min(b0, e0), max(b0, e0)
        lo1, hi1 = min(b1, e1), max(b1, e1)
        return lo0 <= lo1 and hi1 <= hi0

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Range)
            and self.begin == other.begin
            and self.end == other.end
            and self.step == other.step
        )

    def __hash__(self) -> int:
        return hash(("Range", self.begin, self.end, self.step))

    def __str__(self) -> str:
        if self.is_point():
            return str(self.begin)
        if self.step == Integer(1):
            return f"{self.begin}:{self.end}"
        return f"{self.begin}:{self.end}:{self.step}"

    def __repr__(self) -> str:
        return f"Range({self})"


class Subset(Immutable):
    """A multi-dimensional subset: one :class:`Range` per dimension."""

    __slots__ = ("ranges",)

    def __init__(self, ranges: Sequence[Union[Range, ExprLike, Tuple]] ) -> None:
        converted: List[Range] = []
        for r in ranges:
            if isinstance(r, Range):
                converted.append(r)
            elif isinstance(r, tuple):
                converted.append(Range(*r))
            else:
                e = sympify(r)
                converted.append(Range(e, e, 1))
        self.ranges = tuple(converted)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_string(cls, text: str) -> "Subset":
        """Parse a subset string like ``"i, 0:N-1, 2:9:2"``.

        Dimensions are separated by top-level commas; commas inside
        parentheses (e.g. ``Min(i + 3, N - 1)``) do not split dimensions.
        """
        parts: List[str] = []
        depth = 0
        current = []
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(current).strip())
                current = []
            else:
                current.append(ch)
        if current:
            parts.append("".join(current).strip())
        parts = [p for p in parts if p]
        if not parts:
            raise ValueError(f"Cannot parse subset string {text!r}")
        return cls([Range.from_string(p) for p in parts])

    @classmethod
    def full(cls, shape: Sequence[ExprLike]) -> "Subset":
        """The subset covering an entire container of the given shape."""
        return cls([Range.full(s) for s in shape])

    # ------------------------------------------------------------------ #
    @property
    def dims(self) -> int:
        return len(self.ranges)

    @property
    def free_symbols(self) -> set:
        out: set = set()
        for r in self.ranges:
            out |= r.free_symbols
        return out

    def num_elements(self) -> Expr:
        """Total number of elements covered (symbolic)."""
        if not self.ranges:
            return Integer(1)
        total: Expr = Integer(1)
        for r in self.ranges:
            total = Mul.make(total, r.num_elements())
        return simplify(total)

    def subs(self, mapping: Mapping[str, ExprLike]) -> "Subset":
        return Subset([r.subs(mapping) for r in self.ranges])

    # ------------------------------------------------------------------ #
    def intersects(
        self, other: "Subset", bindings: Mapping[str, Number] | None = None
    ) -> bool:
        """Whether the two subsets may overlap (conservative without bindings)."""
        if self.dims != other.dims:
            # Mismatched dimensionality (e.g. reshaped views): be conservative.
            return True
        return all(
            a.intersects(b, bindings) for a, b in zip(self.ranges, other.ranges)
        )

    def covers(
        self, other: "Subset", bindings: Mapping[str, Number] | None = None
    ) -> bool:
        """Whether this subset fully contains ``other``."""
        if self.dims != other.dims:
            return False
        return all(a.covers(b, bindings) for a, b in zip(self.ranges, other.ranges))

    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subset) and self.ranges == other.ranges

    def __hash__(self) -> int:
        return hash(("Subset", self.ranges))

    def __str__(self) -> str:
        return ", ".join(str(r) for r in self.ranges)

    def __repr__(self) -> str:
        return f"Subset[{self}]"
