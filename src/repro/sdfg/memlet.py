"""Memlets: annotated data-movement edges.

A memlet names the data container being moved, the exact subset accessed (a
:class:`~repro.symbolic.ranges.Subset` with symbolic bounds), an optional
write-conflict resolution (reduction) and an optional ``other_subset`` used
for container-to-container copies.  The data volume of a memlet -- the number
of elements moved across the edge -- is what the minimum input-flow cut uses
as edge capacity (Sec. 4 of the paper).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

from repro.symbolic.expressions import Expr, sympify
from repro.symbolic.ranges import Subset

ExprLike = Union[Expr, int, str]

__all__ = ["Memlet"]


class Memlet:
    """Data movement annotation attached to a dataflow edge."""

    __slots__ = ("data", "subset", "other_subset", "wcr", "_volume", "dynamic")

    def __init__(
        self,
        data: Optional[str] = None,
        subset: Optional[Union[Subset, str, Sequence]] = None,
        other_subset: Optional[Union[Subset, str, Sequence]] = None,
        wcr: Optional[str] = None,
        volume: Optional[ExprLike] = None,
        dynamic: bool = False,
    ) -> None:
        #: Name of the data container being accessed (``None`` for empty
        #: memlets, which only express ordering dependencies).
        self.data = data
        self.subset = self._as_subset(subset)
        self.other_subset = self._as_subset(other_subset)
        #: Write-conflict resolution: one of ``sum``, ``prod``, ``min``,
        #: ``max`` or ``None`` for plain assignment.
        self.wcr = wcr
        #: Whether the number of accessed elements is data-dependent (e.g.
        #: indirect accesses); treated conservatively by the analyses.
        self.dynamic = bool(dynamic)
        self._volume = sympify(volume) if volume is not None else None

    # ------------------------------------------------------------------ #
    @staticmethod
    def _as_subset(value) -> Optional[Subset]:
        if value is None:
            return None
        if isinstance(value, Subset):
            return value
        if isinstance(value, str):
            return Subset.from_string(value)
        return Subset(value)

    @classmethod
    def simple(cls, data: str, subset: Union[str, Subset, Sequence], **kwargs) -> "Memlet":
        """Convenience constructor: ``Memlet.simple("A", "i, 0:N-1")``."""
        return cls(data=data, subset=subset, **kwargs)

    @classmethod
    def full(cls, data: str, shape: Sequence[ExprLike], **kwargs) -> "Memlet":
        """A memlet covering an entire container of the given shape."""
        return cls(data=data, subset=Subset.full(shape), **kwargs)

    @classmethod
    def empty(cls) -> "Memlet":
        """An empty memlet (pure ordering dependency, no data movement)."""
        return cls(data=None, subset=None)

    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        return self.data is None

    def volume(self) -> Expr:
        """Symbolic number of elements moved across this edge."""
        if self._volume is not None:
            return self._volume
        if self.subset is None:
            return sympify(0)
        return self.subset.num_elements()

    def volume_at(self, bindings: Mapping[str, int] | None = None) -> int:
        """Concrete number of elements moved."""
        return int(self.volume().evaluate(bindings))

    @property
    def free_symbols(self) -> set:
        out: set = set()
        if self.subset is not None:
            out |= self.subset.free_symbols
        if self.other_subset is not None:
            out |= self.other_subset.free_symbols
        if self._volume is not None:
            out |= self._volume.free_symbols
        return out

    def subs(self, mapping: Mapping[str, ExprLike]) -> "Memlet":
        """Substitute symbols in all subsets and the volume."""
        out = Memlet(
            data=self.data,
            subset=self.subset.subs(mapping) if self.subset is not None else None,
            other_subset=(
                self.other_subset.subs(mapping)
                if self.other_subset is not None
                else None
            ),
            wcr=self.wcr,
            volume=self._volume.subs(mapping) if self._volume is not None else None,
            dynamic=self.dynamic,
        )
        return out

    def clone(self) -> "Memlet":
        """A new memlet over the same (immutable) subsets and volume."""
        out = Memlet.__new__(Memlet)
        out.data = self.data
        out.subset = self.subset
        out.other_subset = self.other_subset
        out.wcr = self.wcr
        out._volume = self._volume
        out.dynamic = self.dynamic
        return out

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "data": self.data,
            "subset": str(self.subset) if self.subset is not None else None,
            "other_subset": (
                str(self.other_subset) if self.other_subset is not None else None
            ),
            "wcr": self.wcr,
            "volume": str(self._volume) if self._volume is not None else None,
            "dynamic": self.dynamic,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "Memlet":
        return cls(
            data=d.get("data"),
            subset=d.get("subset"),
            other_subset=d.get("other_subset"),
            wcr=d.get("wcr"),
            volume=d.get("volume"),
            dynamic=bool(d.get("dynamic", False)),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Memlet):
            return NotImplemented
        return (
            self.data == other.data
            and self.subset == other.subset
            and self.other_subset == other.other_subset
            and self.wcr == other.wcr
            and self.dynamic == other.dynamic
        )

    def __hash__(self) -> int:
        return hash((self.data, self.subset, self.other_subset, self.wcr))

    def __str__(self) -> str:
        if self.is_empty:
            return "Memlet(empty)"
        wcr = f" (wcr: {self.wcr})" if self.wcr else ""
        other = f" -> [{self.other_subset}]" if self.other_subset is not None else ""
        return f"{self.data}[{self.subset}]{other}{wcr}"

    def __repr__(self) -> str:
        return f"Memlet({self})"
