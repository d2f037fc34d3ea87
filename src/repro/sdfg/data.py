"""Data descriptors: parametric arrays and scalars.

A data descriptor describes a named data container of the program: its
element type, its (possibly symbolic) shape, whether it is *transient*
(allocated and managed inside the program, invisible outside) and where it is
stored.  Parametric shapes are the key property Table 1 of the paper requires
for generalizing extracted test cases to different input sizes.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple, Union

import numpy as np

from repro.sdfg.dtypes import StorageType, dtype_from_numpy, typeclass
from repro.symbolic.expressions import Expr, Integer, Mul, sympify
from repro.symbolic.simplify import simplify

ExprLike = Union[Expr, int, str]

__all__ = ["Data", "Scalar", "Array"]


class Data:
    """Base class for data descriptors."""

    def __init__(
        self,
        dtype: Union[typeclass, str, np.dtype, type],
        transient: bool = False,
        storage: StorageType = StorageType.Default,
    ) -> None:
        self.dtype = dtype_from_numpy(dtype)
        self.transient = bool(transient)
        self.storage = storage

    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[Expr, ...]:
        raise NotImplementedError

    def total_size(self) -> Expr:
        """Total number of elements (symbolic)."""
        total: Expr = Integer(1)
        for s in self.shape:
            total = Mul.make(total, s)
        return simplify(total)

    def concrete_shape(self, symbols: Mapping[str, int] | None = None) -> Tuple[int, ...]:
        """Shape with all symbols substituted by concrete values.

        Memoized per symbol valuation: shape evaluation sits on the per-run
        hot path of every backend (transient allocation, argument shape
        checks), and sympify/evaluate costs dwarf the dictionary probe.
        The cache is keyed only by the values of the shape's own free
        symbols, so it is a pure function of its key.
        """
        cached = self.__dict__.get("_shape_cache")
        if cached is None:
            exprs = tuple(sympify(s) for s in self.shape)
            names: Tuple[str, ...] = tuple(
                sorted(set().union(*(e.free_symbols for e in exprs)))
            ) if exprs else ()
            cached = (exprs, names, {})
            self.__dict__["_shape_cache"] = cached
        exprs, names, memo = cached
        try:
            key = (
                tuple((symbols or {})[name] for name in names) if names else ()
            )
            hit = memo.get(key)
        except (KeyError, TypeError):
            # Missing or unhashable symbol values: the uncached evaluation
            # raises (or handles) exactly as before.
            return tuple(int(e.evaluate(symbols)) for e in exprs)
        if hit is None:
            hit = tuple(int(e.evaluate(symbols)) for e in exprs)
            if len(memo) > 128:
                memo.clear()
            memo[key] = hit
        return hit

    @property
    def free_symbols(self) -> set:
        out: set = set()
        for s in self.shape:
            out |= sympify(s).free_symbols
        return out

    def clone(self) -> "Data":
        """A new descriptor over the same (immutable) shape and type, without
        the shape cache of :meth:`concrete_shape`."""
        out = object.__new__(type(self))
        out.__dict__ = {k: v for k, v in self.__dict__.items() if k != "_shape_cache"}
        return out

    def allocate(self, symbols: Mapping[str, int] | None = None) -> np.ndarray:
        """Allocate a zero-initialized NumPy buffer for this descriptor."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict:
        return {
            "type": type(self).__name__,
            "dtype": self.dtype.name,
            "transient": self.transient,
            "storage": self.storage.value,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.to_dict()})"


class Scalar(Data):
    """A single scalar value (e.g. a size parameter or a scaling factor)."""

    def __init__(
        self,
        dtype: Union[typeclass, str, np.dtype, type],
        transient: bool = False,
        storage: StorageType = StorageType.Default,
    ) -> None:
        super().__init__(dtype, transient, storage)

    @property
    def shape(self) -> Tuple[Expr, ...]:
        return (Integer(1),)

    def allocate(self, symbols: Mapping[str, int] | None = None) -> np.ndarray:
        return np.zeros((1,), dtype=self.dtype.as_numpy())

    def to_dict(self) -> Dict:
        d = super().to_dict()
        d["shape"] = ["1"]
        return d

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Scalar)
            and self.dtype == other.dtype
            and self.transient == other.transient
            and self.storage == other.storage
        )

    def __hash__(self) -> int:
        return hash(("Scalar", self.dtype, self.transient, self.storage))


class Array(Data):
    """A multi-dimensional array with a parametric shape."""

    def __init__(
        self,
        dtype: Union[typeclass, str, np.dtype, type],
        shape: Sequence[ExprLike],
        transient: bool = False,
        storage: StorageType = StorageType.Default,
    ) -> None:
        super().__init__(dtype, transient, storage)
        if not shape:
            raise ValueError("Array shape must have at least one dimension")
        self._shape: Tuple[Expr, ...] = tuple(sympify(s) for s in shape)

    @property
    def shape(self) -> Tuple[Expr, ...]:
        return self._shape

    def allocate(self, symbols: Mapping[str, int] | None = None) -> np.ndarray:
        shape = self.concrete_shape(symbols)
        if any(s <= 0 for s in shape):
            raise ValueError(
                f"Cannot allocate array with non-positive shape {shape}"
            )
        return np.zeros(shape, dtype=self.dtype.as_numpy())

    def to_dict(self) -> Dict:
        d = super().to_dict()
        d["shape"] = [str(s) for s in self._shape]
        return d

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Array)
            and self.dtype == other.dtype
            and self._shape == other._shape
            and self.transient == other.transient
            and self.storage == other.storage
        )

    def __hash__(self) -> int:
        return hash(("Array", self.dtype, self._shape, self.transient, self.storage))


def data_from_dict(d: Dict) -> Data:
    """Reconstruct a data descriptor from its dictionary form."""
    dtype = d["dtype"]
    transient = bool(d.get("transient", False))
    storage = StorageType(d.get("storage", "Default"))
    if d["type"] == "Scalar":
        return Scalar(dtype, transient=transient, storage=storage)
    if d["type"] == "Array":
        return Array(dtype, d["shape"], transient=transient, storage=storage)
    raise ValueError(f"Unknown data descriptor type {d['type']!r}")
