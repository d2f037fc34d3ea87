"""Expression tree for symbolic integer arithmetic.

The expression language is intentionally small: integers, named symbols,
addition, multiplication, power, true/floor division, modulo and ``Min`` /
``Max``.  That is sufficient to describe data-container shapes (``N * N``),
access subsets (``i * 32 : Min(N, i * 32 + 32)``) and data-movement volumes,
which is all the FuzzyFlow analyses require.

Expressions are immutable and hashable.  Arithmetic operators build new
expression nodes and apply light local simplification (constant folding,
neutral-element removal); heavier rewriting lives in
:mod:`repro.symbolic.simplify`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence, Set, Union

Number = Union[int, float]
ExprLike = Union["Expr", int, float, str]

__all__ = [
    "Expr",
    "Integer",
    "Float",
    "Symbol",
    "Add",
    "Mul",
    "Pow",
    "FloorDiv",
    "TrueDiv",
    "Mod",
    "Min",
    "Max",
    "sympify",
]


class Immutable:
    """An object whose fields are assigned in ``__init__`` only.  Copies
    share it: :mod:`copy` returns the object itself, and the IR copier
    (:mod:`repro.sdfg.copier`) never rebuilds one."""

    __slots__ = ()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo: dict):
        return self


class Expr(Immutable):
    """Base class for all symbolic expressions (immutable)."""

    __slots__ = ()

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    @property
    def free_symbols(self) -> Set[str]:
        """Names of all symbols appearing in this expression."""
        raise NotImplementedError

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        """Evaluate to a concrete number given symbol values.

        Raises :class:`KeyError` if a free symbol has no binding.
        """
        raise NotImplementedError

    def subs(self, mapping: Mapping[str, ExprLike]) -> "Expr":
        """Substitute symbols by expressions (returns a new expression)."""
        raise NotImplementedError

    def is_constant(self) -> bool:
        return not self.free_symbols

    # ------------------------------------------------------------------ #
    # Python protocol
    # ------------------------------------------------------------------ #
    def __add__(self, other: ExprLike) -> "Expr":
        return Add.make(self, sympify(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return Add.make(sympify(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return Add.make(self, Mul.make(Integer(-1), sympify(other)))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return Add.make(sympify(other), Mul.make(Integer(-1), self))

    def __mul__(self, other: ExprLike) -> "Expr":
        return Mul.make(self, sympify(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return Mul.make(sympify(other), self)

    def __neg__(self) -> "Expr":
        return Mul.make(Integer(-1), self)

    def __pos__(self) -> "Expr":
        return self

    def __pow__(self, other: ExprLike) -> "Expr":
        return Pow.make(self, sympify(other))

    def __floordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv.make(self, sympify(other))

    def __rfloordiv__(self, other: ExprLike) -> "Expr":
        return FloorDiv.make(sympify(other), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return TrueDiv.make(self, sympify(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return TrueDiv.make(sympify(other), self)

    def __mod__(self, other: ExprLike) -> "Expr":
        return Mod.make(self, sympify(other))

    def __rmod__(self, other: ExprLike) -> "Expr":
        return Mod.make(sympify(other), self)

    # Equality is *structural*, not semantic.
    def __eq__(self, other: object) -> bool:  # pragma: no cover - overridden
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - overridden
        return NotImplemented

    def __repr__(self) -> str:
        return str(self)


# ---------------------------------------------------------------------- #
# Atoms
# ---------------------------------------------------------------------- #
class Integer(Expr):
    """An integer constant."""

    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = int(value)

    @property
    def free_symbols(self) -> Set[str]:
        return set()

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        return self.value

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.value == other
        return isinstance(other, Integer) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Integer", self.value))

    def __str__(self) -> str:
        return str(self.value)


class Float(Expr):
    """A floating-point constant (rarely needed; kept for completeness)."""

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = float(value)

    @property
    def free_symbols(self) -> Set[str]:
        return set()

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        return self.value

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, float):
            return self.value == other
        return isinstance(other, Float) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("Float", self.value))

    def __str__(self) -> str:
        return repr(self.value)


class Symbol(Expr):
    """A named program parameter (e.g. ``N``, a loop variable ``i``)."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ValueError(f"Invalid symbol name: {name!r}")
        self.name = name

    @property
    def free_symbols(self) -> Set[str]:
        return {self.name}

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        if bindings is None or self.name not in bindings:
            raise KeyError(f"No value bound for symbol '{self.name}'")
        return bindings[self.name]

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        if self.name in mapping:
            return sympify(mapping[self.name])
        return self

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Symbol) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Symbol", self.name))

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------- #
# Composite nodes
# ---------------------------------------------------------------------- #
class _NAry(Expr):
    """Base for flattened, order-preserving n-ary operators."""

    __slots__ = ("args",)
    _op_name = "?"

    def __init__(self, args: Sequence[Expr]) -> None:
        self.args = tuple(args)

    @property
    def free_symbols(self) -> Set[str]:
        out: Set[str] = set()
        for a in self.args:
            out |= a.free_symbols
        return out

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return type(self).make(*[a.subs(mapping) for a in self.args])

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.args == other.args

    def __hash__(self) -> int:
        return hash((self._op_name, self.args))

    @classmethod
    def make(cls, *args: Expr) -> Expr:  # pragma: no cover - overridden
        raise NotImplementedError


def _paren(e: Expr) -> str:
    if isinstance(e, (Integer, Symbol, Float, Min, Max)):
        return str(e)
    return f"({e})"


class Add(_NAry):
    """Sum of terms."""

    __slots__ = ()
    _op_name = "Add"

    @classmethod
    def make(cls, *args: ExprLike) -> Expr:
        terms: list[Expr] = []
        const = 0
        for raw in args:
            a = sympify(raw)
            if isinstance(a, Add):
                inner = list(a.args)
            else:
                inner = [a]
            for t in inner:
                if isinstance(t, Integer):
                    const += t.value
                elif isinstance(t, Float):
                    const += t.value
                else:
                    terms.append(t)
        if const != 0 or not terms:
            const_expr: Expr = Integer(const) if isinstance(const, int) else Float(const)
            terms.append(const_expr)
        if len(terms) == 1:
            return terms[0]
        return cls(terms)

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        return sum(a.evaluate(bindings) for a in self.args)

    def __str__(self) -> str:
        parts: list[str] = []
        for i, a in enumerate(self.args):
            s = str(a)
            if i > 0 and not s.startswith("-"):
                parts.append("+")
            elif i > 0:
                parts.append("")
            parts.append(s)
        return " ".join(p for p in parts if p) if len(self.args) > 1 else str(self.args[0])


class Mul(_NAry):
    """Product of factors."""

    __slots__ = ()
    _op_name = "Mul"

    @classmethod
    def make(cls, *args: ExprLike) -> Expr:
        factors: list[Expr] = []
        const: Number = 1
        for raw in args:
            a = sympify(raw)
            if isinstance(a, Mul):
                inner = list(a.args)
            else:
                inner = [a]
            for f in inner:
                if isinstance(f, (Integer, Float)):
                    const = const * f.value
                else:
                    factors.append(f)
        if const == 0:
            return Integer(0)
        if const != 1 or not factors:
            const_expr: Expr = Integer(const) if isinstance(const, int) else Float(const)
            factors.insert(0, const_expr)
        if len(factors) == 1:
            return factors[0]
        return cls(factors)

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        out: Number = 1
        for a in self.args:
            out = out * a.evaluate(bindings)
        return out

    def __str__(self) -> str:
        return " * ".join(_paren(a) for a in self.args)


class _Binary(Expr):
    """Base for binary operators."""

    __slots__ = ("lhs", "rhs")
    _op_name = "?"
    _op_sym = "?"

    def __init__(self, lhs: Expr, rhs: Expr) -> None:
        self.lhs = lhs
        self.rhs = rhs

    @property
    def free_symbols(self) -> Set[str]:
        return self.lhs.free_symbols | self.rhs.free_symbols

    def subs(self, mapping: Mapping[str, ExprLike]) -> Expr:
        return type(self).make(self.lhs.subs(mapping), self.rhs.subs(mapping))

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.lhs == other.lhs
            and self.rhs == other.rhs
        )

    def __hash__(self) -> int:
        return hash((self._op_name, self.lhs, self.rhs))

    def __str__(self) -> str:
        return f"{_paren(self.lhs)} {self._op_sym} {_paren(self.rhs)}"

    @classmethod
    def make(cls, lhs: ExprLike, rhs: ExprLike) -> Expr:
        l, r = sympify(lhs), sympify(rhs)
        if l.is_constant() and r.is_constant():
            return sympify(cls._fold(l.evaluate(), r.evaluate()))
        return cls._partial(l, r)

    @classmethod
    def _partial(cls, l: Expr, r: Expr) -> Expr:
        return cls(l, r)

    @staticmethod
    def _fold(a: Number, b: Number) -> Number:  # pragma: no cover - overridden
        raise NotImplementedError


class Pow(_Binary):
    """Exponentiation."""

    __slots__ = ()
    _op_name = "Pow"
    _op_sym = "**"

    @staticmethod
    def _fold(a: Number, b: Number) -> Number:
        return a ** b

    @classmethod
    def _partial(cls, l: Expr, r: Expr) -> Expr:
        if isinstance(r, Integer):
            if r.value == 0:
                return Integer(1)
            if r.value == 1:
                return l
        return cls(l, r)

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        return self.lhs.evaluate(bindings) ** self.rhs.evaluate(bindings)


class FloorDiv(_Binary):
    """Integer (floor) division."""

    __slots__ = ()
    _op_name = "FloorDiv"
    _op_sym = "//"

    @staticmethod
    def _fold(a: Number, b: Number) -> Number:
        return a // b

    @classmethod
    def _partial(cls, l: Expr, r: Expr) -> Expr:
        if isinstance(r, Integer) and r.value == 1:
            return l
        if isinstance(l, Integer) and l.value == 0:
            return Integer(0)
        return cls(l, r)

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        return self.lhs.evaluate(bindings) // self.rhs.evaluate(bindings)


class TrueDiv(_Binary):
    """True division (kept exact when it folds to an integer)."""

    __slots__ = ()
    _op_name = "TrueDiv"
    _op_sym = "/"

    @staticmethod
    def _fold(a: Number, b: Number) -> Number:
        res = a / b
        if isinstance(a, int) and isinstance(b, int) and a % b == 0:
            return a // b
        return res

    @classmethod
    def _partial(cls, l: Expr, r: Expr) -> Expr:
        if isinstance(r, Integer) and r.value == 1:
            return l
        if isinstance(l, Integer) and l.value == 0:
            return Integer(0)
        return cls(l, r)

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        return self.lhs.evaluate(bindings) / self.rhs.evaluate(bindings)


class Mod(_Binary):
    """Modulo."""

    __slots__ = ()
    _op_name = "Mod"
    _op_sym = "%"

    @staticmethod
    def _fold(a: Number, b: Number) -> Number:
        return a % b

    @classmethod
    def _partial(cls, l: Expr, r: Expr) -> Expr:
        if isinstance(r, Integer) and r.value == 1:
            return Integer(0)
        return cls(l, r)

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        return self.lhs.evaluate(bindings) % self.rhs.evaluate(bindings)


class Min(_NAry):
    """Minimum of a set of expressions."""

    __slots__ = ()
    _op_name = "Min"

    @classmethod
    def make(cls, *args: ExprLike) -> Expr:
        exprs: list[Expr] = []
        const: Number | None = None
        for raw in args:
            a = sympify(raw)
            if isinstance(a, Min):
                inner: Iterable[Expr] = a.args
            else:
                inner = [a]
            for e in inner:
                if e.is_constant():
                    v = e.evaluate()
                    const = v if const is None else min(const, v)
                elif e not in exprs:
                    exprs.append(e)
        if const is not None:
            exprs.append(sympify(const))
        if not exprs:
            raise ValueError("Min() requires at least one argument")
        if len(exprs) == 1:
            return exprs[0]
        return cls(exprs)

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        return min(a.evaluate(bindings) for a in self.args)

    def __str__(self) -> str:
        return "Min(" + ", ".join(str(a) for a in self.args) + ")"


class Max(_NAry):
    """Maximum of a set of expressions."""

    __slots__ = ()
    _op_name = "Max"

    @classmethod
    def make(cls, *args: ExprLike) -> Expr:
        exprs: list[Expr] = []
        const: Number | None = None
        for raw in args:
            a = sympify(raw)
            if isinstance(a, Max):
                inner: Iterable[Expr] = a.args
            else:
                inner = [a]
            for e in inner:
                if e.is_constant():
                    v = e.evaluate()
                    const = v if const is None else max(const, v)
                elif e not in exprs:
                    exprs.append(e)
        if const is not None:
            exprs.append(sympify(const))
        if not exprs:
            raise ValueError("Max() requires at least one argument")
        if len(exprs) == 1:
            return exprs[0]
        return cls(exprs)

    def evaluate(self, bindings: Mapping[str, Number] | None = None) -> Number:
        return max(a.evaluate(bindings) for a in self.args)

    def __str__(self) -> str:
        return "Max(" + ", ".join(str(a) for a in self.args) + ")"


# ---------------------------------------------------------------------- #
# Helpers
# ---------------------------------------------------------------------- #
def sympify(value: ExprLike) -> Expr:
    """Convert ``value`` into an :class:`Expr`.

    Accepts expressions (returned unchanged), Python ints/floats, and strings
    parsed with :func:`repro.symbolic.parser.parse_expr`.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):
        return Integer(int(value))
    if isinstance(value, int):
        return Integer(value)
    if isinstance(value, float):
        if value.is_integer():
            return Integer(int(value))
        return Float(value)
    if hasattr(value, "item") and not isinstance(value, str):
        # NumPy scalar
        return sympify(value.item())
    if isinstance(value, str):
        from repro.symbolic.parser import parse_expr

        return parse_expr(value)
    raise TypeError(f"Cannot convert {value!r} of type {type(value).__name__} to Expr")
