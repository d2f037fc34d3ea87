"""Unit tests for the symbolic expression engine."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import equivalent

from repro.symbolic import (
    Add,
    Integer,
    Max,
    Min,
    Mul,
    Symbol,
    parse_expr,
    simplify,
    sympify,
)
from repro.symbolic.expressions import Float
from repro.symbolic.parser import ExpressionParseError


class TestConstruction:
    def test_sympify_int(self):
        e = sympify(5)
        assert isinstance(e, Integer)
        assert e.evaluate() == 5

    def test_sympify_negative(self):
        assert sympify(-3).evaluate() == -3

    def test_sympify_float_integral(self):
        assert sympify(4.0) == Integer(4)

    def test_sympify_string(self):
        e = sympify("N + 1")
        assert e.free_symbols == {"N"}
        assert e.evaluate({"N": 9}) == 10

    def test_sympify_expr_identity(self):
        e = Symbol("x")
        assert sympify(e) is e

    def test_sympify_invalid(self):
        with pytest.raises(TypeError):
            sympify(object())

    def test_symbol_requires_name(self):
        with pytest.raises(ValueError):
            Symbol("")


class TestArithmetic:
    def test_true_division_and_float_constants(self):
        e = Symbol("N") / 2
        assert str(e) == "N / 2" and e.evaluate({"N": 5}) == 2.5
        assert (1 / Symbol("N")).evaluate({"N": 4}) == 0.25
        assert sympify("6 / 3") == Integer(2) and sympify("N / 1") == Symbol("N")
        assert sympify("0 / N") == Integer(0)
        half = sympify("3 / 2")
        assert isinstance(half, Float) and half.evaluate() == 1.5 and str(half) == "1.5"
        assert half.free_symbols == set() and half.subs({"N": 1}) is half
        assert half == 1.5 and half == sympify(1.5) and hash(half) == hash(sympify(1.5))
        assert parse_expr("2.5 * N").evaluate({"N": 2}) == 5.0

    def test_add(self):
        e = Symbol("N") + 3
        assert e.evaluate({"N": 4}) == 7

    def test_radd(self):
        e = 3 + Symbol("N")
        assert e.evaluate({"N": 4}) == 7

    def test_sub(self):
        e = Symbol("N") - 1
        assert e.evaluate({"N": 10}) == 9

    def test_rsub(self):
        e = 10 - Symbol("N")
        assert e.evaluate({"N": 3}) == 7

    def test_mul(self):
        e = Symbol("N") * Symbol("M")
        assert e.evaluate({"N": 3, "M": 5}) == 15

    def test_neg(self):
        e = -Symbol("x")
        assert e.evaluate({"x": 2}) == -2

    def test_floordiv(self):
        e = Symbol("N") // 4
        assert e.evaluate({"N": 10}) == 2

    def test_mod(self):
        e = Symbol("N") % 4
        assert e.evaluate({"N": 10}) == 2

    def test_pow(self):
        e = Symbol("N") ** 2
        assert e.evaluate({"N": 5}) == 25

    def test_constant_folding_add(self):
        assert (Integer(2) + 3) == Integer(5)

    def test_constant_folding_mul(self):
        assert (Integer(2) * 3) == Integer(6)

    def test_mul_by_zero(self):
        assert (Symbol("N") * 0) == Integer(0)

    def test_mul_by_one(self):
        assert (Symbol("N") * 1) == Symbol("N")

    def test_add_zero(self):
        assert (Symbol("N") + 0) == Symbol("N")

    def test_min_max(self):
        e = Min.make(Symbol("N"), 32)
        assert e.evaluate({"N": 10}) == 10
        assert e.evaluate({"N": 100}) == 32
        e = Max.make(Symbol("N"), 32)
        assert e.evaluate({"N": 10}) == 32

    def test_min_constant_only(self):
        assert Min.make(3, 7) == Integer(3)

    def test_missing_binding_raises(self):
        with pytest.raises(KeyError):
            Symbol("N").evaluate({})


class TestSubstitution:
    def test_subs_symbol(self):
        e = Symbol("N") * 2 + 1
        assert e.subs({"N": 5}).evaluate() == 11

    def test_subs_with_expression(self):
        e = Symbol("i") + 1
        e2 = e.subs({"i": Symbol("j") * 4})
        assert e2.evaluate({"j": 2}) == 9

    def test_subs_partial(self):
        e = Symbol("a") + Symbol("b")
        e2 = e.subs({"a": 1})
        assert e2.free_symbols == {"b"}

    def test_free_symbols(self):
        e = parse_expr("(a + b) * c // d")
        assert e.free_symbols == {"a", "b", "c", "d"}


class TestParser:
    def test_parse_arith(self):
        e = parse_expr("2 * N + 3")
        assert e.evaluate({"N": 4}) == 11

    def test_parse_parentheses(self):
        e = parse_expr("(N + 1) * (M - 1)")
        assert e.evaluate({"N": 2, "M": 4}) == 9

    def test_parse_floordiv_mod(self):
        e = parse_expr("N // 3 + N % 3")
        assert e.evaluate({"N": 10}) == 4

    def test_parse_min_call(self):
        e = parse_expr("Min(N, 32)")
        assert e.evaluate({"N": 5}) == 5

    def test_parse_lowercase_max(self):
        e = parse_expr("max(N, 32)")
        assert e.evaluate({"N": 5}) == 32

    def test_parse_unary_minus(self):
        assert parse_expr("-5").evaluate() == -5

    def test_parse_invalid_call(self):
        with pytest.raises(ExpressionParseError):
            parse_expr("foo(N)")

    def test_parse_invalid_syntax(self):
        with pytest.raises(ExpressionParseError):
            parse_expr("N +")

    def test_parse_empty(self):
        with pytest.raises(ExpressionParseError):
            parse_expr("   ")

    def test_parse_rejects_attribute_access(self):
        with pytest.raises(ExpressionParseError):
            parse_expr("os.path")

    def test_roundtrip_through_str(self):
        e = parse_expr("(N - 1) // 32 + Min(i, j) * 4")
        e2 = parse_expr(str(e))
        assert equivalent(e, e2)


class TestSimplify:
    def test_collect_like_terms(self):
        e = simplify(Symbol("i") + Symbol("i"))
        assert e == Mul.make(2, Symbol("i")) or equivalent(e, "2 * i")

    def test_cancellation(self):
        e = simplify(Symbol("i") - Symbol("i"))
        assert e == Integer(0)

    def test_nested_constant_fold(self):
        e = simplify(parse_expr("(N + 2) - 2"))
        assert e == Symbol("N")

    def test_mul_div_cancel(self):
        e = simplify(parse_expr("(4 * i) // 4"))
        assert equivalent(e, "i")

    def test_simplify_preserves_value(self):
        e = parse_expr("3 * i + 2 * i - i + 7 - 3")
        s = simplify(e)
        assert equivalent(e, s)


class TestEquality:
    def test_structural_equality(self):
        assert parse_expr("N + 1") == parse_expr("N + 1")

    def test_hashable(self):
        s = {parse_expr("N + 1"), parse_expr("N + 1"), parse_expr("N + 2")}
        assert len(s) == 2

    def test_equivalent_commutative(self):
        assert equivalent("N + M", "M + N")

    def test_not_equivalent(self):
        assert not equivalent("N + 1", "N + 2")


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(min_value=-50, max_value=50),
    b=st.integers(min_value=-50, max_value=50),
    n=st.integers(min_value=1, max_value=40),
)
def test_property_linear_expression_matches_python(a, b, n):
    """a*N + b evaluated symbolically matches plain Python arithmetic."""
    e = Integer(a) * Symbol("N") + b
    assert e.evaluate({"N": n}) == a * n + b


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=1000),
    d=st.integers(min_value=1, max_value=64),
)
def test_property_floordiv_mod_identity(n, d):
    """(N // d) * d + N % d == N holds for the symbolic operators."""
    e = (Symbol("N") // d) * d + (Symbol("N") % d)
    assert e.evaluate({"N": n}) == n


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=30))
def test_property_parse_str_roundtrip(depth, seed):
    """Randomly built expressions survive a str() -> parse_expr() round trip."""
    import random

    rng = random.Random(seed)
    symbols = ["N", "M", "i", "j"]

    def build(d):
        if d == 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return Symbol(rng.choice(symbols))
            return Integer(rng.randint(0, 9))
        op = rng.choice(["add", "mul", "min", "max", "sub"])
        l, r = build(d - 1), build(d - 1)
        if op == "add":
            return l + r
        if op == "sub":
            return l - r
        if op == "mul":
            return l * r
        if op == "min":
            return Min.make(l, r)
        return Max.make(l, r)

    e = build(depth)
    e2 = parse_expr(str(e))
    assert equivalent(e, e2, symbols=symbols)
