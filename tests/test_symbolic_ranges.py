"""Unit and property tests for ranges and subsets."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import equivalent

from repro.symbolic import Range, Subset, Symbol


class TestRange:
    def test_full(self):
        r = Range.full("N")
        assert str(r) == "0:N -1" or equivalent(r.end, "N - 1")
        assert r.num_elements().evaluate({"N": 7}) == 7

    def test_from_string_point(self):
        r = Range.from_string("i")
        assert r.is_point()

    def test_from_string_range(self):
        r = Range.from_string("2:10")
        assert r.evaluate() == (2, 10, 1)

    def test_from_string_step(self):
        r = Range.from_string("0:N-1:2")
        assert r.evaluate({"N": 9}) == (0, 8, 2)

    def test_from_string_invalid(self):
        with pytest.raises(ValueError):
            Range.from_string("1:2:3:4")

    def test_num_elements_with_step(self):
        r = Range(0, 9, 2)
        assert r.num_elements().evaluate() == 5

    def test_intersects_concrete(self):
        assert Range(0, 5).intersects(Range(5, 9))
        assert not Range(0, 4).intersects(Range(5, 9))

    def test_intersects_symbolic_conservative(self):
        assert Range(0, Symbol("N")).intersects(Range(Symbol("M"), Symbol("M")))

    def test_covers(self):
        assert Range(0, 9).covers(Range(2, 5))
        assert not Range(2, 5).covers(Range(0, 9))

    def test_covers_symbolic_structural(self):
        assert Range(0, Symbol("N") - 1).covers(Range(0, Symbol("N") - 1))

    @pytest.mark.parametrize("text", ["i", "2:10", "0:N - 1:2", "i*4:i*4 + 3"])
    def test_str_round_trips_through_from_string(self, text):
        r = Range.from_string(text)
        assert Range.from_string(str(r)) == r

    def test_free_symbols_and_subs(self):
        r = Range("i * 4", "Min(N, i * 4 + 3)", "s")
        assert r.free_symbols == {"i", "N", "s"}
        assert r.subs({"i": 2, "s": 1}).evaluate({"N": 9}) == (8, 9, 1)

    def test_equal_ranges_hash_equal(self):
        assert Range.from_string("0:N-1") == Range.full("N")
        assert hash(Range.from_string("0:N-1")) == hash(Range.full("N"))
        assert Range(0, 9, 1) != Range(0, 9, 2)


class TestSubset:
    def test_full(self):
        s = Subset.full(["N", "M"])
        assert s.dims == 2
        assert s.num_elements().evaluate({"N": 3, "M": 4}) == 12

    def test_from_string(self):
        s = Subset.from_string("i, 0:N-1, 2:9:2")
        assert s.dims == 3
        assert s.ranges[0].is_point()

    def test_intersects(self):
        a = Subset.from_string("0:3, 0:3")
        b = Subset.from_string("3:5, 2:4")
        c = Subset.from_string("4:5, 0:3")
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_covers(self):
        a = Subset.from_string("0:9, 0:9")
        b = Subset.from_string("2:5, 0:1")
        assert a.covers(b)
        assert not b.covers(a)

    def test_dim_mismatch_intersects_but_never_covers(self):
        a = Subset.from_string("0:3")
        b = Subset.from_string("5:7, 5:7")
        assert a.intersects(b) and b.intersects(a)
        assert not a.covers(b) and not b.covers(a)

    def test_free_symbols_and_str(self):
        s = Subset.from_string("i, 0:N-1, 2:9:2")
        assert s.free_symbols == {"i", "N"}
        assert Subset.from_string(str(s)) == s
        assert hash(Subset.from_string(str(s))) == hash(s)

    def test_subs(self):
        s = Subset.from_string("i, 0:N-1").subs({"i": 3, "N": 8})
        assert [r.evaluate() for r in s.ranges] == [(3, 3, 1), (0, 7, 1)]


@settings(max_examples=80, deadline=None)
@given(
    b0=st.integers(0, 20), l0=st.integers(0, 20),
    b1=st.integers(0, 20), l1=st.integers(0, 20),
)
def test_property_range_intersection_matches_sets(b0, l0, b1, l1):
    """Range.intersects agrees with Python set intersection of covered indices."""
    r0, r1 = Range(b0, b0 + l0), Range(b1, b1 + l1)
    expected = bool(set(range(b0, b0 + l0 + 1)) & set(range(b1, b1 + l1 + 1)))
    assert r0.intersects(r1) == expected


@settings(max_examples=80, deadline=None)
@given(
    b=st.integers(0, 10), l=st.integers(0, 10), step=st.integers(1, 4),
)
def test_property_num_elements_matches_enumeration(b, l, step):
    r = Range(b, b + l, step)
    assert r.num_elements().evaluate() == len(range(b, b + l + 1, step))


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=1, max_size=3)
)
def test_property_subset_volume_is_product(dims):
    s = Subset([(b, b + l, 1) for b, l in dims])
    expected = 1
    for _, l in dims:
        expected *= l + 1
    assert s.num_elements().evaluate() == expected


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=2),
    b=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=2),
)
def test_property_subset_relations_match_sets(a, b):
    sa = Subset([(x, x + l, 1) for x, l in a])
    sb = Subset([(x, x + l, 1) for x, l in b])
    cells_a = {(i, j) for i in range(a[0][0], sum(a[0]) + 1) for j in range(a[1][0], sum(a[1]) + 1)}
    cells_b = {(i, j) for i in range(b[0][0], sum(b[0]) + 1) for j in range(b[1][0], sum(b[1]) + 1)}
    assert sa.intersects(sb) == bool(cells_a & cells_b)
    assert sa.covers(sb) == (cells_b <= cells_a)
