"""Packed-exponent kernel: agreement with the tuple-monomial oracle, and
the checked degree limit of the packed fields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsym.polynomial import (
    MAX_DEGREE,
    Monomial,
    XYPolynomial,
    _mul_into,
    _mul_terms,
    constant,
    one,
    x_var,
    y_var,
    zero,
)

from oracles import subtract_product, tuple_product, tuple_records, tuple_sum

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

exponent_pairs = st.dictionaries(
    st.integers(1, 30), st.integers(1, 4), max_size=4
).map(lambda d: tuple(sorted(d.items())))
monomials = st.tuples(exponent_pairs, exponent_pairs)
coefficients = st.one_of(
    st.integers(-5, 5), st.integers(-(2**70), 2**70)
).filter(bool)
term_maps = st.dictionaries(monomials, coefficients, max_size=8)


def build(terms: dict) -> XYPolynomial:
    return XYPolynomial({Monomial(x, y): c for (x, y), c in terms.items()})


class TestAgainstTupleOracle:
    @PROPERTY
    @given(term_maps)
    def test_construction_and_order(self, a):
        assert build(a).to_records() == tuple_records(a)

    @PROPERTY
    @given(term_maps, term_maps)
    def test_mul(self, a, b):
        assert (build(a) * build(b)).to_records() == tuple_records(tuple_product(a, b))

    @PROPERTY
    @given(term_maps, term_maps)
    def test_mul_with_cancellation(self, a, b):
        # (a + b)(a - b): the cross terms a*b and b*a cancel
        plus, minus = tuple_sum(a, b), tuple_sum(a, b, -1)
        product = build(plus) * build(minus)
        assert product.to_records() == tuple_records(tuple_product(plus, minus))

    @PROPERTY
    @given(term_maps, term_maps)
    def test_add(self, a, b):
        assert (build(a) + build(b)).to_records() == tuple_records(tuple_sum(a, b))

    @PROPERTY
    @given(term_maps, term_maps)
    def test_sub(self, a, b):
        assert (build(a) - build(b)).to_records() == tuple_records(tuple_sum(a, b, -1))

    @PROPERTY
    @given(term_maps, term_maps, term_maps)
    def test_subtract_product_in_place(self, a, b, c):
        residual = dict(build(a).terms)
        subtract_product(residual, build(b), build(c))
        expected = tuple_sum(a, tuple_product(b, c), -1)
        assert XYPolynomial._raw(residual).to_records() == tuple_records(expected)

    @PROPERTY
    @given(term_maps)
    def test_round_trip(self, a):
        p = build(a)
        assert XYPolynomial.from_records(p.to_records()) == p

    def test_large_indices(self):
        p = x_var(1000) * y_var(5000) ** 2 + x_var(3)
        assert p.to_records() == [
            {"coeff": "1", "x": [[1000, 1]], "y": [[5000, 2]]},
            {"coeff": "1", "x": [[3, 1]], "y": []},
        ]
        assert p.variables() == {("x", 3), ("x", 1000), ("y", 5000)}


class TestKeptHash:
    """A polynomial keeps its hash once found, so equal values built by
    different routes must still hash alike, whichever is hashed first."""

    @PROPERTY
    @given(term_maps, term_maps)
    def test_equal_values_hash_alike(self, a, b):
        def hashed(terms):
            # operands that already keep their hashes, which must not
            # leak into the values built from them
            p = build(terms)
            hash(p)
            return p

        for target, route in (
            (tuple_sum(a, b), lambda: hashed(a) + hashed(b)),
            (tuple_product(a, b), lambda: hashed(a) * hashed(b)),
            (a, lambda: XYPolynomial.from_records(hashed(a).to_records())),
            (tuple_sum({}, a, -1), lambda: -hashed(a)),
            (a, lambda: -(-hashed(a))),
        ):
            p = build(target)
            # the first use as a dict key finds p's hash and keeps it
            memo = {p: "p"}
            q = route()
            assert q == p and hash(q) == hash(p)
            assert memo[q] == "p" and memo[route()] == "p"
            assert hash(q) == hash(p) == hash(build(target))

    def test_zero(self):
        h = hash(zero())
        assert hash(zero()) == h
        assert hash(XYPolynomial()) == h == hash(x_var(1) - x_var(1))
        assert {zero(): 0}[XYPolynomial()] == 0

    def test_constants_hash_as_their_ints(self):
        # equal objects must hash alike, and a constant equals its int
        for value in (3, -1, 1, 2**70):
            c = constant(value)
            assert c == value and hash(c) == hash(value)
            assert len({c, value}) == 1
            assert {value: "a"}.get(c) == "a"
            assert {c: "a"}.get(value) == "a"
        assert hash(zero()) == hash(0) == 0
        assert len({zero(), 0}) == 1
        assert {0: "a"}.get(zero()) == "a"
        assert hash(one()) == hash(1) and hash(x_var(1) - x_var(1) + 5) == hash(5)


single_terms = st.builds(lambda m, c: {m: c}, monomials, coefficients)
units = st.builds(lambda c: {((), ()): c}, st.sampled_from([1, -1]))


class TestTermsHelpers:
    """``_mul_terms`` and ``_mul_into``, the products the routing walk
    makes on terms dicts, against the operators."""

    @PROPERTY
    @given(st.one_of(units, single_terms, term_maps), term_maps)
    def test_mul_terms(self, a, b):
        p, q = build(a), build(b)
        kept = dict(p.terms), dict(q.terms)
        product = _mul_terms(p.terms, q.terms)
        assert product == (p * q).terms
        assert product is not p.terms and product is not q.terms
        assert (dict(p.terms), dict(q.terms)) == kept

    @PROPERTY
    @given(term_maps, term_maps, term_maps)
    def test_mul_into(self, o, a, b):
        p, q = build(a), build(b)
        # the second start cancels the whole product, the third part of it
        for start in (build(o), -(p * q), build(o) - p * q):
            out = dict(start.terms)
            _mul_into(out, p.terms, q.terms)
            assert out == (start + p * q).terms
            assert 0 not in out.values()

    @PROPERTY
    @given(term_maps, term_maps)
    def test_mul_terms_with_cancellation(self, a, b):
        plus, minus = build(tuple_sum(a, b)), build(tuple_sum(a, b, -1))
        product = _mul_terms(plus.terms, minus.terms)
        assert product == (plus * minus).terms
        assert 0 not in product.values()


class TestShortcutProducts:
    """The unit and one-term shortcuts of ``*``, and carried degrees."""

    @PROPERTY
    @given(st.one_of(units, single_terms), term_maps, st.booleans())
    def test_short_factor_on_either_side(self, short, other, short_first):
        a, b = (short, other) if short_first else (other, short)
        product = build(a) * build(b)
        assert product.to_records() == tuple_records(tuple_product(a, b))

    @PROPERTY
    @given(term_maps, term_maps)
    def test_carried_degree_matches_a_scan(self, a, b):
        product = build(a) * build(b)
        if product:
            assert product._total_degree() == max(k & 255 for k in product.terms)

    def test_unit_returns_the_other_factor(self):
        p = x_var(1) - y_var(2)
        assert p * one() is p and one() * p is p

    def test_cancelled_top_terms_leave_no_stale_degree(self):
        # the sum has degree 1, not the 200 of its summands
        low = (x_var(1) ** 200 + y_var(1)) - x_var(1) ** 200
        assert low == y_var(1)
        assert (low * x_var(2) ** 254).to_records() == [
            {"coeff": "1", "x": [[2, 254]], "y": [[1, 1]]}
        ]


class TestDegreeLimit:
    def test_mul(self):
        a, b = x_var(1) ** 200, y_var(2) ** 55
        top = a * b
        assert top.to_records() == [{"coeff": "1", "x": [[1, 200]], "y": [[2, 55]]}]
        assert top.max_x_degree() == 200
        with pytest.raises(ValueError, match="packed-exponent limit"):
            top * y_var(2)
        with pytest.raises(ValueError):
            y_var(2) * top

    def test_single_field_at_the_limit(self):
        p = x_var(7) ** MAX_DEGREE
        assert p.max_x_degree() == MAX_DEGREE
        assert p.to_records() == [{"coeff": "1", "x": [[7, 255]], "y": []}]
        assert str(p) == "x7^255"
        q = y_var(7) ** MAX_DEGREE
        assert q.is_x_free() and q.is_homogeneous(MAX_DEGREE)

    def test_pow(self):
        with pytest.raises(ValueError):
            x_var(1) ** (MAX_DEGREE + 1)

    def test_pow_makes_no_unneeded_squaring(self):
        # a final squaring of the base past the highest bit would reach
        # degree 256 for these exponents, past the limit
        for n in (128, 129, 200, MAX_DEGREE):
            assert (x_var(1) ** n).to_records() == [
                {"coeff": "1", "x": [[1, n]], "y": []}
            ]
        binomial = (x_var(1) - y_var(1)) ** MAX_DEGREE
        assert len(binomial.terms) == MAX_DEGREE + 1
        assert binomial.is_homogeneous(MAX_DEGREE)

    def test_constructor(self):
        at_limit = XYPolynomial({Monomial.make(x={1: 200}, y={3: 55}): 1})
        assert at_limit == x_var(1) ** 200 * y_var(3) ** 55
        with pytest.raises(ValueError):
            XYPolynomial({Monomial.make(x={1: 200}, y={3: 56}): 1})

    def test_from_records(self):
        record = {"coeff": "1", "x": [[1, 200]], "y": [[3, 55]]}
        assert XYPolynomial.from_records([record]) == x_var(1) ** 200 * y_var(3) ** 55
        with pytest.raises(ValueError):
            XYPolynomial.from_records([dict(record, y=[[3, 56]])])

    def test_subtract_product(self):
        residual = dict(one().terms)
        subtract_product(residual, x_var(1) ** 200, y_var(1) ** 55)
        with pytest.raises(ValueError):
            subtract_product(residual, x_var(1) ** 200, y_var(1) ** 56)

    def test_scalars_never_raise(self):
        top = x_var(1) ** MAX_DEGREE
        assert (top * constant(3)) == 3 * top
        assert (top + 1) - top == one()
