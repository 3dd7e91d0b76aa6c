"""Exact polynomial kernel: canonical form, ring axioms, serialization."""

import random

import pytest

from dqsym.compositions import Composition
from dqsym.lrcalc import product_expand
from dqsym.polynomial import (
    Monomial,
    XYPolynomial,
    _add_into,
    _add_terms,
    constant,
    one,
    x_var,
    y_var,
    zero,
)
from dqsym.qsym import TruncationContext
from dqsym.tableaux import SkewEdgeTableau, enumerate_skylines

from oracles import eval_poly, leading_x_coefficients, sample_points


def random_poly(rng: random.Random, n_terms: int = 5) -> XYPolynomial:
    """Random polynomial in x1..x3, y1..y3 with total degree <= 4."""
    total = zero()
    for _ in range(rng.randint(0, n_terms)):
        term = constant(rng.randint(-4, 4))
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice([x_var, y_var])
            term = term * kind(rng.randint(1, 3))
        total = total + term
    return total


class TestCanonicalForm:
    def test_zero_coefficients_dropped(self):
        p = XYPolynomial({Monomial(): 0, Monomial(((1, 1),), ()): 2})
        assert list(p.terms.values()) == [2]

    def test_empty_is_zero(self):
        assert XYPolynomial() == zero()
        assert not zero()
        assert str(zero()) == "0"

    def test_cancellation_empties_term_map(self):
        rng = random.Random(1)
        for _ in range(20):
            p = random_poly(rng)
            assert (p + (-p)).terms == {}

    def test_equality_is_term_map_equality(self):
        p = x_var(1) - y_var(1)
        q = (x_var(1) + y_var(1)) - 2 * y_var(1)
        assert p == q
        assert hash(p) == hash(q)

    def test_monomial_validation(self):
        with pytest.raises(ValueError):
            Monomial.make(x=[(0, 1)])
        with pytest.raises(ValueError):
            Monomial.make(x=[(1, -1)])
        with pytest.raises(ValueError):
            Monomial.make(y=[(2, 1), (2, 3)])
        assert Monomial.make(x={1: 0}) == Monomial()

    def test_integer_validation(self):
        # bool is an int subclass, but True is no coefficient or index
        for bad in (True, False, 1.0, "1"):
            with pytest.raises(TypeError, match="constant must be an integer"):
                constant(bad)
            with pytest.raises(TypeError, match="coefficients must be integers"):
                XYPolynomial({Monomial(): bad})
        for bad in (True, False, 0, -1, 1.0):
            for var in (x_var, y_var):
                with pytest.raises(ValueError, match="index must be a positive integer"):
                    var(bad)
        integers = "variable indices and exponents must be integers"
        for bad in (True, False):
            for pairs in ([(bad, 1)], [(1, bad)]):
                with pytest.raises(ValueError, match=integers):
                    Monomial.make(x=pairs)
                with pytest.raises(ValueError, match=integers):
                    Monomial.make(y=dict(pairs))
                with pytest.raises(ValueError, match=integers):
                    XYPolynomial({Monomial(x=tuple(pairs)): 1})
                with pytest.raises(ValueError, match=integers):
                    XYPolynomial.from_records(
                        [{"coeff": "1", "x": [list(pair) for pair in pairs], "y": []}]
                    )
            with pytest.raises(ValueError, match="bad variable"):
                x_var(1).substitute({("x", bad): 2})
            with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
                x_var(1) ** bad
        # the operators still read a bool operand as its int
        assert one() == True and zero() == False
        assert (x_var(1) + True).to_records()[1] == {"coeff": "1", "x": [], "y": []}

    def test_immutability(self):
        p = x_var(1)
        with pytest.raises(AttributeError):
            p.terms = {}


class TestArithmetic:
    def test_add_cancels(self):
        assert (x_var(1) - y_var(1)) + y_var(1) == x_var(1)

    def test_add_zero_identity(self):
        p = x_var(2) * y_var(1) - 3
        assert p + zero() == p
        assert p + 0 == p

    def test_add_paper_coefficient(self):
        total = (y_var(1) - y_var(4)) + (y_var(2) - y_var(5))
        assert str(total) == "y1 + y2 - y4 - y5"

    def test_mul_binomials(self):
        p = (x_var(1) - y_var(1)) * (x_var(1) - y_var(2))
        assert str(p) == "x1^2 - x1*y1 - x1*y2 + y1*y2"

    def test_mul_one_identity(self):
        p = random_poly(random.Random(2))
        assert p * one() == p
        assert p * 1 == p

    def test_mul_weight_product(self):
        p = (y_var(1) - y_var(6)) * (y_var(3) - y_var(7))
        assert str(p) == "y1*y3 - y1*y7 - y3*y6 + y6*y7"

    def test_ring_axioms(self):
        rng = random.Random(3)
        for _ in range(25):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert p + q == q + p
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r

    def test_pow(self):
        p = x_var(1) + y_var(2)
        assert p**0 == one()
        assert p**3 == p * p * p
        with pytest.raises(ValueError):
            p ** (-1)

    def test_scalar_multiplication(self):
        p = x_var(1) + 1
        assert 2 * p == p + p
        assert 0 * p == zero()

    def test_evaluation_respects_ring_ops(self):
        # independent route: evaluate through records with integer loops
        rng = random.Random(4)
        for _ in range(10):
            p, q = random_poly(rng), random_poly(rng)
            for xs, ys in sample_points(3, 3, 4, seed=rng.randint(0, 10**6)):
                assert eval_poly(p + q, xs, ys) == eval_poly(p, xs, ys) + eval_poly(q, xs, ys)
                assert eval_poly(p * q, xs, ys) == eval_poly(p, xs, ys) * eval_poly(q, xs, ys)


def test_add_terms_matches_add_into_on_a_copy():
    # the walks' sum helper: a fresh dict, neither operand changed
    rng = random.Random(29)
    polys = [random_poly(rng, 8) for _ in range(100)]
    pairs = list(zip(polys, polys[1:]))
    # full cancellation, and a zero operand
    pairs += [(p, -p) for p in polys if p.terms] + [(p, zero()) for p in polys[:5]]
    assert any(not (p + q).terms for p, q in pairs)
    for p, q in pairs:
        for a, b in ((p.terms, q.terms), (q.terms, p.terms)):
            kept = (dict(a), dict(b))
            expected = dict(a)
            _add_into(expected, b)
            total = _add_terms(a, b)
            assert total == expected == (p + q).terms
            assert total is not a and total is not b
            assert (a, b) == kept


class TestSubstitute:
    def test_kill_y(self):
        assert (x_var(1) - y_var(1)).substitute({("y", 1): 0}) == x_var(1)

    def test_evaluate_to_constant(self):
        p = x_var(1) * x_var(2)
        assert p.substitute({("x", 1): 1, ("x", 2): 1}) == one()

    def test_three_variable_witness(self):
        # z^3 - t*z*w + w^2 at t=1, z=2, w=1 is 8 - 2 + 1 = 7
        t, z, w = x_var(1), x_var(2), x_var(3)
        p = z**3 - t * z * w + w**2
        value = p.substitute({("x", 1): 1, ("x", 2): 2, ("x", 3): 1})
        assert value.as_int() == 7

    def test_simultaneous_not_sequential(self):
        p = x_var(1) + x_var(2)
        assert p.substitute({("x", 1): x_var(2), ("x", 2): 1}) == x_var(2) + 1

    def test_unassigned_variables_unchanged(self):
        p = x_var(1) * y_var(2) + y_var(1)
        assert p.substitute({("y", 1): y_var(3)}) == x_var(1) * y_var(2) + y_var(3)

    def test_polynomial_values(self):
        p = x_var(1) ** 2
        q = p.substitute({("x", 1): x_var(2) - y_var(1)})
        assert q == (x_var(2) - y_var(1)) ** 2

    def test_commutes_with_add_and_mul(self):
        rng = random.Random(5)
        for _ in range(15):
            p, q = random_poly(rng), random_poly(rng)
            assignment = {
                ("x", 1): random_poly(rng, n_terms=2),
                ("y", 2): rng.randint(-3, 3),
            }
            assert (p + q).substitute(assignment) == p.substitute(assignment) + q.substitute(assignment)
            assert (p * q).substitute(assignment) == p.substitute(assignment) * q.substitute(assignment)

    def test_bad_variable_rejected(self):
        with pytest.raises(ValueError):
            x_var(1).substitute({("z", 1): 0})

    @pytest.mark.parametrize("value", [2.5, "a", None, True, False], ids=repr)
    @pytest.mark.parametrize("variable", [("x", 1), ("y", 1)], ids=["used", "unused"])
    def test_bad_value_rejected(self, variable, value):
        # only an int that is not a bool, or a polynomial, is a value,
        # whether or not the polynomial uses the variable
        with pytest.raises(ValueError, match=rf"bad value {value!r} for variable"):
            x_var(1).substitute({variable: value})


class TestDegreeComponents:
    def test_basic_component(self):
        p = x_var(1) ** 2 + x_var(1) * y_var(1) + y_var(2)
        assert p.x_degree_component(2) == x_var(1) ** 2
        assert p.x_degree_component(1) == x_var(1) * y_var(1)
        assert p.x_degree_component(0) == y_var(2)
        assert p.x_degree_component(3) == zero()
        # a degree is an int, never a bool or a float
        for degree in (True, 1.0, -1):
            with pytest.raises(ValueError):
                x_var(1).x_degree_component(degree)

    def test_components_partition(self):
        rng = random.Random(6)
        for _ in range(15):
            p = random_poly(rng)
            total = zero()
            for d in range(p.max_x_degree() + 1):
                total = total + p.x_degree_component(d)
            assert total == p

    def test_truncated_square(self):
        # (x1 + x2 - 2 y1)^2 has degree-2 x-part x1^2 + 2 x1 x2 + x2^2
        p = (x_var(1) + x_var(2) - 2 * y_var(1)) ** 2
        expected = x_var(1) ** 2 + 2 * x_var(1) * x_var(2) + x_var(2) ** 2
        assert p.x_degree_component(2) == expected


class TestLeadingXCoefficients:
    def test_monomial_itself(self):
        p = x_var(1) - y_var(1)
        assert leading_x_coefficients(p)[(1,)] == one()

    def test_constant_part(self):
        p = x_var(1) - y_var(1)
        assert leading_x_coefficients(p)[()] == -y_var(1)

    def test_two_binomials(self):
        p = (x_var(1) - y_var(1)) * (x_var(1) - y_var(2))
        assert leading_x_coefficients(p) == {
            (2,): one(),
            (1,): -(y_var(1) + y_var(2)),
            (): y_var(1) * y_var(2),
        }

    def test_skips_gapped_x_monomials(self):
        # x_2 alone skips x_1, so it is no x_1^{e_1} ... x_k^{e_k}
        p = x_var(2) + x_var(1) * x_var(2) - y_var(1)
        assert leading_x_coefficients(p) == {(1, 1): one(), (): -y_var(1)}


class TestSerialization:
    def test_canonical_order(self):
        p = y_var(1) * y_var(2) + x_var(1) ** 2 - x_var(1) * y_var(1) + 3
        records = p.to_records()
        assert records == [
            {"coeff": "1", "x": [[1, 2]], "y": []},
            {"coeff": "-1", "x": [[1, 1]], "y": [[1, 1]]},
            {"coeff": "1", "x": [], "y": [[1, 1], [2, 1]]},
            {"coeff": "3", "x": [], "y": []},
        ]

    def test_round_trip(self):
        rng = random.Random(7)
        for _ in range(20):
            p = random_poly(rng)
            assert XYPolynomial.from_records(p.to_records()) == p

    def test_coefficients_are_decimal_strings(self):
        big = 10**30
        p = constant(big) * x_var(1)
        assert p.to_records()[0]["coeff"] == str(big)
        assert XYPolynomial.from_records(p.to_records()) == p

    def test_tolerates_unsorted_duplicates(self):
        records = [
            {"coeff": "1", "x": [[1, 1]], "y": []},
            {"coeff": "2", "x": [[1, 1]], "y": []},
        ]
        assert XYPolynomial.from_records(records) == 3 * x_var(1)


class TestDisplay:
    def test_signs_and_coefficients(self):
        p = -x_var(1) + 2 * y_var(1) - 3
        assert str(p) == "-x1 + 2*y1 - 3"

    def test_exponent_format(self):
        assert str(x_var(2) ** 3 * y_var(1)) == "x2^3*y1"

    def test_as_int(self):
        assert constant(-5).as_int() == -5
        assert zero().as_int() == 0
        with pytest.raises(ValueError):
            x_var(1).as_int()


def skyline():
    """A skyline of the paper's example: [3, 2] and [2, 3] routed onto [3, 2, 4]."""
    compositions = (Composition([3, 2]), Composition([2, 3]), Composition([3, 2, 4]))
    return enumerate_skylines(*compositions, (1, 3), (2, 3))[0]


@pytest.mark.parametrize(
    "make, name",
    [
        pytest.param(lambda: x_var(1) - y_var(2), "terms", id="XYPolynomial.terms"),
        pytest.param(lambda: x_var(1) - y_var(2), "_hash", id="XYPolynomial._hash"),
        pytest.param(
            lambda: product_expand(Composition([1]), Composition([1])),
            "coeffs",
            id="Expansion.coeffs",
        ),
        pytest.param(lambda: TruncationContext(2, 3), "n_x", id="TruncationContext.n_x"),
        pytest.param(lambda: SkewEdgeTableau(4, 2, [2]), "outer", id="SkewEdgeTableau.outer"),
        pytest.param(lambda: SkewEdgeTableau(4, 2, [2]), "inner", id="SkewEdgeTableau.inner"),
        pytest.param(lambda: SkewEdgeTableau(4, 2, [2]), "extra", id="SkewEdgeTableau.extra"),
        pytest.param(skyline, "rows", id="SkylineTableau.rows"),
        pytest.param(skyline, "gamma", id="SkylineTableau.gamma"),
    ],
)
def test_value_types_refuse_set_and_del(make, name):
    # every value type derives from the one guard in polynomial
    value = make()
    before = repr(value)
    for attempt in (lambda: setattr(value, name, None), lambda: delattr(value, name)):
        with pytest.raises(AttributeError, match="immutable"):
            attempt()
    assert repr(value) == before


def test_refused_del_leaves_the_shared_constants_whole():
    # one() and zero() are shared by every caller in the process
    for shared in (one(), zero()):
        with pytest.raises(AttributeError, match="immutable"):
            del shared.terms
    assert (one().terms, zero().terms) == ({0: 1}, {})
    expansion = product_expand(Composition([1]), Composition([1]))
    assert expansion.items() == [
        (Composition([1]), y_var(2) - y_var(1)),
        (Composition([2]), one()),
        (Composition([1, 1]), constant(2)),
    ]
