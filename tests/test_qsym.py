"""Double monomial construction, generators, and M-basis expansion."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsym.compositions import Composition, enumerate_compositions
from dqsym.polynomial import (
    Monomial,
    XYPolynomial,
    _cell_coordinates,
    constant,
    one,
    x_var,
    y_var,
    zero,
)
from dqsym.qsym import (
    Expansion,
    NotInMaximalIdeal,
    NotInSpan,
    TruncationContext,
    TruncationTooSmall,
    cell_class,
    double_monomial,
    expand_in_M,
    is_quasisymmetric,
    monomial_qsym,
    qsym_generator,
)

from oracles import (
    brute_monomial_qsym_terms,
    eval_double_monomial,
    eval_poly,
    for_product,
    peeling_expand_in_M,
    poly_x_terms,
    sample_points,
    window_is_quasisymmetric,
)

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


class TestTruncationContext:
    def test_validation(self):
        for bad in ((-1, 0), (True, 2), (2, False), (1.0, 2)):
            with pytest.raises(ValueError, match="variable counts must be >= 0"):
                TruncationContext(*bad)
        ctx = TruncationContext(2, 3)
        assert (ctx.n_x, ctx.n_y) == (2, 3)
        assert ctx == TruncationContext(2, 3)

    def test_value(self):
        ctx = TruncationContext(2, 3)
        assert repr(ctx) == "TruncationContext(n_x=2, n_y=3)"
        assert hash(ctx) == hash((2, 3)) == hash(TruncationContext(2, 3))
        assert ctx != TruncationContext(3, 2) and ctx != (2, 3)
        assert len({ctx, TruncationContext(2, 3)}) == 1

    def test_for_product(self):
        # the product route's truncation, kept as a test oracle
        ctx = for_product(Composition([3, 2]), Composition([2, 3]))
        assert (ctx.n_x, ctx.n_y) == (4, 11)
        unit = for_product(Composition(), Composition())
        assert (unit.n_x, unit.n_y) == (0, 1)


class TestDoubleMonomial:
    def test_single_part(self):
        ctx = TruncationContext(2, 1)
        expected = (x_var(1) - y_var(1)) + (x_var(2) - y_var(1))
        assert double_monomial(Composition([1]), ctx) == expected

    def test_empty_composition(self):
        assert double_monomial(Composition(), TruncationContext(3, 2)) == one()
        assert double_monomial(Composition(), TruncationContext(0, 0)) == one()

    def test_two_rows_single_choice(self):
        ctx = TruncationContext(2, 2)
        expected = (x_var(1) - y_var(1)) * (x_var(1) - y_var(2)) * (x_var(2) - y_var(1))
        assert double_monomial(Composition([2, 1]), ctx) == expected

    def test_truncation_too_small(self):
        with pytest.raises(TruncationTooSmall):
            double_monomial(Composition([1, 1]), TruncationContext(1, 1))
        with pytest.raises(TruncationTooSmall):
            double_monomial(Composition([3]), TruncationContext(1, 2))

    def test_against_direct_evaluation(self):
        # independent route: evaluate the defining sum with integer loops
        for alpha in enumerate_compositions(3, 3):
            ctx = TruncationContext(4, 3)
            p = double_monomial(alpha, ctx)
            for xs, ys in sample_points(4, 3, 3, seed=alpha.size() * 7 + len(alpha)):
                assert eval_poly(p, xs, ys) == eval_double_monomial(alpha, 4, xs, ys)

    def test_row_class_factor(self):
        assert cell_class(2, 3) == (x_var(3) - y_var(1)) * (x_var(3) - y_var(2))
        assert cell_class(0, 1) == one()


class TestMonomialQsym:
    def test_examples(self):
        assert monomial_qsym(Composition([1]), TruncationContext(2, 1)) == x_var(1) + x_var(2)
        assert monomial_qsym(Composition(), TruncationContext(2, 1)) == one()
        expected = (
            x_var(1) ** 2 * x_var(2)
            + x_var(1) ** 2 * x_var(3)
            + x_var(2) ** 2 * x_var(3)
        )
        assert monomial_qsym(Composition([2, 1]), TruncationContext(3, 2)) == expected

    def test_matches_brute_force(self):
        # n_y = 0 too: the result has no y-variable, so it needs none
        for n_y in (0, 3):
            for alpha in enumerate_compositions(2, 3):
                p = monomial_qsym(alpha, TruncationContext(4, n_y))
                expected = brute_monomial_qsym_terms(alpha, 4)
                assert poly_x_terms(p) == expected
        assert monomial_qsym(Composition([1, 2]), TruncationContext(3, 0)) == (
            x_var(1) * x_var(2) ** 2 + x_var(1) * x_var(3) ** 2 + x_var(2) * x_var(3) ** 2
        )

    def test_too_few_x_variables(self):
        with pytest.raises(TruncationTooSmall, match="needs 3 x-variables, have 2"):
            monomial_qsym(Composition([1, 1, 1]), TruncationContext(2, 0))

    def test_is_y_to_zero_of_double(self):
        # wherever the double monomial exists, with n_y >= max part
        cases = [(alpha, n_x) for n_x in range(5) for alpha in enumerate_compositions(n_x, 3)]
        cases += [(Composition(p), 6) for p in ([5], [2, 3], [1, 1, 1, 1, 1])]
        for alpha, n_x in cases:
            ctx = TruncationContext(n_x, alpha.max_part())
            doubled = double_monomial(alpha, ctx)
            killed = doubled.substitute(
                {v: 0 for v in doubled.variables() if v[0] == "y"}
            )
            assert killed == monomial_qsym(alpha, ctx)


class TestIsQuasisymmetric:
    def test_symmetric_sum(self):
        assert is_quasisymmetric(x_var(1) + x_var(2), TruncationContext(2, 0))

    def test_single_variable_fails(self):
        assert not is_quasisymmetric(x_var(1), TruncationContext(2, 0))

    def test_double_monomials_pass(self):
        ctx = TruncationContext(4, 5)
        assert is_quasisymmetric(double_monomial(Composition([3, 2]), ctx), ctx)
        for alpha in enumerate_compositions(3, 3):
            ctx33 = TruncationContext(3, 3)
            assert is_quasisymmetric(double_monomial(alpha, ctx33), ctx33)

    def test_mismatched_coefficient_fails(self):
        p = x_var(1) * x_var(2) + 2 * x_var(1) * x_var(3) + x_var(2) * x_var(3)
        assert not is_quasisymmetric(p, TruncationContext(3, 0))

    def test_y_only_passes(self):
        assert is_quasisymmetric(y_var(1) - y_var(2), TruncationContext(2, 2))

    def test_out_of_context_variables_rejected(self):
        with pytest.raises(ValueError):
            is_quasisymmetric(x_var(3), TruncationContext(2, 0))

    def test_basis_follows_the_basepoint(self):
        # the ordinary M_(1,2) in three variables: its monomials restrict
        # cleanly at the basepoint 0, its cells do not at y_1
        p = monomial_qsym(Composition([1, 2]), TruncationContext(3, 2))
        assert is_quasisymmetric(p, TruncationContext(3, 0))
        assert not is_quasisymmetric(p, TruncationContext(3, 2))

    @PROPERTY
    @given(st.integers(0, 2**32))
    def test_agrees_with_windows(self, seed):
        p, ctx = seeded_quasisymmetry_case(seed)
        assert is_quasisymmetric(p, ctx) == window_is_quasisymmetric(p, ctx)


def seeded_quasisymmetry_case(seed: int):
    """A seeded polynomial in a truncation with n_x <= 4 and n_y <= 3: a
    Z[y]-combination of double monomials, or of ordinary monomial
    functions when n_y = 0, and for about half the seeds an x-monomial
    added."""
    rng = random.Random(seed)
    n_x, n_y = rng.randint(0, 4), rng.randint(0, 3)
    ctx = TruncationContext(n_x, n_y)
    p = zero()
    for _ in range(rng.randint(0, 3)):
        alpha = Composition(
            rng.randint(1, n_y or 3) for _ in range(rng.randint(0, n_x))
        )
        coefficient = constant(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2) if n_y else 0):
            coefficient = coefficient + rng.randint(-3, 3) * y_var(rng.randint(1, n_y))
        if n_y:
            basis = double_monomial(alpha, ctx)
        else:
            basis = monomial_qsym(alpha, TruncationContext(n_x, alpha.max_part()))
        p = p + coefficient * basis
    if rng.random() < 0.5:
        term = constant(rng.choice([-2, -1, 1, 2]))
        for i in range(1, n_x + 1):
            term = term * x_var(i) ** rng.randint(0, 2)
        p = p + term
    return p, ctx


class TestQsymGenerator:
    def test_linear(self):
        x = x_var(1)
        assert qsym_generator([x], TruncationContext(2, 0)) == x_var(1) + x_var(2)

    def test_two_factor_generators(self):
        x = x_var(1)
        ctx = TruncationContext(2, 0)
        assert qsym_generator([x * x, x], ctx) == x_var(1) ** 2 * x_var(2)
        assert qsym_generator([x, x], ctx) == x_var(1) * x_var(2)

    def test_matches_monomial_qsym_on_powers(self):
        x = x_var(1)
        for s in range(4):
            ctx = TruncationContext(4, 1)
            ones = Composition([1] * s)
            assert qsym_generator([x] * s, ctx) == monomial_qsym(ones, ctx)

    def test_constant_term_rejected(self):
        with pytest.raises(NotInMaximalIdeal):
            qsym_generator([x_var(1) + 1], TruncationContext(2, 0))

    def test_wrong_variable_rejected(self):
        with pytest.raises(ValueError):
            qsym_generator([x_var(2)], TruncationContext(3, 0))
        with pytest.raises(ValueError):
            qsym_generator([y_var(1)], TruncationContext(3, 0))

    def test_substitutes_each_row_and_index_once(self, monkeypatch):
        calls = []
        substitute = XYPolynomial.substitute

        def counted(p, assignment):
            calls.append(assignment)
            return substitute(p, assignment)

        x = x_var(1)
        factors = [x, x * x + x, x]
        expected = zero()
        for i, j, k in itertools.combinations(range(1, 11), 3):
            expected = expected + x_var(i) * (x_var(j) ** 2 + x_var(j)) * x_var(k)
        monkeypatch.setattr(XYPolynomial, "substitute", counted)
        assert qsym_generator(factors, TruncationContext(10, 0)) == expected
        # one substitution per (row, index): 3 rows times 10 x-variables
        assert len(calls) == 30

    def test_more_factors_than_variables(self):
        x = x_var(1)
        assert qsym_generator([x, x, x], TruncationContext(2, 0)) == zero()

    def test_two_variable_relation(self):
        ctx = TruncationContext(2, 0)
        x = x_var(1)
        t = qsym_generator([x, x], ctx)
        z = qsym_generator([x], ctx)
        w = qsym_generator([x * x, x], ctx)
        assert t**3 - t * z * w + w**2 == zero()
        printed = z**3 - t * z * w + w**2
        assert printed != zero()
        assert printed.substitute({("x", 1): 1, ("x", 2): 1}).as_int() == 7


class TestExpansion:
    def test_cleaning_and_validation(self):
        e = Expansion({Composition([1]): zero(), Composition([2]): one()})
        assert e.support() == [Composition([2])]
        with pytest.raises(ValueError):
            Expansion({Composition([1]): x_var(1)})

    @pytest.mark.parametrize("value", [2.5, "a", None, True], ids=repr)
    def test_non_integer_coefficient_is_a_type_error(self, value):
        # a bool is refused by constant, the others before is_x_free is read
        with pytest.raises(TypeError, match="integer"):
            Expansion({Composition([1]): value})
        with pytest.raises(TypeError, match="integer"):
            Expansion({Composition([2]): one()}).scale(value)

    def test_lookup_default(self):
        e = Expansion({Composition([2]): one()})
        assert e[Composition([3])] == zero()
        assert Composition([2]) in e
        assert Composition([3]) not in e

    def test_addition_and_scaling(self):
        a = Expansion({Composition([1]): y_var(1), Composition([2]): one()})
        b = Expansion({Composition([1]): -y_var(1)})
        assert (a + b).support() == [Composition([2])]
        scaled = a.scale(2)
        assert scaled[Composition([1])] == 2 * y_var(1)
        with pytest.raises(ValueError):
            a.scale(x_var(1))

    def test_records_sorted_by_graded_order(self):
        e = Expansion(
            {
                Composition([1, 1]): 2 * one(),
                Composition([2]): one(),
                Composition([1]): y_var(2) - y_var(1),
            }
        )
        records = e.to_records()
        assert [r["gamma"] for r in records] == [[1], [2], [1, 1]]
        assert Expansion.from_records(records) == e


class TestExpandInM:
    def test_basis_element(self):
        ctx = TruncationContext(2, 2)
        e = expand_in_M(double_monomial(Composition([2]), ctx), ctx)
        assert e == Expansion({Composition([2]): one()})

    def test_zero(self):
        assert expand_in_M(zero(), TruncationContext(2, 2)) == Expansion()

    def test_square_of_single_part(self):
        ctx = TruncationContext(3, 3)
        p = double_monomial(Composition([1]), ctx) ** 2
        expected = Expansion(
            {
                Composition([1, 1]): 2 * one(),
                Composition([2]): one(),
                Composition([1]): y_var(2) - y_var(1),
            }
        )
        assert expand_in_M(p, ctx) == expected

    def test_round_trip_sample(self):
        ctx = TruncationContext(3, 3)
        for alpha in [Composition(), Composition([3]), Composition([1, 2]), Composition([2, 1, 3])]:
            p = double_monomial(alpha, ctx)
            assert expand_in_M(p, ctx) == Expansion({alpha: one()})

    def test_additivity(self):
        ctx = TruncationContext(3, 3)
        p = double_monomial(Composition([2]), ctx) * double_monomial(Composition([1]), ctx)
        q = double_monomial(Composition([1, 1]), ctx)
        assert expand_in_M(p + q, ctx) == expand_in_M(p, ctx) + expand_in_M(q, ctx)

    def test_x_free_input(self):
        coefficient = y_var(2) - y_var(1)
        e = expand_in_M(coefficient, TruncationContext(2, 2))
        assert e == Expansion({Composition(): coefficient})

    def test_context_independence(self):
        alpha, beta = Composition([2]), Composition([1, 1])
        small = for_product(alpha, beta)
        big = TruncationContext(small.n_x + 1, small.n_y + 1)
        product_small = double_monomial(alpha, small) * double_monomial(beta, small)
        product_big = double_monomial(alpha, big) * double_monomial(beta, big)
        assert expand_in_M(product_small, small) == expand_in_M(product_big, big)

    def test_not_quasisymmetric(self):
        with pytest.raises(NotInSpan):
            expand_in_M(x_var(1), TruncationContext(2, 1))

    def test_context_too_small_for_support(self):
        # quasisymmetric, but the expansion needs a part above n_y
        p = x_var(1) ** 2 + x_var(2) ** 2
        with pytest.raises(NotInSpan):
            expand_in_M(p, TruncationContext(2, 1))

    def test_out_of_context_variables_rejected(self):
        with pytest.raises(ValueError):
            expand_in_M(x_var(5), TruncationContext(2, 1))


def seeded_combination(seed: int, perturbation: str):
    """A seeded Z[y]-combination of double monomials with n_x, n_y <= 4
    and |gamma| <= 5, plain or perturbed: by a stray term, or by
    x_1^(n_y + 1) + ... + x_n_x^(n_y + 1), which is quasisymmetric but
    needs a part above n_y."""
    rng = random.Random(seed)
    n_x, n_y = rng.randint(0, 4), rng.randint(0, 4)
    ctx = TruncationContext(n_x, n_y)

    def y_polynomial():
        total = constant(rng.randint(-3, 3))
        for _ in range(rng.randint(0, 2) if n_y else 0):
            total = total + rng.randint(-3, 3) * y_var(rng.randint(1, n_y)) ** rng.randint(1, 2)
        return total

    p = zero()
    for _ in range(rng.randint(0, 3)):
        length = rng.randint(0, n_x) if n_y else 0
        parts = [rng.randint(1, n_y) for _ in range(length)]
        if sum(parts) <= 5:
            p = p + y_polynomial() * double_monomial(Composition(parts), ctx)
    if perturbation == "stray":
        term = y_polynomial() or one()
        if n_x:
            term = term * x_var(rng.randint(1, n_x)) ** rng.randint(0, 3)
        p = p + term
    elif perturbation == "power":
        for i in range(1, n_x + 1):
            p = p + x_var(i) ** (n_y + 1)
    return p, ctx


def expand_or_not_in_span(route, p, ctx):
    try:
        return route(p, ctx)
    except NotInSpan:
        return NotInSpan


class TestCellBasis:
    @PROPERTY
    @given(st.integers(0, 2**32), st.sampled_from(["plain", "stray", "power"]))
    def test_agrees_with_peeling(self, seed, perturbation):
        p, ctx = seeded_combination(seed, perturbation)
        expansion = expand_or_not_in_span(expand_in_M, p, ctx)
        assert expansion == expand_or_not_in_span(peeling_expand_in_M, p, ctx)
        if perturbation == "plain":
            assert expansion is not NotInSpan
        if perturbation == "power" and ctx.n_x:
            assert expansion is NotInSpan

    def test_cell_class_products_are_unit_vectors(self):
        for n_x in range(4):
            for cell in itertools.product(range(4), repeat=n_x):
                p = one()
                for index, part in enumerate(cell, 1):
                    p = p * cell_class(part, index)
                assert _cell_coordinates(p, n_x) == {cell: {0: 1}}
        # unused x-variables read as zero entries
        assert _cell_coordinates(cell_class(2, 1), 3) == {(2, 0, 0): {0: 1}}

    def test_not_in_span_messages(self):
        ctx = TruncationContext(2, 1)
        with pytest.raises(
            NotInSpan, match=r"needs \[2\], placed at x-indices \(1,\), outside"
        ):
            expand_in_M(x_var(1) ** 2 + x_var(2) ** 2, ctx)
        with pytest.raises(
            NotInSpan,
            match=r"\[1\] has one coordinate at x-indices \(1,\) and another at \(2,\)",
        ):
            expand_in_M(cell_class(1, 1) + 2 * cell_class(1, 2), ctx)
        with pytest.raises(
            NotInSpan,
            match=r"\[1,1\] has a coordinate at x-indices \(1, 3\) but none at \(1, 2\)",
        ):
            expand_in_M(cell_class(1, 1) * cell_class(1, 3), TruncationContext(3, 1))
