"""Structure coefficients and certified product expansions."""

import itertools
from collections import Counter

import pytest

from dqsym import lrcalc
from dqsym.compositions import Composition, enumerate_compositions, overlapping_shuffles
from dqsym.lrcalc import (
    StructureCoefficient,
    expansion_records,
    product_expand,
    skyline_census,
    structure_coefficient,
    support_candidates,
    verify_expansion,
)
from dqsym.polynomial import XYPolynomial, one, y_var, zero
from dqsym.qsym import Expansion, NotInSpan, TruncationContext
from dqsym.tableaux import WeightConvention

from oracles import (
    eval_double_monomial,
    eval_poly,
    filtered_support_candidates,
    sample_points,
)

PAPER = WeightConvention.PAPER_LITERAL
ORACLE = WeightConvention.ORACLE_CONSISTENT


def y_to_zero(value: XYPolynomial) -> int:
    return value.substitute({v: 0 for v in value.variables()}).as_int()


def compositions_up_to(size: int, length: int | None = None) -> list[Composition]:
    found = [
        c
        for c in enumerate_compositions(length if length is not None else size, size)
        if c.size() <= size
    ]
    return found


class TestStructureCoefficient:
    def test_paper_value(self):
        value = structure_coefficient(
            Composition([3, 2]), Composition([2, 3]), Composition([3, 2, 4]), PAPER
        )
        assert value == y_var(1) + y_var(2) - y_var(4) - y_var(5)

    def test_unit(self):
        beta = Composition([2, 3])
        assert structure_coefficient(Composition(), beta, beta) == one()
        assert structure_coefficient(Composition(), beta, Composition([5])) == zero()
        assert structure_coefficient(Composition(), beta, Composition([3, 2])) == zero()

    def test_square_of_single_box(self):
        alpha = Composition([1])
        assert structure_coefficient(alpha, alpha, Composition([2]), ORACLE) == one()
        assert structure_coefficient(alpha, alpha, Composition([1, 1]), ORACLE) == 2 * one()
        assert structure_coefficient(alpha, alpha, Composition([1]), ORACLE) == y_var(2) - y_var(1)

    def test_matches_explicit_skyline_sum(self):
        pairs = [
            (Composition([1]), Composition([1])),
            (Composition([2]), Composition([1])),
            (Composition([1, 1]), Composition([2])),
            (Composition([2, 1]), Composition([2])),
        ]
        for alpha, beta in pairs:
            for gamma in support_candidates(alpha, beta):
                for convention in (PAPER, ORACLE):
                    census = skyline_census(alpha, beta, gamma)
                    total = zero()
                    for skylines in census.values():
                        for skyline in skylines:
                            total = total + skyline.weight(convention)
                    assert total == structure_coefficient(alpha, beta, gamma, convention)

    def test_paper_example_census(self):
        census = skyline_census(
            Composition([3, 2]), Composition([2, 3]), Composition([3, 2, 4])
        )
        assert len(census) == 9
        nonempty = {key for key, val in census.items() if val}
        assert nonempty == {((1, 3), (2, 3))}
        assert len(census[(1, 3), (2, 3)]) == 2


class TestProductExpand:
    def test_square_of_single_box(self):
        expansion = product_expand(Composition([1]), Composition([1]), ORACLE)
        assert expansion == Expansion(
            {
                Composition([2]): one(),
                Composition([1, 1]): 2 * one(),
                Composition([1]): y_var(2) - y_var(1),
            }
        )

    def test_unit(self):
        expansion = product_expand(Composition(), Composition([5]))
        assert expansion == Expansion({Composition([5]): one()})
        both_empty = product_expand(Composition(), Composition())
        assert both_empty == Expansion({Composition(): one()})

    def test_y_zero_specializes_to_shuffles(self):
        expansion = product_expand(Composition([2]), Composition([1]), ORACLE)
        specialized = {g.parts: y_to_zero(v) for g, v in expansion.items() if y_to_zero(v)}
        assert specialized == {(2, 1): 1, (1, 2): 1, (3, ): 1}

    def test_unchecked_build_is_valid(self):
        # product_expand builds its keys and its Expansion unchecked; every
        # entry must still pass the checks of Composition and Expansion
        for alpha, beta in itertools.product(compositions_up_to(4), repeat=2):
            for convention in (PAPER, ORACLE):
                expansion = product_expand(alpha, beta, convention)
                for gamma, value in expansion.coeffs.items():
                    assert type(gamma) is Composition
                    assert Composition(gamma.parts) == gamma
                    assert all(type(part) is int for part in gamma.parts)
                    assert type(value) is XYPolynomial
                    assert value and value.is_x_free()
                assert Expansion(expansion.coeffs) == expansion

    def test_drops_zero_outcomes(self, monkeypatch):
        # no sweep so far sums a routing outcome to zero, so feed one in
        def outcomes(alpha, beta, merges, tables=None):
            return {(1,): zero(), (2,): y_var(1)}

        monkeypatch.setattr(lrcalc, "routing_outcomes", outcomes)
        expansion = product_expand(Composition([1]), Composition([1]))
        assert expansion.coeffs == {Composition([2]): y_var(1)}

    def test_agrees_with_structure_coefficient(self):
        # the targeted walk of structure_coefficient against the
        # untargeted walk of product_expand, on every candidate gamma
        for alpha, beta in itertools.product(compositions_up_to(3), repeat=2):
            for convention in (PAPER, ORACLE):
                expansion = product_expand(alpha, beta, convention)
                candidates = support_candidates(alpha, beta)
                assert all(gamma in candidates for gamma in expansion.support())
                for gamma in candidates:
                    expected = structure_coefficient(alpha, beta, gamma, convention)
                    assert expansion[gamma] == expected

    def test_coefficients_homogeneous(self):
        for alpha in compositions_up_to(3):
            for beta in compositions_up_to(3):
                expansion = product_expand(alpha, beta, ORACLE)
                for gamma, value in expansion.items():
                    degree = alpha.size() + beta.size() - gamma.size()
                    assert value.is_homogeneous(degree)

    def test_support_bounds(self):
        for alpha in compositions_up_to(3):
            for beta in compositions_up_to(3):
                expansion = product_expand(alpha, beta, ORACLE)
                for gamma in expansion.support():
                    assert max(len(alpha), len(beta)) <= len(gamma) <= len(alpha) + len(beta)
                    assert max(alpha.size(), beta.size()) <= gamma.size()
                    assert gamma.size() <= alpha.size() + beta.size()

    def test_commutative(self):
        pairs = [
            (Composition([2, 1]), Composition([1, 2])),
            (Composition([3]), Composition([1, 1])),
            (Composition([2, 2]), Composition([1])),
        ]
        for alpha, beta in pairs:
            for convention in (PAPER, ORACLE):
                assert product_expand(alpha, beta, convention) == product_expand(
                    beta, alpha, convention
                )

    def test_associative(self):
        def times(expansion: Expansion, right: Composition) -> Expansion:
            total = Expansion()
            for delta, coefficient in expansion.items():
                total = total + product_expand(delta, right, ORACLE).scale(coefficient)
            return total

        triples = [
            (Composition([1]), Composition([1]), Composition([1])),
            (Composition([2]), Composition([1]), Composition([1])),
            (Composition([1, 1]), Composition([2]), Composition([1])),
        ]
        for alpha, beta, gamma in triples:
            left = times(product_expand(alpha, beta, ORACLE), gamma)
            right = Expansion()
            for epsilon, coefficient in product_expand(beta, gamma, ORACLE).items():
                right = right + product_expand(alpha, epsilon, ORACLE).scale(coefficient)
            assert left == right

    def test_hazewinkel_specialization(self):
        for alpha in compositions_up_to(3):
            for beta in compositions_up_to(3):
                expansion = product_expand(alpha, beta, ORACLE)
                specialized = Counter()
                for gamma, value in expansion.items():
                    count = y_to_zero(value)
                    if count:
                        specialized[gamma] = count
                assert specialized == overlapping_shuffles(alpha, beta)

    def test_convention_bridge(self):
        for alpha in compositions_up_to(3):
            for beta in compositions_up_to(3):
                oracle = product_expand(alpha, beta, ORACLE)
                paper = product_expand(alpha, beta, PAPER)
                assert paper.support() == oracle.support()
                for gamma in oracle.support():
                    sign = (-1) ** (alpha.size() + beta.size() - gamma.size())
                    assert paper[gamma] == sign * oracle[gamma]


class TestSupportCandidates:
    def test_contains_paper_outcome(self):
        candidates = support_candidates(Composition([3, 2]), Composition([2, 3]))
        assert Composition([3, 2, 4]) in candidates
        assert all(len(gamma) <= 4 for gamma in candidates)
        assert all(gamma.max_part() <= 6 for gamma in candidates)
        assert all(5 <= gamma.size() <= 10 for gamma in candidates)

    def test_unit_case(self):
        candidates = support_candidates(Composition(), Composition([2]))
        assert candidates == [Composition([2])]

    def test_matches_enumerate_then_filter(self):
        compositions = compositions_up_to(3)
        for alpha in compositions:
            for beta in compositions:
                assert support_candidates(alpha, beta) == filtered_support_candidates(
                    alpha, beta
                )


class TestVerifyExpansion:
    def test_oracle_convention_passes(self):
        assert verify_expansion(Composition([1]), Composition([1]), ORACLE)
        assert verify_expansion(Composition([2]), Composition([1]), ORACLE)
        assert verify_expansion(Composition([2, 1]), Composition([1, 2]), ORACLE)

    def test_unit_passes_either_convention(self):
        assert verify_expansion(Composition(), Composition([3]), ORACLE)
        assert verify_expansion(Composition(), Composition([3]), PAPER)

    def test_paper_convention_fails(self):
        assert not verify_expansion(Composition([1]), Composition([1]), PAPER)

    @pytest.mark.parametrize("convention", [ORACLE, PAPER], ids=lambda c: c.value)
    def test_agrees_with_identity_at_points(self, convention):
        # the product identity, checked by plain evaluation of the defining
        # sums, holds exactly when the single certification route passes
        for alpha in compositions_up_to(3, 2):
            for beta in compositions_up_to(3, 2):
                ctx = TruncationContext.for_product(alpha, beta)
                expansion = product_expand(alpha, beta, convention)
                holds = all(
                    eval_double_monomial(alpha, ctx.n_x, xs, ys)
                    * eval_double_monomial(beta, ctx.n_x, xs, ys)
                    == sum(
                        eval_poly(c, xs, ys) * eval_double_monomial(g, ctx.n_x, xs, ys)
                        for g, c in expansion.items()
                    )
                    for xs, ys in sample_points(ctx.n_x, ctx.n_y, 3, seed=len(alpha))
                )
                assert verify_expansion(alpha, beta, convention) == holds

    @staticmethod
    def _tampered(monkeypatch, edit):
        def tampered(alpha, beta, convention=ORACLE):
            coeffs = dict(product_expand(alpha, beta, convention).coeffs)
            edit(coeffs, alpha, beta)
            return Expansion(coeffs)

        monkeypatch.setattr(lrcalc, "product_expand", tampered)

    PAIRS = [
        (Composition([1]), Composition([1])),
        (Composition([2]), Composition([1])),
        (Composition([2, 1]), Composition([1, 2])),
        (Composition([1, 1]), Composition([3])),
    ]

    def test_rejects_dropped_gamma(self, monkeypatch):
        for position in (0, -1):
            def drop(coeffs, alpha, beta, position=position):
                del coeffs[sorted(coeffs, key=Composition.sort_key)[position]]

            self._tampered(monkeypatch, drop)
            for alpha, beta in self.PAIRS:
                assert not verify_expansion(alpha, beta, ORACLE)

    def test_rejects_flipped_sign(self, monkeypatch):
        for position in (0, -1):
            def flip(coeffs, alpha, beta, position=position):
                gamma = sorted(coeffs, key=Composition.sort_key)[position]
                coeffs[gamma] = -coeffs[gamma]

            self._tampered(monkeypatch, flip)
            for alpha, beta in self.PAIRS:
                assert not verify_expansion(alpha, beta, ORACLE)

    def test_rejects_added_gamma(self, monkeypatch):
        def add_inside(coeffs, alpha, beta):
            # a composition of the right size range that the product misses
            missing = [g for g in support_candidates(alpha, beta) if g not in coeffs]
            coeffs[missing[0]] = one()

        def add_outside(coeffs, alpha, beta):
            # one part more than the truncation has x-variables
            coeffs[Composition([1] * (len(alpha) + len(beta) + 1))] = one()

        for add in (add_inside, add_outside):
            self._tampered(monkeypatch, add)
            for alpha, beta in self.PAIRS[1:]:
                assert not verify_expansion(alpha, beta, ORACLE)

    def test_not_in_span_is_a_failure(self, monkeypatch):
        def expand_in_M(p, ctx):
            raise NotInSpan("no leading monomial")

        monkeypatch.setattr(lrcalc, "expand_in_M", expand_in_M)
        assert verify_expansion(Composition([1]), Composition([1]), ORACLE) is False


class TestExpansionRecords:
    def test_nonzero_rows(self):
        rows = expansion_records(Composition([1]), Composition([1]))
        assert [r.gamma.parts for r in rows] == [(1,), (2,), (1, 1)]
        assert all(r.convention is ORACLE for r in rows)
        assert rows[0].value == y_var(2) - y_var(1)

    def test_explicit_zeros(self):
        alpha, beta = Composition([2]), Composition([1])
        rows = expansion_records(alpha, beta, ORACLE, explicit_zeros=True)
        assert [r.gamma.parts for r in rows] == [(2,), (1, 1), (3,), (1, 2), (2, 1)]
        by_gamma = {r.gamma: r.value for r in rows}
        assert by_gamma[Composition([1, 1])] == zero()
        assert by_gamma[Composition([2])] == y_var(3) - y_var(1)
        dense = expansion_records(alpha, beta, ORACLE)
        assert len(dense) == 4

    def test_serialized_form(self):
        row = expansion_records(Composition([1]), Composition([1]), PAPER)[0]
        record = row.to_record()
        assert record["alpha"] == [1] and record["beta"] == [1] and record["gamma"] == [1]
        assert XYPolynomial.from_records(record["coeff"]) == y_var(1) - y_var(2)
        rebuilt = StructureCoefficient(
            row.alpha, row.beta, row.gamma, XYPolynomial.from_records(record["coeff"]), PAPER
        )
        assert rebuilt == row
