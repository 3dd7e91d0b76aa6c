"""Acceptance gate: one test per criterion, one printed line each.

Every check is exact integer-polynomial equality.  Run with ``-s`` to
see the pass/fail lines alongside the pytest report.
"""

import time
from collections import Counter
from contextlib import contextmanager
from math import comb

from dqsym import lrcalc
from dqsym.compositions import (
    Composition,
    enumerate_compositions,
    overlapping_shuffles,
)
from dqsym.lrcalc import (
    product_expand,
    structure_coefficient,
    support_candidates,
    verify_expansion,
)
from dqsym.polynomial import one, x_var, y_var, zero
from dqsym.qsym import Expansion, TruncationContext, double_monomial, expand_in_M, qsym_generator
from dqsym.tableaux import (
    SkewEdgeTableau,
    WeightConvention,
    enumerate_skylines,
    enumerate_tableaux,
)

PAPER = WeightConvention.PAPER_LITERAL
ORACLE = WeightConvention.ORACLE_CONSISTENT


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} ({description}): {status} ({elapsed:.1f}s)")


def sweep(max_size: int, max_length: int | None = None) -> list[Composition]:
    length = max_length if max_length is not None else max_size
    return [
        c for c in enumerate_compositions(length, max_size) if c.size() <= max_size
    ]


def test_criterion_1_paper_coefficient():
    with criterion(1, "paper example coefficient"):
        value = structure_coefficient(
            Composition([3, 2]), Composition([2, 3]), Composition([3, 2, 4]), PAPER
        )
        expected = (y_var(1) - y_var(4)) + (y_var(2) - y_var(5))
        assert value == expected


def test_criterion_2_paper_tableau_weights():
    with criterion(2, "paper tableau weights"):
        first = SkewEdgeTableau(7, 4, frozenset({1, 3}))
        assert first.weight(PAPER) == (y_var(1) - y_var(6)) * (y_var(3) - y_var(7))
        second = SkewEdgeTableau(7, 4, frozenset({1, 2, 4}))
        expected = (
            (y_var(1) - y_var(7)) * (y_var(2) - y_var(7)) * (y_var(4) - y_var(8))
        )
        assert second.weight(PAPER) == expected


def test_criterion_3_paper_skyline_census():
    with criterion(3, "paper skyline census"):
        alpha, beta = Composition([3, 2]), Composition([2, 3])
        gamma = Composition([3, 2, 4])

        def skylines(iota, jota):
            return enumerate_skylines(alpha, beta, gamma, iota, jota)

        found = skylines((1, 3), (2, 3))
        assert len(found) == 2
        assert [s.weight(PAPER) for s in found] == [
            y_var(1) - y_var(4),
            y_var(2) - y_var(5),
        ]
        assert skylines((1, 2), (1, 3)) == []
        assert skylines((1, 2), (2, 3)) == []
        assert skylines((1, 3), (1, 3)) == []


def test_criterion_4_oracle_sweep():
    with criterion(4, "oracle sweep, sizes <= 4, lengths <= 3"):
        compositions = sweep(4, 3)
        assert len(compositions) == 15
        failures = [
            (alpha, beta)
            for alpha in compositions
            for beta in compositions
            if not verify_expansion(alpha, beta, ORACLE)
        ]
        assert failures == []


def test_criterion_5_hazewinkel_specialization():
    with criterion(5, "overlapping shuffle specialization, sizes <= 5"):
        compositions = sweep(5)
        assert len(compositions) == 32
        for alpha in compositions:
            for beta in compositions:
                expansion = product_expand(alpha, beta, ORACLE)
                specialized = Counter()
                for gamma, value in expansion.items():
                    count = value.substitute(
                        {v: 0 for v in value.variables()}
                    ).as_int()
                    if count:
                        specialized[gamma] = count
                assert specialized == overlapping_shuffles(alpha, beta)


def test_criterion_6_tableau_counting():
    with criterion(6, "tableau count formula, c <= 10"):
        for c in range(11):
            for a in range(c + 1):
                for b in range(11):
                    expected = comb(a, a + b - c) if max(a, b) <= c <= a + b else 0
                    assert len(enumerate_tableaux(c, a, b)) == expected


def test_criterion_7_two_variable_relation():
    with criterion(7, "two-variable cubic relation"):
        ctx = TruncationContext(2, 0)
        x = x_var(1)
        t = qsym_generator([x, x], ctx)
        z = qsym_generator([x], ctx)
        w = qsym_generator([x * x, x], ctx)
        assert t**3 - t * z * w + w**2 == zero()
        printed = z**3 - t * z * w + w**2
        assert printed.substitute({("x", 1): 1, ("x", 2): 1}).as_int() == 7


def test_criterion_8_property_suite():
    with criterion(8, "property suite"):
        # commutativity, sizes <= 4
        quads = sweep(4)
        for i, alpha in enumerate(quads):
            for beta in quads[i + 1 :]:
                assert product_expand(alpha, beta, ORACLE) == product_expand(
                    beta, alpha, ORACLE
                )

        # associativity, sizes <= 2, via coefficientwise Expansion algebra
        def times(expansion: Expansion, right: Composition) -> Expansion:
            total = Expansion()
            for delta, coefficient in expansion.items():
                total = total + product_expand(delta, right, ORACLE).scale(coefficient)
            return total

        pairs_assoc = sweep(2)
        for alpha in pairs_assoc:
            for beta in pairs_assoc:
                for gamma in pairs_assoc:
                    left = times(product_expand(alpha, beta, ORACLE), gamma)
                    right = Expansion()
                    for eps, coefficient in product_expand(beta, gamma, ORACLE).items():
                        right = right + product_expand(alpha, eps, ORACLE).scale(
                            coefficient
                        )
                    assert left == right

        # homogeneity and the convention bridge, sizes <= 4 and lengths <= 3
        for alpha in sweep(4, 3):
            for beta in sweep(4, 3):
                oracle = product_expand(alpha, beta, ORACLE)
                paper = product_expand(alpha, beta, PAPER)
                assert paper.support() == oracle.support()
                for gamma, value in oracle.items():
                    degree = alpha.size() + beta.size() - gamma.size()
                    assert value.is_homogeneous(degree)
                    assert paper[gamma] == (-1) ** degree * value

        # round trip through expand_in_M over parts <= 3, lengths <= 3
        ctx = TruncationContext(3, 3)
        for alpha in enumerate_compositions(3, 3):
            expansion = expand_in_M(double_monomial(alpha, ctx), ctx)
            assert expansion == Expansion({alpha: 1})


def test_criterion_9_cell_certification():
    with criterion(9, "certification sweep, sizes <= 6, lengths <= 3"):
        compositions = sweep(6, 3)
        assert len(compositions) == 42
        failures = [
            (alpha, beta)
            for alpha in compositions
            for beta in compositions
            if not verify_expansion(alpha, beta, ORACLE)
        ]
        assert failures == []


def test_criterion_10_all_lengths_certification(monkeypatch):
    with criterion(10, "certification sweep, sizes <= 5, all lengths"):
        # past four parts: (1,1,1,1,1) and products in up to ten
        # x-variables, so the walk splits into subtrees
        compositions = sweep(5)
        assert len(compositions) == 32
        assert max(map(len, compositions)) == 5
        failures = [
            (alpha, beta)
            for alpha in compositions
            for beta in compositions
            if not verify_expansion(alpha, beta, ORACLE)
        ]
        assert failures == []
        # the paper-literal table holds only where one factor is M_()
        passed = [
            (alpha, beta)
            for alpha in compositions
            for beta in compositions
            if verify_expansion(alpha, beta, PAPER)
        ]
        assert len(passed) == 63 and all(not alpha or not beta for alpha, beta in passed)

        # a table with its first or last gamma dropped or its sign
        # flipped, or with a gamma added, is rejected on every pair with
        # the five-part factor (1,1,1,1,1), the walks that split; a
        # factor M_() leaves no candidate gamma to add inside
        deepest = [
            (alpha, beta)
            for alpha in compositions
            for beta in compositions
            if 5 in (len(alpha), len(beta))
        ]
        assert len(deepest) == 63

        def drop(position):
            def edit(coeffs, alpha, beta):
                del coeffs[sorted(coeffs)[position]]

            return edit

        def flip(position):
            def edit(coeffs, alpha, beta):
                gamma = sorted(coeffs)[position]
                coeffs[gamma] = -coeffs[gamma]

            return edit

        def add_inside(coeffs, alpha, beta):
            coeffs[next(g for g in support_candidates(alpha, beta) if g not in coeffs)] = one()

        def add_outside(coeffs, alpha, beta):
            coeffs[Composition([1] * (len(alpha) + len(beta) + 1))] = one()

        edits = [drop(0), drop(-1), flip(0), flip(-1), add_inside, add_outside]
        for edit in edits:
            def tampered(alpha, beta, convention=ORACLE, edit=edit):
                coeffs = dict(product_expand(alpha, beta, convention).coeffs)
                edit(coeffs, alpha, beta)
                return Expansion(coeffs)

            monkeypatch.setattr(lrcalc, "product_expand", tampered)
            pairs = [
                (alpha, beta)
                for alpha, beta in deepest
                if alpha and beta or edit is not add_inside
            ]
            assert len(pairs) == (61 if edit is add_inside else 63)
            accepted = [(a, b) for a, b in pairs if verify_expansion(a, b, ORACLE)]
            assert accepted == []
