"""Structure coefficients and certified product expansions."""

import functools
import gc
import itertools
from collections import Counter

import pytest

from dqsym import lrcalc
from dqsym.compositions import Composition, enumerate_compositions, overlapping_shuffles
from dqsym.lrcalc import (
    expansion_records,
    product_expand,
    skyline_census,
    structure_coefficient,
    support_candidates,
    verify_expansion,
)
from dqsym.polynomial import XYPolynomial, _cell_coordinates, one, x_var, y_var, zero
from dqsym.qsym import Expansion, double_monomial
from dqsym.tableaux import WeightConvention

from oracles import (
    eval_double_monomial,
    eval_poly,
    filtered_support_candidates,
    for_product,
    one_variable_cell_product,
    pack_cell,
    placements_verify,
    product_cells,
    product_route_verify,
    sample_points,
    unpack_cell,
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

    def test_convention_must_be_an_enum_member(self):
        # a string once read as the oracle-consistent convention here and
        # as the paper-literal one in ``tableaux``; each entry point refuses it
        one_box = Composition([1])
        calls = [
            lambda c: verify_expansion(one_box, one_box, c),
            lambda c: product_expand(one_box, one_box, c),
            lambda c: structure_coefficient(one_box, one_box, one_box, c),
            lambda c: expansion_records(one_box, one_box, c),
            lambda c: expansion_records(one_box, one_box, c, explicit_zeros=True),
        ]
        for call in calls:
            for bad in ("paper-literal", "oracle-consistent", None, 0):
                with pytest.raises(TypeError, match="convention must be a WeightConvention"):
                    call(bad)

    @pytest.mark.parametrize("convention", [ORACLE, PAPER], ids=lambda c: c.value)
    def test_agrees_with_identity_at_points(self, convention):
        # the product identity, checked by plain evaluation of the defining
        # sums, holds exactly when the single certification route passes
        for alpha in compositions_up_to(3, 2):
            for beta in compositions_up_to(3, 2):
                ctx = for_product(alpha, beta)
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
    # sizes <= 4, lengths <= 3: 15 compositions, 225 pairs
    SWEEP = compositions_up_to(4, 3)

    def _rejected(self) -> int:
        return sum(
            not verify_expansion(alpha, beta, ORACLE)
            for alpha in self.SWEEP
            for beta in self.SWEEP
        )

    def test_rejects_dropped_gamma(self, monkeypatch):
        for position in (0, -1):
            def drop(coeffs, alpha, beta, position=position):
                del coeffs[sorted(coeffs, key=Composition.sort_key)[position]]

            self._tampered(monkeypatch, drop)
            assert self._rejected() == 225

    def test_rejects_flipped_sign(self, monkeypatch):
        for position in (0, -1):
            def flip(coeffs, alpha, beta, position=position):
                gamma = sorted(coeffs, key=Composition.sort_key)[position]
                coeffs[gamma] = -coeffs[gamma]

            self._tampered(monkeypatch, flip)
            assert self._rejected() == 225

    def test_rejects_added_gamma(self, monkeypatch):
        def add_inside(coeffs, alpha, beta):
            # a composition of the right size range that the product misses
            missing = [g for g in support_candidates(alpha, beta) if g not in coeffs]
            coeffs[missing[0]] = one()

        def add_outside(coeffs, alpha, beta):
            # one part more than the cells have x-positions
            coeffs[Composition([1] * (len(alpha) + len(beta) + 1))] = one()

        self._tampered(monkeypatch, add_inside)
        for alpha, beta in self.PAIRS[1:]:
            assert not verify_expansion(alpha, beta, ORACLE)
        self._tampered(monkeypatch, add_outside)
        assert self._rejected() == 225

    @staticmethod
    def _tampered_cells(monkeypatch, edit):
        # ``edit(states, key)`` edits the walk's final tables, the cells,
        # with ``key`` the oracle's packed key of a cell
        cell_walk = lrcalc._cell_walk

        def tampered(alpha, beta, e, w, states, start, stop):
            states = cell_walk(alpha, beta, e, w, states, start, stop)
            n = len(alpha) + len(beta)
            if stop == n:
                edit(states, lambda cell: pack_cell(cell, n, w))
            return states

        monkeypatch.setattr(lrcalc, "_cell_walk", tampered)

    def test_placements_that_disagree_fail(self, monkeypatch):
        # M_(1) * M_(1) ends at (1, 1, 1) with the cells (1, 0) and
        # (0, 1), y2 - y1 each, and (2, 0) and (0, 2), 1 each, and at
        # (1, 1, 2) with (1, 1), 2.  So gamma (1,) carries y2 - y1 at x_1
        # and at x_2; either one changed, or one missing, fails
        def changed_at_x1(states, key):
            table = states[1, 1, 1]
            table[key((1, 0))] = (XYPolynomial._raw(table[key((1, 0))]) + one()).terms

        def changed_at_x2(states, key):
            table = states[1, 1, 1]
            table[key((0, 1))] = (XYPolynomial._raw(table[key((0, 1))]) + one()).terms

        def missing_at_x1(states, key):
            del states[1, 1, 1][key((1, 0))]

        def missing_at_x2(states, key):
            # a cell whose sum cancels stays as an empty dict
            states[1, 1, 1][key((0, 1))] = {}

        for edit in (changed_at_x1, changed_at_x2, missing_at_x1, missing_at_x2):
            self._tampered_cells(monkeypatch, edit)
            assert verify_expansion(Composition([1]), Composition([1]), ORACLE) is False

    def test_stray_cell_fails(self, monkeypatch):
        # (3,) at x_1, a gamma off the table: beside every right cell, or
        # in place of (2,) at x_1, so that the cells still number the
        # table's placements
        def beside(states, key):
            states[1, 1, 1][key((3, 0))] = {0: 1}

        def in_place(states, key):
            del states[1, 1, 1][key((2, 0))]
            states[1, 1, 1][key((3, 0))] = {0: 1}

        for edit in (beside, in_place):
            self._tampered_cells(monkeypatch, edit)
            assert verify_expansion(Composition([1]), Composition([1]), ORACLE) is False

    def test_gammas_keep_distinct_keys(self, monkeypatch):
        # M_(1) * M_(2) has cells of parts at most 3, two bits.  In
        # fields of two bits, its gamma (1, 2) would share a key with
        # (9, 2) by OR and with (5, 1) by sum, so either table, the
        # coefficient of (1, 2) moved there, would pass
        assert 1 | 2 << 2 == 9 | 2 << 2 and 1 + (2 << 2) == 5 + (1 << 2)
        alpha, beta = Composition([1]), Composition([2])
        assert verify_expansion(alpha, beta, ORACLE)
        for parts in ([9, 2], [5, 1]):
            def moved(coeffs, alpha, beta, parts=parts):
                coeffs[Composition(parts)] = coeffs.pop(Composition([1, 2]))

            self._tampered(monkeypatch, moved)
            assert verify_expansion(alpha, beta, ORACLE) is False

    def test_matches_placements_route(self, monkeypatch):
        # the check on the stepped last position against the full cell
        # dict regrouped by placement, pair by pair, in both conventions,
        # on the true table and under each tampered one
        def drop(position):
            def edit(coeffs, alpha, beta):
                del coeffs[sorted(coeffs, key=Composition.sort_key)[position]]

            return edit

        def flip(position):
            def edit(coeffs, alpha, beta):
                gamma = sorted(coeffs, key=Composition.sort_key)[position]
                coeffs[gamma] = -coeffs[gamma]

            return edit

        def add_inside(coeffs, alpha, beta):
            missing = [g for g in support_candidates(alpha, beta) if g not in coeffs]
            if missing:
                coeffs[missing[0]] = one()

        def add_outside(coeffs, alpha, beta):
            coeffs[Composition([1] * (len(alpha) + len(beta) + 1))] = one()

        edits = [drop(0), drop(-1), flip(0), flip(-1), add_inside, add_outside]
        compositions = compositions_up_to(3)
        for edit in [None, *edits]:
            if edit is not None:
                self._tampered(monkeypatch, edit)
            for convention in (ORACLE, PAPER):
                outcomes = Counter()
                for alpha in compositions:
                    for beta in compositions:
                        passed = verify_expansion(alpha, beta, convention)
                        assert passed == placements_verify(alpha, beta, convention)
                        outcomes[passed] += 1
                if edit is None:
                    expected = {True: 64} if convention is ORACLE else {True: 15, False: 49}
                    assert outcomes == expected

    def test_routes_agree(self):
        # the cell walk against the product route of the test oracle
        assert len(self.SWEEP) == 15
        for alpha in self.SWEEP:
            for beta in self.SWEEP:
                assert verify_expansion(alpha, beta, ORACLE)
                assert product_route_verify(alpha, beta, ORACLE)
        outcomes = Counter()
        for alpha in compositions_up_to(3):
            for beta in compositions_up_to(3):
                passed = verify_expansion(alpha, beta, PAPER)
                assert passed == product_route_verify(alpha, beta, PAPER)
                outcomes[passed] += 1
        assert outcomes == {True: 15, False: 49}

    def test_cell_walk_matches_product_cells(self):
        # the oracle's cell walk against the cells of the product itself,
        # converted one x-variable at a time, dict for dict
        for alpha in self.SWEEP:
            for beta in self.SWEEP:
                ctx = for_product(alpha, beta)
                product = double_monomial(alpha, ctx) * double_monomial(beta, ctx)
                expected = _cell_coordinates(product, len(alpha) + len(beta))
                assert product_cells(alpha, beta) == expected

    def test_prefix_cells_match_oracle(self):
        # the cell walk's tables after n - 1 and after n x-positions: at
        # (k, m), the cells of M_alpha[:k] * M_beta[:m] in that many
        # x-variables, for the points that still reach (len(alpha),
        # len(beta)), decoded from their packed keys, at the narrowest
        # field width and a wider one; the table at (k, m, l) holds
        # prefixes of l nonzero entries, and entries that cancel may
        # stay as empty dicts.  The walk resumed from its own tables
        # halfway gives the same tables
        for alpha in self.SWEEP:
            for beta in self.SWEEP:
                la, lb = len(alpha), len(beta)
                n = la + lb
                e = lrcalc._cell_table(alpha, beta)
                narrow = (alpha.max_part() + beta.max_part()).bit_length()
                for stop in {max(n - 1, 0), n}:
                    left = n - stop
                    expected = {
                        (k, m): product_cells(alpha[:k], beta[:m], stop)
                        for k in range(max(la - left, 0), la + 1)
                        for m in range(max(lb - left, 0), lb + 1)
                    }
                    for w in (narrow, narrow + 3):
                        walk = functools.partial(lrcalc._cell_walk, alpha, beta, e, w)
                        states = walk({(0, 0, 0): {0: {0: 1}}}, 0, stop)
                        halfway = walk({(0, 0, 0): {0: {0: 1}}}, 0, stop // 2)
                        assert walk(halfway, stop // 2, stop) == states
                        found = {}
                        for (k, m, l), table in states.items():
                            cells = found.setdefault((k, m), {})
                            for key, t in table.items():
                                cell = unpack_cell(key, n, w, stop)
                                assert sum(map(bool, cell)) == l
                                assert cell not in cells
                                if t:
                                    cells[cell] = t
                        # a point the walk cannot reach in ``stop``
                        # positions has no cells
                        assert found == {p: t for p, t in expected.items() if t or p in found}

    @staticmethod
    def _cells(states, n, w) -> dict:
        # the nonzero cells of the walk's final tables, decoded
        return {
            unpack_cell(key, n, w, n): t
            for table in states.values()
            for key, t in table.items()
            if t
        }

    DEEP = [
        (Composition([2, 1]), Composition([1, 2])),
        (Composition([1, 1, 1]), Composition([2, 1, 1])),
        (Composition([1] * 5), Composition([1] * 4)),
    ]

    def test_equal_cells_are_one_object(self, monkeypatch):
        # one verify_expansion hash-conses the values of all its walks,
        # the first and every subtree, so equal nonzero cells are one
        # object, split or not
        cell_walk = lrcalc._cell_walk
        cells = []

        def walk(alpha, beta, e, w, states, start, stop):
            states = cell_walk(alpha, beta, e, w, states, start, stop)
            if stop == len(alpha) + len(beta):
                cells.extend(t for table in states.values() for t in table.values() if t)
            return states

        monkeypatch.setattr(lrcalc, "_cell_walk", walk)
        for positions in (8, 2):
            monkeypatch.setattr(lrcalc, "_SUBTREE_POSITIONS", positions)
            for alpha, beta in self.DEEP:
                cells.clear()
                assert verify_expansion(alpha, beta, ORACLE)
                distinct = {frozenset(t.items()) for t in cells}
                assert len(cells) > len(distinct) > 1
                assert len({id(t) for t in cells}) == len(distinct)

    def test_each_product_and_sum_made_once(self, monkeypatch):
        # the memos live for the whole verify_expansion: no product of a
        # coordinate by a value, and no sum of two values, is computed
        # twice, across positions and subtrees alike
        made = Counter()
        mul_terms, add_terms = lrcalc._mul_terms, lrcalc._add_terms

        def mul(terms, coordinate):
            made["mul", id(coordinate), frozenset(terms.items())] += 1
            return mul_terms(terms, coordinate)

        def add(old, value):
            made["add", frozenset(old.items()), frozenset(value.items())] += 1
            return add_terms(old, value)

        monkeypatch.setattr(lrcalc, "_mul_terms", mul)
        monkeypatch.setattr(lrcalc, "_add_terms", add)
        monkeypatch.setattr(lrcalc, "_SUBTREE_POSITIONS", 3)
        for alpha, beta in self.DEEP:
            made.clear()
            assert verify_expansion(alpha, beta, ORACLE)
            assert made and set(made.values()) == {1}

    def test_canon_collision_keeps_cells_canonical(self):
        # every int key of canon that the walk's values take, seeded with
        # different terms: each value the walk builds is keyed by its
        # frozenset instead, and no seeded dict is ever returned
        for alpha, beta in self.DEEP:
            n = len(alpha) + len(beta)
            w = (alpha.max_part() + beta.max_part()).bit_length()
            start = {(0, 0, 0): {0: {0: 1}}}
            built = lrcalc._cell_walk(alpha, beta, lrcalc._cell_table(alpha, beta), w, start, 0, n)
            values = {frozenset(t.items()) for table in built.values() for t in table.values()}
            e = lrcalc._cell_table(alpha, beta)
            seeded = {}
            for items in values:
                seeded[items] = {0: -1000 - len(seeded)}
                assert seeded[items] != dict(items)
                e.canon[hash(items)] = XYPolynomial._raw(seeded[items])
            states = lrcalc._cell_walk(alpha, beta, e, w, {(0, 0, 0): {0: {0: 1}}}, 0, n)
            assert self._cells(states, n, w) == product_cells(alpha, beta)
            ids = {id(t) for t in seeded.values()}
            assert all(id(t) not in ids for table in states.values() for t in table.values())
            assert values <= set(e.canon)

    def test_shared_memos_never_reuse_an_id(self):
        # several walks on one table, each from fresh input dicts that
        # canon does not hold, resumed at every position; collecting
        # between walks gives freed ids to new dicts, which must not
        # alias a memo entry
        for alpha, beta in self.DEEP:
            n = len(alpha) + len(beta)
            w = (alpha.max_part() + beta.max_part()).bit_length()
            expected = product_cells(alpha, beta)
            e = lrcalc._cell_table(alpha, beta)
            walk = functools.partial(lrcalc._cell_walk, alpha, beta, e, w)
            fresh = self._cells(walk({(0, 0, 0): {0: {0: 1}}}, 0, n), n, w)
            assert fresh == expected
            for half in range(n + 1):
                gc.collect()
                halfway = walk({(0, 0, 0): {0: {0: 1}}}, 0, half)
                halfway = {
                    point: {key: dict(t) for key, t in table.items()}
                    for point, table in halfway.items()
                }
                gc.collect()
                assert self._cells(walk(halfway, half, n), n, w) == expected

    def test_forced_split_matches_placements_route(self, monkeypatch):
        # every pair of size <= 4, all lengths, in both conventions, with
        # subtrees of 0 to 3 x-positions: up to eight positions, so a
        # split at depth n - 3 up to depth n
        compositions = compositions_up_to(4)
        assert len(compositions) == 16
        expected = {
            (alpha, beta, convention): placements_verify(alpha, beta, convention)
            for alpha in compositions
            for beta in compositions
            for convention in (ORACLE, PAPER)
        }
        for positions in (0, 1, 2, 3):
            monkeypatch.setattr(lrcalc, "_SUBTREE_POSITIONS", positions)
            for (alpha, beta, convention), passed in expected.items():
                assert verify_expansion(alpha, beta, convention) == passed

    def test_forced_split_rejects_tampered_tables(self, monkeypatch):
        # the dropped, flipped and added gammas, with subtrees of 0 to 3
        # x-positions
        for positions in (0, 1, 2, 3):
            monkeypatch.setattr(lrcalc, "_SUBTREE_POSITIONS", positions)
            self.test_rejects_dropped_gamma(monkeypatch)
            self.test_rejects_flipped_sign(monkeypatch)
            self.test_rejects_added_gamma(monkeypatch)

    def test_forced_split_rejects_one_changed_subtree(self, monkeypatch):
        # (2, 1) x (1, 2) split at depth 2 of its 4 x-positions: one
        # nonzero cell changed in the first subtree alone, or in the last
        # alone, fails
        monkeypatch.setattr(lrcalc, "_SUBTREE_POSITIONS", 2)
        alpha, beta = Composition([2, 1]), Composition([1, 2])
        cell_walk = lrcalc._cell_walk
        ends = []  # the final tables of each subtree walked

        def walk(alpha, beta, e, w, states, start, stop):
            states = cell_walk(alpha, beta, e, w, states, start, stop)
            if stop == len(alpha) + len(beta):
                ends.append(states)
                if len(ends) == target:
                    table = next(t for t in states.values() if any(t.values()))
                    cell = min(c for c, t in table.items() if t)
                    table[cell] = (XYPolynomial._raw(table[cell]) + one()).terms
            return states

        monkeypatch.setattr(lrcalc, "_cell_walk", walk)
        target = 0
        assert verify_expansion(alpha, beta, ORACLE)
        count = len(ends)
        assert count > 1
        for target in (1, count):
            ends.clear()
            assert verify_expansion(alpha, beta, ORACLE) is False
            assert len(ends) == target

    def test_sweep_rejects_paper_literal(self):
        passed = [
            (alpha, beta)
            for alpha in self.SWEEP
            for beta in self.SWEEP
            if verify_expansion(alpha, beta, PAPER)
        ]
        assert len(passed) == 29
        assert all(not alpha or not beta for alpha, beta in passed)

    def test_degree_limit(self):
        ones = Composition([1] * 256)
        with pytest.raises(ValueError, match="total degree 256 exceeds"):
            verify_expansion(ones, ones, ORACLE)

    def test_one_variable_products_match_oracle(self):
        for a in range(9):
            for b in range(9):
                found = dict(lrcalc._cell_product(a, b))
                assert found == one_variable_cell_product(a, b)

    def test_large_part(self):
        # phi_20 has 2**20 terms; its cell coordinates have one.  Parts
        # up to 302 and 70001 need key fields of 9 and 17 bits; the rule
        # sums the C(300, 2) tableaux of shape 300/300, content 2, by
        # the box recursion
        assert verify_expansion(Composition([20]), Composition([2]), ORACLE)
        assert verify_expansion(Composition([2]), Composition([20]), ORACLE)
        assert verify_expansion(Composition([300]), Composition([1]), ORACLE)
        assert verify_expansion(Composition([300]), Composition([1, 2]), ORACLE)
        assert verify_expansion(Composition([1]), Composition([70000]), ORACLE)


def z_positive(value: XYPolynomial, z_forms: dict) -> bool:
    """Whether ``value``, under y_j -> y_1 + z_1 + ... + z_{j-1} with z_i
    written x_i (coefficients are x-free), is nonzero, has no y left
    and only positive integer coefficients."""
    for _, j in value.variables():
        if j not in z_forms:
            z_forms[j] = y_var(1) + sum((x_var(i) for i in range(1, j)), zero())
    z = value.substitute({("y", j): z_forms[j] for _, j in value.variables()})
    return bool(z) and all(not m.y and c > 0 for m, c in z.sorted_terms())


class TestEquivariantPositivity:
    """Every factor y_{i+1+r} - y_i of an oracle-consistent weight is
    z_i + ... + z_{i+r} with z_i = y_{i+1} - y_i, so every coefficient
    is a polynomial in the z_i with positive coefficients and no y_1."""

    SWEEP = compositions_up_to(4, 3)

    @staticmethod
    def _failing_pairs(sweep, convention=ORACLE) -> int:
        z_forms = {}
        return sum(
            not all(
                z_positive(value, z_forms)
                for _, value in product_expand(alpha, beta, convention).items()
            )
            for alpha in sweep
            for beta in sweep
        )

    def test_table_is_z_positive(self):
        # sizes <= 5, lengths <= 3: 676 pairs, 19,031 coefficients
        sweep = compositions_up_to(5, 3)
        z_forms = {}
        values = [
            value
            for alpha in sweep
            for beta in sweep
            for _, value in product_expand(alpha, beta).items()
        ]
        assert len(sweep) ** 2 == 676 and len(values) == 19031
        assert all(z_positive(value, z_forms) for value in values)

    def test_rejects_negated_row_sum(self, monkeypatch):
        cp_product = lrcalc.cp_product

        def negated(a, b):
            table = cp_product(a, b)
            return {**table, 2: -table[2]} if (a, b) == (2, 1) else table

        monkeypatch.setattr(lrcalc, "cp_product", negated)
        assert self._failing_pairs(self.SWEEP) == 64

    def test_rejects_paper_literal(self):
        assert self._failing_pairs(self.SWEEP, PAPER) == 196


class TestExpansionRecords:
    SWEEP = compositions_up_to(4, 3)

    def test_nonzero_rows(self):
        rows = expansion_records(Composition([1]), Composition([1]))
        assert [gamma.parts for gamma, _ in rows] == [(1,), (2,), (1, 1)]
        assert rows[0] == (Composition([1]), y_var(2) - y_var(1))

    def test_explicit_zeros(self):
        alpha, beta = Composition([2]), Composition([1])
        rows = expansion_records(alpha, beta, ORACLE, explicit_zeros=True)
        assert [gamma.parts for gamma, _ in rows] == [(2,), (1, 1), (3,), (1, 2), (2, 1)]
        by_gamma = dict(rows)
        assert by_gamma[Composition([1, 1])] == zero()
        assert by_gamma[Composition([2])] == y_var(3) - y_var(1)
        dense = expansion_records(alpha, beta, ORACLE)
        assert len(dense) == 4

    @pytest.mark.parametrize("convention", [ORACLE, PAPER], ids=lambda c: c.value)
    def test_rows_are_expansion_pairs(self, convention):
        # a row is (gamma, coefficient): the expansion's items, or with
        # explicit zeros every support candidate, padded with zero
        for alpha in self.SWEEP:
            for beta in self.SWEEP:
                expansion = product_expand(alpha, beta, convention)
                rows = expansion_records(alpha, beta, convention)
                assert rows == expansion.items()
                padded = [
                    (gamma, expansion.coeffs.get(gamma, zero()))
                    for gamma in support_candidates(alpha, beta)
                ]
                assert expansion_records(alpha, beta, convention, True) == padded

    def test_serialized_form(self):
        gamma, value = expansion_records(Composition([1]), Composition([1]), PAPER)[0]
        assert gamma.to_list() == [1]
        assert XYPolynomial.from_records(value.to_records()) == y_var(1) - y_var(2)
