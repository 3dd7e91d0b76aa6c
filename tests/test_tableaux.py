"""Edge-labeled tableaux, their weights, and skyline stacks."""

import itertools
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from dqsym import tableaux
from dqsym.compositions import Composition, enumerate_injections
from dqsym.polynomial import one, x_var, y_var, zero
from dqsym.qsym import cell_class
from dqsym.tableaux import (
    DEFAULT_CONVENTION,
    SkewEdgeTableau,
    SkylineTableau,
    WeightConvention,
    cp_product,
    enumerate_skylines,
    enumerate_tableaux,
    row_weight_sum,
)

from oracles import tableau_row_sum

PAPER = WeightConvention.PAPER_LITERAL
ORACLE = WeightConvention.ORACLE_CONSISTENT


class TestSkewEdgeTableau:
    def test_validation(self):
        with pytest.raises(ValueError):
            SkewEdgeTableau(2, 3, frozenset())
        with pytest.raises(ValueError):
            SkewEdgeTableau(4, 2, frozenset({3}))
        with pytest.raises(ValueError):
            SkewEdgeTableau(4, 2, frozenset({0}))
        # bool and non-integer sizes and labels
        for bad in ((3, 2, {True}), (3, 2, {1.0}), (True, 1, ()), (2.0, 1, ()), (2, 1.0, ())):
            with pytest.raises(ValueError, match="need 0 <= inner|edge labels must lie"):
                SkewEdgeTableau(bad[0], bad[1], frozenset(bad[2]))
        tableau = SkewEdgeTableau(4, 2, [2, 1])
        assert tableau.edge_labels == frozenset({1, 2})

    def test_content(self):
        assert SkewEdgeTableau(7, 4, frozenset({1, 3})).content == 5
        assert SkewEdgeTableau(2, 0, frozenset()).content == 2
        assert SkewEdgeTableau(3, 3, frozenset()).content == 0

    def test_labels_right(self):
        tableau = SkewEdgeTableau(7, 4, frozenset({1, 3}))
        assert tableau.labels_right(1) == 4
        assert tableau.labels_right(2) == 4
        assert tableau.labels_right(3) == 3
        assert tableau.labels_right(4) == 3
        # a position is an int, never a bool or a float
        for position in (True, 1.5, 3.0):
            with pytest.raises(ValueError):
                SkewEdgeTableau(5, 3, {1, 3}).labels_right(position)

    def test_labels_right_no_labels(self):
        tableau = SkewEdgeTableau(3, 3, frozenset())
        assert all(tableau.labels_right(i) == 0 for i in range(1, 4))

    def test_labels_right_out_of_range(self):
        tableau = SkewEdgeTableau(7, 4, frozenset({1, 3}))
        with pytest.raises(ValueError):
            tableau.labels_right(0)
        with pytest.raises(ValueError):
            tableau.labels_right(5)

    def test_weight_two_labels(self):
        tableau = SkewEdgeTableau(7, 4, frozenset({1, 3}))
        expected = (y_var(1) - y_var(6)) * (y_var(3) - y_var(7))
        assert tableau.weight(PAPER) == expected
        assert tableau.weight(ORACLE) == expected

    def test_weight_three_labels(self):
        tableau = SkewEdgeTableau(7, 4, frozenset({1, 2, 4}))
        expected = (
            (y_var(1) - y_var(7)) * (y_var(2) - y_var(7)) * (y_var(4) - y_var(8))
        )
        assert tableau.weight(PAPER) == expected
        assert tableau.weight(ORACLE) == -expected

    def test_weight_no_labels(self):
        assert SkewEdgeTableau(2, 0, frozenset()).weight(PAPER) == one()
        assert SkewEdgeTableau(2, 0, frozenset()).weight(ORACLE) == one()

    def test_conventions_differ_by_label_parity(self):
        for c, a, b in itertools.product(range(7), range(5), range(5)):
            if a > c:
                continue
            for tableau in enumerate_tableaux(c, a, b):
                sign = (-1) ** len(tableau.edge_labels)
                assert tableau.weight(ORACLE) == sign * tableau.weight(PAPER)

    def test_serialized_form(self):
        tableau = SkewEdgeTableau(7, 4, frozenset({3, 1}))
        assert tableau.to_record() == {"c": 7, "a": 4, "edges": [1, 3]}

    def test_display(self):
        assert str(SkewEdgeTableau(7, 4, frozenset({1, 3}))) == "[e][ ][e][ ][*][*][*]"
        assert str(SkewEdgeTableau(0, 0, frozenset())) == "(empty row)"

    def test_immutable_value(self):
        tableau = SkewEdgeTableau(outer=4, inner=2, edge_labels=[2])
        same = SkewEdgeTableau(4, 2, frozenset({2}))
        assert tableau == same and hash(tableau) == hash(same)
        assert hash(tableau) == hash((4, 2, frozenset({2})))
        assert tableau != SkewEdgeTableau(4, 2, frozenset({1}))
        assert tableau != (4, 2, frozenset({2}))
        assert len({tableau, same}) == 1
        assert repr(tableau) == "SkewEdgeTableau(outer=4, inner=2, edge_labels=frozenset({2}))"
        # setattr and del are refused in test_polynomial, for every value type

    def test_weight_refuses_a_string_convention(self):
        # a string would read as the other orientation, so it is refused
        tableau = SkewEdgeTableau(2, 1, frozenset({1}))
        for bad in ("oracle-consistent", "paper-literal", None):
            with pytest.raises(TypeError, match="convention must be a WeightConvention"):
                tableau.weight(bad)
        assert tableau.weight() == y_var(3) - y_var(1)


class TestEnumerateTableaux:
    def test_two_tableaux(self):
        found = enumerate_tableaux(4, 2, 3)
        assert [sorted(t.edge_labels) for t in found] == [[1], [2]]

    def test_unique_empty_edge_set(self):
        found = enumerate_tableaux(3, 3, 0)
        assert len(found) == 1 and found[0].edge_labels == frozenset()

    def test_support_bound(self):
        assert enumerate_tableaux(5, 1, 2) == []
        assert enumerate_tableaux(2, 1, 0) == []

    def test_empty_row(self):
        found = enumerate_tableaux(0, 0, 0)
        assert len(found) == 1 and found[0].weight(PAPER) == one()

    def test_inner_exceeding_outer(self):
        assert enumerate_tableaux(2, 3, 1) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            enumerate_tableaux(-1, 0, 0)
        with pytest.raises(ValueError):
            enumerate_tableaux(2, 1, -1)
        for bad in ((True, 1, 1), (2, False, 1), (2, 1, True), (2.0, 1, 1), (2, 1, 1.0)):
            with pytest.raises(ValueError, match="must be >= 0"):
                enumerate_tableaux(*bad)

    def test_count_formula(self):
        for c, a, b in itertools.product(range(7), repeat=3):
            if a > c:
                continue
            expected = comb(a, a + b - c) if max(a, b) <= c <= a + b else 0
            assert len(enumerate_tableaux(c, a, b)) == expected

    def test_weights_homogeneous(self):
        # every weight has y-degree a+b-c and uses indices <= a+b+1
        for c, a, b in itertools.product(range(6), range(5), range(5)):
            if a > c:
                continue
            for tableau in enumerate_tableaux(c, a, b):
                weight = tableau.weight(PAPER)
                assert weight.is_homogeneous(a + b - c)
                assert all(j <= a + b + 1 for _, j in weight.variables())


def paper_row_sum(c, a, b):
    """The sum of paper-literal weights over the tableaux of shape c/a
    and content b, tableau by tableau."""
    return sum((t.weight(PAPER) for t in enumerate_tableaux(c, a, b)), zero())


def sign(a, b, c):
    """(-1)**(a + b - c): the paper-literal over the oracle-consistent
    weight of a tableau of shape c/a and content b."""
    return -1 if (a + b - c) % 2 else 1


class TestRowWeightSum:
    def test_matches_termwise_sum(self):
        for c, a, b in itertools.product(range(6), range(4), range(4)):
            if a > c:
                continue
            assert paper_row_sum(c, a, b) == sign(a, b, c) * row_weight_sum(c, a, b)

    def test_in_place_sum_matches_plain_sum(self):
        # the box recursion against the tableau-by-tableau sum: every
        # shape and content up to 10 boxes, the empty ones too, and long
        # rows with up to C(12, 6) = 924 tableaux
        shapes = [
            (c, a, b) for c in range(11) for a in range(c + 2) for b in range(c + 2)
        ]
        shapes += [(c, 12, 12) for c in range(14, 21)]
        for c, a, b in shapes:
            plain = tableau_row_sum(c, a, b, ORACLE)
            assert row_weight_sum(c, a, b) == plain
            if c < 9:
                assert paper_row_sum(c, a, b) == sign(a, b, c) * plain

    def test_degree_is_checked_before_the_recursion(self):
        with pytest.raises(ValueError, match="total degree 300 exceeds"):
            row_weight_sum(300, 300, 300)
        # no tableau, so no weight to check
        assert row_weight_sum(300, 300, 601) == 0
        # the cache holds (2, 1, 1) and (1, 1, 1), which a float or a
        # bool equals, but they are no sizes
        assert row_weight_sum(2, 1, 1) and row_weight_sum(1, 1, 1)
        for bad in ((-1, 0, 0), (2, 1.0, 1), (True, 1, 1)):
            with pytest.raises(ValueError, match="must be >= 0"):
                row_weight_sum(*bad)

    def test_known_value(self):
        expected = y_var(1) + y_var(2) - y_var(4) - y_var(5)
        assert paper_row_sum(4, 2, 3) == expected
        assert sign(2, 3, 4) * row_weight_sum(4, 2, 3) == expected


class TestCpProduct:
    def test_square_of_one_box(self):
        assert cp_product(1, 1) == {1: y_var(2) - y_var(1), 2: one()}
        assert {c: paper_row_sum(c, 1, 1) for c in (1, 2)} == {
            1: y_var(1) - y_var(2),
            2: one(),
        }
        for c, value in cp_product(1, 1).items():
            assert paper_row_sum(c, 1, 1) == sign(1, 1, c) * value

    def test_one_by_two(self):
        assert cp_product(1, 2) == {2: y_var(3) - y_var(1), 3: one()}

    def test_default_convention(self):
        assert DEFAULT_CONVENTION is ORACLE
        assert cp_product(1, 1) == {
            c: sum((t.weight() for t in enumerate_tableaux(c, 1, 1)), zero())
            for c in (1, 2)
        }

    def test_commutative(self):
        for a, b in itertools.combinations(range(1, 5), 2):
            assert cp_product(a, b) == cp_product(b, a)
            for c, value in cp_product(a, b).items():
                assert paper_row_sum(c, a, b) == sign(a, b, c) * value
                assert paper_row_sum(c, a, b) == paper_row_sum(c, b, a)

    def test_product_identity(self):
        # the correctness anchor: chi_a * chi_b = sum_c coeff[c] * chi_c
        # holds exactly under the oracle-consistent orientation
        # parts up to 6 cover every part of the size <= 6 sweeps, whose
        # merged rows the routing walk reads from this table
        for a in range(1, 7):
            for b in range(1, 7):
                chi_a, chi_b = cell_class(a, 1), cell_class(b, 1)
                expansion = zero()
                for c, coefficient in cp_product(a, b).items():
                    expansion = expansion + coefficient * cell_class(c, 1)
                assert chi_a * chi_b == expansion

    def test_support_window(self):
        for a in range(1, 5):
            for b in range(1, 5):
                table = cp_product(a, b)
                assert all(max(a, b) <= c <= a + b for c in table)
                assert all(value for value in table.values())

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            cp_product(-1, 2)


def paper_example_pieces():
    alpha = Composition([3, 2])
    beta = Composition([2, 3])
    gamma = Composition([3, 2, 4])
    iota = (1, 3)
    jota = (2, 3)
    return alpha, beta, gamma, iota, jota


class TestSkylineTableau:
    def build(self, third_row_edges):
        alpha, beta, gamma, iota, jota = paper_example_pieces()
        rows = (
            SkewEdgeTableau(3, 3, frozenset()),
            SkewEdgeTableau(2, 0, frozenset()),
            SkewEdgeTableau(4, 2, frozenset(third_row_edges)),
        )
        return SkylineTableau(gamma, alpha, beta, iota, jota, rows)

    def test_weights(self):
        first, second = self.build({1}), self.build({2})
        assert first.weight(PAPER) == y_var(1) - y_var(4)
        assert second.weight(PAPER) == y_var(2) - y_var(5)
        assert first.weight(ORACLE) == y_var(4) - y_var(1)

    def test_all_empty_edges_weight_one(self):
        alpha = Composition([3, 2])
        skyline = SkylineTableau(
            alpha,
            alpha,
            Composition(),
            (1, 2),
            (),
            (SkewEdgeTableau(3, 3, frozenset()), SkewEdgeTableau(2, 2, frozenset())),
        )
        assert skyline.weight(PAPER) == one()

    def test_images_are_tuples_and_checked(self):
        alpha, beta, gamma, iota, jota = paper_example_pieces()
        skyline = self.build({1})
        listed = SkylineTableau(gamma, alpha, beta, list(iota), list(jota), skyline.rows)
        assert (listed.iota, listed.jota) == (iota, jota) and listed == skyline
        for bad in ((3, 1), (1, 4), (1,), (True, 3)):
            with pytest.raises(ValueError):
                SkylineTableau(gamma, alpha, beta, bad, jota, skyline.rows)

    def test_row_count_checked(self):
        alpha, beta, gamma, iota, jota = paper_example_pieces()
        with pytest.raises(ValueError):
            SkylineTableau(gamma, alpha, beta, iota, jota, ())

    def test_row_shapes_checked(self):
        with pytest.raises(ValueError):
            self.build(set())  # content 2 where the routing demands 3

    def test_immutable_value(self):
        first, again, other = self.build({1}), self.build({1}), self.build({2})
        assert first == again and hash(first) == hash(again) and first != other
        assert repr(first).startswith("SkylineTableau(gamma=Composition([3, 2, 4]), ")
        assert repr(first).endswith(", iota=(1, 3), jota=(2, 3), rows=" + repr(first.rows) + ")")

    def test_rows_kept_as_a_tuple(self):
        alpha, beta, gamma, iota, jota = paper_example_pieces()
        skyline = self.build({1})
        listed = SkylineTableau(gamma, alpha, beta, iota, jota, list(skyline.rows))
        assert type(listed.rows) is tuple
        assert listed == skyline and hash(listed) == hash(skyline)

    def test_weight_refuses_a_string_convention(self):
        skyline = self.build({1})
        for bad in ("paper-literal", "oracle-consistent"):
            with pytest.raises(TypeError, match="convention must be a WeightConvention"):
                skyline.weight(bad)

    def test_serialized_form(self):
        record = self.build({1}).to_record()
        assert record == {
            "gamma": [3, 2, 4],
            "iota": [1, 3],
            "jota": [2, 3],
            "rows": [
                {"c": 3, "a": 3, "edges": []},
                {"c": 2, "a": 0, "edges": []},
                {"c": 4, "a": 2, "edges": [1]},
            ],
        }


class TestEnumerateSkylines:
    def test_paper_census(self):
        alpha, beta, gamma, _, _ = paper_example_pieces()
        census = {}
        for iota in enumerate_injections(2, 3):
            for jota in enumerate_injections(2, 3):
                census[iota, jota] = enumerate_skylines(
                    alpha, beta, gamma, iota, jota
                )
        nonempty = {key: val for key, val in census.items() if val}
        assert list(nonempty) == [((1, 3), (2, 3))]
        skylines = nonempty[(1, 3), (2, 3)]
        assert [s.weight(PAPER) for s in skylines] == [
            y_var(1) - y_var(4),
            y_var(2) - y_var(5),
        ]

    def test_oversized_part_blocks_routing(self):
        # routing alpha_1 = 3 onto the size-2 part leaves row 2 impossible
        alpha, beta, gamma, _, _ = paper_example_pieces()
        iota = (2, 3)
        jota = (2, 3)
        assert enumerate_skylines(alpha, beta, gamma, iota, jota) == []

    def test_uncovered_row_blocks_routing(self):
        alpha, beta, gamma, _, _ = paper_example_pieces()
        iota = (1, 2)
        jota = (2, 3)
        assert enumerate_skylines(alpha, beta, gamma, iota, jota) == []

    def test_covering_required(self):
        alpha = beta = Composition([1])
        gamma = Composition([1, 1])
        iota = jota = (1,)
        assert enumerate_skylines(alpha, beta, gamma, iota, jota) == []

    def test_size_mismatch_rejected(self):
        alpha, beta, gamma, iota, jota = paper_example_pieces()
        with pytest.raises(ValueError):
            enumerate_skylines(Composition([3]), beta, gamma, iota, jota)
        with pytest.raises(ValueError):
            enumerate_skylines(alpha, beta, Composition([3, 2]), iota, jota)

    def test_empty_compositions(self):
        skylines = enumerate_skylines(
            Composition(),
            Composition(),
            Composition(),
            (),
            (),
        )
        assert len(skylines) == 1 and skylines[0].weight(PAPER) == one()

    def test_weights_against_row_product(self):
        alpha = Composition([2, 1])
        beta = Composition([1, 2])
        for gamma in [Composition([2, 1, 2]), Composition([3, 3]), Composition([2, 3])]:
            for iota in enumerate_injections(2, len(gamma)):
                for jota in enumerate_injections(2, len(gamma)):
                    for skyline in enumerate_skylines(alpha, beta, gamma, iota, jota):
                        expected = one()
                        for row in skyline.rows:
                            expected = expected * row.weight(ORACLE)
                        assert skyline.weight(ORACLE) == expected


def test_import_needs_no_dataclasses():
    # the tableau classes are written by hand: importing dataclasses (and
    # inspect under it) would cost every command's start-up
    src = str(Path(tableaux.__file__).resolve().parents[1])
    probe = "import sys, dqsym.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        check=True,
    )
    assert result.stdout.strip() == "[]"
