"""Compositions, injections, and the overlapping shuffle multiset."""

import math
from collections import Counter

import pytest

from dqsym.compositions import (
    Composition,
    compositions_of_size,
    enumerate_compositions,
    enumerate_injections,
    overlapping_shuffles,
)
from dqsym.qsym import cell_class
from dqsym.tableaux import _row_shapes, cp_product, enumerate_skylines

from oracles import injection_overlapping_shuffles


class TestComposition:
    def test_validation(self):
        with pytest.raises(ValueError):
            Composition([1, 0])
        with pytest.raises(ValueError):
            Composition([-2])
        assert len(Composition()) == 0

    def test_basic_queries(self):
        c = Composition([3, 1, 2])
        assert c.size() == 6
        assert c.max_part() == 3
        assert list(c) == [3, 1, 2]
        assert c[1] == 1
        assert Composition().max_part() == 0

    def test_equality_and_hash(self):
        assert Composition([2, 1]) == Composition([2, 1])
        assert Composition([2, 1]) == (2, 1)
        assert Composition([2, 1]) != Composition([1, 2])
        assert len({Composition([1]), Composition([1]), Composition([2])}) == 2

    def test_serialized_form(self):
        assert Composition([3, 2]).to_list() == [3, 2]
        assert str(Composition([3, 2, 4])) == "[3,2,4]"
        assert str(Composition()) == "[]"

    def test_graded_order(self):
        cs = [Composition(p) for p in [(3,), (1, 1), (2,), (), (1, 2)]]
        assert sorted(cs) == [
            Composition(p) for p in [(), (2,), (1, 1), (3,), (1, 2)]
        ]


class TestCompositionAsTuple:
    """A composition is the tuple of its parts, ordered by the graded
    order rather than lexicographically."""

    def test_every_comparison_is_graded(self):
        cs = enumerate_compositions(3, 3)
        for a in cs:
            for b in cs:
                ka, kb = a.sort_key(), b.sort_key()
                assert (a < b) == (ka < kb)
                assert (a <= b) == (ka <= kb)
                assert (a > b) == (ka > kb)
                assert (a >= b) == (ka >= kb)

    def test_identity_of_a_tuple(self):
        for c in enumerate_compositions(3, 3):
            assert c == c.parts and hash(c) == hash(c.parts)
            assert type(c.parts) is tuple
        assert Composition([1, 2]) != [1, 2]

    def test_slices_and_raw(self):
        c = Composition([3, 1, 2])
        assert type(c[1:]) is tuple and c[1:] == (1, 2)
        raw = Composition._raw((3,))
        assert type(raw) is Composition and raw == Composition([3])

    def test_constructor_errors(self):
        for bad in (0, -1, "1", 1.0, True, False):
            with pytest.raises(ValueError) as excinfo:
                Composition([2, bad])
            assert str(excinfo.value) == f"parts must be positive integers, got {bad!r}"
        assert Composition(p for p in (2, 1)) == Composition([2, 1])
        with pytest.raises(ValueError):
            Composition(p for p in (2, 0))

    def test_immutable(self):
        c = Composition([1])
        with pytest.raises(AttributeError):
            c.parts = (2,)
        with pytest.raises(AttributeError):
            c.extra = 1


class TestEnumerateCompositions:
    def test_small_listings(self):
        assert enumerate_compositions(1, 2) == [
            Composition(),
            Composition([1]),
            Composition([2]),
        ]
        assert enumerate_compositions(0, 5) == [Composition()]
        assert enumerate_compositions(2, 2) == [
            Composition(p)
            for p in [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2)]
        ]

    def test_counts(self):
        for n in range(5):
            for m in range(4):
                cs = enumerate_compositions(n, m)
                assert len(cs) == sum(m**k for k in range(n + 1))
                assert len(set(cs)) == len(cs)

    def test_bounds_respected(self):
        for c in enumerate_compositions(3, 2):
            assert len(c) <= 3
            assert c.max_part() <= 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            enumerate_compositions(-1, 2)


class TestCompositionsOfSize:
    def test_matches_filtered_enumeration(self):
        for max_length in range(6):
            for max_part in range(5):
                every = enumerate_compositions(max_length, max_part)
                for size in range(max_length * max_part + 2):
                    assert compositions_of_size(size, max_length, max_part) == [
                        c for c in every if c.size() == size
                    ]

    def test_long_compositions(self):
        # one part per unit: no recursion, however long
        assert compositions_of_size(1100, 1100, 1) == [Composition([1] * 1100)]
        assert compositions_of_size(5, 4, 1) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            compositions_of_size(-1, 2, 2)


class TestInjections:
    """Injections are tuples of images, checked where they are used."""

    def test_validation(self):
        alpha = Composition([1, 1])
        for images, rows in (([2, 2], 3), ([3, 1], 3), ([0], 3), ([4], 3), ([True], 1)):
            parts = Composition(alpha[: len(images)])
            gamma = Composition([1] * rows)
            with pytest.raises(ValueError, match="images must increase strictly"):
                _row_shapes(gamma, parts, Composition(), tuple(images), ())
            with pytest.raises(ValueError, match="images must increase strictly"):
                enumerate_skylines(parts, Composition(), gamma, images, ())
        with pytest.raises(ValueError, match="images must increase strictly"):
            _row_shapes(Composition([1]), Composition([1]), Composition(), (1.0,), ())

    def test_part_routing(self):
        alpha, beta, gamma = Composition([3, 2]), Composition([1]), Composition([3, 3, 3])
        shapes = _row_shapes(gamma, alpha, beta, (1, 3), (2,))
        assert shapes == [(3, 3, 0), (3, 0, 1), (3, 2, 0)]
        with pytest.raises(ValueError, match="one image per part"):
            _row_shapes(gamma, Composition([1]), beta, (1, 3), (2,))
        with pytest.raises(ValueError, match="one image per part"):
            _row_shapes(gamma, alpha, beta, (1, 3), ())

    def test_enumeration(self):
        images = enumerate_injections(2, 3)
        assert images == [(1, 2), (1, 3), (2, 3)]
        assert (1, 3) in images  # the worked example's iota
        assert enumerate_injections(0, 4) == [()]

    def test_counts(self):
        for n in range(6):
            for l in range(7):
                assert len(enumerate_injections(l, n)) == math.comb(n, l)

    def test_source_above_target_is_empty(self):
        assert enumerate_injections(3, 2) == []


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_compositions(True, 2),
        lambda: enumerate_compositions(2, 1.5),
        lambda: compositions_of_size(2, True, 2),
        lambda: compositions_of_size(2.0, 2, 2),
        lambda: enumerate_injections(True, 2),
        lambda: enumerate_injections(1, 2.0),
        lambda: cell_class(True, 1),
        lambda: cell_class(1.5, 1),
        lambda: cell_class(1, True),
        lambda: cp_product(True, 1),
        lambda: cp_product(1, 1.5),
    ],
)
def test_integer_arguments_validated(call):
    # a bool is not read as 1, even once the row sums of 1 are cached
    cp_product(1, 1)
    with pytest.raises(ValueError):
        call()


def covering_pair_count(la: int, lb: int) -> int:
    """Independent closed form: arrange (la - k) alpha-only rows,
    (lb - k) beta-only rows, and k merged rows, summed over k."""
    total = 0
    for k in range(min(la, lb) + 1):
        n = la + lb - k
        total += math.factorial(n) // (
            math.factorial(k) * math.factorial(la - k) * math.factorial(lb - k)
        )
    return total


class TestOverlappingShuffles:
    def test_single_parts(self):
        counts = overlapping_shuffles(Composition([1]), Composition([1]))
        assert counts == Counter({Composition([1, 1]): 2, Composition([2]): 1})

    def test_unit(self):
        beta = Composition([4, 1])
        assert overlapping_shuffles(Composition(), beta) == Counter({beta: 1})

    def test_absent_outcome(self):
        counts = overlapping_shuffles(Composition([3, 2]), Composition([2, 3]))
        assert counts[Composition([3, 2, 4])] == 0

    def test_size_and_length_windows(self):
        alpha, beta = Composition([2, 1]), Composition([1, 1, 3])
        for gamma in overlapping_shuffles(alpha, beta):
            assert gamma.size() == alpha.size() + beta.size()
            assert max(len(alpha), len(beta)) <= len(gamma) <= len(alpha) + len(beta)

    def test_symmetry_and_total(self):
        compositions = [
            Composition(),
            Composition([1]),
            Composition([2, 1]),
            Composition([1, 1, 2]),
        ]
        for alpha in compositions:
            for beta in compositions:
                counts = overlapping_shuffles(alpha, beta)
                assert counts == overlapping_shuffles(beta, alpha)
                assert sum(counts.values()) == covering_pair_count(len(alpha), len(beta))

    def test_matches_injection_pairs(self):
        # the memoized walk against the injection-pair definition
        compositions = [c for c in enumerate_compositions(5, 5) if c.size() <= 5]
        assert len(compositions) == 32
        for alpha in compositions:
            for beta in compositions:
                assert overlapping_shuffles(alpha, beta) == (
                    injection_overlapping_shuffles(alpha, beta)
                )
