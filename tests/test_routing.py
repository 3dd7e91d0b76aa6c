"""The memoized routing walk against its definitional oracles.

``product_expand`` and ``structure_coefficient`` walk the routings of
alpha's and beta's parts once per state, by ``routing_outcomes``, the
latter targeted at its gamma; the oracles enumerate every injection
pair, or walk every path separately.  A targeted walk keeps only the
entries whose number of target parts before them the rows still to
fill can give, so it returns at most its target.  Walks that share
their tables through a mapping must agree with fresh walks and leave the
shared values unchanged, and the ``table`` command's mapping must keep
only the tables a later pair can reuse.  The walk checks the degree
limit of the packed exponents from the sizes of its entries.  Each
walk hash-conses its values by memos keyed by the ids of their
operands, which live as long as the tables, so equal coefficients are
one object across a sweep, in either convention; merge weights built afresh by every call,
tables dropped mid-sweep and a collision of the int keys of ``canon``
must still give the oracles' values.  The walk asks ``merges`` once
per pair of parts for as long as its tables live, and never reads
the merge steps of another walk's tables.
"""

from math import comb

import gc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dqsym import cli
from dqsym import compositions as compositions_module
from dqsym.compositions import (
    Composition,
    RoutingTables,
    enumerate_compositions,
    overlapping_shuffles,
    routing_outcomes,
)
from dqsym.lrcalc import product_expand, structure_coefficient, support_candidates
from dqsym.polynomial import XYPolynomial, one, y_var
from dqsym.qsym import Expansion
from dqsym.tableaux import WeightConvention, cp_product

from oracles import (
    injection_overlapping_shuffles,
    injection_structure_coefficient,
    recursive_product_expand,
)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)

# the injection-pair oracle checks C(n, len(alpha)) * C(n, len(beta)) pairs
ORACLE_PAIRS = 20_000


def _within(parts: list[int], size: int = 6) -> Composition:
    """The longest prefix of ``parts`` of size at most ``size``."""
    kept, total = [], 0
    for part in parts:
        if total + part > size:
            break
        kept.append(part)
        total += part
    return Composition(kept)


# ones are drawn often, so long compositions come up
parts = st.one_of(st.just(1), st.integers(1, 6))
compositions = st.lists(parts, max_size=6).map(_within)
conventions = st.sampled_from(list(WeightConvention))


@PROPERTY
@given(compositions, compositions, conventions)
def test_product_expand_matches_recursive_walk(alpha, beta, convention):
    assert product_expand(alpha, beta, convention) == recursive_product_expand(
        alpha, beta, convention
    )


@PROPERTY
@given(compositions, compositions, conventions, st.data())
def test_structure_coefficient_matches_injection_pairs(alpha, beta, convention, data):
    la, lb = len(alpha), len(beta)
    expansion = product_expand(alpha, beta, convention)
    largest = alpha.max_part() + beta.max_part()
    # inside the support, anywhere in the length window, or longer than
    # every routing
    gamma = data.draw(
        st.one_of(
            st.sampled_from(expansion.support()),
            st.lists(
                st.integers(1, largest + 1),
                min_size=max(la, lb),
                max_size=la + lb,
            ).map(Composition),
            st.lists(
                st.integers(1, 3), min_size=la + lb + 1, max_size=la + lb + 2
            ).map(Composition),
        )
    )
    n = len(gamma)
    assume(comb(n, la) * comb(n, lb) <= ORACLE_PAIRS)
    value = structure_coefficient(alpha, beta, gamma, convention)
    assert value == injection_structure_coefficient(alpha, beta, gamma, convention)
    assert value == expansion[gamma]


def test_paper_literal_matches_per_tableau_oracles():
    # the walks compute oracle-consistent and sign each coefficient on the
    # way out; both oracles sum paper-literal tableau weights themselves
    paper = WeightConvention.PAPER_LITERAL
    sweep = [c for c in enumerate_compositions(3, 4) if c.size() <= 4]
    for alpha in sweep:
        for beta in sweep:
            expansion = product_expand(alpha, beta, paper)
            assert expansion == recursive_product_expand(alpha, beta, paper)
            for gamma in expansion.support():
                assert structure_coefficient(
                    alpha, beta, gamma, paper
                ) == injection_structure_coefficient(alpha, beta, gamma, paper)


def test_long_inputs_need_no_recursion():
    # a walk of 1,100 steps, past the interpreter's recursion limit
    long = Composition([1] * 1100)
    assert product_expand(long, Composition()) == Expansion({long: one()})
    assert structure_coefficient(long, Composition(), long) == one()
    assert not structure_coefficient(long, Composition(), Composition([1] * 1099))


def _size_at_most_4():
    return [c for c in enumerate_compositions(4, 4) if c.size() <= 4]


def test_expansion_never_multiplies_by_a_unit_merge(monkeypatch):
    sweep = _size_at_most_4()
    # the sweep meets 16 unit merges
    unit_merges = [
        weight
        for a in range(1, 5)
        for b in range(1, 5)
        for weight in cp_product(a, b).values()
        if weight == 1
    ]
    assert len(unit_merges) == 16
    # the walk multiplies terms dicts by the one helper compositions binds
    operands = []
    mul_terms = compositions_module._mul_terms

    def recording_terms(a, b):
        operands.append((a, b))
        return mul_terms(a, b)

    monkeypatch.setattr(compositions_module, "_mul_terms", recording_terms)
    for alpha in sweep:
        for beta in sweep:
            # the untargeted walk, and a targeted one per gamma
            for gamma in product_expand(alpha, beta).support():
                structure_coefficient(alpha, beta, gamma)
    assert operands
    # by value, not identity: a unit weight steps without a product, and
    # a unit value gives the weight itself, so no operand is the unit
    unit = one().terms
    for pair in operands:
        assert not any(p == unit for p in pair)


def test_equal_coefficients_are_one_object():
    # the walk hash-conses its values: 1,469 coefficients, 36 values
    ones = Composition([1] * 7)
    values = list(product_expand(ones, ones).coeffs.values())
    assert len(values) == 1469
    assert len(set(values)) == 36
    assert len({id(value) for value in values}) == 36


def fresh_merges(a, b):
    # cp_product's weights, built anew on every call
    return {
        c: XYPolynomial._raw(dict(weight.terms))
        for c, weight in cp_product(a, b).items()
    }


def test_fresh_merge_weights_match_oracles():
    # the walk's memos are keyed by the ids of their operands, so weights
    # built anew by every merges call must not alias one another
    sweep = _size_at_most_4()
    for alpha in sweep:
        for beta in sweep:
            outcomes = routing_outcomes(alpha, beta, fresh_merges)
            expected = recursive_product_expand(alpha, beta)
            assert {
                parts: value for parts, value in outcomes.items() if value
            } == {tuple(gamma): value for gamma, value in expected.coeffs.items()}
            for gamma in expected.support():
                targeted = routing_outcomes(alpha, beta, fresh_merges, target=gamma)
                assert targeted[tuple(gamma)] == injection_structure_coefficient(
                    alpha, beta, gamma
                )


class TestTargetedWalk:
    # a state (k, m) keeps an entry only if the rows before it, which
    # route alpha[:k] and beta[:m], can number the target parts before it
    ONES = Composition([1] * 4), Composition([1] * 6), Composition([1] * 8)

    @pytest.mark.parametrize("merges", [cp_product, fresh_merges])
    def test_walk_returns_at_most_its_target(self, merges):
        sweep = _size_at_most_4()
        for alpha in sweep:
            for beta in sweep:
                too_long = Composition([1] * (len(alpha) + len(beta) + 1))
                for gamma in support_candidates(alpha, beta) + [too_long]:
                    outcomes = routing_outcomes(alpha, beta, merges, target=gamma)
                    assert set(outcomes) <= {tuple(gamma)}
                    for value in outcomes.values():
                        assert value == injection_structure_coefficient(
                            alpha, beta, gamma
                        )

    def test_walk_drops_outcomes_its_rows_cannot_complete(self):
        # the outcomes (1^7) and (1^6) end the target too, but no row is
        # left to fill the one or two target parts before them
        alpha, beta, gamma = self.ONES
        outcomes = routing_outcomes(alpha, beta, cp_product, target=gamma)
        assert list(outcomes) == [tuple(gamma)]
        assert outcomes[tuple(gamma)] == injection_structure_coefficient(
            alpha, beta, gamma
        )

    def test_walk_builds_only_completable_entries(self, monkeypatch):
        # keeping every suffix that ends the target takes 31 products
        # and 80 sums; the entries the rows can complete take 18 and 45
        counts = {"mul": 0, "add": 0}
        mul_terms, add_terms = compositions_module._mul_terms, compositions_module._add_terms

        def counting_mul(a, b):
            counts["mul"] += 1
            return mul_terms(a, b)

        def counting_add(a, b):
            counts["add"] += 1
            return add_terms(a, b)

        monkeypatch.setattr(compositions_module, "_mul_terms", counting_mul)
        monkeypatch.setattr(compositions_module, "_add_terms", counting_add)
        alpha, beta, gamma = self.ONES
        routing_outcomes(alpha, beta, cp_product, target=gamma)
        assert counts["mul"] <= 18
        assert counts["add"] <= 45


def _asking(merges=cp_product):
    # merges, with the list of the (a, b) it is asked for
    asked = []

    def counting(a, b):
        asked.append((a, b))
        return merges(a, b)

    return asked, counting


def _nonzero(outcomes):
    return {parts: value for parts, value in outcomes.items() if value}


def _expected(alpha, beta):
    return {
        tuple(gamma): value
        for gamma, value in recursive_product_expand(alpha, beta).coeffs.items()
    }


class TestMergeMemo:
    # parts repeat, so the walk's 25 merge states meet 4 pairs (a, b)
    ALPHA, BETA = Composition([1, 2, 1, 1, 2]), Composition([1, 1, 2, 1, 2])
    PAIRS = {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_walk_asks_each_merge_once(self):
        asked, merges = _asking()
        outcomes = routing_outcomes(self.ALPHA, self.BETA, merges)
        assert sorted(asked) == sorted(self.PAIRS)
        assert _nonzero(outcomes) == _expected(self.ALPHA, self.BETA)

    def test_shared_tables_ask_each_merge_once_in_total(self):
        # the memo lives as long as the tables: a pair (a, b) met by an
        # earlier walk is not asked for again, whatever its suffixes
        asked, merges = _asking(fresh_merges)
        sweep = _size_at_most_4()
        tables = RoutingTables()
        for alpha in sweep:
            for beta in sweep:
                outcomes = routing_outcomes(alpha, beta, merges, tables)
                assert _nonzero(outcomes) == _expected(alpha, beta)
        assert sorted(asked) == sorted(set(asked))
        assert set(asked) == {(a, b) for a in range(1, 5) for b in range(1, 5)}
        assert set(tables.merged) == set(asked)

    def test_targeted_walk_asks_each_merge_once_and_keeps_no_tables(self):
        asked, merges = _asking()
        tables = RoutingTables()
        expansion = product_expand(self.ALPHA, self.BETA)
        gamma = max(expansion.support(), key=len)
        outcomes = routing_outcomes(self.ALPHA, self.BETA, merges, tables, gamma)
        assert sorted(asked) == sorted(self.PAIRS)
        assert outcomes[tuple(gamma)] == expansion[gamma]
        assert outcomes[tuple(gamma)] == injection_structure_coefficient(
            self.ALPHA, self.BETA, gamma
        )
        assert not tables and not tables.merged
        assert list(tables.canon.values()) == [one()]

    def test_memo_is_per_tables(self):
        # walks of two merges that meet the same pairs (a, b) with other
        # weights, in turn: no walk reads another's merge steps
        alpha, beta = self.ALPHA, self.BETA
        for _ in range(2):
            assert _nonzero(routing_outcomes(alpha, beta, cp_product)) == (
                _expected(alpha, beta)
            )
            assert overlapping_shuffles(alpha, beta) == (
                injection_overlapping_shuffles(alpha, beta)
            )


def test_walk_checks_the_degree_limit():
    # merges(a, b)[c] has degree a + b - c, as the walk requires; the
    # outcome (200, 56) of merged rows has degree 200 + 56 = 256
    def merges(a, b):
        return {max(a, b): y_var(1) ** min(a, b)}

    with pytest.raises(ValueError, match="total degree 256 exceeds"):
        routing_outcomes((200, 56), (200, 56), merges)
    with pytest.raises(ValueError, match="total degree 256 exceeds"):
        routing_outcomes((200, 56), (200, 56), merges, target=(200, 56))
    outcomes = routing_outcomes((200, 55), (200, 55), merges)
    assert outcomes[200, 55] == y_var(1) ** 255
    assert routing_outcomes((200, 55), (200, 55), merges, target=(200, 55)) == {
        (200, 55): y_var(1) ** 255
    }


def _suffix_pairs(alpha, beta):
    return {
        (tuple(alpha[k:]), tuple(beta[m:]))
        for k in range(len(alpha) + 1)
        for m in range(len(beta) + 1)
    }


class TestSharedTables:
    def test_walk_offers_each_table_under_its_suffix_pair(self):
        alpha, beta = Composition([2, 1, 3]), Composition([1, 2])
        tables = RoutingTables()
        outcomes = routing_outcomes(alpha, beta, cp_product, tables)
        assert set(tables) == _suffix_pairs(alpha, beta)
        assert tables[tuple(alpha), tuple(beta)] is outcomes
        for (u, v), table in tables.items():
            assert table == routing_outcomes(u, v, cp_product)

    def test_walk_reads_known_tables_without_stepping(self):
        alpha, beta = Composition([2, 1]), Composition([1, 3])
        merged = []

        def merges(a, b):
            merged.append((a, b))
            return cp_product(a, b)

        tables = RoutingTables()
        first = routing_outcomes(alpha, beta, merges, tables)
        assert merged
        merged.clear()
        assert routing_outcomes(alpha, beta, merges, tables) is first
        assert not merged

    def test_shared_mapping_matches_fresh_walks(self):
        # sweep order, so later pairs read the tables of earlier ones;
        # the tables are oracle-consistent, so one mapping serves both
        # conventions
        sweep = cli._sweep(5, 3)
        tables = RoutingTables()
        for alpha in sweep:
            for beta in sweep:
                for convention in WeightConvention:
                    shared = product_expand(alpha, beta, convention, tables)
                    assert shared == product_expand(alpha, beta, convention)

    def test_sweep_tables_match_fresh_walks(self):
        sweep = cli._sweep(5, 3)
        tables = cli._SweepTables(5, 3)
        for alpha in sweep:
            tables.start_row(alpha)
            for beta in sweep:
                shared = product_expand(alpha, beta, tables=tables)
                assert shared == product_expand(alpha, beta)

    def test_walks_never_mutate_shared_tables(self):
        # a walk never mutates a value; the values of a shared table
        # are other walks' results
        sweep = cli._sweep(5, 3)
        tables = cli._SweepTables(5, 3)
        for alpha in sweep:
            tables.start_row(alpha)
            for beta in sweep:
                product_expand(alpha, beta, tables=tables)

        def snapshot():
            return {
                pair: {suffix: dict(value.terms) for suffix, value in table.items()}
                for pair, table in list(tables.items())
            }

        before = snapshot()
        assert before
        for alpha in sweep:
            for beta in sweep:
                product_expand(alpha, beta, tables=tables)
        after = snapshot()
        assert {pair: after[pair] for pair in before} == before

    def test_table_command_keeps_only_reusable_tables(self, monkeypatch, capsys):
        # the memory plan: a kept table either has two suffixes that can
        # recur in a later row, or belongs to the last row
        seen = []
        records = cli.expansion_records

        def recording(*args, tables, **kwargs):
            seen.append(tables)
            return records(*args, tables=tables, **kwargs)

        monkeypatch.setattr(cli, "expansion_records", recording)
        argv = ["table", "--max-size", "6", "--max-length", "3", "--format", "json"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        sweep = cli._sweep(6, 3)
        assert len(seen) == len(sweep) ** 2
        tables = seen[0]
        assert all(t is tables for t in seen)

        def recurs(parts):
            return len(parts) < 3 and sum(parts) < 6

        last = sweep[-1].parts
        assert not recurs(last)
        walked = set().union(*(_suffix_pairs(a, b) for a in sweep for b in sweep))
        reusable = {(u, v) for u, v in walked if recurs(u) and recurs(v)}
        last_row = {(u, v) for u, v in walked if u == last and recurs(v)}
        assert set(tables) == reusable | last_row
        assert len(reusable) == 256

    def test_sweep_coefficients_are_one_object(self):
        # the memos live as long as the tables, so equal coefficients of
        # different pairs are one object, in either convention: a
        # paper-literal sign is memoized beside them
        sweep = cli._sweep(5, 3)
        for convention in WeightConvention:
            tables = cli._SweepTables(5, 3)
            values = []
            for alpha in sweep:
                tables.start_row(alpha)
                for beta in sweep:
                    expansion = product_expand(alpha, beta, convention, tables)
                    values.extend(expansion.coeffs.values())
            assert len(set(values)) > 1
            assert len({id(value) for value in values}) == len(set(values))

    def test_canon_collision_keeps_values_canonical(self):
        # an int key of canon that holds different terms: the value the
        # walk builds is keyed by its frozenset, and the seeded object is
        # never returned
        built = cp_product(1, 1)[1]
        seeded = y_var(7) - y_var(3)
        assert seeded != built
        sweep = _size_at_most_4()
        tables = RoutingTables()
        tables.canon[hash(frozenset(built.terms.items()))] = seeded
        for alpha in sweep:
            for beta in sweep:
                shared = product_expand(alpha, beta, tables=tables)
                assert shared == product_expand(alpha, beta)
                assert all(value is not seeded for value in shared.coeffs.values())
        assert frozenset(built.terms.items()) in tables.canon

    def test_dropped_tables_never_reuse_an_id(self):
        # weights built anew by every merges call die at once unless
        # interned, and start_row drops tables; collecting after every
        # drop gives freed ids to new objects, which must not alias a
        # memo entry
        sweep = cli._sweep(5, 3)
        tables = cli._SweepTables(5, 3)
        for alpha in sweep:
            tables.start_row(alpha)
            gc.collect()
            for beta in sweep:
                shared = routing_outcomes(alpha, beta, fresh_merges, tables)
                assert shared == routing_outcomes(alpha, beta, cp_product)
