"""The hand-built JSON of coefficient tables: ``RecordsEncoder`` and the
``table`` and ``product`` commands against ``json.dumps`` of the records."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dqsym import cli
from dqsym.compositions import Composition
from dqsym.lrcalc import expansion_records
from dqsym.polynomial import (
    Monomial,
    RecordsEncoder,
    XYPolynomial,
    constant,
    x_var,
    zero,
)
from dqsym.tableaux import WeightConvention

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None)

exponent_pairs = st.dictionaries(
    st.integers(1, 40), st.integers(1, 4), max_size=4
).map(lambda d: tuple(sorted(d.items())))
coefficients = st.one_of(
    st.integers(-5, 5), st.integers(-(2**70), 2**70)
).filter(bool)
polynomials = st.dictionaries(
    st.tuples(exponent_pairs, exponent_pairs), coefficients, max_size=8
).map(lambda terms: XYPolynomial({Monomial(x, y): c for (x, y), c in terms.items()}))

# one encoder for every example, so later examples meet a warm memo
ENCODER = RecordsEncoder()


class TestRecordsEncoder:
    @PROPERTY
    @given(polynomials)
    def test_matches_json_dumps(self, p):
        expected = json.dumps(p.to_records())
        assert ENCODER.encode(p) == expected
        # the second encoding reads the text from the value memo, and
        # equal copies, distinct objects that find their own hashes,
        # must find it there too
        assert ENCODER.encode(p) == expected
        assert ENCODER.encode(XYPolynomial.from_records(p.to_records())) == expected
        assert ENCODER.encode(-(-p)) == expected

    @PROPERTY
    @given(polynomials)
    def test_negation_from_one_encoder(self, p):
        # p and -p have the same monomials and term count
        encoder = RecordsEncoder()
        assert encoder.encode(p) == json.dumps(p.to_records())
        assert encoder.encode(-p) == json.dumps((-p).to_records())

    def test_values_of_equal_hash(self):
        # hash(-1) == hash(-2), and ints that differ by 2**61 - 1 hash
        # alike, so these distinct values collide in hash
        pairs = [
            (constant(-1), constant(-2)),
            (x_var(1) * 3, x_var(1) * (3 + 2**61 - 1)),
        ]
        for p, q in pairs:
            assert hash(p) == hash(q) and p != q
            encoder = RecordsEncoder()
            for value in (p, q, p):
                assert encoder.encode(value) == json.dumps(value.to_records())

    @pytest.mark.parametrize("value", [0, 1, -1, 7, 2**70, -(2**70)])
    def test_zero_and_constants(self, value):
        p = constant(value)
        assert ENCODER.encode(p) == json.dumps(p.to_records())

    def test_fields_of_different_widths(self):
        # one degree, x-parts that are prefixes of one another: the
        # stripped sort key must order them as their zero padding does
        p = XYPolynomial(
            {
                Monomial(((1, 2),)): 1,
                Monomial(((1, 1), (40, 1))): 2,
                Monomial(((1, 1),), ((40, 1),)): 3,
                Monomial(((1, 1),), ((1, 1),)): 4,
                Monomial(((2, 1),), ((1, 1),)): 5,
                Monomial((), ((1, 1), (2, 1))): 6,
                Monomial((), ((2, 2),)): 7,
                Monomial((), ((1, 1),)): 8,
                Monomial(): 9,
            }
        )
        assert RecordsEncoder().encode(p) == json.dumps(p.to_records())

    def test_zero_is_empty_list(self):
        assert RecordsEncoder().encode(zero()) == "[]"


def expected_table_lines(max_size, max_length, convention, explicit_zeros):
    compositions = cli._sweep(max_size, max_length)
    return [
        json.dumps(
            {
                "alpha": alpha.to_list(),
                "beta": beta.to_list(),
                "gamma": gamma.to_list(),
                "coeff": value.to_records(),
            }
        )
        for alpha in compositions
        for beta in compositions
        for gamma, value in expansion_records(alpha, beta, convention, explicit_zeros)
    ]


class TestTableText:
    @pytest.mark.parametrize("explicit_zeros", [False, True])
    @pytest.mark.parametrize("convention", [c.value for c in WeightConvention])
    def test_table_lines_match_json_dumps(self, capsys, convention, explicit_zeros):
        argv = ["table", "--max-size", "4", "--max-length", "3", "--format", "json"]
        argv += ["--convention", convention]
        if explicit_zeros:
            argv.append("--explicit-zeros")
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        expected = expected_table_lines(
            4, 3, WeightConvention(convention), explicit_zeros
        )
        assert lines == expected

    @pytest.mark.parametrize("explicit_zeros", [False, True])
    @pytest.mark.parametrize("convention", [c.value for c in WeightConvention])
    def test_product_matches_json_dumps(self, capsys, convention, explicit_zeros):
        alpha, beta = Composition([1, 2]), Composition([2, 1, 1])
        argv = ["product", "1,2", "2,1,1", "--format", "json"]
        argv += ["--convention", convention]
        if explicit_zeros:
            argv.append("--explicit-zeros")
        assert cli.main(argv) == 0
        rows = expansion_records(
            alpha, beta, WeightConvention(convention), explicit_zeros
        )
        expected = json.dumps(
            [
                {"gamma": gamma.to_list(), "coeff": value.to_records()}
                for gamma, value in rows
            ]
        )
        assert capsys.readouterr().out == expected + "\n"


class TestOneEncoderPerCommand:
    @pytest.fixture
    def encoders(self, monkeypatch):
        """The encoders the CLI builds, each counting the values it
        encodes for real, missing its value memo."""
        built = []

        class Counting(RecordsEncoder):
            def __init__(self):
                super().__init__()
                self.misses = 0
                built.append(self)

            def encode(self, p):
                if p not in self._texts:
                    self.misses += 1
                return super().encode(p)

        monkeypatch.setattr(cli, "RecordsEncoder", Counting)
        return built

    @pytest.mark.parametrize("convention", [c.value for c in WeightConvention])
    def test_table_encodes_each_distinct_value_once(self, capsys, encoders, convention):
        argv = ["table", "--max-size", "4", "--max-length", "3", "--format", "json"]
        assert cli.main(argv + ["--convention", convention]) == 0
        lines = capsys.readouterr().out.splitlines()
        distinct = {json.dumps(json.loads(line)["coeff"]) for line in lines}
        assert len(encoders) == 1
        # each value is encoded once for the whole table, not once per row
        assert encoders[0].misses == len(distinct) < len(lines)

    def test_product_builds_one_encoder(self, capsys, encoders):
        assert cli.main(["product", "1,2", "2,1,1", "--format", "json"]) == 0
        capsys.readouterr()
        assert len(encoders) == 1
