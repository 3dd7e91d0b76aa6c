"""Command-line interface: parsing, rendering, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dqsym import cli
from dqsym.cli import CompositionParseError, main, parse_composition
from dqsym.compositions import Composition
from dqsym.lrcalc import product_expand
from dqsym.polynomial import XYPolynomial, x_var, y_var
from dqsym.qsym import Expansion
from dqsym.tableaux import WeightConvention

from oracles import filtered_sweep


class TestParseComposition:
    def test_valid(self):
        assert parse_composition("3,2,4") == Composition([3, 2, 4])
        assert parse_composition("") == Composition()
        assert parse_composition("10") == Composition([10])
        assert parse_composition("3, 2") == Composition([3, 2])

    def test_bad_token_position(self):
        with pytest.raises(CompositionParseError) as excinfo:
            parse_composition("3,x")
        assert excinfo.value.position == 3
        assert "position 3" in str(excinfo.value)

    def test_bad_first_token(self):
        with pytest.raises(CompositionParseError) as excinfo:
            parse_composition("x")
        assert excinfo.value.position == 1

    def test_empty_token(self):
        with pytest.raises(CompositionParseError) as excinfo:
            parse_composition("3,,2")
        assert excinfo.value.position == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(CompositionParseError):
            parse_composition("-1")
        with pytest.raises(CompositionParseError):
            parse_composition("0")


class TestProductCommand:
    def test_human_output(self, capsys):
        assert main(["product", "1", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "# convention: oracle-consistent"
        assert lines[1] == "M[1] * M[1] ="
        assert lines[2:] == [
            "  M[1] * (-y1 + y2)",
            "  M[2] * (1)",
            "  M[1,1] * (2)",
        ]

    def test_unit_product(self, capsys):
        assert main(["product", "", "4"]) == 0
        out = capsys.readouterr().out
        assert "M[] * M[4] =" in out
        assert "  M[4] * (1)" in out

    def test_paper_coefficient_line(self, capsys):
        assert main(["product", "3,2", "2,3", "--convention", "paper-literal"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "# convention: paper-literal"
        assert "  M[3,2,4] * (y1 + y2 - y4 - y5)" in out

    def test_json_round_trip(self, capsys):
        assert main(["product", "2", "1,1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expansion = Expansion.from_records(payload)
        assert expansion == product_expand(Composition([2]), Composition([1, 1]))
        assert expansion.to_records() == payload

    def test_explicit_zeros(self, capsys):
        argv = ["product", "2", "1", "--format", "json", "--explicit-zeros"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["gamma"] for r in payload] == [[2], [1, 1], [3], [1, 2], [2, 1]]
        assert payload[1]["coeff"] == []


class TestCoeffCommand:
    def test_json(self, capsys):
        argv = [
            "coeff", "3,2", "2,3", "3,2,4",
            "--convention", "paper-literal", "--format", "json",
        ]
        assert main(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["alpha"] == [3, 2]
        assert record["beta"] == [2, 3]
        assert record["gamma"] == [3, 2, 4]
        expected = y_var(1) + y_var(2) - y_var(4) - y_var(5)
        assert XYPolynomial.from_records(record["coeff"]) == expected

    def test_human(self, capsys):
        argv = ["coeff", "3,2", "2,3", "3,2,4", "--convention", "paper-literal"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "coefficient of M[3,2,4] in M[3,2] * M[2,3]: y1 + y2 - y4 - y5" in out


class TestTableauxCommand:
    def test_two_tableaux(self, capsys):
        argv = ["tableaux", "4", "2", "3", "--convention", "paper-literal"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "2 tableau(x) of shape 4/2, content 3"
        assert lines[2] == "  edges {1}: weight y1 - y4"
        assert lines[3] == "  edges {2}: weight y2 - y5"

    def test_paper_weight_line(self, capsys):
        argv = ["tableaux", "7", "4", "5", "--convention", "paper-literal"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "  edges {1,3}: weight y1*y3 - y1*y7 - y3*y6 + y6*y7" in out

    def test_empty_enumeration(self, capsys):
        assert main(["tableaux", "5", "1", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "0 tableau(x) of shape 5/1, content 2"
        assert len(lines) == 2

    def test_json(self, capsys):
        assert main(["tableaux", "4", "2", "3", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["edges"] for r in records] == [[1], [2]]
        weight = XYPolynomial.from_records(records[0]["weight"])
        assert weight == y_var(4) - y_var(1)


class TestShufflesCommand:
    def test_json(self, capsys):
        assert main(["shuffles", "2", "1", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records == [
            {"gamma": [3], "multiplicity": 1},
            {"gamma": [1, 2], "multiplicity": 1},
            {"gamma": [2, 1], "multiplicity": 1},
        ]

    def test_human(self, capsys):
        assert main(["shuffles", "1", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "3 overlapping shuffles of [1] and [1]"
        assert lines[2] == "  [2]: 1"
        assert lines[3] == "  [1,1]: 2"


class TestVerifyCommand:
    def test_paper_convention_failure(self, capsys):
        argv = ["verify", "--max-size", "1", "--convention", "paper-literal"]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert "verified 4 pairs: 3 passed, 1 failed" in out
        assert "first failure: alpha=[1] beta=[1]" in out

    def test_oracle_convention_passes(self, capsys):
        assert main(["verify", "--max-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "verified 16 pairs: 16 passed, 0 failed" in out

    def test_vacuous_pass(self, capsys):
        assert main(["verify", "--max-size", "0"]) == 0
        assert "1 passed, 0 failed" in capsys.readouterr().out

    def test_json_report(self, capsys):
        argv = [
            "verify", "--max-size", "1",
            "--convention", "paper-literal", "--format", "json",
        ]
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pairs"] == 4 and report["passed"] == 3 and report["failed"] == 1
        assert report["first_failure"] == {"alpha": [1], "beta": [1]}


class TestTableCommand:
    def test_json_lines(self, capsys):
        assert main(["table", "--max-size", "1", "--format", "json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == 6
        assert all({"alpha", "beta", "gamma", "coeff"} <= set(r) for r in records)
        last = [r for r in records if r["alpha"] == [1] and r["beta"] == [1]]
        assert [r["gamma"] for r in last] == [[1], [2], [1, 1]]

    def test_explicit_zeros(self, capsys):
        argv = ["table", "--max-size", "2", "--format", "json", "--explicit-zeros"]
        assert main(argv) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        zero_row = [
            r
            for r in records
            if r["alpha"] == [2] and r["beta"] == [1] and r["gamma"] == [1, 1]
        ]
        assert zero_row and zero_row[0]["coeff"] == []

    def test_human_lines(self, capsys):
        assert main(["table", "--max-size", "1"]) == 0
        out = capsys.readouterr().out
        assert "c[[1], [1] -> [1]] = -y1 + y2" in out


class TestSweep:
    def test_matches_filtered_enumeration(self):
        for max_size in range(7):
            for max_length in range(7):
                assert cli._sweep(max_size, max_length) == filtered_sweep(
                    max_size, max_length
                )

    def test_builds_only_what_it_keeps(self, monkeypatch):
        # filtering would build all 12**12 compositions of at most 12
        # parts first; the budget stops such a sweep early
        built = []
        init = Composition.__init__

        def counted(self, parts=()):
            built.append(None)
            assert len(built) <= 2**13, "the sweep builds compositions it drops"
            init(self, parts)

        monkeypatch.setattr(Composition, "__init__", counted)
        assert len(cli._sweep(12, 12)) == 2**12

    def test_rejects_negative_bounds(self):
        for bounds in ((-1, 3), (3, -1), (-1, -1)):
            with pytest.raises(ValueError, match="bounds must be >= 0"):
                cli._sweep(*bounds)


class TestRelationCheck:
    def test_human_report(self, capsys):
        assert main(["relation-check"]) == 0
        out = capsys.readouterr().out
        assert "t^3 - t*z*w + w^2: == 0 (value 0 at x1=x2=1, top degree 6)" in out
        assert "z^3 - t*z*w + w^2: != 0 (value 7 at x1=x2=1, top degree 6)" in out
        assert "identically zero: t^3 - t*z*w + w^2" in out

    def test_json_report(self, capsys):
        assert main(["relation-check", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        by_name = {entry["relation"]: entry for entry in report}
        cubic = by_name["t^3 - t*z*w + w^2"]
        printed = by_name["z^3 - t*z*w + w^2"]
        assert cubic["vanishes"] and cubic["value_at_x1_x2_1"] == 0
        assert not printed["vanishes"] and printed["value_at_x1_x2_1"] == 7
        assert cubic["top_degree"] == printed["top_degree"] == 6


class TestExitCodes:
    def test_parse_error(self, capsys):
        assert main(["product", "1,x", "2"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "(position 3)" in err

    def test_missing_arguments(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["product"])
        assert excinfo.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_closed_stdout(self):
        # a reader that stops after one line, as `head -1` does
        argv = ["table", "--max-size", "6", "--max-length", "3", "--format", "json"]
        src = str(Path(cli.__file__).resolve().parents[1])
        with subprocess.Popen(
            [sys.executable, "-m", "dqsym.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
        ) as child:
            assert child.stdout.readline().startswith(b'{"alpha": [], "beta": []')
            child.stdout.close()
            _, err = child.communicate(timeout=120)
        assert child.returncode == 141
        assert err == b""

    def test_explicit_zeros_only_on_tables(self):
        # only product and table print whole coefficient tables
        for argv in (
            ["coeff", "1", "1", "2"],
            ["tableaux", "4", "2", "3"],
            ["shuffles", "1", "1"],
            ["verify", "--max-size", "1"],
            ["relation-check"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                main([*argv, "--explicit-zeros"])
            assert excinfo.value.code == 2

    def _assert_bad_input(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    def test_non_ascii_digit(self, capsys):
        # "²".isdigit() is true, but it is no part
        err = self._assert_bad_input(["product", "²", "1"], capsys)
        assert "(position 1)" in err

    def test_negative_tableau_shape(self, capsys):
        self._assert_bad_input(["tableaux", "-1", "0", "0"], capsys)

    def test_negative_sweep_bound(self, capsys):
        self._assert_bad_input(["verify", "--max-size", "-1"], capsys)

    def test_packed_degree_limit(self, capsys, monkeypatch):
        def past_the_limit(alpha, beta, convention, explicit_zeros):
            return x_var(1) ** 256

        monkeypatch.setattr(cli, "expansion_records", past_the_limit)
        err = self._assert_bad_input(["product", "1", "1"], capsys)
        assert "packed-exponent limit" in err

    def test_tableau_weight_past_degree_limit(self, capsys):
        # each command meets one tableau with 299 or 300 labelled edges,
        # whose weight would have 2**299 or 2**300 terms
        for argv in (
            ["tableaux", "300", "299", "300"],
            ["product", "300", "300"],
            ["coeff", "300", "300", "300"],
        ):
            err = self._assert_bad_input(argv, capsys)
            assert "packed-exponent limit" in err

    def test_large_parts_of_low_degree(self, capsys):
        # |alpha| + |beta| passes MAX_DEGREE, but every coefficient has
        # degree at most 1: a bound on |alpha| + |beta| alone would
        # wrongly reject these products
        for argv in (
            ["product", "256", "1,1,1,1", "--format", "json"],
            ["product", "300", ",".join(["1"] * 300), "--format", "json"],
        ):
            assert main(argv) == 0
            rows = json.loads(capsys.readouterr().out)
            assert rows
            for row in rows:
                for term in row["coeff"]:
                    assert sum(e for _, e in term["x"] + term["y"]) <= 1

    def test_bad_input_prints_no_stdout(self, capsys):
        # the check fires before the first line, so no partial table
        for argv in (
            ["tableaux", "300", "299", "300"],
            ["tableaux", "300", "299", "300", "--format", "json"],
            ["product", "300", "300"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().out == ""

    def test_convention_values_exposed(self):
        assert {c.value for c in WeightConvention} == {
            "paper-literal",
            "oracle-consistent",
        }
