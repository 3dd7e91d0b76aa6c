"""The independent checker accepts the package's outputs and rejects
corrupted ones.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import io
import itertools
import json
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checker  # noqa: E402
import inputs  # noqa: E402
from dqsym import Composition, product_expand, structure_coefficient  # noqa: E402
from dqsym.cli import main as cli_main  # noqa: E402


def expansion(alpha, beta):
    return checker.expansion_rows(
        product_expand(Composition(alpha), Composition(beta)).to_records()
    )


def table_lines(max_size, max_length):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(
            ["table", "--max-size", str(max_size), "--max-length", str(max_length),
             "--format", "json"]
        )
    assert code == 0
    return out.getvalue().splitlines()


POINTS = checker.Points(7)
PAIR = ((2, 1), (1, 2))


def test_sweep_matches_the_package_order():
    from dqsym import enumerate_compositions

    expected = [
        c.parts for c in enumerate_compositions(3, 4) if c.size() <= 4
    ]
    assert inputs.sweep(4, 3) == expected
    assert len(inputs.certify_pairs()) == 132


def test_double_monomial_matches_the_defining_sum():
    rng = random.Random(3)
    xs = [rng.randint(-50, 50) for _ in range(5)]
    ys = [rng.randint(-50, 50) for _ in range(7)]
    point = checker.Point(xs, ys)
    for parts in [(), (1,), (3,), (2, 1), (1, 3, 2), (2, 2, 1, 1), (1,) * 5]:
        brute = 0
        for indices in itertools.combinations(range(5), len(parts)):
            value = 1
            for part, i in zip(parts, indices):
                for y in ys[:part]:
                    value *= xs[i] - y
            brute += value
        assert point.double_monomial(parts) == brute


def test_shuffles_by_lattice_paths():
    counts = checker.overlapping_shuffles((2,), (1,))
    assert counts == {(3,): 1, (1, 2): 1, (2, 1): 1}
    assert sum(checker.overlapping_shuffles((1,) * 3, (1,) * 3).values()) == 63


def test_known_product_passes():
    # M1 * M1 = M2 + 2 M11 + (y2 - y1) M1
    rows = [
        ((1,), [{"coeff": "-1", "x": [], "y": [[1, 1]]},
                {"coeff": "1", "x": [], "y": [[2, 1]]}]),
        ((2,), [{"coeff": "1", "x": [], "y": []}]),
        ((1, 1), [{"coeff": "2", "x": [], "y": []}]),
    ]
    assert checker.check_pair((1,), (1,), rows, POINTS) == []


def test_package_expansions_pass():
    for alpha, beta in [PAIR, ((1, 1, 1), (2,)), ((3, 1), (1, 1, 2)), ((), (2, 1))]:
        assert checker.check_pair(alpha, beta, expansion(alpha, beta), POINTS) == []


def first_nonconstant(rows):
    for k, (_, records) in enumerate(rows):
        for t, record in enumerate(records):
            if record["y"]:
                return k, t
    raise AssertionError("no term with a y-variable")


def test_rejects_flipped_sign():
    rows = copy.deepcopy(expansion(*PAIR))
    k, t = first_nonconstant(rows)
    record = rows[k][1][t]
    record["coeff"] = str(-int(record["coeff"]))
    errors = checker.check_pair(*PAIR, rows, POINTS)
    assert any("identity fails" in e for e in errors)


def test_rejects_flipped_constant_sign():
    rows = copy.deepcopy(expansion(*PAIR))
    record = rows[-1][1][-1]
    assert not record["y"]
    record["coeff"] = str(-int(record["coeff"]))
    assert any("shadow" in e for e in checker.check_pair(*PAIR, rows, POINTS))


def test_rejects_dropped_gamma():
    rows = expansion(*PAIR)
    k, _ = first_nonconstant(rows)
    errors = checker.check_pair(*PAIR, rows[:k] + rows[k + 1:], POINTS)
    assert errors


def test_rejects_dropped_shuffle():
    rows = expansion(*PAIR)
    errors = checker.check_pair(*PAIR, rows[:-1], POINTS)
    assert any("missing" in e for e in errors)


def test_rejects_swapped_term():
    rows = copy.deepcopy(expansion(*PAIR))
    k = next(k for k, (_, records) in enumerate(rows) if len(records) > 1)
    records = rows[k][1]
    records[0], records[1] = records[1], records[0]
    errors = checker.check_pair(*PAIR, rows, POINTS)
    assert any("canonical order" in e for e in errors)


def test_rejects_swapped_gammas():
    rows = expansion(*PAIR)
    rows[0], rows[1] = rows[1], rows[0]
    assert any("canonical order" in e for e in checker.check_pair(*PAIR, rows, POINTS))


def test_rejects_wrong_degree():
    rows = copy.deepcopy(expansion(*PAIR))
    k, t = first_nonconstant(rows)
    rows[k][1][t]["y"] = [[1, 9]]
    assert any("degree" in e for e in checker.check_pair(*PAIR, rows, POINTS))


def test_table_passes_and_rejects_a_missing_pair():
    lines = table_lines(2, 2)
    assert checker.check_table(lines, 2, 2, POINTS) == []
    pairs = [tuple(map(tuple, (json.loads(l)["alpha"], json.loads(l)["beta"]))) for l in lines]
    dropped = pairs[len(pairs) // 2]
    kept = [l for l, p in zip(lines, pairs) if p != dropped]
    errors = checker.check_table(kept, 2, 2, POINTS)
    assert any("missing" in e and str(list(map(list, dropped))) in e for e in errors)


def test_table_rejects_a_repeated_pair():
    lines = table_lines(2, 2)
    first_pair = lines[0]  # the empty product has a single row
    errors = checker.check_table(lines + [first_pair], 2, 2, POINTS)
    assert any("repeated [[[], []]]" in e for e in errors)


def test_table_rejects_asymmetry():
    lines = table_lines(2, 2)
    records = [json.loads(l) for l in lines]
    k = next(
        k for k, r in enumerate(records)
        if r["alpha"] == [1] and r["beta"] == [1, 1] and len(r["coeff"]) > 1
    )
    # a term-order swap that only this side carries
    records[k]["coeff"][0], records[k]["coeff"][1] = (
        records[k]["coeff"][1], records[k]["coeff"][0]
    )
    errors = checker.check_table([json.dumps(r) for r in records], 2, 2, POINTS)
    assert any("!= c(" in e for e in errors)


def rule_result(index, alpha, beta, length, fraction):
    rows = expansion(alpha, beta)
    candidates = [g for g, _ in rows if len(g) == length]
    gamma = candidates[inputs.gamma_index(fraction, len(candidates))]
    value = structure_coefficient(Composition(alpha), Composition(beta), Composition(gamma))
    return {
        "index": index,
        "alpha": list(alpha),
        "beta": list(beta),
        "expansion": [{"gamma": list(g), "coeff": c} for g, c in rows],
        "gamma": list(gamma),
        "coeff": value.to_records(),
    }


def test_rule_checks_structure_coefficient_against_expansion():
    draws = [((2, 1), (1, 2, 1), 4, 0.7), ((1, 1), (2,), 2, 0.4)]
    results = [rule_result(k, *d) for k, d in enumerate(draws)]
    assert checker.check_rule(results, draws, POINTS) == []
    bad = copy.deepcopy(results)
    bad[0]["coeff"][0]["coeff"] = str(-int(bad[0]["coeff"][0]["coeff"]))
    assert any("differs" in e for e in checker.check_rule(bad, draws, POINTS))
    bad = copy.deepcopy(results)
    bad[1]["gamma"] = [3]
    assert any("seeded draw" in e for e in checker.check_rule(bad, draws, POINTS))


@pytest.mark.parametrize("verified", [False, None])
def test_certify_needs_every_verification_true(verified):
    pairs = [PAIR]
    result = {
        "alpha": list(PAIR[0]),
        "beta": list(PAIR[1]),
        "verified": True,
        "expansion": [{"gamma": list(g), "coeff": c} for g, c in expansion(*PAIR)],
    }
    assert checker.check_certify([result], pairs, POINTS) == []
    result["verified"] = verified
    assert checker.check_certify([result], pairs, POINTS)
