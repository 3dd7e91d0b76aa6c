"""Checks ``dqsym`` outputs without calling any ``dqsym`` arithmetic.

Coefficients arrive as the package's JSON term records
(``{"coeff": "<int>", "x": [[i, e], ...], "y": [[j, e], ...]}``).  For a
product M_alpha * M_beta this module checks:

- the product identity M_alpha M_beta = sum_gamma c_gamma M_gamma, exactly,
  at a seeded point of large integers in the truncation the package
  certifies in (len(alpha) + len(beta) x-variables,
  |alpha| + |beta| + 1 y-variables), each M evaluated by its defining sum;
- the y -> 0 shadow: the constant term of c_gamma is the number of
  overlapping shuffles of alpha and beta giving gamma, counted by walking
  lattice paths, and every such gamma is present;
- that c_gamma is x-free and homogeneous of degree |alpha|+|beta|-|gamma|;
- the canonical orders: gammas by size, length, then parts; terms by
  total degree descending, then the dense exponent vector
  x_1, x_2, ..., y_1, y_2, ... compared lexicographically, larger first.

Every check returns a list of error strings; an empty list means pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

from inputs import gamma_index, sweep

Comp = tuple[int, ...]


def _gamma_key(gamma: Comp):
    return (sum(gamma), len(gamma), gamma)


def _term_key(record: dict, width_x: int, width_y: int):
    xs = [0] * width_x
    ys = [0] * width_y
    for i, e in record["x"]:
        xs[i - 1] = e
    for j, e in record["y"]:
        ys[j - 1] = e
    return (sum(xs) + sum(ys), xs + ys)


def check_term_order(records: list[dict]) -> list[str]:
    """Terms strictly in the canonical order, coefficients nonzero."""
    errors = []
    if not records:
        return errors
    width_x = max((i for r in records for i, _ in r["x"]), default=0)
    width_y = max((j for r in records for j, _ in r["y"]), default=0)
    keys = [_term_key(r, width_x, width_y) for r in records]
    for k in range(1, len(keys)):
        if not keys[k - 1] > keys[k]:
            errors.append(f"terms {k - 1} and {k} out of canonical order")
    if any(int(r["coeff"]) == 0 for r in records):
        errors.append("zero coefficient in term records")
    return errors


def evaluate(records: list[dict], xs: list[int], ys: list[int]) -> int:
    """The polynomial's value at x_i = xs[i-1], y_j = ys[j-1]."""
    total = 0
    for record in records:
        value = int(record["coeff"])
        for i, e in record["x"]:
            value *= xs[i - 1] ** e
        for j, e in record["y"]:
            value *= ys[j - 1] ** e
        total += value
    return total


class Point:
    """One integer point of a truncation, with double monomial values.

    M_alpha = sum over i_1 < ... < i_k of prod_l prod_{j <= a_l} (x_{i_l} - y_j)
    is summed over index tuples by their prefixes: after variable i,
    ``partial[l]`` holds the sum over i_1 < ... < i_l <= i, so one pass
    over the variables covers every tuple once.
    """

    def __init__(self, xs: list[int], ys: list[int]):
        self.xs = xs
        self.ys = ys
        self._cell: dict[tuple[int, int], int] = {}
        self._monomial: dict[Comp, int] = {}

    def cell(self, part: int, i: int) -> int:
        key = (part, i)
        value = self._cell.get(key)
        if value is None:
            value = 1
            x = self.xs[i]
            for y in self.ys[:part]:
                value *= x - y
            self._cell[key] = value
        return value

    def double_monomial(self, parts: Comp) -> int:
        value = self._monomial.get(parts)
        if value is None:
            if max(parts, default=0) > len(self.ys):
                raise ValueError(f"part of {list(parts)} exceeds the y-variables")
            k = len(parts)
            partial = [1] + [0] * k
            for i in range(len(self.xs)):
                for l in range(min(k, i + 1), 0, -1):
                    partial[l] += partial[l - 1] * self.cell(parts[l - 1], i)
            value = partial[k]
            self._monomial[parts] = value
        return value


class Points:
    """Seeded points, one per truncation size, shared by all pairs."""

    def __init__(self, seed: int):
        self.seed = seed
        self._points: dict[tuple[int, int], Point] = {}

    def get(self, n_x: int, n_y: int) -> Point:
        key = (n_x, n_y)
        point = self._points.get(key)
        if point is None:
            rng = random.Random(f"point:{self.seed}:{n_x}:{n_y}")
            draw = lambda: rng.randrange(-(1 << 62), 1 << 62)  # noqa: E731
            point = Point([draw() for _ in range(n_x)], [draw() for _ in range(n_y)])
            self._points[key] = point
        return point


def overlapping_shuffles(alpha: Comp, beta: Comp) -> Counter:
    """Outcomes of all lattice paths with steps A (next part of alpha),
    B (next part of beta) and AB (both, added), with multiplicity."""
    la, lb = len(alpha), len(beta)
    memo: dict[tuple[int, int], Counter] = {}

    def suffixes(k: int, m: int) -> Counter:
        if (k, m) in memo:
            return memo[(k, m)]
        if k == la and m == lb:
            out = Counter({(): 1})
        else:
            out = Counter()
            steps = []
            if k < la:
                steps.append((alpha[k], k + 1, m))
            if m < lb:
                steps.append((beta[m], k, m + 1))
            if k < la and m < lb:
                steps.append((alpha[k] + beta[m], k + 1, m + 1))
            for part, k2, m2 in steps:
                for rest, count in suffixes(k2, m2).items():
                    out[(part,) + rest] += count
        memo[(k, m)] = out
        return out

    return suffixes(0, 0)


def check_pair(
    alpha: Comp,
    beta: Comp,
    rows: list[tuple[Comp, list[dict]]],
    points: Points,
) -> list[str]:
    """Check one product's expansion rows (gamma, coefficient records)."""
    label = f"{list(alpha)} * {list(beta)}"
    errors = []
    gammas = [g for g, _ in rows]
    for k in range(1, len(gammas)):
        if not _gamma_key(gammas[k - 1]) < _gamma_key(gammas[k]):
            errors.append(f"{label}: gammas {k - 1} and {k} out of canonical order")
    if any(p < 1 for g in gammas for p in g):
        errors.append(f"{label}: gamma with a nonpositive part")
    n_x = len(alpha) + len(beta)
    n_y = sum(alpha) + sum(beta) + 1
    shuffles = overlapping_shuffles(alpha, beta)
    for gamma in set(shuffles) - set(gammas):
        errors.append(f"{label}: overlapping shuffle {list(gamma)} missing")
    for gamma, records in rows:
        where = f"{label} -> {list(gamma)}"
        if not records:
            errors.append(f"{where}: zero coefficient listed")
        errors.extend(f"{where}: {e}" for e in check_term_order(records))
        degree = sum(alpha) + sum(beta) - sum(gamma)
        constant = 0
        for r in records:
            if r["x"]:
                errors.append(f"{where}: coefficient involves x")
                break
            if sum(e for _, e in r["y"]) != degree:
                errors.append(f"{where}: term not of degree {degree}")
                break
            if any(j > n_y for j, _ in r["y"]):
                errors.append(f"{where}: y-index outside the truncation")
                break
            if not r["y"]:
                constant = int(r["coeff"])
        if constant != shuffles.get(gamma, 0):
            errors.append(
                f"{where}: y=0 shadow {constant}, expected {shuffles.get(gamma, 0)}"
            )
        if len(gamma) > n_x:
            errors.append(f"{where}: gamma longer than the truncation")
    if errors:
        return errors
    point = points.get(n_x, n_y)
    left = point.double_monomial(alpha) * point.double_monomial(beta)
    right = sum(
        evaluate(records, point.xs, point.ys) * point.double_monomial(gamma)
        for gamma, records in rows
    )
    if left != right:
        errors.append(f"{label}: product identity fails at the seeded point")
    return errors


def expansion_rows(records: list[dict]) -> list[tuple[Comp, list[dict]]]:
    """Rows of an ``Expansion.to_records()`` list."""
    return [(tuple(r["gamma"]), r["coeff"]) for r in records]


def check_certify(results: list[dict], pairs: list, points: Points) -> list[str]:
    """Every verify_expansion call returned True, and every pair's
    product_expand records pass the identity check."""
    errors = []
    if [(tuple(r["alpha"]), tuple(r["beta"])) for r in results] != [
        (tuple(a), tuple(b)) for a, b in pairs
    ]:
        return ["certify results do not match the input pairs"]
    for r in results:
        if r["verified"] is not True:
            errors.append(f"verify_expansion({r['alpha']}, {r['beta']}) was not True")
        errors.extend(
            check_pair(tuple(r["alpha"]), tuple(r["beta"]), expansion_rows(r["expansion"]), points)
        )
    return errors


def check_rule(results: list[dict], draws: list, points: Points) -> list[str]:
    """Each expansion passes the identity check, each gamma comes from its
    stratum, and each structure_coefficient equals the expansion's entry.
    ``results`` holds the draws whose operations did not fail, by index."""
    errors = []
    for r in results:
        alpha, beta, length, fraction = draws[r["index"]]
        if (tuple(r["alpha"]), tuple(r["beta"])) != (alpha, beta):
            errors.append(f"rule: result for {r['alpha']} * {r['beta']} out of place")
            continue
        rows = expansion_rows(r["expansion"])
        errors.extend(check_pair(alpha, beta, rows, points))
        candidates = [g for g, _ in rows if len(g) == length]
        gamma = tuple(r["gamma"])
        if not candidates or gamma != candidates[gamma_index(fraction, len(candidates))]:
            errors.append(f"rule: gamma {list(gamma)} is not the seeded draw")
            continue
        if r["coeff"] != dict(rows)[gamma]:
            errors.append(
                f"rule: structure_coefficient({list(alpha)}, {list(beta)},"
                f" {list(gamma)}) differs from the expansion"
            )
    return errors


def _rows_digest(rows: list[tuple[Comp, list[dict]]]) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def check_table(lines, max_size: int, max_length: int, points: Points) -> list[str]:
    """Check a ``dqsym table --format json`` export, line by line.

    Every (alpha, beta) of the sweep appears exactly once, as one run of
    consecutive lines, in sweep order; each run passes ``check_pair``;
    and c(alpha, beta, gamma) = c(beta, alpha, gamma) record for record.
    """
    comps = sweep(max_size, max_length)
    expected = [(a, b) for a in comps for b in comps]
    errors = []
    seen: list[tuple[Comp, Comp]] = []
    digests: dict[tuple[Comp, Comp], str] = {}

    def close(pair, rows):
        seen.append(pair)
        errors.extend(check_pair(pair[0], pair[1], rows, points))
        digests[pair] = _rows_digest(rows)

    current = None
    rows: list = []
    for line in lines:
        record = json.loads(line)
        pair = (tuple(record["alpha"]), tuple(record["beta"]))
        if pair != current:
            if current is not None:
                close(current, rows)
            current, rows = pair, []
        rows.append((tuple(record["gamma"]), record["coeff"]))
    if current is not None:
        close(current, rows)
    if seen != expected:
        missing = [p for p in expected if p not in digests]
        repeated = [p for p, n in Counter(seen).items() if n > 1]
        errors.append(
            f"table pairs differ from the sweep: {len(seen)} runs for"
            f" {len(expected)} pairs, missing {[list(map(list, p)) for p in missing[:3]]},"
            f" repeated {[list(map(list, p)) for p in repeated[:3]]}"
        )
    for (a, b), digest in digests.items():
        if (b, a) in digests and digests[(b, a)] != digest:
            errors.append(f"table: c({list(a)}, {list(b)}, .) != c({list(b)}, {list(a)}, .)")
    return errors
