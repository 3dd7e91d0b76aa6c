"""Independent brute-force routes used to cross-check the library.

The evaluation helpers and the tuple-monomial kernel call nothing of
the package's arithmetic: polynomials are read out through their
serialized records and evaluated with plain integer loops, or
multiplied with the tuple-monomial kernel, so agreement with the
library is a genuine two-route check rather than a tautology.  The
routing oracles enumerate differently from the library's memoized walk
(all injection pairs, or one recursive walk per path) and share its
polynomial arithmetic, which the tests check on their own; each row
sums its per-tableau weights in the requested convention itself, where
the library sums oracle-consistent rows and signs at the end.  The
support bounds and sweep oracles filter every composition within the
bounds.  The peeling expansion rewrites a polynomial in the M basis by
subtracting double monomials degree by degree, where the library reads
the expansion off cell coordinates.  The window test restricts a
polynomial to every window of x-variables by substitution, where the
library compares the coordinates of placements.  The product route
certifies a coefficient table by multiplying two whole double
monomials in the truncation ``for_product`` and expanding the product
with ``expand_in_M``, where the library reads the product's cell
coordinates off one-variable products.  The placements route builds
every cell of the product in one dict, with no value shared, from the
one-variable oracle, and regroups the cells by gamma and placement
(``qsym._placements``), where the library shares values, steps the
last x-position inside its check and counts the matched cells.  The
one-variable oracle reads phi_a * phi_b off the two expanded cell
classes, where the library steps through cell coordinates one linear
factor at a time.  The row weight sum oracle adds the weights of the
tableaux one by one, where the library steps a recursion over boxes.
"""

import itertools
import random
from collections import Counter
from functools import lru_cache

from dqsym import lrcalc
from dqsym.compositions import Composition, enumerate_compositions, enumerate_injections
from dqsym.lrcalc import product_expand
from dqsym.polynomial import (
    XYPolynomial,
    _add_into,
    _cell_coordinates,
    _check_degree,
    _masks,
    _mul_terms,
    _width,
    _x_free_key,
    one,
    x_var,
    y_var,
    zero,
)
from dqsym.qsym import (
    Expansion,
    NotInSpan,
    TruncationContext,
    TruncationTooSmall,
    _check_variables,
    _placements,
    cell_class,
    double_monomial,
    expand_in_M,
)
from dqsym.tableaux import DEFAULT_CONVENTION, enumerate_tableaux


def eval_poly(p, xs: dict[int, int], ys: dict[int, int]) -> int:
    """Evaluate a polynomial at integer points, straight off its records."""
    total = 0
    for record in p.to_records():
        value = int(record["coeff"])
        for index, exponent in record["x"]:
            value *= xs[index] ** exponent
        for index, exponent in record["y"]:
            value *= ys[index] ** exponent
        total += value
    return total


def sample_points(n_x: int, n_y: int, count: int, seed: int = 0):
    """Deterministic integer evaluation points, spread enough to separate
    distinct polynomials of the degrees used in these tests."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        xs = {i: rng.randint(-9, 9) for i in range(1, n_x + 1)}
        ys = {j: rng.randint(-9, 9) for j in range(1, n_y + 1)}
        out.append((xs, ys))
    return out


def eval_double_monomial(alpha, n_x: int, xs: dict[int, int], ys: dict[int, int]) -> int:
    """Direct evaluation of the defining sum, no polynomial algebra."""
    parts = list(alpha)
    total = 0
    for indices in itertools.combinations(range(1, n_x + 1), len(parts)):
        value = 1
        for part, i in zip(parts, indices):
            for j in range(1, part + 1):
                value *= xs[i] - ys[j]
        total += value
    return total


def brute_monomial_qsym_terms(alpha, n_x: int) -> dict[tuple, int]:
    """Monomial quasisymmetric polynomial as a raw exponent-map dict."""
    parts = list(alpha)
    terms: dict[tuple, int] = {}
    for indices in itertools.combinations(range(1, n_x + 1), len(parts)):
        key = tuple(sorted(zip(indices, parts)))
        terms[key] = terms.get(key, 0) + 1
    return terms


def poly_x_terms(p) -> dict[tuple, int]:
    """Extract a pure-x polynomial's exponent map from its records."""
    terms: dict[tuple, int] = {}
    for record in p.to_records():
        assert record["y"] == []
        terms[tuple((i, e) for i, e in record["x"])] = int(record["coeff"])
    return terms


# The tuple-monomial kernel: a monomial is a pair (x pairs, y pairs) of
# sorted (index, exponent) tuples and a polynomial a dict of such pairs
# to nonzero coefficients.  The package packs monomials into ints; this
# is the representation it replaced, kept as the definitional route.


def merge_exponents(a: tuple, b: tuple) -> tuple:
    """Merge two sorted exponent tuples, adding exponents on shared indices."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        ia, ea = a[i]
        ib, eb = b[j]
        if ia == ib:
            out.append((ia, ea + eb))
            i += 1
            j += 1
        elif ia < ib:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def tuple_product(a: dict, b: dict) -> dict:
    """Product of two tuple-monomial term maps."""
    out: dict = {}
    for (ax, ay), ca in a.items():
        for (bx, by), cb in b.items():
            m = (merge_exponents(ax, bx), merge_exponents(ay, by))
            out[m] = out.get(m, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def tuple_sum(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign * b for tuple-monomial term maps."""
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def canonical_key(monomial: tuple):
    """Ascending key of the canonical order: higher total degree first,
    then the exponent vector along x_1, x_2, ..., y_1, y_2, ..., higher
    exponent on an earlier variable first."""
    x, y = monomial
    degree = sum(e for _, e in x) + sum(e for _, e in y)
    return (-degree, tuple((0, i, -e) for i, e in x) + tuple((1, j, -e) for j, e in y))


def tuple_records(terms: dict) -> list[dict]:
    """The records ``to_records`` should write for a tuple term map."""
    return [
        {
            "coeff": str(terms[m]),
            "x": [[i, e] for i, e in m[0]],
            "y": [[j, e] for j, e in m[1]],
        }
        for m in sorted(terms, key=canonical_key)
    ]


# Routing oracles: the structure coefficient and the overlapping shuffles
# by their injection-pair definitions, and the product expansion by one
# recursive walk per routing path, nothing shared between paths.  Row
# sums are kept per (shape, content, convention) across the suite.


@lru_cache(maxsize=None)
def tableau_row_sum(outer, inner, content, convention):
    """The sum of ``weight(convention)`` over the tableaux of shape
    outer/inner and content ``content``."""
    tableaux = enumerate_tableaux(outer, inner, content)
    return sum((t.weight(convention) for t in tableaux), zero())


def injection_structure_coefficient(alpha, beta, gamma, convention=DEFAULT_CONVENTION):
    """Sum over every covering pair of order-preserving injections of
    the product of the rows' weight sums."""
    n = len(gamma)
    total = zero()
    full = set(range(1, n + 1))
    for iota in enumerate_injections(len(alpha), n):
        for jota in enumerate_injections(len(beta), n):
            if set(iota) | set(jota) != full:
                continue
            inner, content = dict(zip(iota, alpha)), dict(zip(jota, beta))
            pair_total = one()
            for i in range(1, n + 1):
                row_sum = tableau_row_sum(
                    gamma[i - 1], inner.get(i, 0), content.get(i, 0), convention
                )
                if not row_sum:
                    pair_total = zero()
                    break
                pair_total = pair_total * row_sum
            total = total + pair_total
    return total


def recursive_product_expand(alpha, beta, convention=DEFAULT_CONVENTION):
    """The expansion of M_alpha * M_beta, one recursive walk per path."""
    la, lb = len(alpha), len(beta)
    coeffs = {}

    def walk(k, m, parts, weight):
        if k == la and m == lb:
            gamma = Composition(parts)
            merged = coeffs.get(gamma)
            coeffs[gamma] = weight if merged is None else merged + weight
            return
        if k < la:
            walk(k + 1, m, parts + [alpha[k]], weight)
        if m < lb:
            walk(k, m + 1, parts + [beta[m]], weight)
        if k < la and m < lb:
            a, b = alpha[k], beta[m]
            for c in range(max(a, b), a + b + 1):
                row_sum = tableau_row_sum(c, a, b, convention)
                if row_sum:
                    walk(k + 1, m + 1, parts + [c], weight * row_sum)

    walk(0, 0, [], one())
    return Expansion(coeffs)


def injection_overlapping_shuffles(alpha, beta):
    """Overlapping shuffles counted over every covering injection pair:
    the i-th part sums the parts of alpha and beta routed to i."""
    la, lb = len(alpha), len(beta)
    counts = Counter()
    for n in range(max(la, lb), la + lb + 1):
        full = set(range(1, n + 1))
        for iota in enumerate_injections(la, n):
            for jota in enumerate_injections(lb, n):
                if set(iota) | set(jota) != full:
                    continue
                inner, content = dict(zip(iota, alpha)), dict(zip(jota, beta))
                counts[
                    Composition(inner.get(i, 0) + content.get(i, 0) for i in range(1, n + 1))
                ] += 1
    return counts


# The support bounds of a product, by filtering every composition within
# the length and part bounds.


def filtered_support_candidates(alpha, beta):
    """The support bounds by their definition: every composition within
    the length and part bounds, kept when its size lies in the window."""
    lower = max(alpha.size(), beta.size())
    upper = alpha.size() + beta.size()
    return [
        gamma
        for gamma in enumerate_compositions(
            len(alpha) + len(beta), alpha.max_part() + beta.max_part()
        )
        if lower <= gamma.size() <= upper
    ]


# The CLI's sweep, by filtering every composition within the part and
# length bounds.


def filtered_sweep(max_size, max_length):
    """The compositions of size at most ``max_size`` and length at most
    ``max_length``, by filtering all max_size**k compositions of each
    length k <= max_length."""
    return [
        c
        for c in enumerate_compositions(max_length, max_size)
        if c.size() <= max_size
    ]


# The M-expansion by peeling: read the coefficients of the minimal-index
# leading monomials at the top x-degree, subtract, repeat.  The residual
# is a plain packed terms dict, peeled in place.


def subtract_product(terms: dict[int, int], a: XYPolynomial, b: XYPolynomial) -> None:
    """terms -= a * b in place, on packed terms, without building a * b."""
    if not a.terms or not b.terms:
        return
    _check_degree(max(k & 255 for k in a.terms) + max(k & 255 for k in b.terms))
    a, b = a.terms, b.terms
    if len(a) > len(b):
        a, b = b, a
    get = terms.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            v = get(k, 0) - ca * cb
            if v:
                terms[k] = v
            else:
                del terms[k]


def _max_x_degree(terms: dict[int, int]) -> int:
    return max((key >> 8 & 255 for key in terms), default=-1)


def leading_x_coefficients(p: XYPolynomial) -> dict[tuple[int, ...], XYPolynomial]:
    """Coefficients of the x-monomials x_1^{e_1} ... x_k^{e_k}.

    Keyed by the exponent tuple (e_1, ..., e_k), every e_i >= 1, the
    x-free part under the key (); each value collects the terms of
    ``p`` whose x-part is exactly that x-monomial, with the x-part
    removed.  One pass over the terms.
    """
    x_mask, y_mask = _masks(_width(p.terms))
    exponents_of: dict[int, tuple[int, ...] | None] = {}
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for key, coefficient in p.terms.items():
        x_part = key & x_mask
        if x_part in exponents_of:
            exponents = exponents_of[x_part]
        else:
            xs = x_part.to_bytes(_width((x_part,)), "little")[2::2]
            exponents = None if 0 in xs else tuple(xs)
            exponents_of[x_part] = exponents
        if exponents is not None:
            group = groups.get(exponents)
            if group is None:
                group = groups[exponents] = {}
            group[_x_free_key(key, y_mask)] = coefficient
    return {e: XYPolynomial._raw(group) for e, group in groups.items()}


def peeling_expand_in_M(p, ctx):
    """Write ``p`` as a Z[y]-combination of double monomial functions by
    peeling the residual from the top x-degree down.

    At degree d every composition gamma with |gamma| = d present in the
    residual shows up through its minimal-index leading monomial
    x_1^{g_1}...x_k^{g_k}, whose coefficient is subtracted times M_gamma
    in place.  The remaining x-free part, if any, is the coefficient of
    the empty composition.  Raises NotInSpan when a round fails to lower
    the top x-degree or needs a composition outside the truncation.
    """
    _check_variables(p, ctx)
    coeffs = {}
    residual = dict(p.terms)
    degree = _max_x_degree(residual)
    while residual:
        if degree == 0:
            coeffs[Composition()] = XYPolynomial._raw(residual)
            break
        top = {k: c for k, c in residual.items() if k >> 8 & 255 == degree}
        found = leading_x_coefficients(XYPolynomial._raw(top))
        if not found:
            raise NotInSpan(
                f"no leading monomial at x-degree {degree}; not in the span"
            )
        for parts in sorted(found):
            gamma = Composition(parts)
            try:
                basis = double_monomial(gamma, ctx)
            except TruncationTooSmall as exc:
                raise NotInSpan(
                    f"expansion needs {gamma}, outside the truncation {ctx!r}"
                ) from exc
            subtract_product(residual, found[parts], basis)
            coeffs[gamma] = found[parts]
        new_degree = _max_x_degree(residual)
        if new_degree >= degree:
            raise NotInSpan(
                f"top x-degree stuck at {degree}; polynomial is not quasisymmetric"
            )
        degree = new_degree
    return Expansion(coeffs)


# The product route: certification by multiplying whole double monomials.


def for_product(alpha, beta) -> TruncationContext:
    """A truncation large enough to certify the product expansion.

    len(alpha) + len(beta) x-variables keep the double monomials of
    every composition in the product's support independent, and
    |alpha| + |beta| + 1 y-variables cover every y-index a structure
    coefficient can mention.
    """
    return TruncationContext(len(alpha) + len(beta), alpha.size() + beta.size() + 1)


def product_route_verify(alpha, beta, convention=DEFAULT_CONVENTION) -> bool:
    """Whether ``expand_in_M`` of M_alpha * M_beta, expanded exactly in
    ``for_product(alpha, beta)``, reproduces ``product_expand``'s table;
    False too when the product is not in the span."""
    ctx = for_product(alpha, beta)
    product = double_monomial(alpha, ctx) * double_monomial(beta, ctx)
    expansion = product_expand(alpha, beta, convention)
    try:
        return expand_in_M(product, ctx) == expansion
    except NotInSpan:
        return False


def one_variable_cell_product(a, b):
    """The one-variable cell coordinates of phi_a * phi_b, {c: terms
    dict}, read off the expanded product of the two cell classes, where
    the library multiplies phi_a by one x - y_j at a time in cell
    coordinates."""
    product = cell_class(a, 1) * cell_class(b, 1)
    return {c: value for (c,), value in _cell_coordinates(product, 1).items()}


# The placements route: every cell of the product in one dict, regrouped
# by gamma and placement.


def product_cells(alpha, beta, n_x=None) -> dict:
    """The nonzero cell coordinates of M_alpha * M_beta in ``n_x``
    x-variables (default len(alpha) + len(beta)) as terms dicts, keyed
    by (c_1, ..., c_n_x).  The walk fills the x-positions in order; its
    states are keyed by lattice point, (k, m) having placed alpha[:k]
    and beta[:m].  The next position takes nothing, alpha[k], beta[m]
    or both, with each c of the one-variable oracle's phi_a * phi_b,
    while the remaining parts still fit.  Every contribution is a fresh
    product added into a fresh dict."""
    la, lb = len(alpha), len(beta)
    if n_x is None:
        n_x = la + lb
    e = {
        (a, b): one_variable_cell_product(a, b)
        for a in {0, *alpha}
        for b in {0, *beta}
    }
    states = {(0, 0): {(): {0: 1}}}
    for left in range(n_x - 1, -1, -1):
        walked = {}
        for (k, m), table in states.items():
            for k2, m2 in ((k, m), (k + 1, m), (k, m + 1), (k + 1, m + 1)):
                if not (la - left <= k2 <= la and lb - left <= m2 <= lb):
                    continue
                out = walked.setdefault((k2, m2), {})
                moved = e[alpha[k] if k2 > k else 0, beta[m] if m2 > m else 0]
                for c, coordinate in moved.items():
                    for prefix, terms in table.items():
                        cell = out.setdefault(prefix + (c,), {})
                        _add_into(cell, _mul_terms(terms, coordinate))
        states = walked
    return {cell: t for cell, t in states.get((la, lb), {}).items() if t}


def pack_cell(cell, n, w) -> int:
    """The int key of a cell or cell prefix (c_1, c_2, ...) of a
    product in n x-variables: bit i is set where c_{i+1} is nonzero,
    and the j-th nonzero entry, counted from 0, is added at bit
    n + w*j."""
    key = 0
    j = 0
    for i, c in enumerate(cell):
        if c:
            key += (1 << i) + (c << n + w * j)
            j += 1
    return key


def unpack_cell(key, n, w, length) -> tuple:
    """The cell of ``length`` x-positions whose ``pack_cell`` key is
    ``key``; ValueError when a set bit has a zero entry or bits are
    left over."""
    mask, parts = key % (1 << n), key >> n
    cell = []
    for i in range(length):
        if mask >> i & 1:
            parts, c = divmod(parts, 1 << w)
            if not c:
                raise ValueError(f"{key} sets bit {i} with a zero entry")
            cell.append(c)
        else:
            cell.append(0)
    if mask >> length or parts:
        raise ValueError(f"{key} is not a cell of {length} positions")
    return tuple(cell)


def placements_verify(alpha, beta, convention=DEFAULT_CONVENTION) -> bool:
    """Whether each gamma's placements among ``product_cells`` carry one
    coordinate (``qsym._placements``), and the gammas so found with
    their coordinates are exactly ``lrcalc.product_expand``'s table,
    looked up on the module so that a test can replace it."""
    found, mismatch = _placements(product_cells(alpha, beta), len(alpha) + len(beta))
    if mismatch is not None:
        return False
    coeffs = lrcalc.product_expand(alpha, beta, convention).coeffs
    return found.keys() == coeffs.keys() and all(
        next(iter(at.values())) == coeffs[gamma].terms for gamma, at in found.items()
    )


# Quasisymmetry by restriction: compare the restrictions of a polynomial
# to every increasing window of x-variables of each size.


def window_is_quasisymmetric(p, ctx) -> bool:
    """Whether restricting to any increasing window of x-variables gives
    the same polynomial.

    Restricting means substituting the basepoint value y_1 (or 0 when
    the truncation has no y-variables) for every x-variable outside the
    window and renumbering the survivors to x_1..x_k.  Every double
    monomial restricts to its own smaller truncation regardless of the
    window, because each row factor vanishes at x = y_1, so the check
    passes on the whole Z[y]-span of double monomials.  The Lambda-
    coefficient of x_{i_1}^{e_1}..x_{i_k}^{e_k} read in its own window
    is then independent of the choice 1 <= i_1 < ... < i_k <= n_x.
    """
    _check_variables(p, ctx)
    basepoint = y_var(1) if ctx.n_y >= 1 else zero()
    for size in range(ctx.n_x):
        reference = None
        for window in itertools.combinations(range(1, ctx.n_x + 1), size):
            outside = {
                ("x", i): basepoint
                for i in range(1, ctx.n_x + 1)
                if i not in window
            }
            restricted = p.substitute(outside)
            renumber = {
                ("x", old): x_var(new)
                for new, old in enumerate(window, start=1)
                if old != new
            }
            if renumber:
                restricted = restricted.substitute(renumber)
            if reference is None:
                reference = restricted
            elif restricted != reference:
                return False
    return True
