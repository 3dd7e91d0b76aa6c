"""Structure coefficients for products of double monomial functions.

The product of two double monomial functions expands as

    M_alpha * M_beta = sum over gamma of c(alpha, beta, gamma) * M_gamma,

where c(alpha, beta, gamma) sums the weights of all skyline stacks over
all pairs of order-preserving injections routing the parts of alpha and
beta into the parts of gamma.  Each coefficient is an x-free integer
polynomial in the y-variables, homogeneous of degree
|alpha| + |beta| - |gamma|; setting every y to 0 leaves the overlapping
shuffle multiplicity of gamma.

That sum is the definition.  ``product_expand`` and
``structure_coefficient`` compute it by one walk over the routings as
lattice paths (``compositions.routing_outcomes``), the latter targeted
at its gamma: a skyline's rows are chosen independently, so the sum
factors row by row along each path.  The walk computes under
ORACLE_CONSISTENT and takes its merged rows from
``tableaux.cp_product``, so the one-variable identity
chi_a * chi_b = sum_c cp_product(a, b)[c] * chi_c is the very table
it uses.  The walk reads ``cp_product(a, b)`` once per pair of parts
(a, b) for as long as its ``RoutingTables`` live: once per call, or
once per command in a ``table`` sweep.  The PAPER_LITERAL coefficient
is the oracle-consistent one times (-1)**(|alpha| + |beta| - |gamma|);
that sign is applied where the walk's outcomes leave it, by
``_in_convention`` for both functions, one negation per value of the
walk's memos, so equal signed coefficients are one object too.

``verify_expansion`` certifies a table in Z[x_1..x_n; y],
n = len(alpha) + len(beta), with no polynomial in two x-variables.  Over
placements S, M_alpha = sum_S prod_i phi_{a_i}(x_i), a_i = 0 off S and
phi_0 = 1, so the product is a sum over placement pairs of factors
phi_{a_i}(x_i) * phi_{b_i}(x_i), one per x-variable.  In one variable
phi_a * phi_b = sum_c e(a, b)_c * phi_c exactly: e(a, b) comes from
the coordinates of phi_a, 1 at a, multiplied by x - y_j for j = 1..b
with (x - y_j) * phi_c = phi_{c+1} + (y_{c+1} - y_j) * phi_c, which is
phi_{c+1} = (x - y_{c+1}) * phi_c rearranged, in exact integer
arithmetic and never from ``cp_product``.  So the product's
coordinate at the cell prod_i phi_{c_i}(x_i) sums prod_i e(a_i, b_i)_{c_i}
over placement pairs.  The cells are a Z[y]-basis (phi_c is monic of
degree c) in which M_gamma has coordinate 1 at each placement of gamma
and 0 elsewhere, and coordinates are unique: the identity holds in
Z[x_1..x_n; y] exactly when every placement of every gamma carries
c_gamma and no other cell is nonzero.  A cell's gamma is its nonzero
entries, and its placement is where they stand, so distinct cells of
one gamma are distinct placements.  Hence it is enough to count: the
identity holds exactly when every nonzero cell carries the coefficient
of its gamma, no gamma of the table has more than n parts, and the
nonzero cells number sum_gamma C(n, len(gamma)) over the table.  The
check walks the x-positions in order and reads each cell at the last
one.  Past the first n - 8 positions the walk splits into independent
subtrees, one per cell prefix, so it holds the prefixes at that depth
and the tables of one subtree at a time, never every cell.  A cell
prefix is keyed by one int: a bit for each x-position that holds a
nonzero entry, and above those n bits its gamma, the nonzero entries
packed in fields of one width.  So a step ORs a constant onto a key,
and a cell's gamma is read off its key by a shift, in the table keyed
once by packed gamma; no tuple is built per cell.  The walks of one
check hash-cons their values by a ``polynomial._HashCons``, as the
routing walk does, but by one of their own that lives for the one
``verify_expansion`` call: the cells take few distinct values, so
each product and sum is computed once per check and looked up by the
ids of its operands after that.
Nothing is claimed for more x-variables than n.
"""

from __future__ import annotations

import math
from typing import Sequence

from .compositions import (
    Composition,
    compositions_of_size,
    enumerate_injections,
    routing_outcomes,
)
from .qsym import Expansion
from .tableaux import (
    DEFAULT_CONVENTION,
    WeightConvention,
    _check_convention,
    cp_product,
    enumerate_skylines,
)
from .polynomial import (
    _UNIT_TERMS,
    XYPolynomial,
    _HashCons,
    _add_into,
    _add_terms,
    _check_degree,
    _mul_into,
    _mul_terms,
    _y_key,
    zero,
)

# x-positions walked at once below the split into subtrees
_SUBTREE_POSITIONS = 8


def _in_convention(
    outcomes: dict,
    alpha: Sequence[int],
    beta: Sequence[int],
    convention: WeightConvention,
    negated: dict,
) -> dict:
    """The routing walk's oracle-consistent outcomes for M_alpha * M_beta,
    each row part tuple gamma with its coefficient, written in
    ``convention``.

    The two conventions weigh a tableau alike up to the sign
    (-1)**(number of edge labels).  A row of shape c/a with content b
    has a + b - c edge labels (a lone part's row has none), so every
    skyline routing alpha and beta onto gamma has
    |alpha| + |beta| - |gamma| of them, and the paper-literal
    coefficient is the oracle-consistent one times
    (-1)**(|alpha| + |beta| - |gamma|).  A negation is memoized in
    ``negated`` by id(value), so equal signed values are one object;
    the caller keeps every value it keys alive while ``negated`` lives.
    """
    if convention is not WeightConvention.PAPER_LITERAL:
        return outcomes
    total = sum(alpha) + sum(beta)
    signed = {}
    for parts, value in outcomes.items():
        if (total - sum(parts)) % 2:
            found = negated.get(id(value))
            if found is None:
                found = negated[id(value)] = -value
            value = found
        signed[parts] = value
    return signed


def structure_coefficient(
    alpha: Composition,
    beta: Composition,
    gamma: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
) -> XYPolynomial:
    """The coefficient of M_gamma in M_alpha * M_beta.

    Runs the routing walk of ``product_expand`` targeted at gamma
    (``compositions.routing_outcomes``), which keeps only the suffixes
    of row parts that end gamma and that the rows still to fill can
    complete: a lone part must equal its row's part and weighs 1; a
    merged row of c boxes weighs cp_product(a, b)[c].  The walk's table
    of state (k, m) holds at most min(k, m) + 1 suffixes, and it returns
    only gamma, when gamma has a routing.  It equals the module's
    injection-pair definition because a skyline's rows are chosen
    independently, so the skyline sum factors row by row.
    """
    _check_convention(convention)
    outcomes = routing_outcomes(alpha, beta, cp_product, target=gamma)
    return _in_convention(outcomes, alpha, beta, convention, {}).get(tuple(gamma), zero())


def skyline_census(
    alpha: Composition, beta: Composition, gamma: Composition
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], list]:
    """Skyline stacks grouped by injection pair, keyed by image tuples.

    The summed weights of all groups add up to the structure
    coefficient; pairs admitting no skyline map to empty lists.
    """
    n = len(gamma)
    out: dict[tuple[tuple[int, ...], tuple[int, ...]], list] = {}
    for iota in enumerate_injections(len(alpha), n):
        for jota in enumerate_injections(len(beta), n):
            out[iota, jota] = enumerate_skylines(alpha, beta, gamma, iota, jota)
    return out


def support_candidates(alpha: Composition, beta: Composition) -> list[Composition]:
    """Every composition the product's support can possibly touch.

    A nonzero coefficient forces len(gamma) <= len(alpha) + len(beta),
    every part at most the sum of the largest parts, and
    max(|alpha|, |beta|) <= |gamma| <= |alpha| + |beta|.
    """
    max_length = len(alpha) + len(beta)
    max_part = alpha.max_part() + beta.max_part()
    return [
        gamma
        for size in range(max(alpha.size(), beta.size()), alpha.size() + beta.size() + 1)
        for gamma in compositions_of_size(size, max_length, max_part)
    ]


def product_expand(
    alpha: Composition,
    beta: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
    tables=None,
) -> Expansion:
    """The full expansion of M_alpha * M_beta, zero coefficients omitted.

    One routing walk (``compositions.routing_outcomes``) over all gamma
    at once: each row of the outcome takes the next part of alpha, of
    beta, or of both, and a merged row of inner a and content b has any
    length c in [max(a, b), a + b], weighted by cp_product(a, b)[c],
    that shape's row weight sum.  The walk is memoized on the suffix
    pair (alpha[k:], beta[m:]): its table maps each suffix of gamma's
    parts routing alpha[k:] and beta[m:] to its summed coefficient, so
    paths that share a suffix are merged once.  ``tables`` is the
    walk's optional caller-owned ``compositions.RoutingTables``, shared
    by the pairs of one sweep together with the memos that hash-cons
    its values, so equal coefficients of the sweep are one object; its
    tables are oracle-consistent, so one serves both conventions.  The
    result agrees with ``structure_coefficient`` on every composition.
    The walk's outcomes are tuples of positive parts with x-free
    values, so the result is built unchecked; only the sums that cancel
    to zero are dropped.
    """
    _check_convention(convention)
    outcomes = routing_outcomes(alpha, beta, cp_product, tables)
    # the tables' canon holds every value negated keys, and without
    # tables the outcomes do, while this call's memo lives
    negated = {} if tables is None else tables.negated
    outcomes = _in_convention(outcomes, alpha, beta, convention, negated)
    return Expansion._raw(
        {
            Composition._raw(parts): value
            for parts, value in outcomes.items()
            if value.terms
        }
    )


def _cell_product(a: int, b: int) -> list[tuple[int, dict[int, int]]]:
    """The one-variable cell coordinates e(a, b) of phi_a * phi_b, as
    (c, terms dict) pairs: phi_a is multiplied by x - y_j for j = 1..b, by
    (x - y_j) * phi_c = phi_{c+1} + (y_{c+1} - y_j) * phi_c, on the
    larger of the two so that the fewer factors are applied.  Then
    c >= a >= j, so y_{c+1} - y_j never vanishes."""
    if a < b:
        a, b = b, a
    coords = [(a, {0: 1})]
    for j in range(1, b + 1):
        y_j = _y_key(j)
        stepped: dict[int, dict[int, int]] = {}
        for c, terms in coords:
            _add_into(stepped.setdefault(c + 1, {}), terms)
            _mul_into(stepped.setdefault(c, {}), terms, {_y_key(c + 1): 1, y_j: -1})
        coords = [(c, terms) for c, terms in stepped.items() if terms]
    return coords


def _cell_table(alpha: Composition, beta: Composition) -> _HashCons:
    """e(a, b) as (c, coordinate) pairs, None for the unit coordinate,
    for every pair of parts a position can take: 0 or a part of alpha,
    and 0 or a part of beta, with fresh memos for the cell walk.  The
    routing walk's ``compositions.RoutingTables`` is a separate
    ``_HashCons``, so the certifier never meets the rule's values."""
    return _HashCons(
        {
            (a, b): [(c, None if t == _UNIT_TERMS else t) for c, t in _cell_product(a, b)]
            for a in {0, *alpha}
            for b in {0, *beta}
        }
    )


def _cell_walk(
    alpha: Composition,
    beta: Composition,
    e: dict,
    w: int,
    states: dict,
    start: int,
    stop: int,
) -> dict:
    """The cell walk of M_alpha * M_beta over x-positions start..stop - 1
    from ``states``, the tables after the first ``start`` positions, by
    (k, m, l): alpha[:k] and beta[:m] placed, in l nonzero entries.
    From {(0, 0, 0): {0: unit}} at start = 0, the tables after ``stop``
    positions are returned.  Each table maps a cell prefix
    (c_1, ..., c_stop) to its terms dict, which may be empty where sums
    cancel.  A prefix is keyed by one int, mask | gamma << n,
    n = len(alpha) + len(beta): bit i of mask is set where c_{i+1} is
    nonzero, and the j-th nonzero entry (from 0) sits at bits n + w*j,
    so ``w`` must hold every part a cell can take.  Only the points
    from which the positions left still reach (len(alpha), len(beta))
    are kept, so at stop = n the tables are the cells themselves, at
    the points (len(alpha), len(beta), l).  Position i takes nothing,
    alpha[k], beta[m] or both, with each c of e(a, b) from ``e``
    (``_cell_table``), while the remaining parts still fit: a move that
    places a part ORs the constant 1 << i | c << (n + w*l) onto each
    key, and the move that places nothing keeps the keys.  Each move's
    bounds, list e(a, b) and constants are found once per table, not
    per prefix.  A step adds a + b - c <= min(a, b) to the degree, so
    the one check of the limit in ``verify_expansion`` covers the walk.

    A dict, once stored in a table, is never changed.  A cell's first
    contribution is stored as it is (the unit coordinate) or as the
    product of its value by the coordinate; a later one replaces it
    with the sum, so tables share values freely and the order of the
    visits does not matter.  The keys of the nothing move have bit i
    clear, so they meet no other move's: the point takes its own table,
    or updates the table its other moves built.  So the walk consumes
    ``states`` and may add keys to its tables, never changing a terms
    dict.  A table is read only when its point is visited, so it is
    dropped then, and a step's memory falls as it goes.

    The walk hash-conses its values by the memos of ``e``, a
    ``polynomial._HashCons``, which live as long as ``e`` does: every
    walk given one ``e`` shares them.  Its tables and memos hold the
    terms dicts of the canonical polynomials in ``canon``: ``products``
    maps id(coordinate), and then id(value), to their canonical
    product, and ``sums`` maps (id(old), id(value)) to their canonical
    sum, so equal values are one dict.  Ids key the memos safely: the
    walk first interns the values of ``states``, which may be fresh
    dicts ``canon`` does not hold, so every table value is held by a
    polynomial of ``canon`` and every coordinate by ``e``; each object
    whose id keys a memo, and each memo result, is thus held for as
    long as ``e`` lives, and no id is reused while a memo holds it."""
    la, lb = len(alpha), len(beta)
    n = la + lb
    intern, products, sums = e.intern, e.products, e.sums
    for table in states.values():
        for prefix, terms in table.items():
            table[prefix] = intern(terms).terms
    for i in range(start, stop):
        left = n - 1 - i  # the positions after this one
        walked: dict[tuple[int, int, int], dict] = {}
        for point in list(states):
            k, m, l = point
            table = states.pop(point)
            if la - left <= k and lb - left <= m:
                out = walked.get(point)
                if out is None:
                    walked[point] = table
                else:
                    out.update(table)
            shift = n + w * l
            for k2, m2 in ((k + 1, m), (k, m + 1), (k + 1, m + 1)):
                if not (la - left <= k2 <= la and lb - left <= m2 <= lb):
                    continue
                out = walked.setdefault((k2, m2, l + 1), {})
                get = out.get
                for c, coordinate in e[alpha[k] if k2 > k else 0, beta[m] if m2 > m else 0]:
                    bits = 1 << i | c << shift
                    made = None if coordinate is None else products.setdefault(id(coordinate), {})
                    for prefix, terms in table.items():
                        cell = prefix | bits
                        if made is None:
                            value = terms
                        else:
                            value = made.get(id(terms))
                            if value is None:
                                value = made[id(terms)] = intern(_mul_terms(terms, coordinate)).terms
                        old = get(cell)
                        if old is None:
                            out[cell] = value
                        else:
                            pair = (id(old), id(value))
                            total = sums.get(pair)
                            if total is None:
                                total = sums[pair] = intern(_add_terms(old, value)).terms
                            out[cell] = total
        states = walked
    return states


def verify_expansion(
    alpha: Composition,
    beta: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
) -> bool:
    """Whether M_alpha * M_beta = sum_gamma c_gamma * M_gamma holds in
    Z[x_1..x_n; y], n = len(alpha) + len(beta), for the table of
    ``product_expand``.

    The cell walk (``_cell_walk``) runs to depth
    d = max(0, n - _SUBTREE_POSITIONS), and each nonzero prefix there
    is walked on to position n as one subtree, with every point that
    holds it.  A move only ORs bits onto a key above the first d
    positions, so a cell determines its depth-d prefix, and the
    subtrees never meet: each cell is summed whole in one subtree, and
    a prefix that cancels at depth d adds nothing below it.  So beside
    the prefixes at depth d, only the tables of one subtree of at most
    ``_SUBTREE_POSITIONS`` positions are held at a time.  A key's high
    bits, cell >> n, are its gamma packed in fields of w bits; the
    table is keyed once by packed gamma, and w is wide enough for every
    part of a cell (at most max(alpha) + max(beta)) and of the table,
    so no two gammas share a key.  Each nonzero cell must carry the
    coefficient of its gamma.  Distinct cells of one gamma are distinct
    placements, so the matched cells cover every placement of every
    gamma of the table exactly when no gamma has more than n parts and
    they number sum_gamma C(n, len(gamma)); the cells not counted are
    zero, as the identity needs.  Each cell is compared by value, never
    by identity.

    Every walk of one call, the first and each subtree, takes the one
    ``_cell_table`` of the call, so they share its memos (see
    ``_cell_walk``): each product of a value by a coordinate, and each
    sum of two values, is computed once per call, and equal cells are
    one object.  The memos die with the call, and are never the
    rule's.

    Raises TypeError unless ``convention`` is a ``WeightConvention``,
    and ValueError before any work when min(|alpha|, |beta|) passes
    the packed-exponent limit."""
    _check_convention(convention)
    _check_degree(min(alpha.size(), beta.size()))
    n = len(alpha) + len(beta)
    coeffs = product_expand(alpha, beta, convention).coeffs
    if any(len(gamma) > n for gamma in coeffs):
        return False
    top = max((part for gamma in coeffs for part in gamma), default=0)
    w = max(alpha.max_part() + beta.max_part(), top).bit_length()
    packed = {}
    for gamma, value in coeffs.items():
        key = 0
        for j, part in enumerate(gamma):
            key |= part << w * j
        packed[key] = value.terms
    get = packed.get
    e = _cell_table(alpha, beta)
    depth = max(0, n - _SUBTREE_POSITIONS)
    states = _cell_walk(alpha, beta, e, w, {(0, 0, 0): {0: {0: 1}}}, 0, depth)
    # a prefix may sit at several points, and its subtree takes them all
    subtrees: dict[int, dict] = {}
    for point, table in states.items():
        for prefix, terms in table.items():
            if terms:
                subtrees.setdefault(prefix, {})[point] = {prefix: terms}
    cells = 0
    for subtree in subtrees.values():
        for table in _cell_walk(alpha, beta, e, w, subtree, depth, n).values():
            for cell, terms in table.items():
                if terms:
                    if get(cell >> n) != terms:
                        return False
                    cells += 1
    return cells == sum(math.comb(n, len(gamma)) for gamma in coeffs)


def expansion_records(
    alpha: Composition,
    beta: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
    explicit_zeros: bool = False,
    tables=None,
) -> list[tuple[Composition, XYPolynomial]]:
    """Table rows for one product, as (gamma, coefficient) pairs in the
    canonical order: the expansion's ``items``, or with
    ``explicit_zeros`` every composition of ``support_candidates``, a
    zero coefficient where gamma is outside the support.  ``tables``, an
    optional ``compositions.RoutingTables``, is passed to
    ``product_expand``."""
    expansion = product_expand(alpha, beta, convention, tables)
    if not explicit_zeros:
        return expansion.items()
    coeffs = expansion.coeffs
    nothing = zero()
    return [
        (gamma, coeffs.get(gamma, nothing)) for gamma in support_candidates(alpha, beta)
    ]
