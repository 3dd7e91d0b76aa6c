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
it uses.  The PAPER_LITERAL coefficient is the oracle-consistent one
times (-1)**(|alpha| + |beta| - |gamma|); that sign is applied where a
coefficient leaves the walk.

``verify_expansion`` certifies a coefficient table against exact
polynomial arithmetic in a sufficient truncation, by one route: it
re-derives the table from the expanded product with
``qsym.expand_in_M``.  That route implies the product identity itself,
because ``expand_in_M`` reads the expansion off the product's exact
coordinates in a Z[y]-basis, and returns only when those coordinates
are exactly the ones of the sum it reports.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .compositions import (
    Composition,
    compositions_of_size,
    enumerate_injections,
    routing_outcomes,
)
from .qsym import (
    Expansion,
    NotInSpan,
    TruncationContext,
    double_monomial,
    expand_in_M,
)
from .tableaux import (
    DEFAULT_CONVENTION,
    WeightConvention,
    cp_product,
    enumerate_skylines,
)
from .polynomial import XYPolynomial, one, zero


class StructureCoefficient(NamedTuple):
    """One entry of a coefficient table: the coefficient ``value`` of
    M_gamma in M_alpha * M_beta, written in ``convention``.  A named
    tuple, so it is immutable and a table of many rows is cheap to
    build."""

    alpha: Composition
    beta: Composition
    gamma: Composition
    value: XYPolynomial
    convention: WeightConvention

    def to_record(self) -> dict:
        return {
            "alpha": self.alpha.to_list(),
            "beta": self.beta.to_list(),
            "gamma": self.gamma.to_list(),
            "coeff": self.value.to_records(),
        }


def _in_convention(
    value: XYPolynomial,
    alpha: Sequence[int],
    beta: Sequence[int],
    gamma: Sequence[int],
    convention: WeightConvention,
) -> XYPolynomial:
    """An oracle-consistent coefficient of M_gamma in M_alpha * M_beta,
    written in ``convention``.

    The two conventions weigh a tableau alike up to the sign
    (-1)**(number of edge labels).  A row of shape c/a with content b
    has a + b - c edge labels (a lone part's row has none), so every
    skyline routing alpha and beta onto gamma has
    |alpha| + |beta| - |gamma| of them, and the paper-literal
    coefficient is the oracle-consistent one times
    (-1)**(|alpha| + |beta| - |gamma|).
    """
    if convention is WeightConvention.PAPER_LITERAL and (
        sum(alpha) + sum(beta) - sum(gamma)
    ) % 2:
        return -value
    return value


def structure_coefficient(
    alpha: Composition,
    beta: Composition,
    gamma: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
) -> XYPolynomial:
    """The coefficient of M_gamma in M_alpha * M_beta.

    Runs the routing walk of ``product_expand`` targeted at gamma
    (``compositions.routing_outcomes``), which keeps only the suffixes
    of row parts that end gamma: a lone part must equal its row's part
    and weighs 1; a merged row of c boxes weighs cp_product(a, b)[c].
    The walk's tables hold at most len(gamma) + 1 suffixes per state,
    and it equals the module's injection-pair definition because a
    skyline's rows are chosen independently, so the skyline sum
    factors row by row.
    """
    outcomes = routing_outcomes(alpha, beta, cp_product, one(), target=gamma)
    value = outcomes.get(tuple(gamma), zero())
    return _in_convention(value, alpha, beta, gamma, convention)


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
            out[(iota.images, jota.images)] = enumerate_skylines(
                alpha, beta, gamma, iota, jota
            )
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
    walk's optional caller-owned mapping of those tables, shared by
    the pairs of one sweep; its tables are oracle-consistent, so one
    mapping serves both conventions.  The result agrees with
    ``structure_coefficient`` on every composition.  The walk's
    outcomes are tuples of positive parts with x-free values, so the
    result is built unchecked; only the sums that cancel to zero are
    dropped.
    """
    outcomes = routing_outcomes(alpha, beta, cp_product, one(), tables)
    if convention is WeightConvention.PAPER_LITERAL:
        outcomes = {
            parts: _in_convention(value, alpha, beta, parts, convention)
            for parts, value in outcomes.items()
        }
    return Expansion._raw(
        {
            Composition._raw(parts): value
            for parts, value in outcomes.items()
            if value
        }
    )


def verify_expansion(
    alpha: Composition,
    beta: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
) -> bool:
    """Certify the coefficient table for one product.

    Works in the sufficient truncation of
    ``TruncationContext.for_product``: expands M_alpha * M_beta exactly
    and checks that ``expand_in_M`` of it reproduces the table.  This
    implies the identity M_alpha * M_beta = sum_gamma c_gamma * M_gamma:
    ``expand_in_M`` returns only when the product's coordinates in the
    cell basis prod_i phi_{a_i}(x_i) equal those of the sum it reports,
    c_gamma at every placement of every gamma and 0 at every other
    cell, and equal coordinates in a basis mean equal polynomials.
    False when the tables differ or the product is not in the span.
    """
    ctx = TruncationContext.for_product(alpha, beta)
    product = double_monomial(alpha, ctx) * double_monomial(beta, ctx)
    expansion = product_expand(alpha, beta, convention)
    try:
        return expand_in_M(product, ctx) == expansion
    except NotInSpan:
        return False


def expansion_records(
    alpha: Composition,
    beta: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
    explicit_zeros: bool = False,
    tables=None,
) -> list[StructureCoefficient]:
    """Table rows for one product, optionally padded with zero entries
    for every candidate composition in the support bounds.  ``tables``
    is passed to ``product_expand``."""
    expansion = product_expand(alpha, beta, convention, tables)
    if explicit_zeros:
        compositions = support_candidates(alpha, beta)
    else:
        compositions = expansion.support()
    coeffs = expansion.coeffs
    nothing = zero()
    return [
        StructureCoefficient(
            alpha, beta, gamma, coeffs.get(gamma, nothing), convention
        )
        for gamma in compositions
    ]
