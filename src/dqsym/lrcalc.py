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
lattice paths (``compositions.routing_states``): a skyline's rows are
chosen independently, so the sum factors row by row along each path.

``verify_expansion`` certifies a coefficient table against exact
polynomial arithmetic in a sufficient truncation, by one route: it
re-derives the table from the expanded product with
``qsym.expand_in_M``.  That route implies the product identity itself,
because ``expand_in_M`` returns only once its residual is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import (
    Composition,
    enumerate_compositions,
    enumerate_injections,
    routing_outcomes,
    routing_states,
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
    enumerate_skylines,
    row_weight_sum,
)
from .polynomial import XYPolynomial, one, zero


@dataclass(frozen=True)
class StructureCoefficient:
    """One entry of a coefficient table."""

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


def _merges(convention: WeightConvention):
    """The AB step of the product rule: a merged row of inner a and
    content b has a length c in [max(a, b), a + b] and weighs that
    shape's weight sum; shapes with no tableau are left out."""

    def merges(a: int, b: int) -> list[tuple[int, XYPolynomial]]:
        rows = []
        for c in range(max(a, b), a + b + 1):
            row_sum = row_weight_sum(c, a, b, convention)
            if row_sum:
                rows.append((c, row_sum))
        return rows

    return merges


def structure_coefficient(
    alpha: Composition,
    beta: Composition,
    gamma: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
) -> XYPolynomial:
    """The coefficient of M_gamma in M_alpha * M_beta.

    Runs the routing walk of ``product_expand`` constrained to gamma,
    bottom-up over the states (k, m, row): the summed weight of the
    routings of alpha[k:] and beta[m:] onto the rows gamma[row:].  A
    lone part must equal its row's part and weighs 1; a merged row
    weighs its row weight sum.  The walk visits
    O(len(alpha) * len(beta) * len(gamma)) states, and equals the
    module's injection-pair definition because a skyline's rows are
    chosen independently, so the skyline sum factors row by row.
    """
    la, lb, n = len(alpha), len(beta), len(gamma)
    ahead = {(la, lb): {n: one()}}
    for k, m, steps in routing_states(alpha, beta, _merges(convention)):
        here: dict[int, XYPolynomial] = {}
        # the parts left fill between max(la - k, lb - m) and
        # (la - k) + (lb - m) rows, so only these rows can start here
        for row in range(
            max(0, n - (la - k) - (lb - m)), n - max(la - k, lb - m) + 1
        ):
            total = None
            for next_k, next_m, part, weight in steps:
                if part != gamma[row]:
                    continue
                rest = ahead[next_k, next_m].get(row + 1)
                if rest is None:
                    continue
                if weight is not None:
                    rest = weight * rest
                total = rest if total is None else total + rest
            if total is not None:
                here[row] = total
        ahead[k, m] = here
    return ahead[0, 0].get(0, zero())


def skyline_census(
    alpha: Composition,
    beta: Composition,
    gamma: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
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
    lower = max(alpha.size(), beta.size())
    upper = alpha.size() + beta.size()
    return [
        gamma
        for gamma in enumerate_compositions(
            len(alpha) + len(beta), alpha.max_part() + beta.max_part()
        )
        if lower <= gamma.size() <= upper
    ]


def product_expand(
    alpha: Composition,
    beta: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
) -> Expansion:
    """The full expansion of M_alpha * M_beta, zero coefficients omitted.

    One routing walk (``compositions.routing_outcomes``) over all gamma
    at once: each row of the outcome takes the next part of alpha, of
    beta, or of both, and a merged row of inner a and content b has any
    length c in [max(a, b), a + b], weighted by that shape's row weight
    sum.  The walk is memoized on the state (k, m):
    its table maps each suffix of gamma's parts routing alpha[k:] and
    beta[m:] to its summed coefficient, so paths that share a suffix
    are merged once.  The result agrees with ``structure_coefficient``
    on every composition.
    """
    outcomes = routing_outcomes(alpha, beta, _merges(convention), one())
    return Expansion({Composition(parts): value for parts, value in outcomes.items()})


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
    ``expand_in_M`` returns only once it has subtracted every
    c_gamma * M_gamma it reports and its residual is exactly zero, and
    it peels each gamma once, since the degrees it peels strictly fall.
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
) -> list[StructureCoefficient]:
    """Table rows for one product, optionally padded with zero entries
    for every candidate composition in the support bounds."""
    expansion = product_expand(alpha, beta, convention)
    if explicit_zeros:
        compositions = support_candidates(alpha, beta)
    else:
        compositions = expansion.support()
    return [
        StructureCoefficient(alpha, beta, gamma, expansion[gamma], convention)
        for gamma in compositions
    ]
