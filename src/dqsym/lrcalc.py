"""Structure coefficients for products of double monomial functions.

The product of two double monomial functions expands as

    M_alpha * M_beta = sum over gamma of c(alpha, beta, gamma) * M_gamma,

where c(alpha, beta, gamma) sums the weights of all skyline stacks over
all pairs of order-preserving injections routing the parts of alpha and
beta into the parts of gamma.  Each coefficient is an x-free integer
polynomial in the y-variables, homogeneous of degree
|alpha| + |beta| - |gamma|; setting every y to 0 leaves the overlapping
shuffle multiplicity of gamma.

``verify_expansion`` certifies a coefficient table against exact
polynomial arithmetic in a sufficient truncation, by one route: it
re-derives the table from the expanded product with
``qsym.expand_in_M``.  That route implies the product identity itself,
because ``expand_in_M`` returns only once its residual is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compositions import Composition, enumerate_compositions, enumerate_injections
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


def structure_coefficient(
    alpha: Composition,
    beta: Composition,
    gamma: Composition,
    convention: WeightConvention = DEFAULT_CONVENTION,
) -> XYPolynomial:
    """The coefficient of M_gamma in M_alpha * M_beta.

    Sums skyline weights over every covering pair of order-preserving
    injections.  Because a skyline's rows are chosen independently, the
    inner sum factors as a product over rows of single-row weight sums;
    ``enumerate_skylines`` realizes the same set explicitly.
    """
    n = len(gamma)
    total = zero()
    full = frozenset(range(1, n + 1))
    for iota in enumerate_injections(len(alpha), n):
        for jota in enumerate_injections(len(beta), n):
            if iota.image_set | jota.image_set != full:
                continue
            pair_total = one()
            for i in range(1, n + 1):
                row_sum = row_weight_sum(
                    gamma[i - 1],
                    iota.part_at(alpha, i),
                    jota.part_at(beta, i),
                    convention,
                )
                if not row_sum:
                    pair_total = zero()
                    break
                pair_total = pair_total * row_sum
            total = total + pair_total
    return total


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

    Walks every routing of the two part sequences directly instead of
    probing each candidate gamma separately: each row of the outcome
    consumes the next part of alpha, of beta, or of both, and a merged
    row of inner a and content b can have any length c in
    [max(a, b), a + b], contributing that shape's weight sum.  The
    result agrees with ``structure_coefficient`` on every composition.
    """
    la, lb = len(alpha), len(beta)
    coeffs: dict[Composition, XYPolynomial] = {}

    def emit(parts: list[int], weight: XYPolynomial) -> None:
        gamma = Composition(parts)
        merged = coeffs.get(gamma)
        coeffs[gamma] = weight if merged is None else merged + weight

    def walk(k: int, m: int, parts: list[int], weight: XYPolynomial) -> None:
        if k == la and m == lb:
            emit(parts, weight)
            return
        if k < la:
            parts.append(alpha[k])
            walk(k + 1, m, parts, weight)
            parts.pop()
        if m < lb:
            parts.append(beta[m])
            walk(k, m + 1, parts, weight)
            parts.pop()
        if k < la and m < lb:
            a, b = alpha[k], beta[m]
            for c in range(max(a, b), a + b + 1):
                row_sum = row_weight_sum(c, a, b, convention)
                if row_sum:
                    parts.append(c)
                    walk(k + 1, m + 1, parts, weight * row_sum)
                    parts.pop()

    walk(0, 0, [], one())
    return Expansion(coeffs)


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
