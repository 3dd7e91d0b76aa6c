"""One-row skew edge-labeled tableaux and skyline stacks of them.

A tableau of shape c/a is a single row of c boxes whose rightmost c - a
boxes are filled and whose leftmost a boxes may each carry an optional
label on their right edge.  Its content is the total number of labels,
(c - a) + |E| where E is the set of labeled edge positions.  The weight
of a tableau is a product over E of differences of y-variables: box i
contributes y_i and y_{i + 1 + r(i)}, where r(i) counts the box or edge
labels strictly right of box i (an edge label on box i itself does not
count).

Two orientations of each difference are supported.  PAPER_LITERAL takes
(y_i - y_{i + 1 + r(i)}).  ORACLE_CONSISTENT negates every factor,
giving (y_{i + 1 + r(i)} - y_i); this is the orientation under which
the product of two truncated double monomial functions equals its
tableau expansion as an exact polynomial identity (see
``lrcalc.verify_expansion``), and it is the package default.  The two
differ by (-1)**(number of edge labels) per tableau, and a tableau of
shape c/a with content b has a + b - c edge labels.  So
``row_weight_sum`` and ``cp_product``, and the product rule on them,
are oracle-consistent only; ``lrcalc`` turns a coefficient
paper-literal by one sign as it leaves the rule.  Single tableaux and
skylines take either convention.

A skyline stack assembles one row per part of an outcome composition
gamma: row i has shape gamma_i / (part of alpha routed to i) and
content equal to the part of beta routed to i, the routing given by a
pair of order-preserving injections that jointly cover all rows.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache

from .compositions import Composition, OrderedInjection
from .polynomial import XYPolynomial, _add_into, _check_degree, one, y_var


class WeightConvention(enum.Enum):
    """Orientation of the y-differences in edge-label weights."""

    PAPER_LITERAL = "paper-literal"
    ORACLE_CONSISTENT = "oracle-consistent"


DEFAULT_CONVENTION = WeightConvention.ORACLE_CONSISTENT


def _is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool."""
    return type(value) is not bool and isinstance(value, int)


@dataclass(frozen=True)
class SkewEdgeTableau:
    """One row of ``outer`` boxes, the leftmost ``inner`` of them empty."""

    outer: int
    inner: int
    edge_labels: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "edge_labels", frozenset(self.edge_labels))
        if not (_is_int(self.outer) and _is_int(self.inner) and 0 <= self.inner <= self.outer):
            raise ValueError(f"need 0 <= inner <= outer, got {self.outer}/{self.inner}")
        for position in self.edge_labels:
            if not _is_int(position) or not 1 <= position <= self.inner:
                raise ValueError(
                    f"edge labels must lie in [1, {self.inner}], got {position!r}"
                )

    @property
    def content(self) -> int:
        """Total number of labels: filled boxes plus labeled edges."""
        return (self.outer - self.inner) + len(self.edge_labels)

    def labels_right(self, position: int) -> int:
        """Labels strictly right of box ``position``, its own edge excluded."""
        if not 1 <= position <= self.inner:
            raise ValueError(f"position must lie in [1, {self.inner}]")
        return (self.outer - self.inner) + sum(
            1 for j in self.edge_labels if j > position
        )

    def weight(self, convention: WeightConvention = DEFAULT_CONVENTION) -> XYPolynomial:
        """Product over labeled edges of oriented y-differences.

        Its degree is the number of labeled edges, checked against the
        packed-exponent limit before anything is multiplied: the
        product of k distinct binomials has up to 2**k terms, so the
        check in ``*`` alone would fire only after about 2**255 terms.
        """
        _check_degree(len(self.edge_labels))
        result = one()
        for i in sorted(self.edge_labels):
            partner = i + 1 + self.labels_right(i)
            factor = y_var(i) - y_var(partner)
            if convention is WeightConvention.ORACLE_CONSISTENT:
                factor = -factor
            result = result * factor
        return result

    def to_record(self) -> dict:
        return {"c": self.outer, "a": self.inner, "edges": sorted(self.edge_labels)}

    def __str__(self) -> str:
        cells = ["[e]" if i in self.edge_labels else "[ ]" for i in range(1, self.inner + 1)]
        cells.extend("[*]" for _ in range(self.outer - self.inner))
        return "".join(cells) if cells else "(empty row)"


def enumerate_tableaux(outer: int, inner: int, content: int) -> list[SkewEdgeTableau]:
    """All tableaux of shape outer/inner with the given content.

    The content forces |E| = content - (outer - inner) labeled edges
    among the ``inner`` candidate positions, so the count is
    C(inner, inner + content - outer) when max(inner, content) <= outer
    <= inner + content, and 0 otherwise (including inner > outer, where
    the shape itself is empty).  Edge sets are listed lexicographically.
    """
    if not all(_is_int(v) and v >= 0 for v in (outer, inner, content)):
        raise ValueError("outer, inner, and content must be >= 0")
    if inner > outer:
        return []
    labels = content - (outer - inner)
    if labels < 0 or labels > inner:
        return []
    return [
        SkewEdgeTableau(outer, inner, frozenset(edges))
        for edges in itertools.combinations(range(1, inner + 1), labels)
    ]


@lru_cache(maxsize=None)
def row_weight_sum(outer: int, inner: int, content: int) -> XYPolynomial:
    """Sum of the oracle-consistent weights of all tableaux of one shape
    and content, added into one terms dict, not copied per tableau."""
    terms: dict[int, int] = {}
    for tableau in enumerate_tableaux(outer, inner, content):
        _add_into(terms, tableau.weight(WeightConvention.ORACLE_CONSISTENT).terms)
    return XYPolynomial._raw(terms)


def cp_product(a: int, b: int) -> dict[int, XYPolynomial]:
    """Structure constants of one-variable cell classes.

    With chi_k = prod_{j=1}^{k} (x - y_j), the product chi_a * chi_b
    expands as sum over c of cp_product(a, b)[c] * chi_c, the
    coefficient of c collecting the oracle-consistent weights of all
    tableaux of shape c/a and content b.  This is an exact polynomial
    identity.  Zero coefficients are omitted; the support lies in
    [max(a, b), a + b].
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be >= 0")
    out: dict[int, XYPolynomial] = {}
    for c in range(max(a, b), a + b + 1):
        total = row_weight_sum(c, a, b)
        if total:
            out[c] = total
    return out


@dataclass(frozen=True)
class SkylineTableau:
    """A stack of one-row tableaux recording one term of a product rule.

    Row i (1-based) has shape gamma_i / alpha_part and content
    beta_part, where the parts of alpha and beta are routed to rows by
    the injections ``iota`` and ``jota``; rows hit by neither would be
    impossible, so the images must cover every row.
    """

    gamma: Composition
    alpha: Composition
    beta: Composition
    iota: OrderedInjection
    jota: OrderedInjection
    rows: tuple[SkewEdgeTableau, ...]

    def __post_init__(self):
        if len(self.rows) != len(self.gamma):
            raise ValueError("need one row per part of gamma")
        for i, row in enumerate(self.rows, start=1):
            expected_inner = self.iota.part_at(self.alpha, i)
            expected_content = self.jota.part_at(self.beta, i)
            if (
                row.outer != self.gamma[i - 1]
                or row.inner != expected_inner
                or row.content != expected_content
            ):
                raise ValueError(f"row {i} does not match the routed shape and content")

    def weight(self, convention: WeightConvention = DEFAULT_CONVENTION) -> XYPolynomial:
        result = one()
        for row in self.rows:
            result = result * row.weight(convention)
        return result

    def to_record(self) -> dict:
        return {
            "gamma": self.gamma.to_list(),
            "iota": list(self.iota.images),
            "jota": list(self.jota.images),
            "rows": [row.to_record() for row in self.rows],
        }


def enumerate_skylines(
    alpha: Composition,
    beta: Composition,
    gamma: Composition,
    iota: OrderedInjection,
    jota: OrderedInjection,
) -> list[SkylineTableau]:
    """All skyline stacks for one routing of alpha and beta into gamma.

    Empty when the images of ``iota`` and ``jota`` fail to cover every
    row, or when any single row admits no tableau.
    """
    n = len(gamma)
    if iota.source_size != len(alpha) or jota.source_size != len(beta):
        raise ValueError("injection source sizes must match the compositions")
    if iota.target_size != n or jota.target_size != n:
        raise ValueError("injection targets must have one slot per part of gamma")
    if iota.image_set | jota.image_set != frozenset(range(1, n + 1)):
        return []
    per_row = []
    for i in range(1, n + 1):
        choices = enumerate_tableaux(
            gamma[i - 1], iota.part_at(alpha, i), jota.part_at(beta, i)
        )
        if not choices:
            return []
        per_row.append(choices)
    return [
        SkylineTableau(gamma, alpha, beta, iota, jota, tuple(rows))
        for rows in itertools.product(*per_row)
    ]
