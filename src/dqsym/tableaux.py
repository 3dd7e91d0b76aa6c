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
pair of order-preserving injections, each the increasing tuple of its
images, that jointly cover all rows.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache
from typing import Iterable

from .compositions import Composition
from .polynomial import (
    XYPolynomial,
    _Record,
    _check_degree,
    _is_int,
    _mul_into,
    _y_key,
    one,
    y_var,
)


class WeightConvention(enum.Enum):
    """Orientation of the y-differences in edge-label weights."""

    PAPER_LITERAL = "paper-literal"
    ORACLE_CONSISTENT = "oracle-consistent"


DEFAULT_CONVENTION = WeightConvention.ORACLE_CONSISTENT


def _check_convention(convention) -> None:
    """Raise TypeError unless ``convention`` is a ``WeightConvention``;
    its string value names it only on the command line."""
    if not isinstance(convention, WeightConvention):
        raise TypeError(f"convention must be a WeightConvention, got {convention!r}")


class SkewEdgeTableau(_Record):
    """One row of ``outer`` boxes, the leftmost ``inner`` of them empty."""

    __slots__ = ("outer", "inner", "edge_labels")

    outer: int
    inner: int
    edge_labels: frozenset[int]

    def __init__(self, outer: int, inner: int, edge_labels: Iterable[int]):
        edge_labels = frozenset(edge_labels)
        if not (_is_int(outer) and _is_int(inner) and 0 <= inner <= outer):
            raise ValueError(f"need 0 <= inner <= outer, got {outer}/{inner}")
        for position in edge_labels:
            if not _is_int(position) or not 1 <= position <= inner:
                raise ValueError(
                    f"edge labels must lie in [1, {inner}], got {position!r}"
                )
        self._set(outer, inner, edge_labels)

    @property
    def content(self) -> int:
        """Total number of labels: filled boxes plus labeled edges."""
        return (self.outer - self.inner) + len(self.edge_labels)

    def labels_right(self, position: int) -> int:
        """Labels strictly right of box ``position``, its own edge excluded."""
        if not (_is_int(position) and 1 <= position <= self.inner):
            raise ValueError(f"position must lie in [1, {self.inner}], got {position!r}")
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
        _check_convention(convention)
        return self._weight(convention)

    def _weight(self, convention: WeightConvention) -> XYPolynomial:
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


def _edge_labels(outer: int, inner: int, content: int) -> int | None:
    """The number of labeled edges of every tableau of shape outer/inner
    with the given content, None when there is no such tableau."""
    if not all(_is_int(v) and v >= 0 for v in (outer, inner, content)):
        raise ValueError("outer, inner, and content must be >= 0")
    labels = content - (outer - inner)
    if inner > outer or labels < 0 or labels > inner:
        return None
    return labels


def enumerate_tableaux(outer: int, inner: int, content: int) -> list[SkewEdgeTableau]:
    """All tableaux of shape outer/inner with the given content.

    The content forces |E| = content - (outer - inner) labeled edges
    among the ``inner`` candidate positions, so the count is
    C(inner, inner + content - outer) when max(inner, content) <= outer
    <= inner + content, and 0 otherwise (including inner > outer, where
    the shape itself is empty).  Edge sets are listed lexicographically.
    """
    labels = _edge_labels(outer, inner, content)
    if labels is None:
        return []
    return [
        SkewEdgeTableau(outer, inner, frozenset(edges))
        for edges in itertools.combinations(range(1, inner + 1), labels)
    ]


# typed, so a bool or float never hits the entry of its equal int
@lru_cache(maxsize=None, typed=True)
def row_weight_sum(outer: int, inner: int, content: int) -> XYPolynomial:
    """Sum of the oracle-consistent weights of all tableaux of one shape
    and content, by a recursion over the boxes, not tableau by tableau.

    With L = content - (outer - inner) edge labels, scan the boxes
    i = inner, ..., 1 keeping t, the edge labels already placed right
    of box i: a labeled box i contributes the factor
    y_{i + 1 + (outer - inner) + t} - y_i and passes t + 1 on, an
    unlabeled one passes t on.  So the sums over the labelings of the
    boxes right of i, one per t, step box by box in O(inner * L)
    products by a binomial, where the tableaux number C(inner, L).
    The degree L is checked first, as the weights of the tableaux are.
    """
    labels = _edge_labels(outer, inner, content)
    if labels is None:
        return XYPolynomial._raw({})
    _check_degree(labels)
    shift = outer - inner + 1
    # sums[t]: the summed weights of the labelings right of the box, t labels
    sums: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(labels)]
    for i in range(inner, 0, -1):
        low = _y_key(i)
        # t descending, so sums[t] is read before box i adds into it; a t
        # below labels - i can no longer reach labels
        for t in range(min(labels - 1, inner - i), max(labels - i, 0) - 1, -1):
            _mul_into(sums[t + 1], {_y_key(i + shift + t): 1, low: -1}, sums[t])
    return XYPolynomial._raw(sums[labels])


def cp_product(a: int, b: int) -> dict[int, XYPolynomial]:
    """Structure constants of one-variable cell classes.

    With chi_k = prod_{j=1}^{k} (x - y_j), the product chi_a * chi_b
    expands as sum over c of cp_product(a, b)[c] * chi_c, the
    coefficient of c collecting the oracle-consistent weights of all
    tableaux of shape c/a and content b.  This is an exact polynomial
    identity.  Zero coefficients are omitted; the support lies in
    [max(a, b), a + b].
    """
    if not (_is_int(a) and _is_int(b) and a >= 0 and b >= 0):
        raise ValueError("a and b must be >= 0")
    out: dict[int, XYPolynomial] = {}
    for c in range(max(a, b), a + b + 1):
        total = row_weight_sum(c, a, b)
        if total:
            out[c] = total
    return out


def _row_shapes(gamma, alpha, beta, iota, jota) -> list[tuple[int, int, int]]:
    """(gamma_i, part of alpha routed to row i, part of beta routed to
    row i) for each row i of gamma: the k-th part lands on the row of
    the k-th image, and a row not hit gets 0.  Raises ``ValueError``
    unless each injection holds one int per part, strictly increasing
    within [1, len(gamma)]."""
    n = len(gamma)
    routed = []
    for parts, images in ((alpha, iota), (beta, jota)):
        if len(images) != len(parts):
            raise ValueError(f"need one image per part of {list(parts)}, got {images}")
        row_parts = [0] * n
        previous = 0
        for part, image in zip(parts, images):
            if not (_is_int(image) and previous < image <= n):
                raise ValueError(
                    f"images must increase strictly within [1, {n}], got {images}"
                )
            row_parts[image - 1] = part
            previous = image
        routed.append(row_parts)
    return list(zip(gamma, *routed))


class SkylineTableau(_Record):
    """A stack of one-row tableaux recording one term of a product rule.

    Row i (1-based) has shape gamma_i / alpha_part and content
    beta_part, where the parts of alpha and beta are routed to rows by
    the order-preserving injections ``iota`` and ``jota``, given as
    tuples of images; rows hit by neither would be impossible, so the
    images must cover every row.  The injections and the rows are kept
    as tuples, so a skyline hashes.
    """

    __slots__ = ("gamma", "alpha", "beta", "iota", "jota", "rows")

    gamma: Composition
    alpha: Composition
    beta: Composition
    iota: tuple[int, ...]
    jota: tuple[int, ...]
    rows: tuple[SkewEdgeTableau, ...]

    def __init__(
        self,
        gamma: Composition,
        alpha: Composition,
        beta: Composition,
        iota: Iterable[int],
        jota: Iterable[int],
        rows: tuple[SkewEdgeTableau, ...],
    ):
        iota, jota, rows = tuple(iota), tuple(jota), tuple(rows)
        shapes = _row_shapes(gamma, alpha, beta, iota, jota)
        if len(rows) != len(shapes):
            raise ValueError("need one row per part of gamma")
        for i, (row, shape) in enumerate(zip(rows, shapes), start=1):
            if (row.outer, row.inner, row.content) != shape:
                raise ValueError(f"row {i} does not match the routed shape and content")
        self._set(gamma, alpha, beta, iota, jota, rows)

    def weight(self, convention: WeightConvention = DEFAULT_CONVENTION) -> XYPolynomial:
        _check_convention(convention)
        result = one()
        for row in self.rows:
            result = result * row._weight(convention)
        return result

    def to_record(self) -> dict:
        return {
            "gamma": self.gamma.to_list(),
            "iota": list(self.iota),
            "jota": list(self.jota),
            "rows": [row.to_record() for row in self.rows],
        }


def enumerate_skylines(
    alpha: Composition,
    beta: Composition,
    gamma: Composition,
    iota: tuple[int, ...],
    jota: tuple[int, ...],
) -> list[SkylineTableau]:
    """All skyline stacks for one routing of alpha and beta into gamma,
    the injections ``iota`` and ``jota`` given as tuples of images.

    Empty when some row admits no tableau.  A row hit by neither
    injection is one: it would have shape gamma_i / 0 and content 0,
    and gamma_i >= 1 boxes need as many labels.
    """
    iota, jota = tuple(iota), tuple(jota)
    per_row = []
    for shape in _row_shapes(gamma, alpha, beta, iota, jota):
        choices = enumerate_tableaux(*shape)
        if not choices:
            return []
        per_row.append(choices)
    return [
        SkylineTableau(gamma, alpha, beta, iota, jota, tuple(rows))
        for rows in itertools.product(*per_row)
    ]
