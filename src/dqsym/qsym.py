"""Double monomial quasisymmetric functions in truncated variable sets.

The double monomial function of a composition (a_1, ..., a_k) is

    M_alpha(x, y) = sum over 1 <= i_1 < ... < i_k of
                    prod_l prod_{j=1}^{a_l} (x_{i_l} - y_j),

where the inner index j restarts at 1 for every row l.  Setting every
y_j to 0 recovers the ordinary monomial quasisymmetric function.  A
``TruncationContext`` fixes finite variable sets x_1..x_n_x and
y_1..y_n_y; all computation happens inside that truncation, with
coefficients in the x-free subring Z[y].

``expand_in_M`` inverts the construction by a change of basis.  The
cell class phi_a(x_i) = (x_i - y_1) ... (x_i - y_a) (``cell_class``) is
the factorial power (x_i|y)^a of factorial Schur functions (Molev and
Sagan, Trans. AMS 1999).  Each phi_a is monic of degree a in x_i, so the
products prod_i phi_{a_i}(x_i) form a Z[y]-basis of Z[x_1..x_n_x; y],
and in that basis M_gamma has coordinate 1 at each of its
C(n_x, len(gamma)) placements, the cells whose nonzero entries read
gamma in order, and 0 at every other cell.

``is_quasisymmetric`` asks whether restricting to any window of
x-variables, the others set to the basepoint y_1, gives one polynomial.
y_1 kills phi_a(x_i) for a >= 1, so by uniqueness of coordinates that
holds exactly when all placements of each gamma have one coordinate
(0 if missing): ``expand_in_M``'s check, ``_placements``.  With no
y-variables the basepoint 0 kills x_i^a instead, so the check reads
x-monomial coordinates; there the ordinary M_(1,2) in three variables
passes, and in the cell basis it fails.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence

from .compositions import Composition
from .polynomial import (
    XYPolynomial,
    _cell_coordinates,
    _is_int,
    _Record,
    _x_coordinates,
    constant,
    one,
    x_var,
    y_var,
    zero,
)


class TruncationTooSmall(ValueError):
    """The truncation has too few variables for the requested object."""


class NotInMaximalIdeal(ValueError):
    """A generator argument has a nonzero constant term."""


class NotInSpan(ValueError):
    """The polynomial is not a Z[y]-combination of double monomials."""


class TruncationContext(_Record):
    """Finite variable window: x_1..x_n_x and y_1..y_n_y."""

    __slots__ = ("n_x", "n_y")

    n_x: int
    n_y: int

    def __init__(self, n_x: int, n_y: int):
        for count in (n_x, n_y):
            if not _is_int(count) or count < 0:
                raise ValueError("variable counts must be >= 0")
        self._set(n_x, n_y)


def cell_class(part: int, x_index: int) -> XYPolynomial:
    """prod_{j=1}^{part} (x_{x_index} - y_j), the factor one row contributes."""
    if not (_is_int(part) and _is_int(x_index) and part >= 0 and x_index >= 1):
        raise ValueError("part must be >= 0 and x_index >= 1")
    result = one()
    for j in range(1, part + 1):
        result = result * (x_var(x_index) - y_var(j))
    return result


def _placement_sum(length: int, n_x: int, factor) -> XYPolynomial:
    """sum over i_0 < ... < i_{length-1} in 1..n_x of prod factor(row, i_row),
    calling ``factor`` once per (row, index)."""
    table = [[factor(row, i) for i in range(1, n_x + 1)] for row in range(length)]
    total = zero()
    for indices in itertools.combinations(range(n_x), length):
        piece = one()
        for row, index in enumerate(indices):
            piece = piece * table[row][index]
        total = total + piece
    return total


def _check_length(alpha: Composition, ctx: TruncationContext) -> None:
    if len(alpha) > ctx.n_x:
        raise TruncationTooSmall(
            f"composition {alpha} needs {len(alpha)} x-variables, have {ctx.n_x}"
        )


def double_monomial(alpha: Composition, ctx: TruncationContext) -> XYPolynomial:
    """The double monomial function of ``alpha`` in the truncation ``ctx``.

    Raises TruncationTooSmall unless len(alpha) <= ctx.n_x and every
    part is at most ctx.n_y.  The empty composition gives 1.
    """
    _check_length(alpha, ctx)
    if alpha.max_part() > ctx.n_y:
        raise TruncationTooSmall(
            f"composition {alpha} needs {alpha.max_part()} y-variables, have {ctx.n_y}"
        )
    return _placement_sum(
        len(alpha), ctx.n_x, lambda row, index: cell_class(alpha[row], index)
    )


def monomial_qsym(alpha: Composition, ctx: TruncationContext) -> XYPolynomial:
    """The ordinary monomial quasisymmetric polynomial, sum over
    i_1 < ... < i_k of x_{i_1}^{a_1} ... x_{i_k}^{a_k}: the double
    monomial function with y set to 0.

    Raises TruncationTooSmall unless len(alpha) <= ctx.n_x; ctx.n_y is
    not used.
    """
    _check_length(alpha, ctx)
    return _placement_sum(len(alpha), ctx.n_x, lambda row, i: x_var(i) ** alpha[row])


def _check_variables(p: XYPolynomial, ctx: TruncationContext) -> None:
    for kind, index in p.variables():
        bound = ctx.n_x if kind == "x" else ctx.n_y
        if index > bound:
            raise ValueError(
                f"polynomial uses {kind}{index}, outside the truncation {ctx!r}"
            )


def _placements(
    coordinates: Mapping[tuple[int, ...], dict[int, int]], n_x: int
) -> tuple[dict[Composition, dict[tuple[int, ...], dict[int, int]]], str | None]:
    """Coordinates, as terms dicts, grouped as gamma -> placement ->
    coordinate, a key (a_1, ..., a_n_x) placing its nonzero entries at
    their x-indices; and a message naming the first gamma whose
    placements have two coordinates or miss one, or None."""
    by_parts: dict[tuple[int, ...], dict[tuple[int, ...], dict[int, int]]] = {}
    for cell, coordinate in coordinates.items():
        at = by_parts.setdefault(tuple(filter(None, cell)), {})
        at[tuple(itertools.compress(itertools.count(1), cell))] = coordinate
    found = {Composition._raw(parts): at for parts, at in by_parts.items()}
    for gamma, at in found.items():
        first = min(at)
        value = at[first]
        differing = [pl for pl, c in at.items() if c != value]
        if differing:
            return found, (
                f"{gamma} has one coordinate at x-indices {first} and "
                f"another at {min(differing)}; not quasisymmetric"
            )
        if len(at) < math.comb(n_x, len(gamma)):
            placements = itertools.combinations(range(1, n_x + 1), len(gamma))
            missing = next(pl for pl in placements if pl not in at)
            return found, (
                f"{gamma} has a coordinate at x-indices {first} but none "
                f"at {missing}; not quasisymmetric"
            )
    return found, None


def is_quasisymmetric(p: XYPolynomial, ctx: TruncationContext) -> bool:
    """Whether restricting ``p`` to any window of x-variables, the rest
    set to the basepoint, gives one polynomial.  The basepoint y_1 kills
    phi_a(x_i) for a >= 1, so this reads cell coordinates; with no
    y-variables it is 0, which kills x_i^a, so it reads x-monomial ones.
    Either way each gamma's placements must share one coordinate."""
    _check_variables(p, ctx)
    if ctx.n_y:
        coordinates = _cell_coordinates(p, ctx.n_x)
    else:
        coordinates = _x_coordinates(p.terms, ctx.n_x)
    return _placements(coordinates, ctx.n_x)[1] is None


def qsym_generator(factors: Sequence[XYPolynomial], ctx: TruncationContext) -> XYPolynomial:
    """sum over 1 <= k_1 < ... < k_s <= n_x of f_1(x_{k_1}) ... f_s(x_{k_s}).

    Each factor must be a polynomial in x_1 alone with zero constant
    term (raises NotInMaximalIdeal otherwise).  More factors than
    x-variables leaves an empty sum, which is 0.
    """
    factors = list(factors)
    for f in factors:
        extra = f.variables() - {("x", 1)}
        if extra:
            raise ValueError(f"factors must use only x1, found {sorted(extra)}")
        if f.x_degree_component(0):
            raise NotInMaximalIdeal("factor has a nonzero constant term")

    return _placement_sum(
        len(factors),
        ctx.n_x,
        lambda row, index: factors[row].substitute({("x", 1): x_var(index)}),
    )


class Expansion(_Record):
    """A finite Z[y]-combination of double monomial functions.

    Maps compositions to nonzero x-free coefficients.  Supports
    pointwise addition and scaling, which is enough to state
    associativity of the product rule.
    """

    __slots__ = ("coeffs",)

    coeffs: dict[Composition, XYPolynomial]

    def __init__(self, coeffs: Mapping[Composition, XYPolynomial] | None = None):
        cleaned: dict[Composition, XYPolynomial] = {}
        if coeffs:
            for composition, value in coeffs.items():
                if not isinstance(composition, Composition):
                    raise TypeError("keys must be Composition instances")
                if isinstance(value, int):
                    value = constant(value)
                elif not isinstance(value, XYPolynomial):
                    raise TypeError("coefficients must be polynomials or integers")
                if not value.is_x_free():
                    raise ValueError(f"coefficient of {composition} involves x")
                if value:
                    cleaned[composition] = value
        self._set(cleaned)

    @classmethod
    def _raw(cls, coeffs: dict[Composition, XYPolynomial]) -> Expansion:
        # trusted constructor: nonzero x-free coefficients, never shared mutably
        e = object.__new__(cls)
        e._set(coeffs)
        return e

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expansion):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __getitem__(self, composition: Composition) -> XYPolynomial:
        return self.coeffs.get(composition, zero())

    def __contains__(self, composition: Composition) -> bool:
        return composition in self.coeffs

    def items(self) -> list[tuple[Composition, XYPolynomial]]:
        """(composition, coefficient) pairs in the canonical graded order."""
        return [
            (g, self.coeffs[g]) for g in sorted(self.coeffs, key=Composition.sort_key)
        ]

    def support(self) -> list[Composition]:
        """The compositions with a nonzero coefficient, in the order of
        ``items``."""
        return sorted(self.coeffs, key=Composition.sort_key)

    def __add__(self, other: Expansion) -> Expansion:
        if not isinstance(other, Expansion):
            return NotImplemented
        total = dict(self.coeffs)
        for composition, value in other.coeffs.items():
            merged = total.get(composition, zero()) + value
            if merged:
                total[composition] = merged
            else:
                total.pop(composition, None)
        return Expansion._raw(total)

    def scale(self, factor: XYPolynomial | int) -> Expansion:
        """Multiply every coefficient by an x-free polynomial or integer."""
        if isinstance(factor, int):
            factor = constant(factor)
        elif not isinstance(factor, XYPolynomial):
            raise TypeError("scale factor must be a polynomial or an integer")
        if not factor.is_x_free():
            raise ValueError("scale factor must be x-free")
        scaled = {}
        for composition, value in self.coeffs.items():
            product = value * factor
            if product:
                scaled[composition] = product
        return Expansion._raw(scaled)

    def to_records(self) -> list[dict]:
        """JSON-ready records sorted by the canonical composition order."""
        return [
            {"gamma": g.to_list(), "coeff": v.to_records()} for g, v in self.items()
        ]

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> Expansion:
        return cls(
            {
                Composition(record["gamma"]): XYPolynomial.from_records(record["coeff"])
                for record in records
            }
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{g}: {v}" for g, v in self.items())
        return f"Expansion({{{inner}}})"


def expand_in_M(p: XYPolynomial, ctx: TruncationContext) -> Expansion:
    """Write ``p`` as a Z[y]-combination of double monomial functions.

    Reads the expansion off the coordinates of ``p`` in the cell basis
    prod_i phi_{a_i}(x_i).  M_gamma is the sum of its placements'
    cells, so p = sum_gamma c_gamma * M_gamma holds exactly when every
    placement of every gamma has the coordinate c_gamma; the result is
    exact, and the expansion is unique.  Raises NotInSpan,
    naming gamma and the offending placement, when a part of gamma
    exceeds ctx.n_y, when two placements of gamma have different
    coordinates, or when a placement of gamma has none; that happens
    exactly when ``p`` is not quasisymmetric in ``ctx`` or the
    truncation is too small.
    """
    _check_variables(p, ctx)
    found, mismatch = _placements(_cell_coordinates(p, ctx.n_x), ctx.n_x)
    for gamma, at in found.items():
        if gamma.max_part() > ctx.n_y:
            raise NotInSpan(
                f"expansion needs {gamma}, placed at x-indices {min(at)}, "
                f"outside the truncation {ctx!r}"
            )
    if mismatch is not None:
        raise NotInSpan(mismatch)
    return Expansion._raw(
        {
            gamma: XYPolynomial._raw(next(iter(at.values())))
            for gamma, at in found.items()
        }
    )

