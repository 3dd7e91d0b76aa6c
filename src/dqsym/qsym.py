"""Double monomial quasisymmetric functions in truncated variable sets.

The double monomial function of a composition (a_1, ..., a_k) is

    M_alpha(x, y) = sum over 1 <= i_1 < ... < i_k of
                    prod_l prod_{j=1}^{a_l} (x_{i_l} - y_j),

where the inner index j restarts at 1 for every row l.  Setting every
y_j to 0 recovers the ordinary monomial quasisymmetric function.  A
``TruncationContext`` fixes finite variable sets x_1..x_n_x and
y_1..y_n_y; all computation happens inside that truncation, with
coefficients in the x-free subring Z[y].

``expand_in_M`` inverts the construction: it rewrites a quasisymmetric
polynomial as a Z[y]-combination of double monomial functions by
repeatedly peeling the top x-degree.  The top-degree part of M_alpha is
its y-free leading sum, whose minimal-index representative is the
monomial x_1^{a_1} ... x_k^{a_k}; reading those coefficients off and
subtracting must strictly lower the top x-degree, and a round that
fails to do so proves the input is not in the span.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .compositions import Composition
from .polynomial import Residual, XYPolynomial, constant, one, x_var, y_var, zero


class TruncationTooSmall(ValueError):
    """The truncation has too few variables for the requested object."""


class NotInMaximalIdeal(ValueError):
    """A generator argument has a nonzero constant term."""


class NotInSpan(ValueError):
    """The polynomial is not a Z[y]-combination of double monomials."""


class TruncationContext:
    """Finite variable window: x_1..x_n_x and y_1..y_n_y."""

    __slots__ = ("n_x", "n_y")

    def __init__(self, n_x: int, n_y: int):
        if not isinstance(n_x, int) or n_x < 0 or not isinstance(n_y, int) or n_y < 0:
            raise ValueError("variable counts must be >= 0")
        object.__setattr__(self, "n_x", n_x)
        object.__setattr__(self, "n_y", n_y)

    def __setattr__(self, name, value):
        raise AttributeError("TruncationContext is immutable")

    @classmethod
    def for_product(cls, alpha: Composition, beta: Composition) -> TruncationContext:
        """A truncation large enough to certify the product expansion.

        len(alpha) + len(beta) x-variables keep the double monomials of
        every composition in the product's support independent, and
        |alpha| + |beta| + 1 y-variables cover every y-index a structure
        coefficient can mention.
        """
        return cls(len(alpha) + len(beta), alpha.size() + beta.size() + 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncationContext):
            return NotImplemented
        return self.n_x == other.n_x and self.n_y == other.n_y

    def __hash__(self):
        return hash((self.n_x, self.n_y))

    def __repr__(self) -> str:
        return f"TruncationContext(n_x={self.n_x}, n_y={self.n_y})"


@lru_cache(maxsize=None)
def cell_class(part: int, x_index: int) -> XYPolynomial:
    """prod_{j=1}^{part} (x_{x_index} - y_j), the factor one row contributes."""
    if part < 0 or x_index < 1:
        raise ValueError("part must be >= 0 and x_index >= 1")
    result = one()
    for j in range(1, part + 1):
        result = result * (x_var(x_index) - y_var(j))
    return result


_double_monomial_cache: dict[tuple[tuple[int, ...], int], XYPolynomial] = {}


def double_monomial(alpha: Composition, ctx: TruncationContext) -> XYPolynomial:
    """The double monomial function of ``alpha`` in the truncation ``ctx``.

    Raises TruncationTooSmall unless len(alpha) <= ctx.n_x and every
    part is at most ctx.n_y.  The empty composition gives 1.
    """
    if len(alpha) > ctx.n_x:
        raise TruncationTooSmall(
            f"composition {alpha} needs {len(alpha)} x-variables, have {ctx.n_x}"
        )
    if alpha.max_part() > ctx.n_y:
        raise TruncationTooSmall(
            f"composition {alpha} needs {alpha.max_part()} y-variables, have {ctx.n_y}"
        )
    key = (alpha.parts, ctx.n_x)
    cached = _double_monomial_cache.get(key)
    if cached is None:
        cached = zero()
        for indices in itertools.combinations(range(1, ctx.n_x + 1), len(alpha)):
            piece = one()
            for part, index in zip(alpha.parts, indices):
                piece = piece * cell_class(part, index)
            cached = cached + piece
        _double_monomial_cache[key] = cached
    return cached


def monomial_qsym(alpha: Composition, ctx: TruncationContext) -> XYPolynomial:
    """The ordinary monomial quasisymmetric polynomial: y set to 0."""
    doubled = double_monomial(alpha, ctx)
    return doubled.substitute(
        {var: 0 for var in doubled.variables() if var[0] == "y"}
    )


def _check_variables(p: XYPolynomial, ctx: TruncationContext) -> None:
    for kind, index in p.variables():
        bound = ctx.n_x if kind == "x" else ctx.n_y
        if index > bound:
            raise ValueError(
                f"polynomial uses {kind}{index}, outside the truncation {ctx!r}"
            )


def is_quasisymmetric(p: XYPolynomial, ctx: TruncationContext) -> bool:
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

    def at_variable(f: XYPolynomial, index: int) -> XYPolynomial:
        return f.substitute({("x", 1): x_var(index)})

    total = zero()
    for indices in itertools.combinations(range(1, ctx.n_x + 1), len(factors)):
        piece = one()
        for f, index in zip(factors, indices):
            piece = piece * at_variable(f, index)
        total = total + piece
    return total


class Expansion:
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
                if not value.is_x_free():
                    raise ValueError(f"coefficient of {composition} involves x")
                if value:
                    cleaned[composition] = value
        object.__setattr__(self, "coeffs", cleaned)

    @classmethod
    def _raw(cls, coeffs: dict[Composition, XYPolynomial]) -> Expansion:
        # trusted constructor: nonzero x-free coefficients, never shared mutably
        e = object.__new__(cls)
        object.__setattr__(e, "coeffs", coeffs)
        return e

    def __setattr__(self, name, value):
        raise AttributeError("Expansion is immutable")

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
        return [g for g, _ in self.items()]

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

    Peels the residual from the top x-degree down.  At degree d every
    composition gamma with |gamma| = d present in the residual shows up
    through its minimal-index leading monomial x_1^{g_1}...x_k^{g_k};
    its coefficient is read off with ``leading_x_coefficients`` and
    coefficient * M_gamma is subtracted from the residual in place,
    without building the product.  The remaining x-free part, if any,
    is the coefficient of the empty composition.  Raises
    NotInSpan when a round fails to lower the top x-degree or needs a
    composition outside the truncation: that happens exactly when ``p``
    is not quasisymmetric in ``ctx`` or the truncation is too small.
    """
    _check_variables(p, ctx)
    coeffs: dict[Composition, XYPolynomial] = {}
    residual = Residual(p)
    degree = residual.max_x_degree()
    while residual:
        if degree == 0:
            coeffs[Composition()] = residual.freeze()
            break
        found = residual.x_degree_component(degree).leading_x_coefficients()
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
            residual.subtract_product(found[parts], basis)
            coeffs[gamma] = found[parts]
        new_degree = residual.max_x_degree()
        if new_degree >= degree:
            raise NotInSpan(
                f"top x-degree stuck at {degree}; polynomial is not quasisymmetric"
            )
        degree = new_degree
    return Expansion(coeffs)
