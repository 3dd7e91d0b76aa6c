"""Exact sparse polynomials in two families of indexed variables.

Everything in this package computes inside the ring Z[x_1, x_2, ...;
y_1, y_2, ...].  ``Monomial`` is the readable form of a monomial: its
x- and y-exponents as sorted tuples of (index, exponent) pairs, indices
1-based and exponents positive.  The constructor of ``XYPolynomial``,
``sorted_terms``, the records and the printed form all speak
``Monomial``.

Representation.  Inside ``XYPolynomial`` each monomial is one
nonnegative int, its packed exponent vector (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007), with one byte per field, lowest byte first:

    byte 0        total degree
    byte 1        x-degree
    byte 2i       exponent of x_i
    byte 2j + 1   exponent of y_j

Multiplying two monomials is adding their ints, and an int is only as
wide as the highest variable index it uses, so indices are unbounded.
A polynomial maps packed monomials to nonzero integer coefficients.
Polynomials are immutable and hashable; equality of polynomials is
equality of the mathematical objects, and a constant equals its int
and hashes as it.  Every value type of the package, this one
included, derives from ``_Record``, the one guard that refuses both
setting and deleting an attribute.  A polynomial's hash is found once,
when first asked for, and kept, so a value that many table rows share
is hashed once, not once per row.

Limit.  Every field is at most the total degree, so no field carries
into the next while total degrees stay at most ``MAX_DEGREE`` (255).
Products, powers and every construction from ``Monomial`` keys or
records check the degree first and raise ``ValueError`` above the
limit; a field never wraps.  A product scans both factors for their
largest total degree and checks the sum; a polynomial carries no
degree of its own.

Terms dicts.  The routing walk (``compositions.routing_outcomes``) and
the certifier's cell walk (``lrcalc._cell_walk``) sum and multiply on
terms dicts, not on polynomials.  ``_add_into(out, a)`` adds ``a``
into ``out`` in place; ``_add_terms(a, b)`` returns a + b as a new
dict, as ``+`` does, by a loop of its own, so a sum that the walks'
memos miss is one call; ``_mul_terms(a, b)`` returns a * b as a new
dict, shifting keys for a one-term factor as ``*`` does;
``_mul_into(out, a, b)`` adds a * b into ``out`` in place.  The two
sums and ``_mul_into`` drop the keys that cancel.  None of them checks
the degree limit: a caller checks it first, as ``*`` does.  Both walks
keep one rule: a dict, once stored in a table, is never changed.  A
value is stored as it is, or as a product or sum that ``_mul_terms``
or ``_add_terms`` made into a fresh dict, so tables share values
freely.  Both walks also hash-cons their values, one object per value,
and compute a product or a sum only the first time their memos meet
the pair of operands.  The routing walk keeps one polynomial per
value, and its merge steps for each pair of parts, in its
``RoutingTables``, for one call, or for the command in the walks of a
``table`` sweep.  The cell walk keeps one terms dict per value in its
``lrcalc._CellTable``, for one ``verify_expansion`` call.  The
in-place helpers add only into a dict that their caller's own code is
still filling: ``lrcalc._cell_product``, ``tableaux.row_weight_sum``
and ``substitute``.  The cell walk keys its terms dicts by cell
prefixes packed into ints as well, in a layout of its own (a bit mask
of the nonzero x-positions below their parts), described in
``lrcalc._cell_walk``; those keys are never monomials.

Order.  The canonical term order, used for printing and serialization,
is graded lexicographic with the x-block before the y-block: higher
total degree first, ties broken by the exponent vector read along
x_1, x_2, ..., y_1, y_2, ... (higher exponent on an earlier variable
wins).  Every sort of terms uses the one key ``_order_key``.

Coordinates.  ``_x_coordinates`` groups terms by x-part, giving their
coordinates in the Z[y]-basis of x-monomials.  ``_cell_coordinates``
first trades x-exponents for y-variables on the packed keys, giving the
Z[y]-basis prod_i phi_{a_i}(x_i), phi_a(x) = (x - y_1) ... (x - y_a).
Both give each coordinate as a terms dict.  ``qsym`` reads the
M-expansion and quasisymmetry off these coordinates.

Serialization.  ``to_records`` gives a polynomial's JSON-ready term
records.  ``RecordsEncoder`` writes the JSON text of those records
straight from the packed terms, equal to ``json.dumps`` of them.  For
as long as the encoder lives it remembers the text of each polynomial
value it has encoded and, behind that, each monomial's sort key and
text.  The CLI's ``table`` and ``product`` commands make one encoder
per command, so each distinct coefficient of a command is encoded once
and both memos grow with the command's distinct coefficients: time
bought with memory that its output already bounds.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Union

Variable = tuple[str, int]

ExponentPairs = tuple[tuple[int, int], ...]

MAX_DEGREE = 255


def _is_int(value) -> bool:
    """Whether ``value`` is an int and not a bool."""
    return type(value) is not bool and isinstance(value, int)


class _Record:
    """Immutable fields named by ``__slots__``, compared, hashed and
    shown as the tuple of their values; set once by ``_set``, in the
    order of ``__slots__``.  The package's one immutability guard:
    every value type derives from it, and a type may give its own
    equality, hash and repr."""

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _normalize_exponents(data) -> ExponentPairs:
    """Sort (index, exponent) pairs, drop zeros, reject bad values."""
    if isinstance(data, Mapping):
        data = data.items()
    cleaned = []
    for index, exponent in data:
        if not (_is_int(index) and _is_int(exponent)):
            raise ValueError("variable indices and exponents must be integers")
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        if exponent:
            cleaned.append((index, exponent))
    cleaned.sort()
    for k in range(1, len(cleaned)):
        if cleaned[k - 1][0] == cleaned[k][0]:
            raise ValueError(f"repeated variable index {cleaned[k][0]}")
    return tuple(cleaned)


class Monomial(NamedTuple):
    """A product of x- and y-variables with positive exponents.

    ``x`` and ``y`` are sorted tuples of (index, exponent) pairs.  The
    empty monomial ``Monomial()`` is the unit.
    """

    x: ExponentPairs = ()
    y: ExponentPairs = ()

    @classmethod
    def make(cls, x=(), y=()) -> Monomial:
        """Build a monomial from mappings or pair iterables, validating."""
        return cls(_normalize_exponents(x), _normalize_exponents(y))

    def __str__(self) -> str:
        if not self.x and not self.y:
            return "1"
        bits = []
        for family, pairs in (("x", self.x), ("y", self.y)):
            for index, exponent in pairs:
                bits.append(
                    f"{family}{index}" if exponent == 1 else f"{family}{index}^{exponent}"
                )
        return "*".join(bits)


# ----------------------------------------------------------------------
# packed monomials


def _check_degree(degree: int) -> None:
    if degree > MAX_DEGREE:
        raise ValueError(
            f"total degree {degree} exceeds the packed-exponent limit {MAX_DEGREE}"
        )


def _pack(x: ExponentPairs, y: ExponentPairs) -> int:
    """The packed key of validated exponent pairs."""
    x_degree = sum(e for _, e in x)
    degree = x_degree + sum(e for _, e in y)
    _check_degree(degree)
    key = degree | x_degree << 8
    for i, e in x:
        key |= e << 16 * i
    for j, e in y:
        key |= e << 16 * j + 8
    return key


def _y_key(j: int) -> int:
    """The packed key of y_j."""
    return 1 << 16 * j + 8 | 1


def _width(keys) -> int:
    """Bytes needed for the widest of ``keys``."""
    return (max(keys, default=0).bit_length() + 7) // 8


def _fields(key: int, width: int) -> tuple[bytes, bytes]:
    """The x- and y-exponents of a key, x_1 and y_1 first."""
    b = key.to_bytes(width, "little")
    return b[2::2], b[3::2]


def _order_key(key: int) -> tuple[int, bytes, bytes]:
    """(total degree, x bytes, y bytes), trailing zero bytes stripped so
    that keys of any width compare; the canonical order sorts descending."""
    b = key.to_bytes(_width((key,)) or 1, "little")
    return b[0], b[2::2].rstrip(b"\0"), b[3::2].rstrip(b"\0")


def _monomial(xs: bytes, ys: bytes) -> Monomial:
    return Monomial(
        tuple((i, e) for i, e in enumerate(xs, 1) if e),
        tuple((j, e) for j, e in enumerate(ys, 1) if e),
    )


def _masks(width: int) -> tuple[int, int]:
    """Ones over the x-fields and over the y-fields of ``width``-byte keys."""
    pairs = (width + 1) // 2
    x_mask = int.from_bytes(b"\0\0" + b"\xff\0" * pairs, "little")
    return x_mask, x_mask << 8


def _add_into(out: dict[int, int], terms: Mapping[int, int]) -> None:
    """out += terms in place, dropping the coefficients that cancel."""
    for k, c in terms.items():
        v = out.get(k)
        if v is None:
            out[k] = c
        else:
            v += c
            if v:
                out[k] = v
            else:
                del out[k]


def _add_terms(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """a + b as a new terms dict: the larger copied, the smaller added in
    by a loop of its own, so a sum is one call."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    for k, c in b.items():
        v = out.get(k)
        if v is None:
            out[k] = c
        else:
            v += c
            if v:
                out[k] = v
            else:
                del out[k]
    return out


def _mul_terms(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """a * b as a new terms dict, with no check of the degree limit."""
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # distinct keys shifted by one key stay distinct, and a product
        # of nonzero integers is nonzero
        ((ka, ca),) = a.items()
        return {ka + kb: ca * cb for kb, cb in b.items()}
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return out


def _mul_into(out: dict[int, int], a: Mapping[int, int], b: Mapping[int, int]) -> None:
    """out += a * b in place, dropping the coefficients that cancel; no
    check of the degree limit."""
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            v = get(k, 0) + ca * cb
            if v:
                out[k] = v
            else:
                del out[k]


def _x_free_key(key: int, y_mask: int) -> int:
    """The key with its x-exponents removed."""
    return key & y_mask | (key & 255) - (key >> 8 & 255)


class XYPolynomial(_Record):
    """Integer polynomial in the x- and y-variables, in canonical form."""

    __slots__ = ("terms", "_hash")

    terms: dict[int, int]
    # the hash once found; unset until then, so _raw never touches it
    _hash: int

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        cleaned: dict[int, int] = {}
        if terms:
            for monomial, coefficient in terms.items():
                if not isinstance(monomial, Monomial):
                    raise TypeError("keys must be Monomial instances")
                if not _is_int(coefficient):
                    raise TypeError("coefficients must be integers")
                if coefficient:
                    key = _pack(
                        _normalize_exponents(monomial.x),
                        _normalize_exponents(monomial.y),
                    )
                    cleaned[key] = coefficient
        _set_terms(self, cleaned)

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> XYPolynomial:
        # trusted constructor: terms already canonical, never shared mutably
        p = object.__new__(cls)
        _set_terms(p, terms)
        return p

    # ------------------------------------------------------------------
    # ring structure

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = constant(int(other))
        if not isinstance(other, XYPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            terms = self.terms
            # a constant equals its int, so it hashes as that int
            if terms.keys() <= {0}:
                h = hash(terms.get(0, 0))
            else:
                h = hash(frozenset(terms.items()))
            _set_hash(self, h)
            return h

    def __neg__(self) -> XYPolynomial:
        return XYPolynomial._raw({k: -c for k, c in self.terms.items()})

    def __add__(self, other) -> XYPolynomial:
        if isinstance(other, int):
            other = constant(int(other))
        if not isinstance(other, XYPolynomial):
            return NotImplemented
        return XYPolynomial._raw(_add_terms(self.terms, other.terms))

    __radd__ = __add__

    def __sub__(self, other) -> XYPolynomial:
        if isinstance(other, int):
            other = constant(int(other))
        if not isinstance(other, XYPolynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other) -> XYPolynomial:
        """The product; a unit factor returns the other one unchanged,
        and a one-term factor shifts the other's keys without merging."""
        if isinstance(other, int):
            other = constant(int(other))
        if not isinstance(other, XYPolynomial):
            return NotImplemented
        a, b = self.terms, other.terms
        if a == _UNIT_TERMS:
            return other
        if b == _UNIT_TERMS:
            return self
        if not a or not b:
            return _ZERO
        _check_degree(max(k & 255 for k in a) + max(k & 255 for k in b))
        return XYPolynomial._raw(_mul_terms(a, b))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> XYPolynomial:
        if not _is_int(n) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                # squaring only when a higher bit still needs it keeps every
                # intermediate within the degree of the result
                base = base * base
        return result

    # ------------------------------------------------------------------
    # structure queries

    def variables(self) -> set[Variable]:
        support = 0
        for key in self.terms:
            support |= key
        xs, ys = _fields(support, _width((support,)))
        return {("x", i) for i, e in enumerate(xs, 1) if e} | {
            ("y", j) for j, e in enumerate(ys, 1) if e
        }

    def is_x_free(self) -> bool:
        return not any(key >> 8 & 255 for key in self.terms)

    def max_x_degree(self) -> int:
        """Largest total x-degree of any term, -1 for the zero polynomial."""
        return max((key >> 8 & 255 for key in self.terms), default=-1)

    def is_homogeneous(self, degree: int) -> bool:
        """Whether every term has the given total degree."""
        return all(key & 255 == degree for key in self.terms)

    def as_int(self) -> int:
        """The value of a constant polynomial; raises if variables remain."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        raise ValueError("polynomial is not constant")

    # ------------------------------------------------------------------
    # the operations the rest of the package is built on

    def substitute(self, assignment: Mapping[Variable, Union[XYPolynomial, int]]) -> XYPolynomial:
        """Simultaneously replace variables by polynomials.

        Variables absent from ``assignment`` are left alone.  The
        substitution is simultaneous: replacement values are never
        re-substituted.  A value that is not an int or polynomial, or
        is a bool, raises ``ValueError``, whether its variable is used.
        """
        values: dict[Variable, XYPolynomial] = {}
        for var, value in assignment.items():
            kind, index = var
            bad_index = not _is_int(index) or index < 1
            if kind not in ("x", "y") or bad_index:
                raise ValueError(f"bad variable {var!r}")
            if not (_is_int(value) or isinstance(value, XYPolynomial)):
                raise ValueError(f"bad value {value!r} for variable {var!r}")
            values[var] = constant(value) if isinstance(value, int) else value
        # (shift of its exponent byte, the key of its first power, value)
        # per replaced variable, x-variables first and each family by
        # index; the key of x_i is 1 at its byte, the total degree and
        # the x-degree, that of y_j 1 at its byte and the total degree
        replaced = []
        for (kind, index), value in sorted(values.items()):
            if kind == "x":
                replaced.append((16 * index, 1 << 16 * index | 1 << 8 | 1, value))
            else:
                replaced.append((16 * index + 8, 1 << 16 * index + 8 | 1, value))
        powers: dict[tuple[int, int], XYPolynomial] = {}
        total: dict[int, int] = {}
        for key, coefficient in self.terms.items():
            factors = []
            for shift, step, value in replaced:
                e = key >> shift & 255
                if e:
                    key -= e * step
                    factors.append((shift, e, value))
            piece = XYPolynomial._raw({key: coefficient})
            for shift, e, value in factors:
                power = powers.get((shift, e))
                if power is None:
                    power = powers[shift, e] = value ** e
                piece = piece * power
                if not piece:
                    break
            _add_into(total, piece.terms)
        return XYPolynomial._raw(total)

    def x_degree_component(self, degree: int) -> XYPolynomial:
        """The sum of terms whose total x-degree equals ``degree``."""
        if not _is_int(degree) or degree < 0:
            raise ValueError("degree must be a nonnegative integer")
        return XYPolynomial._raw(
            {k: c for k, c in self.terms.items() if k >> 8 & 255 == degree}
        )

    # ------------------------------------------------------------------
    # serialization and display

    def _sorted_fields(self) -> list[tuple[bytes, bytes, int]]:
        """(x-exponents, y-exponents, coefficient) in the canonical order."""
        # order keys are distinct, so the coefficients are never compared
        decorated = sorted(
            [(_order_key(key), c) for key, c in self.terms.items()], reverse=True
        )
        return [(xs, ys, c) for (_, xs, ys), c in decorated]

    def sorted_terms(self) -> list[tuple[Monomial, int]]:
        """Terms in the canonical order, largest monomial first."""
        return [(_monomial(xs, ys), c) for xs, ys, c in self._sorted_fields()]

    def to_records(self) -> list[dict]:
        """JSON-ready term records in the canonical term order."""
        return [
            {
                "coeff": str(c),
                "x": [[i, e] for i, e in enumerate(xs, 1) if e],
                "y": [[j, e] for j, e in enumerate(ys, 1) if e],
            }
            for xs, ys, c in self._sorted_fields()
        ]

    @classmethod
    def from_records(cls, records: Iterable[Mapping]) -> XYPolynomial:
        """Inverse of :meth:`to_records`; tolerates non-canonical input."""
        total: dict[int, int] = {}
        for record in records:
            key = _pack(
                _normalize_exponents(tuple((i, e) for i, e in record["x"])),
                _normalize_exponents(tuple((j, e) for j, e in record["y"])),
            )
            coefficient = int(record["coeff"])
            value = total.get(key, 0) + coefficient
            if value:
                total[key] = value
            else:
                total.pop(key, None)
        return cls._raw(total)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for monomial, coefficient in self.sorted_terms():
            sign = "-" if coefficient < 0 else "+"
            magnitude = abs(coefficient)
            body = str(monomial)
            if body == "1":
                text = str(magnitude)
            elif magnitude == 1:
                text = body
            else:
                text = f"{magnitude}*{body}"
            pieces.append((sign, text))
        first_sign, first_text = pieces[0]
        out = ("-" if first_sign == "-" else "") + first_text
        for sign, text in pieces[1:]:
            out += f" {sign} {text}"
        return out

    def __repr__(self) -> str:
        return f"XYPolynomial({self})"


# the slots' own setters, past the immutability guard of _Record;
# faster than _set on the hot path of _raw
_set_terms = XYPolynomial.terms.__set__
_set_hash = XYPolynomial._hash.__set__


def _cell_coordinates(
    p: XYPolynomial, n_x: int
) -> dict[tuple[int, ...], dict[int, int]]:
    """The coordinates of ``p`` in the cell basis prod_i phi_{a_i}(x_i),
    where phi_a(x) = (x - y_1) ... (x - y_a).

    Keyed by (a_1, ..., a_n_x), each value the terms dict of the nonzero
    x-free coefficient of that basis element; ``p`` must use no
    x-variable past x_n_x.  Each phi_a is monic of degree a, so the
    products form a Z[y]-basis and the coordinates are unique.

    The terms are converted one x-variable at a time, by the conversion
    to the Newton basis with nodes y_1, y_2, ...: bucketed by their
    exponent e of x_i, up to d, for j = 1..d and e = d - 1 down to j - 1
    bucket[e] gains bucket[e + 1] with one x_i traded for y_j.  Then
    x_i's byte holds a_i.  A trade keeps the total degree, so no field
    can pass ``MAX_DEGREE``.
    """
    terms = p.terms
    for i in range(1, n_x + 1):
        shift = 16 * i
        by_exponent: dict[int, dict[int, int]] = {}
        for key, c in terms.items():
            e = key >> shift & 255
            bucket = by_exponent.get(e)
            if bucket is None:
                bucket = by_exponent[e] = {}
            bucket[key] = c
        d = max(by_exponent, default=0)
        if not d:
            continue
        buckets = [by_exponent.get(e) or {} for e in range(d + 1)]
        for j in range(1, d + 1):
            trade = (1 << 16 * j + 8) - (1 << shift) - (1 << 8)
            for e in range(d - 1, j - 2, -1):
                out = buckets[e]
                get = out.get
                for key, c in buckets[e + 1].items():
                    key += trade
                    v = get(key, 0) + c
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        terms = {}
        for bucket in buckets:
            terms.update(bucket)
    return _x_coordinates(terms, n_x)


def _x_coordinates(
    terms: Mapping[int, int], n_x: int
) -> dict[tuple[int, ...], dict[int, int]]:
    """The terms grouped by x-part, x stripped from each key: keyed by
    (e_1, ..., e_n_x), the terms dict of the nonzero x-free coefficient
    of x_1^e_1 ... x_n_x^e_n_x.  ``terms`` must use no x-variable past
    x_n_x."""
    x_mask, y_mask = _masks(_width(terms))
    groups: dict[int, dict[int, int]] = {}
    for key, c in terms.items():
        x_part = key & x_mask
        group = groups.get(x_part)
        if group is None:
            group = groups[x_part] = {}
        group[_x_free_key(key, y_mask)] = c
    width = 2 * n_x + 1
    return {
        tuple(x_part.to_bytes(width, "little")[2::2]): group
        for x_part, group in groups.items()
    }


def _pairs_text(exponents: bytes) -> str:
    """JSON text of the (index, exponent) pairs of one variable family."""
    pairs = [f"[{i}, {e}]" for i, e in enumerate(exponents, 1) if e]
    return "[" + ", ".join(pairs) + "]"


class RecordsEncoder:
    """The JSON text of ``to_records``, written straight from packed terms.

    ``encode(p)`` equals ``json.dumps(p.to_records())``, key order and
    separators included.  The encoder has two memos.  In front, the
    text of each polynomial value it has encoded, so a table whose rows
    repeat a coefficient encodes it once.  Behind it, for each packed
    monomial it has met, the monomial's canonical sort key and its
    ``"x": [...], "y": [...]`` text, so coefficients that share
    monomials build each monomial's text once.  Both memos grow with
    the distinct values and monomials the encoder meets, and are never
    cleared.
    """

    __slots__ = ("_monomials", "_texts")

    def __init__(self):
        self._monomials: dict[int, tuple[tuple[int, bytes, bytes], str]] = {}
        self._texts: dict[XYPolynomial, str] = {}

    def _monomial(self, key: int) -> tuple[tuple[int, bytes, bytes], str]:
        order = _order_key(key)
        _, xs, ys = order
        entry = (order, f'"x": {_pairs_text(xs)}, "y": {_pairs_text(ys)}')
        self._monomials[key] = entry
        return entry

    def encode(self, p: XYPolynomial) -> str:
        text = self._texts.get(p)
        if text is not None:
            return text
        memo = self._monomials
        entries = [
            (memo.get(key) or self._monomial(key), c) for key, c in p.terms.items()
        ]
        # sort keys are distinct, so the texts are never compared
        entries.sort(reverse=True)
        text = (
            "["
            + ", ".join([f'{{"coeff": "{c}", {body}}}' for (_, body), c in entries])
            + "]"
        )
        self._texts[p] = text
        return text


def constant(value: int) -> XYPolynomial:
    """The constant polynomial ``value``."""
    if not _is_int(value):
        raise TypeError("constant must be an integer")
    if value == 0:
        return _ZERO
    return XYPolynomial._raw({0: value})


def x_var(index: int) -> XYPolynomial:
    """The variable x_index as a polynomial."""
    if not _is_int(index) or index < 1:
        raise ValueError("index must be a positive integer")
    return XYPolynomial._raw({1 | 1 << 8 | 1 << 16 * index: 1})


def y_var(index: int) -> XYPolynomial:
    """The variable y_index as a polynomial."""
    if not _is_int(index) or index < 1:
        raise ValueError("index must be a positive integer")
    return XYPolynomial._raw({_y_key(index): 1})


_ZERO = XYPolynomial._raw({})
_ONE = XYPolynomial._raw({0: 1})
_UNIT_TERMS = {0: 1}


def zero() -> XYPolynomial:
    return _ZERO


def one() -> XYPolynomial:
    return _ONE
