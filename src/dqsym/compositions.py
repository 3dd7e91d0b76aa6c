"""Compositions, order-preserving injections, routings, overlapping shuffles.

A composition is a finite sequence of positive integers; the empty
composition is allowed and indexes the unit of every algebra in this
package.

A ``Composition`` is a tuple of its parts: it hashes, compares equal,
indexes and iterates as that plain tuple does, so compositions and
the walks' tuples of row parts key the same dict entries.  Its order
is the canonical order on compositions, used wherever a deterministic
sweep or serialization order is needed, and it is graded: first by
the sum of parts, then by length, then lexicographically.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Sequence

from .polynomial import (
    _UNIT_TERMS,
    MAX_DEGREE,
    XYPolynomial,
    _add_into,
    _check_degree,
    _mul_into,
    _mul_terms,
    one,
)


class Composition(tuple):
    """An immutable sequence of positive integer parts.

    A composition is a tuple of its parts, so it hashes and compares
    equal exactly as the plain tuple of those parts does, and a slice
    of it is a plain tuple.  Its order is not the tuple's: ``<``,
    ``<=``, ``>`` and ``>=`` follow the canonical graded order of
    ``sort_key``.
    """

    __slots__ = ()

    # the tuple is built by tuple.__new__; __init__ only validates it
    def __init__(self, parts: Iterable[int] = ()):
        for part in self:
            if type(part) is bool or not isinstance(part, int) or part < 1:
                raise ValueError(f"parts must be positive integers, got {part!r}")

    # trusted constructor: parts already a tuple of positive ints
    _raw = classmethod(tuple.__new__)

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts as a plain tuple."""
        return self[:]

    def size(self) -> int:
        """Sum of the parts."""
        return sum(self)

    def max_part(self) -> int:
        """Largest part, 0 for the empty composition."""
        return max(self, default=0)

    def sort_key(self):
        return (sum(self), len(self), self[:])

    def __lt__(self, other: Composition) -> bool:
        return self.sort_key() < other.sort_key()

    def __le__(self, other: Composition) -> bool:
        return self.sort_key() <= other.sort_key()

    def __gt__(self, other: Composition) -> bool:
        return self.sort_key() > other.sort_key()

    def __ge__(self, other: Composition) -> bool:
        return self.sort_key() >= other.sort_key()

    def to_list(self) -> list[int]:
        """Serialized form: a plain integer array."""
        return list(self)

    def __str__(self) -> str:
        return "[" + ",".join(map(str, self)) + "]"

    def __repr__(self) -> str:
        return f"Composition({list(self)})"


def enumerate_compositions(max_length: int, max_part: int) -> list[Composition]:
    """All compositions with at most ``max_length`` parts, each at most
    ``max_part``, in the canonical graded order.

    The count is sum(max_part**k for k in range(max_length + 1)).
    """
    if max_length < 0 or max_part < 0:
        raise ValueError("bounds must be >= 0")
    found = [
        Composition(parts)
        for length in range(max_length + 1)
        for parts in itertools.product(range(1, max_part + 1), repeat=length)
    ]
    found.sort(key=Composition.sort_key)
    return found


def compositions_of_size(size: int, max_length: int, max_part: int) -> list[Composition]:
    """All compositions of ``size`` with at most ``max_length`` parts,
    each at most ``max_part``, in the canonical graded order (by length,
    then lexicographically).

    Built from the last part forward, keeping the tails of j parts only
    for the sums that the parts before them can still complete to
    ``size``, so every tail built ends some composition returned.
    """
    if size < 0 or max_length < 0 or max_part < 0:
        raise ValueError("size and bounds must be >= 0")
    found = []
    for length in range(min(max_length, size) + 1):
        tails: dict[int, list[tuple[int, ...]]] = {0: [()]}
        for j in range(1, length + 1):
            left = length - j
            tails = {
                total: [
                    (first,) + tail
                    for first in range(1, max_part + 1)
                    for tail in tails.get(total - first, ())
                ]
                for total in range(
                    max(j, size - left * max_part), min(j * max_part, size - left) + 1
                )
            }
        found.extend(Composition(parts) for parts in tails.get(size, ()))
    return found


class OrderedInjection:
    """A strictly increasing map from [1..source_size] into [1..target_size]."""

    __slots__ = ("images", "target_size", "image_set")

    images: tuple[int, ...]
    target_size: int
    image_set: frozenset[int]

    def __init__(self, images: Iterable[int], target_size: int):
        images = tuple(images)
        if (
            type(target_size) is bool
            or not isinstance(target_size, int)
            or target_size < 0
        ):
            raise ValueError("target_size must be >= 0")
        previous = 0
        for image in images:
            if (
                type(image) is bool
                or not isinstance(image, int)
                or not previous < image <= target_size
            ):
                raise ValueError(
                    f"images must increase strictly within [1, {target_size}], got {images}"
                )
            previous = image
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "target_size", target_size)
        object.__setattr__(self, "image_set", frozenset(images))

    def __setattr__(self, name, value):
        raise AttributeError("OrderedInjection is immutable")

    @property
    def source_size(self) -> int:
        return len(self.images)

    def part_at(self, parts: Sequence[int], target: int) -> int:
        """Route ``parts`` along the injection: the k-th part lands at
        position ``images[k]``; positions not hit receive 0."""
        if len(parts) != len(self.images):
            raise ValueError("parts length must equal source_size")
        for k, image in enumerate(self.images):
            if image == target:
                return parts[k]
        return 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrderedInjection):
            return NotImplemented
        return self.images == other.images and self.target_size == other.target_size

    def __hash__(self):
        return hash((self.images, self.target_size))

    def __repr__(self) -> str:
        return f"OrderedInjection({list(self.images)}, target_size={self.target_size})"


def enumerate_injections(source_size: int, target_size: int) -> list[OrderedInjection]:
    """All order-preserving injections [1..source_size] -> [1..target_size].

    There are C(target_size, source_size) of them, listed with images in
    lexicographic order; the list is empty when source_size exceeds
    target_size.
    """
    if source_size < 0 or target_size < 0:
        raise ValueError("sizes must be >= 0")
    return [
        OrderedInjection(images, target_size)
        for images in itertools.combinations(range(1, target_size + 1), source_size)
    ]


def routing_outcomes(
    alpha: Sequence[int],
    beta: Sequence[int],
    merges,
    tables=None,
    target: Sequence[int] | None = None,
) -> dict:
    """Every outcome of the routing walk with its summed weight.

    A covering routing of the parts of ``alpha`` and ``beta`` into rows
    is a lattice path from (0, 0) to (len(alpha), len(beta)): state
    (k, m) has placed the first k parts of alpha and the first m of
    beta.  Each step fills the next row with the next part of alpha
    (step A), the next part of beta (step B), or both at once (step
    AB), for which ``merges(a, b)`` maps each possible row part c to
    its weight, an ``XYPolynomial`` homogeneous of degree a + b - c.
    An outcome is the tuple of row parts along a path, and its weight
    the product of the path's merge weights, ``one()`` for a path of
    lone parts; a merge of weight 1 is stepped without a product.

    Filled bottom-up, with k and then m descending: the table of state
    (k, m) maps each suffix of row parts that routes alpha[k:] and
    beta[m:] to its summed weight, so a suffix shared by many paths is
    extended once per step, not once per path.  A table is built on
    the terms dicts of the polynomial kernel.  A key's first
    contribution is stored as the object it is: the next state's value
    for a step without a product, the weight itself for a product with
    a unit value, as ``*`` returns it, and else a fresh product dict.
    A second contribution copies the key's terms once, and later ones
    add into that copy in place.  When the state is done each dict it
    built is wrapped as one ``XYPolynomial``, so a table holds
    polynomials and never changes a value it did not build.

    By the degree of the merges, an entry of state (k, m) has degree
    |alpha[k:]| + |beta[m:]| - |suffix|, at most
    min(|alpha|, |beta|).  So the packed-exponent limit ``MAX_DEGREE``
    is checked only when that minimum passes it, and then for every
    product entry as it is written, from those sizes.

    With a ``target`` composition the walk keeps only the suffixes that
    end ``target``, and returns at most the one outcome ``target``
    itself.  A targeted walk never reads or writes ``tables``.

    A table depends only on the suffix pair (alpha[k:], beta[m:]), as
    tuples, so untargeted walks can share them.  ``tables`` is an
    optional mapping owned by the caller: a state whose suffix pair it
    holds takes that table, without computing its steps, and every
    table built is offered to it by item assignment, which may decline
    to keep it.  Without a mapping the walk gets a fresh dict.  Share
    one mapping only among walks with the same ``merges``.  The
    returned table may be held by ``tables``; do not mutate it.
    """
    if tables is None or target is not None:
        tables = {}
    alpha, beta = tuple(alpha), tuple(beta)
    la, lb = len(alpha), len(beta)
    if target is not None:
        target = tuple(target)
        last = len(target) - 1
    check = min(sum(alpha), sum(beta)) > MAX_DEGREE
    # this walk's tables by state, whatever the mapping keeps
    walked: dict[tuple[int, int], dict] = {}
    for k in range(la, -1, -1):
        rest = alpha[k:]
        for m in range(lb, -1, -1):
            pair = (rest, beta[m:])
            table = tables.get(pair)
            if table is None:
                if k == la and m == lb:
                    table = {(): one()}
                else:
                    # (table of the next state, row part, weight or None)
                    steps = []
                    if k < la:
                        steps.append((walked[k + 1, m], alpha[k], None))
                    if m < lb:
                        steps.append((walked[k, m + 1], beta[m], None))
                        if k < la:
                            after = walked[k + 1, m + 1]
                            steps.extend(
                                (after, part, None if weight == 1 else weight)
                                for part, weight in merges(alpha[k], beta[m]).items()
                            )
                    if check:
                        size = sum(rest) + sum(beta[m:])
                    # values are polynomials that others may hold, or
                    # terms dicts this state built and alone mutates
                    table = {}
                    for after, part, weight in steps:
                        if weight is not None:
                            w = weight.terms
                        for suffix, value in after.items():
                            if target is not None:
                                at = last - len(suffix)
                                if at < 0 or target[at] != part:
                                    continue
                            key = (part,) + suffix
                            old = table.get(key)
                            if weight is None:
                                if old is None:
                                    table[key] = value
                                elif old.__class__ is dict:
                                    _add_into(old, value.terms)
                                else:
                                    table[key] = terms = dict(old.terms)
                                    _add_into(terms, value.terms)
                                continue
                            v = value.terms
                            if check and v:
                                _check_degree(size - part - sum(suffix))
                            if old is None:
                                # a unit value shares the weight, as * does
                                if v == _UNIT_TERMS:
                                    table[key] = weight
                                else:
                                    table[key] = _mul_terms(w, v)
                            elif old.__class__ is dict:
                                _mul_into(old, w, v)
                            else:
                                table[key] = terms = dict(old.terms)
                                _mul_into(terms, w, v)
                    for key, value in table.items():
                        if value.__class__ is dict:
                            table[key] = XYPolynomial._raw(value)
                tables[pair] = table
            walked[k, m] = table
    return walked[0, 0]


def overlapping_shuffles(alpha: Composition, beta: Composition) -> Counter[Composition]:
    """Multiset of overlapping shuffles of two compositions.

    An overlapping shuffle interleaves the parts of ``alpha`` and
    ``beta``, keeping each one's internal order, with any number of
    pairwise collisions where one part of each is added.  Equivalently,
    for every pair of order-preserving injections of the two part
    sequences into [1..n] whose images jointly cover [1..n], the
    composition whose i-th part sums the parts routed to i.  Counted by
    ``routing_outcomes``, whose merge step is the one row a + b with
    weight 1, so the count is built by additions alone.
    """
    outcomes = routing_outcomes(alpha, beta, lambda a, b: {a + b: one()})
    return Counter(
        {Composition(parts): count.as_int() for parts, count in outcomes.items()}
    )
