"""Compositions, order-preserving injections, routings, overlapping shuffles.

A composition is a finite sequence of positive integers; the empty
composition is allowed and indexes the unit of every algebra in this
package.  An order-preserving injection [1..s] -> [1..t] is the
increasing tuple of its s images.

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
    _HashCons,
    _add_terms,
    _check_degree,
    _is_int,
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
            if not _is_int(part) or part < 1:
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
    if not all(_is_int(v) and v >= 0 for v in (max_length, max_part)):
        raise ValueError("bounds must be >= 0")
    found = [
        Composition._raw(parts)
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
    if not all(_is_int(v) and v >= 0 for v in (size, max_length, max_part)):
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
        found.extend(map(Composition._raw, tails.get(size, ())))
    return found


def enumerate_injections(source_size: int, target_size: int) -> list[tuple[int, ...]]:
    """All order-preserving injections [1..source_size] -> [1..target_size],
    each the increasing tuple of its images.

    There are C(target_size, source_size) of them, in lexicographic
    order; the list is empty when source_size exceeds target_size.
    """
    if not all(_is_int(v) and v >= 0 for v in (source_size, target_size)):
        raise ValueError("sizes must be >= 0")
    return list(itertools.combinations(range(1, target_size + 1), source_size))


class RoutingTables(_HashCons):
    """The routing tables of ``routing_outcomes`` by suffix pair, with
    the memos of ``polynomial._HashCons`` that hash-cons their values,
    and two more; the walks that share the tables share the memos,
    which live as long as this mapping (see ``routing_outcomes``).
    ``merged`` maps the parts (a, b) to the walk's merge steps for
    them, (part, weight) pairs, weight ``None`` for a unit weight and
    else the weight interned in ``canon``: ``merges(a, b)`` is asked
    once per (a, b) for as long as the mapping lives.
    ``negated`` maps id(value) to -value for the walks' values that
    ``lrcalc.product_expand`` signs for the paper-literal convention,
    so equal signed coefficients are one object too; every such value
    is held by ``canon``, so no id it keys is reused.
    """

    __slots__ = ("negated", "merged")

    def __init__(self):
        super().__init__()
        self.negated: dict[int, XYPolynomial] = {}
        self.merged: dict[tuple[int, int], tuple] = {}


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
    extended once per step, not once per path.  The values of a table
    are polynomials that are never mutated: a key's first contribution
    is stored as the object it is, the next state's value for a step
    without a product and else the product, and a later one replaces
    it by the sum.  A product with a unit value is the weight itself,
    as ``*`` returns it.

    The walk hash-conses its values by the memos of its
    ``RoutingTables``, a ``polynomial._HashCons``, which live as long
    as the tables do: ``canon`` holds every value built and every
    merge weight, ``products`` maps id(weight), and then id(value), to
    their canonical product, and ``sums`` maps (id(old), id(value)) to
    their canonical sum.  So a repeated product or sum is looked up,
    not computed, across every walk that shares the tables, and equal
    values are one object.  The state's first lone step of an
    untargeted walk stores its values with no lookup: one step's keys
    are distinct, and the table is still empty.

    A fourth memo, ``merged``, holds the merge steps by parts (a, b).
    The first state that meets (a, b) asks ``merges(a, b)`` and stores
    its (part, weight) pairs, the weight ``None`` for a unit weight and
    else interned in ``canon``; every later state, of this walk or of
    any walk that shares the tables, reads them.  So ``merges`` is
    asked once per (a, b) for as long as the tables live: for one call
    without tables, and for every targeted walk, or for a whole sweep
    that shares them, such as the ``table`` command's.

    Ids key the memos safely because every object whose id keys
    ``products`` or ``sums`` is held by ``canon`` for as long as the
    ``RoutingTables`` lives: weights and built values are interned, and
    a table's values are built values, weights or the unit ``one()``,
    which ``canon`` starts with.  So no id is reused while the memos
    hold it, even when a caller drops tables, and even when ``merges``
    builds fresh weights on every call; the weights of ``merged`` are
    held by ``canon`` too.

    By the degree of the merges, an entry of state (k, m) has degree
    |alpha[k:]| + |beta[m:]| - |suffix|, at most
    min(|alpha|, |beta|).  So the packed-exponent limit ``MAX_DEGREE``
    is checked only when that minimum passes it, and then for every
    product entry as it is written, from those sizes.

    With a ``target`` composition the walk keeps only the suffixes that
    end ``target`` and that the rows still to fill can complete: an
    entry of state (k, m) with ``at`` target parts before it is kept
    only if max(k, m) <= at <= k + m, since the rows before (k, m) route
    alpha[:k] and beta[:m], so there are at least max(k, m) and at most
    k + m of them.  So a state keeps at most min(k, m) + 1 suffixes, and
    a targeted walk returns only ``target``, when it has a routing, and
    else an empty dict.  A targeted walk never builds a suffix pair, and
    never reads or writes ``tables`` or the table mapping of the fresh
    ``RoutingTables`` it makes: only that one's memos serve it.

    A table depends only on the suffix pair (alpha[k:], beta[m:]), as
    tuples, so untargeted walks can share them.  ``tables`` is an
    optional ``RoutingTables`` owned by the caller: a state whose
    suffix pair it holds takes that table, without computing its
    steps, and every table built is offered to it by item assignment,
    which may decline to keep it.  Without one, and for every targeted
    walk, the walk makes a fresh ``RoutingTables``.  Share one only
    among walks with the same ``merges``, since its tables and its
    ``merged`` steps both come from them.  The returned table may be
    held by ``tables``; do not mutate it.
    """
    if tables is None or target is not None:
        tables = RoutingTables()
    alpha, beta = tuple(alpha), tuple(beta)
    la, lb = len(alpha), len(beta)
    if target is not None:
        target = tuple(target)
        last = len(target) - 1
    check = min(sum(alpha), sum(beta)) > MAX_DEGREE
    unit = one()
    intern, products, sums = tables.intern, tables.products, tables.sums
    merged = tables.merged
    # this walk's tables by state, whatever the mapping keeps
    walked: dict[tuple[int, int], dict] = {}
    for k in range(la, -1, -1):
        rest = alpha[k:]
        for m in range(lb, -1, -1):
            if target is None:
                pair = (rest, beta[m:])
                table = tables.get(pair)
            else:
                table = None
                # the rows before (k, m) route alpha[:k] and beta[:m]
                low, high = max(k, m), k + m
            if table is None:
                if k == la and m == lb:
                    # the empty suffix has every target part before it
                    keep = target is None or low <= last + 1 <= high
                    table = {(): unit} if keep else {}
                else:
                    # (table of the next state, row part, weight or None)
                    steps = []
                    if k < la:
                        steps.append((walked[k + 1, m], alpha[k], None))
                    if m < lb:
                        steps.append((walked[k, m + 1], beta[m], None))
                        if k < la:
                            after = walked[k + 1, m + 1]
                            parts = (alpha[k], beta[m])
                            merge_steps = merged.get(parts)
                            if merge_steps is None:
                                fresh = []
                                for part, weight in merges(*parts).items():
                                    # held by canon, so its id is never
                                    # reused, however fresh merges's is
                                    weight = intern(weight.terms)
                                    fresh.append((part, None if weight is unit else weight))
                                merge_steps = merged[parts] = tuple(fresh)
                            for part, weight in merge_steps:
                                steps.append((after, part, weight))
                    if check:
                        size = sum(rest) + sum(beta[m:])
                    table = {}
                    for after, part, weight in steps:
                        head = (part,)
                        if weight is not None:
                            w = weight.terms
                            made = products.setdefault(id(weight), {})
                        elif not table and target is None:
                            # one step's keys are distinct, so into an
                            # empty table a lone step stores every value
                            table = {head + s: value for s, value in after.items()}
                            continue
                        for suffix, value in after.items():
                            if target is not None:
                                # the number of target parts before the entry
                                at = last - len(suffix)
                                if at < low or at > high or target[at] != part:
                                    continue
                            key = head + suffix
                            if weight is not None:
                                if check and value.terms:
                                    _check_degree(size - part - sum(suffix))
                                product = made.get(id(value))
                                if product is None:
                                    v = value.terms
                                    # a unit value shares the weight, as * does
                                    if v == _UNIT_TERMS:
                                        product = weight
                                    else:
                                        product = intern(_mul_terms(w, v))
                                    made[id(value)] = product
                                value = product
                            old = table.get(key)
                            if old is None:
                                table[key] = value
                                continue
                            sk = (id(old), id(value))
                            total = sums.get(sk)
                            if total is None:
                                total = intern(_add_terms(old.terms, value.terms))
                                sums[sk] = total
                            table[key] = total
                if target is None:
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
