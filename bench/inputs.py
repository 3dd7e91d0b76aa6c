"""Workload inputs, made from the seed alone.

Compositions travel as plain tuples so that the parent process and the
checker can read them without importing ``dqsym``.  The same seed always
gives the same inputs: every draw goes through ``random.Random`` seeded
with a string, which does not depend on the interpreter's hash seed.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("certify", "rule", "table-export")


def table_args(max_size: int, max_length: int) -> tuple[str, ...]:
    """The console command of an export, after the program name."""
    return (
        "table", "--max-size", str(max_size), "--max-length", str(max_length),
        "--format", "json",
    )


# The table-export workload, and the reduced export the tracer tests run.
TABLE_MAX_SIZE = 6
TABLE_MAX_LENGTH = 3
TABLE_ARGS = table_args(TABLE_MAX_SIZE, TABLE_MAX_LENGTH)
SMALL_TABLE_ARGS = table_args(3, 2)

# Strata of the rule workload: (len(alpha), len(beta), 2s in alpha,
# 2s in beta, len(gamma)); every other part is 1.  The seed only places
# the 2s and picks gamma within its stratum.  An operation's cost varies
# about 2x with the placement and the pick, so each stratum is drawn
# RULE_DRAWS times, spread evenly over its placements and over gamma's
# candidates from a seeded offset, and the strata are kept to operations
# of 10-150 ms: one heavy stratum (a 6x6 product takes 0.4-0.6 s) would
# let a few draws set the round's time.
RULE_STRATA = (
    (4, 4, 1, 1, 8),
    (4, 4, 2, 2, 8),
    (4, 5, 1, 1, 8),
    (4, 5, 1, 2, 9),
    (5, 4, 2, 1, 8),
    (5, 4, 0, 1, 9),
    (4, 6, 0, 0, 8),
    (4, 6, 1, 1, 9),
    (6, 4, 1, 1, 8),
    (6, 4, 2, 2, 9),
    (5, 5, 0, 0, 8),
    (5, 5, 1, 1, 9),
    (5, 5, 2, 2, 8),
    (5, 5, 2, 2, 9),
)
RULE_DRAWS = 8


def sweep(max_size: int, max_length: int) -> list[tuple[int, ...]]:
    """Compositions with at most ``max_length`` parts and size at most
    ``max_size``, in the graded order: size, then length, then parts."""
    found = [()]
    frontier = [()]
    for _ in range(max_length):
        frontier = [
            parts + (p,)
            for parts in frontier
            for p in range(1, max_size - sum(parts) + 1)
        ]
        found.extend(frontier)
    return sorted(found, key=lambda c: (sum(c), len(c), c))


def certify_pairs() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (alpha, beta) with sizes <= 4, lengths <= 3 and
    len(alpha) + len(beta) >= 4, in sweep order: 132 pairs.

    The shorter pairs cost almost nothing and would pull the median
    operation down to a few milliseconds, where it does not repeat.
    """
    comps = sweep(4, 3)
    return [(a, b) for a in comps for b in comps if len(a) + len(b) >= 4]


def _placements(length: int, twos: int) -> list[tuple[int, ...]]:
    return [
        tuple(2 if i in chosen else 1 for i in range(length))
        for chosen in itertools.combinations(range(length), twos)
    ]


def gamma_index(fraction: float, count: int) -> int:
    """The drawn gamma among ``count`` candidates in canonical order."""
    return int(fraction * count)


def rule_draws(seed: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int, float]]:
    """(alpha, beta, len(gamma), fraction) per draw, stratum by stratum.

    Draw d of a stratum takes the placement pair at the (offset + d) / D
    quantile of all placement pairs, and gamma at the quantile ``fraction``
    of the candidates of its length; both offsets are seeded, and a
    seeded permutation decouples the gamma quantile from the placement.
    """
    rng = random.Random(f"rule:{seed}")
    draws = []
    for la, lb, ta, tb, lg in RULE_STRATA:
        pairs = list(itertools.product(_placements(la, ta), _placements(lb, tb)))
        offset, gamma_offset = rng.random(), rng.random()
        order = list(range(RULE_DRAWS))
        rng.shuffle(order)
        for d in range(RULE_DRAWS):
            alpha, beta = pairs[int((offset + d) / RULE_DRAWS * len(pairs))]
            draws.append((alpha, beta, lg, (gamma_offset + order[d]) / RULE_DRAWS))
    return draws
