"""Command-line interface.

Subcommands expose products of double monomial functions, single
structure coefficients, tableau enumeration, overlapping shuffle
counts, bulk verification against the polynomial oracle, a JSON-lines
coefficient table export, and the two-variable relation check.

Compositions are written as comma-separated positive integers, the
empty string standing for the empty composition.  Exit codes: 0 on
success, 1 when a verification fails, 2 on usage errors and bad input:
any ``ValueError`` from the library ends the command with a one-line
message on stderr; 141 (128 + SIGPIPE) when the reader closes stdout
early, as ``head`` does, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Sequence

from .compositions import (
    Composition,
    RoutingTables,
    compositions_of_size,
    overlapping_shuffles,
)
from .lrcalc import expansion_records, structure_coefficient, verify_expansion
from .polynomial import RecordsEncoder, x_var, zero
from .qsym import TruncationContext, qsym_generator
from .tableaux import DEFAULT_CONVENTION, WeightConvention, enumerate_tableaux


class CompositionParseError(ValueError):
    """Raised with the 1-based character position of the offending token."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# ASCII digits only: str.isdigit also accepts characters such as "²"
# that int() rejects
_DIGITS = re.compile("[0-9]+")


def parse_composition(text: str) -> Composition:
    """Parse 'a1,a2,...' into a composition; '' is the empty composition."""
    if text == "":
        return Composition()
    parts = []
    position = 1
    for token in text.split(","):
        stripped = token.strip()
        if not _DIGITS.fullmatch(stripped):
            raise CompositionParseError(
                f"expected a positive integer, got {token!r}", position
            )
        value = int(stripped)
        if value < 1:
            raise CompositionParseError(f"parts must be >= 1, got {value}", position)
        parts.append(value)
        position += len(token) + 1
    return Composition(parts)


def _convention(args) -> WeightConvention:
    return WeightConvention(args.convention)


def _banner(args) -> None:
    if args.format == "human":
        print(f"# convention: {args.convention}")


def _dump(value) -> None:
    print(json.dumps(value))


# Coefficient tables are written as JSON text built by hand, with the
# key order and separators of json.dumps: a composition's parts by
# _parts_text, a coefficient's records by one RecordsEncoder per
# command.  A table renders each distinct gamma once, into a
# _PartsTexts that lives as long as the command.


def _parts_text(composition: Composition) -> str:
    return "[" + ", ".join(map(str, composition)) + "]"


class _PartsTexts(dict):
    """The ``_parts_text`` of each composition looked up, rendered on
    its first lookup."""

    def __missing__(self, composition: Composition) -> str:
        text = self[composition] = _parts_text(composition)
        return text


def cmd_product(args) -> int:
    alpha = parse_composition(args.alpha)
    beta = parse_composition(args.beta)
    rows = expansion_records(
        alpha, beta, _convention(args), explicit_zeros=args.explicit_zeros
    )
    if args.format == "json":
        encode = RecordsEncoder().encode
        print(
            "["
            + ", ".join(
                [
                    f'{{"gamma": {_parts_text(gamma)}, "coeff": {encode(value)}}}'
                    for gamma, value in rows
                ]
            )
            + "]"
        )
    else:
        _banner(args)
        print(f"M{alpha} * M{beta} =")
        for gamma, value in rows:
            print(f"  M{gamma} * ({value})")
    return 0


def cmd_coeff(args) -> int:
    alpha = parse_composition(args.alpha)
    beta = parse_composition(args.beta)
    gamma = parse_composition(args.gamma)
    convention = _convention(args)
    value = structure_coefficient(alpha, beta, gamma, convention)
    if args.format == "json":
        _dump(
            {
                "alpha": alpha.to_list(),
                "beta": beta.to_list(),
                "gamma": gamma.to_list(),
                "coeff": value.to_records(),
            }
        )
    else:
        _banner(args)
        print(f"coefficient of M{gamma} in M{alpha} * M{beta}: {value}")
    return 0


def cmd_tableaux(args) -> int:
    convention = _convention(args)
    tableaux = enumerate_tableaux(args.boxes, args.empty, args.content)
    # every weight before the first line, so bad input leaves no stdout
    weights = [t.weight(convention) for t in tableaux]
    if args.format == "json":
        _dump(
            [
                dict(t.to_record(), weight=w.to_records())
                for t, w in zip(tableaux, weights)
            ]
        )
    else:
        _banner(args)
        print(
            f"{len(tableaux)} tableau(x) of shape {args.boxes}/{args.empty},"
            f" content {args.content}"
        )
        for tableau, weight in zip(tableaux, weights):
            edges = "{" + ",".join(str(i) for i in sorted(tableau.edge_labels)) + "}"
            print(f"  edges {edges}: weight {weight}")
    return 0


def cmd_shuffles(args) -> int:
    alpha = parse_composition(args.alpha)
    beta = parse_composition(args.beta)
    counts = overlapping_shuffles(alpha, beta)
    ordered = sorted(counts, key=Composition.sort_key)
    if args.format == "json":
        _dump(
            [{"gamma": g.to_list(), "multiplicity": counts[g]} for g in ordered]
        )
    else:
        _banner(args)
        print(f"{sum(counts.values())} overlapping shuffles of {alpha} and {beta}")
        for gamma in ordered:
            print(f"  {gamma}: {counts[gamma]}")
    return 0


def _sweep(max_size: int, max_length: int) -> list[Composition]:
    """The compositions of size at most ``max_size`` with at most
    ``max_length`` parts, in the canonical order, built size by size."""
    if max_size < 0 or max_length < 0:
        raise ValueError("bounds must be >= 0")
    return [
        c
        for size in range(max_size + 1)
        for c in compositions_of_size(size, max_length, max_size)
    ]


def cmd_verify(args) -> int:
    convention = _convention(args)
    max_length = args.max_length if args.max_length is not None else args.max_size
    compositions = _sweep(args.max_size, max_length)
    passed = 0
    failed = 0
    first_failure = None
    for alpha in compositions:
        for beta in compositions:
            if verify_expansion(alpha, beta, convention):
                passed += 1
            else:
                failed += 1
                if first_failure is None:
                    first_failure = (alpha, beta)
    if args.format == "json":
        result = {"pairs": passed + failed, "passed": passed, "failed": failed}
        if first_failure:
            result["first_failure"] = {
                "alpha": first_failure[0].to_list(),
                "beta": first_failure[1].to_list(),
            }
        _dump(result)
    else:
        _banner(args)
        print(f"verified {passed + failed} pairs: {passed} passed, {failed} failed")
        if first_failure:
            print(f"first failure: alpha={first_failure[0]} beta={first_failure[1]}")
    return 0 if failed == 0 else 1


class _SweepTables(RoutingTables):
    """The routing tables of one ``table`` sweep, keyed by suffix pair
    (u, v) as ``compositions.routing_outcomes`` reads and offers them,
    with the walk's memos, which live for the command.

    A table is kept only when a later pair can reuse it: either both
    suffixes can recur in a later row, having fewer than ``max_length``
    parts and size below ``max_size``, or u is the current row's alpha
    and v can recur.  ``start_row`` drops the previous row's own tables
    that no later row can use, so at most one row's worth of them is
    held beside the recurring ones.  The walk's memos are never
    dropped: they keep every distinct value of the command, and its
    products and sums by operand pair, so equal coefficients of
    different pairs are one object and each product or sum is computed
    once per command, as the ``RecordsEncoder`` memos encode each value
    once.  The ids that key them stay safe across ``start_row``, since
    the memos, not the tables, hold every object they name.
    """

    __slots__ = ("_max_size", "_max_length", "_row")

    def __init__(self, max_size: int, max_length: int):
        super().__init__()
        self._max_size = max_size
        self._max_length = max_length
        self._row: tuple[int, ...] | None = None

    def _recurs(self, parts: tuple[int, ...]) -> bool:
        return len(parts) < self._max_length and sum(parts) < self._max_size

    def start_row(self, alpha: Composition) -> None:
        row = self._row
        if row is not None and not self._recurs(row):
            for pair in [pair for pair in self if pair[0] == row]:
                del self[pair]
        self._row = alpha

    def __setitem__(self, pair, table) -> None:
        u, v = pair
        if self._recurs(v) and (u == self._row or self._recurs(u)):
            super().__setitem__(pair, table)


def cmd_table(args) -> int:
    convention = _convention(args)
    max_length = args.max_length if args.max_length is not None else args.max_size
    compositions = _sweep(args.max_size, max_length)
    tables = _SweepTables(args.max_size, max_length)
    gamma_text = _PartsTexts()
    encode = RecordsEncoder().encode
    write = sys.stdout.write
    if args.format == "human":
        _banner(args)
    for alpha in compositions:
        tables.start_row(alpha)
        pair_head = f'{{"alpha": {_parts_text(alpha)}, "beta": '
        for beta in compositions:
            rows = expansion_records(
                alpha,
                beta,
                convention,
                explicit_zeros=args.explicit_zeros,
                tables=tables,
            )
            if args.format == "json":
                head = f'{pair_head}{_parts_text(beta)}, "gamma": '
                write(
                    "".join(
                        [
                            f'{head}{gamma_text[gamma]}, "coeff": {encode(value)}}}\n'
                            for gamma, value in rows
                        ]
                    )
                )
            else:
                for gamma, value in rows:
                    print(f"c[{alpha}, {beta} -> {gamma}] = {value}")
    return 0


def cmd_relation_check(args) -> int:
    # QSym in two variables is the polynomial algebra on t = x1*x2,
    # z = x1 + x2, w = x1^2*x2, subject to a single cubic relation.
    ctx = TruncationContext(2, 0)
    x = x_var(1)
    t = qsym_generator([x, x], ctx)
    z = qsym_generator([x], ctx)
    w = qsym_generator([x * x, x], ctx)
    candidates = {
        "t^3 - t*z*w + w^2": (t**3, -(t * z * w), w**2),
        "z^3 - t*z*w + w^2": (z**3, -(t * z * w), w**2),
    }
    point = {("x", 1): 1, ("x", 2): 1}
    report = []
    for name, summands in candidates.items():
        value = sum(summands, zero())
        # degree of the candidate before cancellation, not of the result
        top = max(piece.max_x_degree() for piece in summands)
        report.append(
            {
                "relation": name,
                "vanishes": not value,
                "value_at_x1_x2_1": value.substitute(point).as_int(),
                "top_degree": top,
            }
        )
    if args.format == "json":
        _dump(report)
    else:
        _banner(args)
        for entry in report:
            status = "== 0" if entry["vanishes"] else "!= 0"
            print(
                f"{entry['relation']}: {status}"
                f" (value {entry['value_at_x1_x2_1']} at x1=x2=1,"
                f" top degree {entry['top_degree']})"
            )
        holding = [e["relation"] for e in report if e["vanishes"]]
        print(f"identically zero: {', '.join(holding) if holding else 'none'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--convention",
        choices=[c.value for c in WeightConvention],
        default=DEFAULT_CONVENTION.value,
        help="orientation of edge-label weight factors",
    )
    common.add_argument(
        "--format", choices=["human", "json"], default="human", help="output format"
    )
    # the two subcommands that print whole coefficient tables
    zeros = argparse.ArgumentParser(add_help=False)
    zeros.add_argument(
        "--explicit-zeros",
        action="store_true",
        help="include zero coefficients for every candidate composition",
    )

    parser = argparse.ArgumentParser(
        prog="dqsym",
        description="products and structure coefficients of double monomial"
        " quasisymmetric functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "product", parents=[common, zeros], help="expand M_alpha * M_beta"
    )
    p.add_argument("alpha", help="comma-separated parts, '' for the empty composition")
    p.add_argument("beta")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("coeff", parents=[common], help="one structure coefficient")
    p.add_argument("alpha")
    p.add_argument("beta")
    p.add_argument("gamma")
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser(
        "tableaux", parents=[common], help="enumerate one-row edge-labeled tableaux"
    )
    p.add_argument("boxes", type=int, help="total boxes (c)")
    p.add_argument("empty", type=int, help="leading empty boxes (a)")
    p.add_argument("content", type=int, help="total labels (b)")
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser(
        "shuffles", parents=[common], help="overlapping shuffle multiplicities"
    )
    p.add_argument("alpha")
    p.add_argument("beta")
    p.set_defaults(func=cmd_shuffles)

    p = sub.add_parser(
        "verify",
        parents=[common],
        help="check coefficient tables against exact polynomial arithmetic",
    )
    p.add_argument("--max-size", type=int, required=True, help="largest |alpha|, |beta|")
    p.add_argument("--max-length", type=int, default=None, help="largest length")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "table", parents=[common, zeros], help="export coefficient tables as JSON lines"
    )
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--max-length", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser(
        "relation-check",
        parents=[common],
        help="test the cubic relation among the two-variable generators",
    )
    p.set_defaults(func=cmd_relation_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what stdout still buffers to devnull,
        # so that the flush at exit raises nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        # bad input: parse errors, negative bounds, truncations too small,
        # polynomials outside the span, degrees past the packed limit
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
