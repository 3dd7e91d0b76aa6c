"""Spans around calls into ``dqsym``, recorded from outside the package.

``install`` wraps the public functions of every layer, and the
``XYPolynomial`` operators on the class, in every ``dqsym`` module that
binds them (``lrcalc`` and ``cli`` import functions by name).  A span's
self time is its duration minus the time its child spans cover; spans
nest on one thread, so children never overlap and self times never
overlap either.  Spans are aggregated in memory per (parent, name), which
keeps a traced rule run, with 800k polynomial operations,
in bounded memory.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        # inclusive time per (parent span name, span name); "" is the root
        self.edge_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.calls_with_children: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [name, start, child time, child calls]
        self._undo: list[tuple[object, str, object]] = []
        self.paused = False

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped so that each call records a span ``name``;
        ``after(tracer, args, result)`` updates counters."""
        stack = self._stack

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [name, perf_counter(), 0.0, 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if frame[3]:
                    self.calls_with_children[name] += 1
                if stack:
                    parent = stack[-1]
                    parent[2] += duration
                    parent[3] += 1
                    self.edge_s[(parent[0], name)] += duration
                else:
                    self.edge_s[("", name)] += duration
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_under(self, parent: str, counter: str, fn):
        """``fn`` wrapped so that each call made directly inside span
        ``parent`` adds one to ``counter``; no span is recorded."""
        stack = self._stack

        def counted(*args, **kwargs):
            if not self.paused and stack and stack[-1][0] == parent:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, original, replacement) -> None:
        """Rebind ``replacement`` wherever a ``dqsym`` module binds ``original``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "dqsym" or module_name.startswith("dqsym.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def inclusive_s(self, name: str) -> float:
        return sum((t for (_, child), t in self.edge_s.items() if child == name), 0.0)

    def child_s(self, parent: str, child: str) -> float:
        return self.edge_s.get((parent, child), 0.0)


def _len_terms(value) -> int:
    return len(value.terms) if hasattr(value, "terms") else 1


def _after_mul(tracer, args, result):
    a, b = args
    tracer.counts["polynomial.mul_term_pairs"] += _len_terms(a) * _len_terms(b)
    if hasattr(result, "terms"):
        tracer.counts["polynomial.mul_terms_out"] += len(result.terms)


def _after_add(tracer, args, result):
    a, b = args
    tracer.counts["polynomial.add_terms_in"] += _len_terms(a) + _len_terms(b)


def _after_to_records(tracer, args, result):
    tracer.counts["polynomial.to_records_terms"] += len(result)


def _after_product_expand(tracer, args, result):
    tracer.counts["lrcalc.expansion_gammas"] += len(result.coeffs)
    tracer.counts["lrcalc.expansion_terms"] += sum(
        len(c.terms) for c in result.coeffs.values()
    )


def _after_injections(tracer, args, result):
    tracer.counts["compositions.injections_built"] += len(result)


def install() -> Tracer:
    """Wrap every traced name of the imported ``dqsym`` package."""
    from dqsym import cli, compositions, lrcalc, qsym, tableaux
    from dqsym.polynomial import XYPolynomial

    tracer = Tracer()
    cls = XYPolynomial
    mul = tracer.span("polynomial.mul", cls.__mul__, _after_mul)
    add = tracer.span("polynomial.add", cls.__add__, _after_add)
    tracer.patch(cls, "__mul__", mul)
    tracer.patch(cls, "__rmul__", mul)
    tracer.patch(cls, "__add__", add)
    tracer.patch(cls, "__radd__", add)
    tracer.patch(
        cls,
        "to_records",
        tracer.span("polynomial.to_records", cls.to_records, _after_to_records),
    )
    # each peeling round of expand_in_M takes one x-degree component
    tracer.patch(
        cls,
        "x_degree_component",
        tracer.count_under(
            "qsym.expand_in_M", "qsym.expand_in_M_rounds", cls.x_degree_component
        ),
    )

    row_weight_sum = tableaux.row_weight_sum
    misses_before = row_weight_sum.cache_info().misses

    def _after_row_weight_sum(tracer, args, result):
        tracer.counts["tableaux.row_weight_sum_misses"] = (
            row_weight_sum.cache_info().misses - misses_before
        )

    functions = [
        ("qsym.double_monomial", qsym.double_monomial, None),
        ("qsym.expand_in_M", qsym.expand_in_M, None),
        ("lrcalc.verify_expansion", lrcalc.verify_expansion, None),
        ("lrcalc.product_expand", lrcalc.product_expand, _after_product_expand),
        ("lrcalc.structure_coefficient", lrcalc.structure_coefficient, None),
        ("lrcalc.expansion_records", lrcalc.expansion_records, None),
        ("tableaux.row_weight_sum", row_weight_sum, _after_row_weight_sum),
        (
            "compositions.enumerate_injections",
            compositions.enumerate_injections,
            _after_injections,
        ),
        ("cli.cmd_table", cli.cmd_table, None),
        ("cli.dump", cli._dump, None),
    ]
    for name, fn, after in functions:
        tracer.patch_everywhere(fn, tracer.span(name, fn, after))
    return tracer


# Per-layer metrics: name -> (unit, how to read it off a tracer).
def _self(name):
    return lambda t: t.self_s.get(name, 0.0)


def _calls(name):
    return lambda t: t.calls.get(name, 0)


def _count(name):
    return lambda t: t.counts.get(name, 0)


def _verify_direct_s(t: Tracer) -> float:
    """Time inside verify_expansion outside its expand_in_M and
    product_expand children: the direct-identity half of the check."""
    parent = "lrcalc.verify_expansion"
    return (
        t.inclusive_s(parent)
        - t.child_s(parent, "qsym.expand_in_M")
        - t.child_s(parent, "lrcalc.product_expand")
    )


LAYER_METRICS = {
    "polynomial.mul_calls": ("count", _calls("polynomial.mul")),
    "polynomial.mul_term_pairs": ("count", _count("polynomial.mul_term_pairs")),
    "polynomial.mul_terms_out": ("count", _count("polynomial.mul_terms_out")),
    "polynomial.mul_self_s": ("s", _self("polynomial.mul")),
    "polynomial.add_calls": ("count", _calls("polynomial.add")),
    "polynomial.add_terms_in": ("count", _count("polynomial.add_terms_in")),
    "polynomial.add_self_s": ("s", _self("polynomial.add")),
    "polynomial.to_records_terms": ("count", _count("polynomial.to_records_terms")),
    "polynomial.to_records_self_s": ("s", _self("polynomial.to_records")),
    "qsym.double_monomial_calls": ("count", _calls("qsym.double_monomial")),
    "qsym.double_monomial_builds": (
        "count",
        lambda t: t.calls_with_children.get("qsym.double_monomial", 0),
    ),
    "qsym.double_monomial_self_s": ("s", _self("qsym.double_monomial")),
    "qsym.expand_in_M_calls": ("count", _calls("qsym.expand_in_M")),
    "qsym.expand_in_M_rounds": ("count", _count("qsym.expand_in_M_rounds")),
    "qsym.expand_in_M_s": ("s", lambda t: t.inclusive_s("qsym.expand_in_M")),
    "qsym.expand_in_M_self_s": ("s", _self("qsym.expand_in_M")),
    "lrcalc.verify_expansion_self_s": ("s", _self("lrcalc.verify_expansion")),
    "lrcalc.verify_direct_s": ("s", _verify_direct_s),
    "lrcalc.product_expand_calls": ("count", _calls("lrcalc.product_expand")),
    "lrcalc.product_expand_self_s": ("s", _self("lrcalc.product_expand")),
    "lrcalc.expansion_gammas": ("count", _count("lrcalc.expansion_gammas")),
    "lrcalc.expansion_terms": ("count", _count("lrcalc.expansion_terms")),
    "lrcalc.expansion_records_self_s": ("s", _self("lrcalc.expansion_records")),
    "lrcalc.structure_coefficient_self_s": ("s", _self("lrcalc.structure_coefficient")),
    "tableaux.row_weight_sum_calls": ("count", _calls("tableaux.row_weight_sum")),
    "tableaux.row_weight_sum_misses": ("count", _count("tableaux.row_weight_sum_misses")),
    "tableaux.row_weight_sum_self_s": ("s", _self("tableaux.row_weight_sum")),
    "compositions.injections_built": ("count", _count("compositions.injections_built")),
    "compositions.enumerate_injections_self_s": (
        "s",
        _self("compositions.enumerate_injections"),
    ),
    "cli.table_self_s": ("s", _self("cli.cmd_table")),
    "cli.dump_calls": ("count", _calls("cli.dump")),
    "cli.dump_self_s": ("s", _self("cli.dump")),
}


def layer_values(tracer: Tracer) -> dict[str, float]:
    return {name: read(tracer) for name, (_, read) in LAYER_METRICS.items()}


def self_total_s(tracer: Tracer) -> float:
    return sum(tracer.self_s.values())
