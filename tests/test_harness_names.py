"""The names that the benchmark's tracer binds still exist.

``bench/tracer.py`` traces ``dqsym`` from outside: ``install`` rebinds
the kernel operators on ``XYPolynomial`` and the public functions of
every layer, wherever a ``dqsym`` module binds them, and ``uninstall``
puts the originals back.  A rename or deletion in the package would
break ``python3 bench/run.py --trace 1``, so this loads the tracer by
path and checks that every name it wraps resolves, is wrapped, counts
its calls, and is restored.
"""

import importlib.util
from pathlib import Path

from dqsym import cli, compositions, lrcalc, qsym, tableaux
from dqsym.compositions import Composition
from dqsym.polynomial import XYPolynomial, x_var, y_var

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("dqsym_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# (owner, attribute) of every binding the tracer wraps
WRAPPED = [
    (XYPolynomial, "__mul__"),
    (XYPolynomial, "__rmul__"),
    (XYPolynomial, "__add__"),
    (XYPolynomial, "__radd__"),
    (XYPolynomial, "to_records"),
    (XYPolynomial, "x_degree_component"),
    (qsym, "double_monomial"),
    (qsym, "expand_in_M"),
    (lrcalc, "double_monomial"),
    (lrcalc, "expand_in_M"),
    (lrcalc, "verify_expansion"),
    (lrcalc, "product_expand"),
    (lrcalc, "structure_coefficient"),
    (lrcalc, "expansion_records"),
    (lrcalc, "enumerate_injections"),
    (tableaux, "row_weight_sum"),
    (compositions, "enumerate_injections"),
    (cli, "verify_expansion"),
    (cli, "structure_coefficient"),
    (cli, "expansion_records"),
    (cli, "cmd_table"),
    (cli, "_dump"),
]


def test_tracer_wraps_and_restores_every_name(capsys):
    tracer_module = _load_tracer()
    originals = [getattr(owner, attr) for owner, attr in WRAPPED]
    # the tracer reads the row sums' cache statistics off the original
    assert callable(tableaux.row_weight_sum.cache_info)
    tracer = tracer_module.install()
    try:
        for (owner, attr), original in zip(WRAPPED, originals):
            wrapped = getattr(owner, attr)
            assert wrapped is not original, (owner, attr)
            assert wrapped.__wrapped__ is original, (owner, attr)
        one, two = Composition([1]), Composition([2])
        assert cli.main(["coeff", "1", "1", "2", "--format", "json"]) == 0
        assert cli.main(["table", "--max-size", "2", "--max-length", "2"]) == 0
        assert cli.main(["verify", "--max-size", "1"]) == 0
        lrcalc.skyline_census(one, one, two)
        # the routing walk sums on terms dicts, and warm caches may leave
        # the commands no kernel operator to call, so call both here
        assert x_var(1) + y_var(1) == y_var(1) + x_var(1)
        assert x_var(1) * y_var(1) == y_var(1) * x_var(1)
        capsys.readouterr()
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(WRAPPED, originals):
        assert getattr(owner, attr) is original, (owner, attr)
    for name in (
        "lrcalc.structure_coefficient",
        "lrcalc.product_expand",
        "lrcalc.expansion_records",
        "lrcalc.verify_expansion",
        "qsym.expand_in_M",
        "qsym.double_monomial",
        "compositions.enumerate_injections",
        "cli.cmd_table",
        "cli.dump",
        "polynomial.mul",
        "polynomial.add",
    ):
        assert tracer.calls[name] > 0, name
    assert tracer.counts["compositions.injections_built"] > 0
    values = tracer_module.layer_values(tracer)
    assert set(values) == set(tracer_module.LAYER_METRICS)
