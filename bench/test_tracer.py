"""The tracer repeats its counts exactly and never reports more self
time than the traced wall time.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

import tracer

BENCH = Path(__file__).resolve().parent


def traced_small_round(workload: str, tmp_path: Path, trace: str = "1"):
    result = tmp_path / f"{workload}-{trace}-{perf_counter()}.json"
    start = perf_counter()
    with open(tmp_path / "stdout", "wb") as stdout:
        subprocess.run(
            [sys.executable, str(BENCH / "child.py"), "round", workload, "5", trace,
             str(result), "small"],
            stdout=stdout,
            check=True,
            timeout=300,
        )
    lifetime = perf_counter() - start
    data = json.loads(result.read_text())
    data["export"] = (tmp_path / "stdout").read_bytes()
    data["wall_s"] = lifetime if workload == "table-export" else sum(data["latencies_s"])
    return data


@pytest.mark.parametrize("workload", ["certify", "rule", "table-export"])
def test_counts_repeat_and_self_times_fit(workload, tmp_path):
    first = traced_small_round(workload, tmp_path)
    second = traced_small_round(workload, tmp_path)
    counts = [
        name for name, (unit, _) in tracer.LAYER_METRICS.items() if unit == "count"
    ]
    assert {n: first["layers"][n] for n in counts} == {
        n: second["layers"][n] for n in counts
    }
    assert any(first["layers"][n] for n in counts)
    for run in (first, second):
        assert 0 < run["self_total_s"] <= run["wall_s"]
    plain = traced_small_round(workload, tmp_path, trace="0")
    assert plain["outputs"] == first["outputs"]
    assert plain["export"] == first["export"]
    assert plain["failures"] == first["failures"] == []


def spin(seconds):
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_self_time_excludes_children():
    t = tracer.Tracer()
    inner = t.span("inner", lambda: spin(0.02))

    def outer_body():
        spin(0.01)
        inner()
        inner()

    outer = t.span("outer", outer_body)
    start = perf_counter()
    outer()
    wall = perf_counter() - start
    assert t.calls == {"outer": 1, "inner": 2}
    assert t.calls_with_children["outer"] == 1
    assert t.self_s["inner"] >= 0.04
    assert 0.01 <= t.self_s["outer"] < 0.02
    assert t.child_s("outer", "inner") == pytest.approx(t.self_s["inner"])
    assert t.inclusive_s("outer") <= wall
    assert tracer.self_total_s(t) == pytest.approx(t.inclusive_s("outer"))


def test_uninstall_restores_every_binding():
    sys.path.insert(0, str(BENCH.parent / "src"))
    from dqsym import lrcalc, polynomial
    import dqsym

    before = (lrcalc.product_expand, dqsym.product_expand, polynomial.XYPolynomial.__mul__)
    t = tracer.install()
    assert lrcalc.product_expand is not before[0]
    assert dqsym.product_expand is lrcalc.product_expand
    t.uninstall()
    after = (lrcalc.product_expand, dqsym.product_expand, polynomial.XYPolynomial.__mul__)
    assert after == before
