"""Benchmark of dqsym: certify, rule and table-export workloads.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every operation runs in a fresh child
interpreter that imports ``dqsym`` from the checkout's ``src``, single
threaded, from cold caches and with the garbage collector on, as a CLI
user runs it.  One run makes as many whole rounds of the workload as fit
in ``--seconds`` (at least one), each in a new child, checks every output with
``checker`` (which never calls ``dqsym`` arithmetic) and prints, as the
last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (the
median of several cold starts to ``dqsym`` imported and inputs built),
``wall_s`` (the median round), ``op_p50_ms`` and ``op_p90_ms``
(Harrell-Davis estimates over the operations, each operation taken as
its median over the rounds) and
``peak_rss_mib`` (the child's VmHWM, median over rounds).  Every time
is rescaled to the reference speed of the CPU by the kernel of
``calib``, run between operations and between cold starts.  With
``--trace 1`` one untraced and one traced round give the per-layer
metrics of ``tracer`` and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calib
import checker
import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
CHILD = BENCH / "child.py"
SETUP_STARTS = 9
CHILD_TIMEOUT_S = 150


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # a fixed hash seed makes set and dict layouts, and with them the
    # collector's timing, the same in every child
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def timed_child(args: list[str], stdout=subprocess.DEVNULL) -> float:
    start = perf_counter()
    subprocess.run(
        [sys.executable, str(CHILD), *args],
        stdout=stdout,
        env=child_env(),
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return perf_counter() - start


def measure_setup(workload: str, seed: int) -> float:
    args = ["setup", workload, str(seed)]
    timed_child(args)  # compiles bytecode on a fresh checkout
    kernel, starts = calib.Samples(), []
    for _ in range(SETUP_STARTS):
        kernel.sample()
        starts.append(timed_child(args))
    kernel.sample()
    return statistics.median(starts) * calib.factor(kernel.durations)


class Round:
    """One child's run of the workload."""

    def __init__(self, workload: str, seed: int, trace: bool, index: int):
        result_path = OUT / f"{workload}-round.json"
        args = ["round", workload, str(seed), "1" if trace else "0", str(result_path)]
        if workload == "table-export":
            self.export = OUT / f"table-export-{index}.jsonl"
            with open(self.export, "wb") as stdout:
                lifetime = timed_child(args, stdout)
        else:
            lifetime = timed_child(args)
        data = json.loads(result_path.read_text())
        self.latencies = calib.rescale(
            data["starts_s"], data["latencies_s"], data["kernel_starts_s"], data["kernel_s"]
        )
        self.failures = data["failures"]
        self.peak_rss_kib = data["peak_rss_kib"]
        self.outputs = data["outputs"]
        self.layers = data.get("layers")
        self.self_total_s = data.get("self_total_s")
        if workload == "table-export":
            # a table-export user also waits for the interpreter to start
            # and exit; the kernel's runs are not the user's
            self.raw_wall_s = lifetime - sum(data["kernel_s"])
            self.wall_s = self.raw_wall_s * calib.factor(data["kernel_s"])
            self.digest = hashlib.sha256(self.export.read_bytes()).hexdigest()
        else:
            self.raw_wall_s = sum(data["latencies_s"])
            self.wall_s = sum(self.latencies)
            self.digest = hashlib.sha256(json.dumps(self.outputs).encode()).hexdigest()


def planned_ops(workload: str) -> int:
    if workload == "certify":
        return len(inputs.certify_pairs())
    if workload == "rule":
        return 2 * len(inputs.rule_draws(0))
    comps = inputs.sweep(inputs.TABLE_MAX_SIZE, inputs.TABLE_MAX_LENGTH)
    return len(comps) ** 2


def check_round(workload: str, seed: int, first: Round) -> list[str]:
    points = checker.Points(seed)
    if workload == "certify":
        return checker.check_certify(first.outputs, inputs.certify_pairs(), points)
    if workload == "rule":
        return checker.check_rule(first.outputs, inputs.rule_draws(seed), points)
    with open(first.export) as lines:
        return checker.check_table(
            lines, inputs.TABLE_MAX_SIZE, inputs.TABLE_MAX_LENGTH, points
        )


def check_rounds(workload: str, seed: int, rounds: list[Round]) -> list[str]:
    """The first round is checked in full; the others must repeat it."""
    errors = check_round(workload, seed, rounds[0])
    for k, r in enumerate(rounds[1:], start=2):
        if r.digest != rounds[0].digest:
            errors.append(f"round {k} output differs from round 1")
    return errors


def quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile.

    A Beta(p(n+1), (1-p)(n+1))-weighted mean of the order statistics
    (weights by the midpoint rule, fine here since the weight's spread
    covers several ranks for n >= 100).  It averages the operations
    around the quantile, which ran at different moments of the run, so a
    moment of slow CPU moves it less than it moves a single order
    statistic.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [
        (a - 1) * math.log(u) + (b - 1) * math.log(1 - u)
        for u in ((i + 0.5) / n for i in range(n))
    ]
    top = max(logs)
    weights = [math.exp(l - top) for l in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def per_op_latencies(rounds: list[Round]) -> list[float]:
    lists = [r.latencies for r in rounds]
    if len({len(l) for l in lists}) == 1:
        return [statistics.median(op) for op in zip(*lists)]
    return [t for l in lists for t in l]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float):
    setup_s = measure_setup(workload, seed)
    rounds = []
    start = perf_counter()
    # whole rounds only, and none that would end well after the deadline
    while not rounds or (perf_counter() - start) * (1 + 1 / len(rounds)) <= seconds:
        rounds.append(Round(workload, seed, False, len(rounds) + 1))
        if workload == "table-export" and len(rounds) > 1:
            rounds[-1].export.unlink()
    ops = per_op_latencies(rounds)
    raw_wall_s = statistics.median(r.raw_wall_s for r in rounds)
    print(f"{len(rounds)} rounds; wall_s before rescaling {raw_wall_s:.4f}", file=sys.stderr)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(r.wall_s for r in rounds), "s"),
        "op_p50_ms": metric(quantile(ops, 0.5) * 1e3, "ms"),
        "op_p90_ms": metric(quantile(ops, 0.9) * 1e3, "ms"),
        "peak_rss_mib": metric(
            statistics.median(r.peak_rss_kib for r in rounds) / 1024, "MiB"
        ),
    }
    return rounds, metrics


def traced(workload: str, seed: int):
    plain = Round(workload, seed, False, 1)
    traced_round = Round(workload, seed, True, 2)
    errors = []
    if traced_round.self_total_s > traced_round.raw_wall_s:
        errors.append("traced self times exceed the traced wall time")
    metrics = {
        name: metric(traced_round.layers[name], unit)
        for name, (unit, _) in tracer.LAYER_METRICS.items()
    }
    output_bytes = traced_round.export.stat().st_size if workload == "table-export" else 0
    metrics["cli.output_bytes"] = metric(output_bytes, "bytes")
    metrics["trace.wall_s"] = metric(traced_round.wall_s, "s")
    metrics["trace.untraced_wall_s"] = metric(plain.wall_s, "s")
    metrics["trace.overhead"] = metric(traced_round.wall_s / plain.wall_s, "ratio")
    return [plain, traced_round], metrics, errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into an exception, on which subprocess.run kills and
    # reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "dqsym" / "__init__.py").is_file():
        print(f"error: no dqsym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        rounds, metrics, errors = traced(args.workload, args.seed)
    else:
        rounds, metrics = end_to_end(args.workload, args.seed, args.seconds)
        errors = []
    errors += check_rounds(args.workload, args.seed, rounds)
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": planned_ops(args.workload) * len(rounds),
        "failed": sum(len(r.failures) for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
