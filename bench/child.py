"""One fresh interpreter of the benchmark: a cold start, or one round.

    python3 bench/child.py setup <workload> <seed>
    python3 bench/child.py round <workload> <seed> <trace 0|1> <result.json> [small]

``setup`` imports ``dqsym`` from the checkout's ``src`` and builds the
workload's inputs, then exits; its parent times it from spawn to exit.
``round`` runs the workload's operations once from cold caches and
writes per-operation times, the times of the reference kernel run
between operations (``calib``), the peak RSS, the outputs the checker
needs and, when traced, the per-layer figures to ``result.json``.  The
table-export round runs the ``dqsym`` console entry point itself, with
the export written to this process's stdout.  ``small`` cuts every
workload down for the tracer's tests.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import inputs  # noqa: E402

TABLE_KERNEL_EVERY_S = 0.05


def _import_dqsym():
    import dqsym

    if Path(dqsym.__file__).resolve().parent != ROOT / "src" / "dqsym":
        sys.exit(f"dqsym imported from {dqsym.__file__}, not from this checkout")
    return dqsym


def peak_rss_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def build_inputs(workload: str, seed: int, small: bool):
    dqsym = _import_dqsym()
    C = dqsym.Composition
    if workload == "certify":
        pairs = inputs.certify_pairs()
        return [(C(a), C(b)) for a, b in (pairs[:12] if small else pairs)]
    if workload == "rule":
        draws = inputs.rule_draws(seed)
        return [(C(a), C(b), lg, f) for a, b, lg, f in (draws[:8] if small else draws)]
    from dqsym import cli

    args = inputs.SMALL_TABLE_ARGS if small else inputs.TABLE_ARGS
    cli.build_parser().parse_args(args)
    return ["dqsym", *args]


class Ops:
    """Operation times of one round, with a kernel sample after each."""

    def __init__(self):
        self.starts, self.latencies, self.failures = [], [], []
        self.kernel = calib.Samples()
        self.kernel.sample()

    def timed(self, call):
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a failing operation is counted, not fatal
            result = None
            self.failures.append(repr(exc))
        self.latencies.append(perf_counter() - start)
        self.starts.append(start)
        self.kernel.sample()
        return result


# The rounds call through the module so that they reach the tracer's
# wrappers while it is installed, and the plain functions after.


def round_certify(pairs, tracer):
    from dqsym import lrcalc

    ops, verified = Ops(), []
    for alpha, beta in pairs:
        verified.append(ops.timed(lambda: lrcalc.verify_expansion(alpha, beta)))
    rss = peak_rss_kib()
    if tracer:
        tracer.uninstall()
    outputs = [
        json.dumps(
            {
                "alpha": alpha.to_list(),
                "beta": beta.to_list(),
                "verified": ok,
                "expansion": lrcalc.product_expand(alpha, beta).to_records(),
            }
        )
        for (alpha, beta), ok in zip(pairs, verified)
    ]
    return ops, rss, outputs


def round_rule(draws, tracer):
    from dqsym import lrcalc

    ops, outputs = Ops(), []
    for index, (alpha, beta, length, fraction) in enumerate(draws):
        expansion = ops.timed(lambda: lrcalc.product_expand(alpha, beta))
        if expansion is None:
            continue
        candidates = [g for g in expansion.support() if len(g) == length]
        gamma = candidates[inputs.gamma_index(fraction, len(candidates))]
        value = ops.timed(lambda: lrcalc.structure_coefficient(alpha, beta, gamma))
        if tracer:
            tracer.paused = True
        # serialized at once, so the live heap, and with it the
        # collector's work, stays the size of one expansion
        if value is not None:
            outputs.append(
                json.dumps(
                    {
                        "index": index,
                        "alpha": alpha.to_list(),
                        "beta": beta.to_list(),
                        "expansion": expansion.to_records(),
                        "gamma": gamma.to_list(),
                        "coeff": value.to_records(),
                    }
                )
            )
        del expansion
        if tracer:
            tracer.paused = False
    rss = peak_rss_kib()
    return ops, rss, outputs


def round_table(argv, tracer):
    """Run the console entry point; an operation is one (alpha, beta)
    pair, from the start of its expansion_records call to the next one's
    (the last ends when the command returns and stdout is flushed).
    Operations take 1-3 ms, so the kernel runs between two of them only
    once ``TABLE_KERNEL_EVERY_S`` has passed since its last run, and
    never when traced, since it would run inside the ``cli.table`` span."""
    from dqsym import cli

    ops = Ops()
    expansion_records = cli.expansion_records

    def close_op():
        now = perf_counter()
        ops.latencies.append(now - ops.starts[-1])
        if not tracer and now - ops.kernel.starts[-1] >= TABLE_KERNEL_EVERY_S:
            ops.kernel.sample()

    def stamped(*args, **kwargs):
        if ops.starts:
            close_op()
        ops.starts.append(perf_counter())
        return expansion_records(*args, **kwargs)

    cli.expansion_records = stamped
    sys.argv = list(argv)
    try:
        cli.run()
        code = 0
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    if ops.starts:
        close_op()
    ops.kernel.sample()
    rss = peak_rss_kib()
    if code != 0:
        ops.failures.append(f"dqsym table exited with {code!r}")
    return ops, rss, []


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if workload not in inputs.WORKLOADS:
        sys.exit(f"unknown workload {workload!r}")
    if mode == "setup":
        build_inputs(workload, seed, False)
        return 0
    trace, result_path = argv[3] == "1", Path(argv[4])
    small = argv[5:] == ["small"]
    work = build_inputs(workload, seed, small)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    run = {"certify": round_certify, "rule": round_rule, "table-export": round_table}
    ops, rss, outputs = run[workload](work, tracer)
    result = {
        "latencies_s": ops.latencies,
        "starts_s": ops.starts,
        "failures": ops.failures,
        "kernel_starts_s": ops.kernel.starts,
        "kernel_s": ops.kernel.durations,
        "peak_rss_kib": rss,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracing.layer_values(tracer)
        result["self_total_s"] = tracing.self_total_s(tracer)
    # outputs are already JSON text; splice them in rather than re-parse
    text = json.dumps(result)[:-1] + ', "outputs": [' + ", ".join(outputs) + "]}"
    result_path.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
