"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --probe-ref-s 0.05 --workload design \\
        --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``op_p50_s``,
``op_p90_s``, ``items_per_s``, ``peak_rss_mb``); ``--trace 1`` makes
a separate traced run, each round once traced and once untraced, and
prints the per-layer metrics of :mod:`layers`.  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries diagnostics (raw seconds, probe times, stage
shares).  Every timing except ``peak_rss_mb`` is drift-adjusted by the
probe of :mod:`probe`.

The run is a closed loop with one client: set up (imports, input
generation, one untimed warm-up op), then run whole rounds of ops until
``--seconds`` have passed.  Each op's output is checked outside the
timed region.  ``setup_s`` is the median of ``SETUP_SAMPLES`` set-ups:
this process's own and those of short child processes that set up the
same workload and exit, one after the other.
"""

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import drift_factor, probe_after  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
}

RATIO_METRICS = {
    "robustness.accept_ratio",
    "advisor.prefix_reuse",
    "tracing_overhead",
    "trace.coverage",
}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric in RATIO_METRICS:
        return "ratio"
    if metric.endswith("_rss_mb"):
        return "MiB"
    if metric.endswith("_kb"):
        return "KiB"
    if metric.endswith("_s"):
        return "s"
    return "count"


def p90(values: list[float]) -> float:
    """The 90th percentile, interpolated between the closest ranks.

    The inclusive method never extrapolates past the largest value, so
    on a run of ~10 long ops it reads near the second-largest op rather
    than the largest; on 100 ops the two methods agree."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--probe-ref-s",
        type=float,
        required=True,
        help="reference probe time every timing is scaled to",
    )
    parser.add_argument(
        "--workload", required=True, choices=("validate", "design", "advise")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the raw set-up time and exit (child mode)",
    )
    return parser.parse_args(argv)


class Run:
    """One process's set-up and op loop."""

    def __init__(self, args: argparse.Namespace):
        # Imported here so that a checkout without the program fails
        # with a message instead of an import error at module load.
        import layers
        import ops

        self.layers = layers
        self.args = args
        self.workload = ops.WORKLOADS[args.workload]
        self.inputs = self.workload.make_inputs(args.seed)
        self.trace = (
            layers.LayerTrace(layers.LAYERS[args.workload]) if args.trace else None
        )
        self.probes: list[float] = []
        # Untraced op walls and their items; a traced run keeps the
        # walls of its traced ops apart.
        self.walls: list[float] = []
        self.items: list[int] = []
        self.traced_walls: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.next_input = 0
        # The warm-up op: traced in a traced run, so the per-stage RSS
        # growth of the process's first op is recorded.
        self.run_op(timed=False, traced=self.trace is not None)
        self.setup_raw_s = perf_counter() - PROCESS_START

    def run_op(self, *, timed: bool, traced: bool) -> None:
        entry = self.inputs[self.next_input % len(self.inputs)]
        self.next_input += 1
        args = self.workload.prepare(entry)
        # Each op starts from a collected heap and pays for its own
        # garbage only: a full collection over the program's memo
        # caches takes 50-120 ms, and landing in random ops it widened
        # the run-to-run spread of op_p50_s several-fold.
        gc.collect()
        output = None
        wall = 0.0
        try:
            if traced:
                output, wall = self.trace.run(self.workload.op, args)
            else:
                started = perf_counter()
                output = self.workload.op(args)
                wall = perf_counter() - started
            reason = self.workload.check(args, output)
        except Exception as exc:  # an op that raises is a failed op
            reason = f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)
        elif timed and traced:
            self.traced_walls.append(wall)
        elif timed:
            self.walls.append(wall)
            self.items.append(self.workload.items(output))
        self.probes.extend(probe_after(wall))

    def run_round(self, *, traced: bool) -> None:
        for _ in range(self.workload.round_size):
            self.run_op(timed=True, traced=traced)

    def measure(self) -> None:
        # Whole rounds keep the size mix of design and advise exact.
        deadline = perf_counter() + self.args.seconds
        self.rounds = 0
        while True:
            if self.trace is None:
                self.run_round(traced=False)
            else:
                # The same inputs traced, then untraced, so that
                # tracing_overhead compares like with like.
                first_input = self.next_input
                self.run_round(traced=True)
                self.next_input = first_input
                self.run_round(traced=False)
            self.rounds += 1
            if perf_counter() >= deadline:
                break


def child_setup(args: argparse.Namespace) -> tuple[float, list[float]]:
    """Set up the same workload in a fresh process; returns its raw
    set-up seconds and the probes it ran after set-up."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--probe-ref-s", str(args.probe_ref_s),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--setup-only",
    ]
    completed = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"set-up child exited {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}"
        )
    sample = json.loads(completed.stdout.strip().splitlines()[-1])
    return sample["setup_raw_s"], sample["probe_s"]


def end_to_end(run: Run, args: argparse.Namespace) -> tuple[dict, dict]:
    setups = [run.setup_raw_s]
    for _ in range(SETUP_SAMPLES - 1):
        raw, probes = child_setup(args)
        setups.append(raw)
        run.probes.extend(probes)
    factor = drift_factor(args.probe_ref_s, run.probes)
    metrics = {
        "setup_s": factor * statistics.median(setups),
        "op_p50_s": factor * statistics.median(run.walls),
        "op_p90_s": factor * p90(run.walls),
        "items_per_s": sum(run.items) / (factor * sum(run.walls)),
        "peak_rss_mb": run.layers.max_rss_mb(),
    }
    diagnostics = {
        "probe_median_s": statistics.median(run.probes),
        "probes": len(run.probes),
        "drift_factor": factor,
        "op_raw_p50_s": statistics.median(run.walls),
        "op_raw_p90_s": p90(run.walls),
        "setup_raw_s": setups,
        "ops": len(run.walls),
        "rounds": run.rounds,
    }
    return metrics, diagnostics


def per_layer(run: Run, args: argparse.Namespace) -> tuple[dict, dict]:
    factor = drift_factor(args.probe_ref_s, run.probes)
    layers = run.layers
    traced_ops = run.trace.ops[1:]  # ops[0] is the warm-up op
    metrics = layers.layer_metrics(
        args.workload, traced_ops, run.trace.ops[0], factor
    )
    metrics["probe_s"] = statistics.median(run.probes)
    metrics["op_raw_p50_s"] = statistics.median(run.walls)
    # Each input ran traced, then untraced: the median of the pairs'
    # ratios cancels both the size mix and slow drift.
    metrics["tracing_overhead"] = statistics.median(
        traced / untraced
        for traced, untraced in zip(run.traced_walls, run.walls)
    )
    total = sum(op.wall_s for op in traced_ops)
    shares = {
        stage: sum(op.stage_s.get(stage, 0.0) for op in traced_ops) / total
        for stage in layers.TIME_STAGES[args.workload]
    }
    shares["other"] = 1 - sum(shares.values())
    diagnostics = {
        "drift_factor": factor,
        "traced_ops": len(traced_ops),
        "untraced_ops": len(run.walls),
        "stage_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
    }
    return metrics, diagnostics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: the program is missing ({SRC / 'repro'} not found); "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    run = Run(args)
    if args.setup_only:
        print(
            json.dumps(
                {
                    "setup_raw_s": run.setup_raw_s,
                    "probe_s": probe_after(run.setup_raw_s),
                }
            )
        )
        return 0
    run.measure()
    if not run.walls:
        print(f"perfbench: every op failed: {run.failures[:3]}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, diagnostics = per_layer(run, args)
    else:
        metrics, diagnostics = end_to_end(run, args)
    for reason in run.failures[:5]:
        print(f"perfbench: failed op: {reason}", file=sys.stderr)
    print(json.dumps({"diagnostics": diagnostics}))
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
