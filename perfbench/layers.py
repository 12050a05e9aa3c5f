"""Per-layer timings and counts for the traced run, taken from outside.

The traced run wraps each layer's entry point by the module attribute
its caller resolves -- ``repro.executor.harness.plan_injections`` is
the name ``run_validation`` looks up, ``repro.mapper.advisor.map_prefix``
the one the advisor's group runner looks up -- and restores the
original after every op.  The untraced runs never install a wrapper.

A wrapped call is charged its *self* time: its wall minus the wall of
wrapped calls nested inside it, so the stages of one op sum to the
part of the op wall the wrappers cover, and ``<workload>.other_s`` is
the rest.  Counts come from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import importlib
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

OnResult = Callable[["LayerTrace", tuple, dict, Any], Any]


def max_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point.

    ``target`` is ``"module:attribute"``, where the attribute may be a
    dotted ``Class.method``.  ``stage`` is the metric stem the call's
    self time is charged to; ``None`` leaves the call untimed (its time
    stays with the caller).  ``on_result`` may record counts and may
    return a replacement result; ``rss`` records the call's growth of
    the process's peak RSS.
    """

    target: str
    stage: str | None
    on_result: OnResult | None = None
    rss: bool = False


@dataclass
class OpTrace:
    """What one traced op recorded."""

    wall_s: float = 0.0
    stage_s: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    rss_mb: dict[str, float] = field(default_factory=dict)

    @property
    def covered_s(self) -> float:
        return sum(self.stage_s.values())


class LayerTrace:
    """Installs the wrappers of one workload and collects op traces."""

    def __init__(self, layers: tuple[Layer, ...]):
        self.layers = layers
        self.ops: list[OpTrace] = []
        self._current = OpTrace()
        self._nested: list[list[float]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        counts = self._current.counts
        counts[name] = counts.get(name, 0) + amount

    def _charge(self, stage: str, seconds: float) -> None:
        stages = self._current.stage_s
        stages[stage] = stages.get(stage, 0.0) + seconds

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        trace = self

        def wrapper(*args, **kwargs):
            if layer.stage is None:
                result = fn(*args, **kwargs)
            else:
                nested = [0.0]
                trace._nested.append(nested)
                rss_before = max_rss_mb() if layer.rss else 0.0
                started = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - started
                    trace._nested.pop()
                    if trace._nested:
                        trace._nested[-1][0] += elapsed
                    trace._charge(layer.stage, elapsed - nested[0])
                    if layer.rss:
                        grown = trace._current.rss_mb
                        grown[layer.stage] = grown.get(layer.stage, 0.0) + (
                            max_rss_mb() - rss_before
                        )
            if layer.on_result is not None:
                replaced = layer.on_result(trace, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for layer in self.layers:
            module_name, _, path = layer.target.partition(":")
            owner: Any = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attribute] if isinstance(
                owner, type
            ) else getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def run(self, op: Callable[[Any], Any], args: Any) -> tuple[Any, float]:
        """Run one op with the wrappers installed; returns
        ``(output, wall_s)`` and records the op's trace."""
        self._current = OpTrace()
        self.install()
        started = perf_counter()
        try:
            output = op(args)
        finally:
            wall = perf_counter() - started
            self.uninstall()
            self._current.wall_s = wall
            self.ops.append(self._current)
        return output, wall


# ----------------------------------------------------------------------
# The wrapped entry points of each workload
# ----------------------------------------------------------------------


def _counted(name: str, amount: Callable[[tuple, Any], float]) -> OnResult:
    def on_result(trace: LayerTrace, args: tuple, kwargs: dict, result: Any):
        trace.count(name, amount(args, result))

    return on_result


def _count_advice(trace, args, kwargs, report):
    """The advisor's counts, read off its report."""
    trace.count("advisor.prefix_groups", report.prefix_groups)
    trace.count("advisor.candidates", len(report.ranked))
    trace.count("advisor.candidates_failed", len(report.failures))


def _count_verifications(trace, args, kwargs, verify):
    """Wrap the verifier ``default_verifier`` returns, counting the
    candidates ``plan_injections`` submits to it."""

    def counting_verify(dataset):
        trace.count("robustness.candidates_verified")
        return verify(dataset)

    return counting_verify


LAYERS: dict[str, tuple[Layer, ...]] = {
    "validate": (
        Layer("repro.executor.harness:map_schema", "mapper.map"),
        Layer(
            "repro.executor.harness:generate_bulk_population",
            "workloads.generate",
            rss=True,
        ),
        Layer(
            "repro.mapper.state:MappingState.to_canonical",
            "mapper.canonicalize",
            rss=True,
        ),
        Layer(
            "repro.mapper.result:MappingResult.canonicalize",
            "mapper.canonicalize",
            rss=True,
        ),
        Layer(
            "repro.mapper.state_map:RelationalStateMap.forward",
            "mapper.forward",
            rss=True,
        ),
        Layer(
            "repro.executor.harness:load_dataset",
            "executor.load",
            _counted("executor.rows_loaded", lambda args, rows: rows),
        ),
        Layer(
            "repro.executor.harness:run_checks",
            "executor.check",
            _counted("executor.rules_checked", lambda args, _: len(args[1])),
        ),
        Layer("repro.executor.harness:_round_trip", "executor.roundtrip"),
        Layer(
            "repro.executor.harness:plan_injections",
            "robustness.plan",
            _counted("robustness.accepted", lambda args, found: len(found)),
            rss=True,
        ),
        Layer(
            "repro.robustness.violations:default_verifier",
            None,
            _count_verifications,
        ),
        Layer(
            "repro.executor.harness:detection_matrix",
            "executor.matrix",
            _counted("executor.matrix_rows", lambda args, m: len(m.rows)),
        ),
    ),
    "design": (
        Layer(
            "repro.dsl:parse",
            "dsl.parse",
            _counted("dsl.source_kb", lambda args, _: len(args[0].encode()) / 1024),
        ),
        Layer("repro.analyzer:analyze", "analyzer.analyze"),
        Layer(
            "repro.mapper:map_schema",
            "mapper.map",
            _counted(
                "mapper.relations", lambda args, r: len(r.relational.relations)
            ),
        ),
        Layer(
            "repro.sql:generate_sql",
            "sql.emit",
            _counted("sql.ddl_kb", lambda args, ddl: len(ddl.encode()) / 1024),
        ),
        Layer(
            "repro.lint:lint_schema",
            "lint.lint",
            _counted("lint.findings", lambda args, r: len(r.diagnostics)),
        ),
        Layer("repro.mapper.reverse:parse_ddl", "sql.parse_ddl"),
        Layer("repro.mapper.reverse:lift_schema", "mapper.lift"),
    ),
    "advise": (
        Layer("repro.mapper.advisor:advise", None, _count_advice),
        Layer("repro.mapper.advisor:discover_space", "mapper.discover_space"),
        Layer("repro.mapper.advisor:map_prefix", "mapper.map_prefix"),
        Layer("repro.mapper.advisor:plan_from_prefix", "mapper.plan_from_prefix"),
        Layer("repro.mapper.advisor:score_plan", "advisor.score_plan"),
        Layer("repro.mapper.advisor:check_implications", "analyzer.implication"),
    ),
}


TIME_STAGES = {
    name: tuple(dict.fromkeys(l.stage for l in layers if l.stage is not None))
    for name, layers in LAYERS.items()
}

#: ``numerator / denominator`` ratios over a run's summed counts.
RATIOS = {
    "robustness.accept_ratio": (
        "robustness.accepted",
        "robustness.candidates_verified",
    ),
    "advisor.prefix_reuse": ("advisor.candidates", "advisor.prefix_groups"),
}

#: Counts reported as per-op medians (the rest only feed ratios).
REPORTED_COUNTS = (
    "executor.rows_loaded",
    "executor.rules_checked",
    "robustness.candidates_verified",
    "executor.matrix_rows",
    "dsl.source_kb",
    "mapper.relations",
    "sql.ddl_kb",
    "lint.findings",
    "advisor.prefix_groups",
    "advisor.candidates",
    "advisor.candidates_failed",
)

RSS_STAGES = (
    "workloads.generate",
    "mapper.canonicalize",
    "mapper.forward",
    "robustness.plan",
)


def layer_metrics(
    workload: str, ops: list[OpTrace], first_op: OpTrace, factor: float
) -> dict[str, float]:
    """Per-layer metric values of one traced run.

    Stage times and counts are per-op medians over ``ops`` (times
    scaled by the drift ``factor``); ratios divide summed counts;
    RSS growth is read from ``first_op``, the first op of the process,
    because later ops reuse memory the first one already mapped.
    Stages and counts a workload never reaches read 0.
    """
    metrics: dict[str, float] = {}
    all_stages = dict.fromkeys(s for stages in TIME_STAGES.values() for s in stages)
    for stage in all_stages:
        metrics[f"{stage}_s"] = factor * statistics.median(
            op.stage_s.get(stage, 0.0) for op in ops
        )
    for name in LAYERS:
        metrics[f"{name}.other_s"] = (
            factor * statistics.median(op.wall_s - op.covered_s for op in ops)
            if name == workload
            else 0.0
        )
    for name in REPORTED_COUNTS:
        metrics[name] = statistics.median(op.counts.get(name, 0) for op in ops)
    for ratio, (numerator, denominator) in RATIOS.items():
        below = sum(op.counts.get(denominator, 0) for op in ops)
        above = sum(op.counts.get(numerator, 0) for op in ops)
        metrics[ratio] = above / below if below else 0.0
    for stage in RSS_STAGES:
        metrics[f"{stage}_rss_mb"] = first_op.rss_mb.get(stage, 0.0)
    metrics["trace.coverage"] = sum(op.covered_s for op in ops) / sum(
        op.wall_s for op in ops
    )
    return metrics
