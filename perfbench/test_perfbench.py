"""Self-tests of the benchmark: probe, checks, inputs, trace coverage.

Run from the checkout root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import ast
import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import ops
import probe
from repro.analyzer.diagnostics import Severity
from repro.lint.diagnostics import LintDiagnostic, LintReport

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROBE_REF_S = "0.05"
PY_TPFLAGS_HAVE_GC = 1 << 14


def _run_bench(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--probe-ref-s", PROBE_REF_S,
            *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


# ----------------------------------------------------------------------
# The probe
# ----------------------------------------------------------------------


def test_probe_imports_only_the_stdlib():
    tree = ast.parse((HERE / "probe.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert imported <= set(sys.stdlib_module_names) | {"__future__"}
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; import probe; probe.probe(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))",
        ],
        cwd=HERE,
        capture_output=True,
        text=True,
        check=True,
    )
    assert loaded.stdout.strip() == "[]"


def test_probe_allocates_no_gc_tracked_objects():
    # Everything the loop creates -- the range, its iterator, ints --
    # is of a type the collector does not track ...
    for value in (range(3), iter(range(3)), 2**40, probe._spin(10), 0.5):
        assert not type(value).__flags__ & PY_TPFLAGS_HAVE_GC, type(value)
    # ... and a probe leaves the young generation's count unchanged.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()
        probe.probe()
        assert gc.get_count() == before
    finally:
        if was_enabled:
            gc.enable()


def test_drift_factor_is_identity_at_the_reference():
    assert probe.drift_factor(0.05, [0.05]) == 1.0
    assert probe.drift_factor(0.05, [0.04, 0.05, 0.07]) == 1.0
    assert probe.drift_factor(0.05, [0.1, 0.1]) == 0.5
    with pytest.raises(ValueError):
        probe.drift_factor(0.05, [])


def test_run_prints_raw_and_adjusted_values():
    done = _run_bench(
        "--workload", "design", "--seed", "3", "--seconds", "1", "--trace", "0"
    )
    assert done.returncode == 0, done.stderr
    *_, diagnostics_line, result_line = done.stdout.strip().splitlines()
    diagnostics = json.loads(diagnostics_line)["diagnostics"]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {
        "setup_s", "op_p50_s", "op_p90_s", "items_per_s", "peak_rss_mb"
    }
    assert metrics["op_p50_s"]["value"] == pytest.approx(
        diagnostics["op_raw_p50_s"] * diagnostics["drift_factor"]
    )
    assert diagnostics["probe_median_s"] > 0
    assert len(diagnostics["setup_raw_s"]) == 3


def test_run_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in HERE.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    done = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--probe-ref-s", PROBE_REF_S,
            "--workload", "design", "--seed", "1", "--seconds", "1",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# ----------------------------------------------------------------------
# The output checks can fail
# ----------------------------------------------------------------------


def test_validate_check_flags_an_off_diagonal_row():
    args = ops.validate_prepare(5)
    schema, seed = args
    report = ops.harness.run_validation(
        schema, backend="sqlite", scale=2000, seed=seed, check_workers=1
    )
    assert ops.check_validate(args, report) is None
    row = report.matrix.rows[0]
    broken_row = dataclasses.replace(row, detected=(row.rule, "SOME_OTHER_RULE"))
    broken = dataclasses.replace(
        report,
        matrix=dataclasses.replace(
            report.matrix, rows=[broken_row, *report.matrix.rows[1:]]
        ),
    )
    assert ops.check_validate(args, broken) is not None


def test_design_check_flags_a_lint_error():
    source = ops.design_inputs(1)[0]
    output = ops.design_op(source)
    assert ops.check_design(source, output) is None
    report = output.lint_report
    error = LintDiagnostic(
        code="IMP407",
        severity=Severity.ERROR,
        subject="Entity0",
        message="injected contradiction",
    )
    broken_report = LintReport(
        schema_name=report.schema_name,
        diagnostics=[*report.diagnostics, error],
        suppressed=report.suppressed,
        skipped_artifacts=report.skipped_artifacts,
    )
    broken = dataclasses.replace(output, lint_report=broken_report)
    assert ops.check_design(source, broken) is not None


def test_advise_check_flags_an_errored_candidate():
    schema = ops.dsl.parse(ops.advise_inputs(1)[0])
    report = ops.advise_op(schema)
    assert ops.check_advise(schema, report) is None
    first, *rest = report.ranked
    errored = dataclasses.replace(first, score=None, error="injected failure")
    broken = dataclasses.replace(report, ranked=(errored, *rest))
    assert ops.check_advise(schema, broken) is not None


# ----------------------------------------------------------------------
# Inputs are a function of the seed
# ----------------------------------------------------------------------


def inputs_digest(inputs: list) -> str:
    """A hash of a workload's inputs (DSL texts or per-op seeds)."""
    digest = hashlib.sha256()
    for item in inputs:
        digest.update(repr(item).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _digest_in_subprocess(workload: str, seed: int, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys; sys.path[:0] = sys.argv[1:3]; import ops; "
            f"print(repr(ops.WORKLOADS[{workload!r}].make_inputs({seed})))",
            str(ROOT / "src"),
            str(HERE),
        ],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return inputs_digest(ast.literal_eval(done.stdout))


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_inputs_are_deterministic_per_seed(workload):
    make = ops.WORKLOADS[workload].make_inputs
    here = inputs_digest(make(11))
    assert _digest_in_subprocess(workload, 11, "1") == here
    assert _digest_in_subprocess(workload, 11, "2") == here
    assert inputs_digest(make(12)) != here
    assert len(set(make(11))) == len(make(11))


# ----------------------------------------------------------------------
# The traced run accounts for the op wall
# ----------------------------------------------------------------------


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = sys.modules[module_name]
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


@pytest.mark.parametrize("workload", sorted(ops.WORKLOADS))
def test_wrapped_layers_cover_the_traced_op_wall(workload):
    spec = ops.WORKLOADS[workload]
    inputs = spec.make_inputs(7)
    # One untraced warm-up op, as in a benchmark run.
    spec.op(spec.prepare(inputs[0]))
    originals = {
        layer.target: _resolve(layer.target) for layer in layers.LAYERS[workload]
    }
    trace = layers.LayerTrace(layers.LAYERS[workload])
    for entry in inputs[: spec.round_size]:
        args = spec.prepare(entry)
        output, _ = trace.run(spec.op, args)
        assert spec.check(args, output) is None
    covered = sum(op.covered_s for op in trace.ops)
    wall = sum(op.wall_s for op in trace.ops)
    assert covered / wall >= 0.9, {
        stage: sum(op.stage_s.get(stage, 0.0) for op in trace.ops) / wall
        for stage in layers.TIME_STAGES[workload]
    }
    # Every wrapper fired: a renamed entry point cannot go unmeasured.
    for stage in layers.TIME_STAGES[workload]:
        assert all(stage in op.stage_s for op in trace.ops), stage
    # The originals are back once the op returned.
    for target, original in originals.items():
        assert _resolve(target) is original, target
