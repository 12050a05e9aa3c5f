"""The calibrated benchmark regression gate (``scripts/check_bench_regression.py``).

A gate must gate: a missing baseline, a missing current run, or a
requested wall key absent from either file is a failure, never a
silent pass.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_bench_regression", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


def _bench(path: Path, **data) -> Path:
    path.write_text(json.dumps({"blocks": [{"data": data}]}))
    return path


def _run(gate, baseline: Path, current: Path, *keys: str) -> int:
    argv = ["--baseline", str(baseline), "--current", str(current)]
    for key in keys:
        argv += ["--wall-key", key]
    return gate(argv)


def test_within_threshold_passes(gate, tmp_path):
    baseline = _bench(tmp_path / "base.json", wall_s=1.0, calibration_s=0.1)
    current = _bench(tmp_path / "cur.json", wall_s=1.1, calibration_s=0.1)
    assert _run(gate, baseline, current, "wall_s") == 0


def test_regression_fails(gate, tmp_path):
    baseline = _bench(tmp_path / "base.json", wall_s=1.0, calibration_s=0.1)
    current = _bench(tmp_path / "cur.json", wall_s=2.0, calibration_s=0.1)
    assert _run(gate, baseline, current, "wall_s") == 1


def test_missing_baseline_fails(gate, tmp_path):
    current = _bench(tmp_path / "cur.json", wall_s=1.0, calibration_s=0.1)
    assert _run(gate, tmp_path / "absent.json", current, "wall_s") == 1


def test_missing_key_in_baseline_fails(gate, tmp_path):
    baseline = _bench(tmp_path / "base.json", other_s=1.0, calibration_s=0.1)
    current = _bench(tmp_path / "cur.json", wall_s=1.0, calibration_s=0.1)
    assert _run(gate, baseline, current, "wall_s") == 1


def test_missing_current_run_fails(gate, tmp_path):
    baseline = _bench(tmp_path / "base.json", wall_s=1.0, calibration_s=0.1)
    assert _run(gate, baseline, tmp_path / "absent.json", "wall_s") == 1


def test_committed_implication_baseline_is_gateable(gate):
    baseline = _SCRIPT.parents[1] / "BENCH_implication.json"
    assert _run(gate, baseline, baseline, "implication_wall_s") == 0
