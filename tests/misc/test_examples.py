"""Every shipped example must run to completion.

Examples are documentation that executes; this test keeps them from
rotting as the library evolves.
"""

import io
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.py")
)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(path, monkeypatch):
    captured = io.StringIO()
    monkeypatch.setattr(sys, "stdout", captured)
    runpy.run_path(str(path), run_name="__main__")
    output = captured.getvalue()
    assert output.strip(), f"{path.name} printed nothing"
    assert "Traceback" not in output


def test_workload_advisor_verdicts(monkeypatch):
    """The co-access workload gets a TOGETHER design; the tracker
    keeps the default SEPARATE one."""
    captured = io.StringIO()
    monkeypatch.setattr(sys, "stdout", captured)
    path = next(p for p in EXAMPLES if p.stem == "workload_advisor")
    runpy.run_path(str(path), run_name="__main__")
    winners = [
        line.removeprefix("winner: ")
        for line in captured.getvalue().splitlines()
        if line.startswith("winner: ")
    ]
    assert winners == ["DEFAULT TOGETHER", "DEFAULT SEPARATE"]
