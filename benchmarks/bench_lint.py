"""Lint cost at industrial scale.

The lint engine is built to ride on the version-stamped caches: its
analysis pass reuses the memoized ``analyze`` result, its redundancy
rules reuse ``indexes_for`` and the memoized implication verdicts
(whose inclusion graph and emptiness closure ``analyze`` already
built), and with a precomputed :class:`MappingResult` the
trace/sql/map passes are pure rule bodies.  The asserted bound: a
**full** lint sweep (every rule, every artifact) over the 90-entity
industrial schema stays under 10% of the guarded ``map_schema`` wall
time on the same workload — lint is cheap enough to run after every
mapping session.
"""

from time import perf_counter

import pytest

from bench_industrial_scale import INDUSTRIAL_SHAPE, calibration_time
from conftest import emit
from repro.lint import lint_schema
from repro.mapper import MappingOptions, SublinkPolicy, map_schema
from repro.workloads import SchemaShape, generate_schema

#: The ISSUE's bound: full lint <= 10% of guarded map_schema wall.
LINT_WALL_FRACTION = 0.10


@pytest.fixture(scope="module")
def industrial_schema():
    return generate_schema(INDUSTRIAL_SHAPE, seed=1989)


@pytest.fixture(scope="module")
def industrial_options():
    return MappingOptions(sublink_policy=SublinkPolicy.INDICATOR)


def test_lint_is_a_fraction_of_mapping(
    benchmark, industrial_schema, industrial_options
):
    # Time the guarded mapping session first (cold caches), then the
    # full lint sweep reusing its result — the engineer's actual
    # workflow: map once, lint the result.
    started = perf_counter()
    result = map_schema(industrial_schema, industrial_options)
    map_wall_s = perf_counter() - started

    started = perf_counter()
    report = lint_schema(industrial_schema, result=result)
    lint_wall_s = perf_counter() - started

    benchmark(lint_schema, industrial_schema, result=result)

    assert report.errors == []  # zero false-positive errors at scale
    assert lint_wall_s < map_wall_s * LINT_WALL_FRACTION

    counts = report.counts()
    emit(
        "lint cost at industrial scale (bound: <=10% of guarded "
        "map_schema)",
        [
            f"guarded map_schema: {map_wall_s:.3f}s",
            f"full lint sweep:    {lint_wall_s:.3f}s "
            f"({lint_wall_s / map_wall_s:.1%} of mapping)",
            f"findings: {counts['errors']} error(s), "
            f"{counts['warnings']} warning(s), {counts['infos']} info(s)",
        ],
        data={
            "guarded_map_schema_wall_s": round(map_wall_s, 4),
            "lint_wall_s": round(lint_wall_s, 4),
            "lint_fraction": round(lint_wall_s / map_wall_s, 4),
            "bound_fraction": LINT_WALL_FRACTION,
            "errors": counts["errors"],
            "warnings": counts["warnings"],
            "infos": counts["infos"],
            "calibration_s": round(calibration_time(), 4),
        },
    )


def test_lint_errors_are_zero_across_dialects(
    industrial_schema, industrial_options
):
    """No false-positive errors under any 1989 dialect profile."""
    result = map_schema(industrial_schema, industrial_options)
    for dialect in ("sql2", "oracle", "db2"):
        report = lint_schema(
            industrial_schema, result=result, dialect=dialect
        )
        assert report.errors == [], dialect


def test_lint_without_result_maps_once_and_still_terminates():
    """Convenience path: a smaller workload linted from scratch."""
    schema = generate_schema(
        SchemaShape(entity_types=20, rich_constraints=True), seed=7
    )
    report = lint_schema(schema)
    assert report.skipped_artifacts == ()
    assert report.errors == []
