"""The three workloads: seeded inputs, the timed op, the output check.

Every workload is a closed loop with one client in one process: the
next op starts only after the previous one returned and was checked.
Inputs are made from the benchmark seed alone; the program receives
only the generated inputs.

* ``validate`` -- one op is ``run_validation`` of the CRIS schema at
  5e4 rows on stdlib SQLite with serial checks.  Population, state
  map, executor and robustness layers do almost all of the work.
* ``design`` -- one op is the designer's cold once-per-edit loop on a
  DSL text: parse, analyze, map, DDL for five dialects, lint, and a
  lift of the sql2 DDL back to a binary schema.
* ``advise`` -- one op is ``advise(schema, workers=1)`` over the
  default candidate space: warm prefix maps with prefix reuse plus
  the implication engine on every candidate.

The entry points are resolved through their module attributes at call
time (``dsl.parse``, ``mapper.map_schema``, ...), which is what lets
the traced run in :mod:`layers` wrap them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro import analyzer, dsl, lint, mapper, sql
from repro.cris import cris_schema
from repro.executor import harness
from repro.mapper import advisor, optionspace, reverse
from repro.workloads.generator import SchemaShape, generate_schema

#: Inputs per workload; ops cycle through them.  Large enough that a
#: run's medians do not hinge on a handful of schemas.
CORPUS_SIZE = 64

VALIDATE_SCALE = 50_000
#: One row per mutator kind; CRIS has no rules for ``check-breach`` and
#: ``subset-leak``, so the matrix has four rows, not six.
VALIDATE_MATRIX_ROWS = 4

DIALECTS = ("sql2", "oracle", "ingres", "db2", "sybase")

#: Entity-type counts of one round, a 1:2:1 mix: the median op falls
#: inside the middle size mode and the p90 inside the largest.
DESIGN_ROUND = (20, 40, 40, 90)
ADVISE_ROUND = (10, 20, 20, 40)


@dataclass(frozen=True)
class DesignOutput:
    relations: int
    lint_report: Any
    lifted: Any


@dataclass(frozen=True)
class Workload:
    """One workload: how to make inputs, run an op and check it.

    ``prepare`` turns a corpus entry into the op's argument outside
    the timed region, so every op starts from freshly built objects
    and no schema-version memo carries over from an earlier op.
    ``check(args, output)`` runs outside the timed region too; it
    returns ``None`` for a correct output and the reason otherwise.
    ``items`` counts the work one output represents.
    """

    name: str
    round_size: int
    make_inputs: Callable[[int], list]
    prepare: Callable[[Any], Any]
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    items: Callable[[Any], int]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _corpus(workload: str, seed: int, round_sizes: tuple[int, ...]) -> list[str]:
    rng = _rng(workload, seed)
    return [
        dsl.to_dsl(
            generate_schema(
                SchemaShape(entity_types=size, rich_constraints=True),
                seed=rng.randrange(1, 2**31),
            )
        )
        for _ in range(CORPUS_SIZE // len(round_sizes))
        for size in round_sizes
    ]


# ----------------------------------------------------------------------
# validate
# ----------------------------------------------------------------------


def validate_inputs(seed: int) -> list[int]:
    rng = _rng("validate", seed)
    return [rng.randrange(1, 2**31) for _ in range(CORPUS_SIZE)]


def validate_prepare(op_seed: int):
    return cris_schema(), op_seed


def validate_op(args):
    schema, op_seed = args
    return harness.run_validation(
        schema,
        backend="sqlite",
        scale=VALIDATE_SCALE,
        seed=op_seed,
        check_workers=1,
    )


def check_validate(args, report) -> str | None:
    if not report.ok:
        return "validation report is not ok"
    if report.matrix is None:
        return "no detection matrix"
    if len(report.matrix.rows) != VALIDATE_MATRIX_ROWS:
        return (
            f"detection matrix has {len(report.matrix.rows)} rows, "
            f"expected {VALIDATE_MATRIX_ROWS}"
        )
    return None


# ----------------------------------------------------------------------
# design
# ----------------------------------------------------------------------


def design_inputs(seed: int) -> list[str]:
    return _corpus("design", seed, DESIGN_ROUND)


def design_op(source: str) -> DesignOutput:
    schema = dsl.parse(source)
    analyzer.analyze(schema)
    result = mapper.map_schema(schema)
    ddl = {dialect: sql.generate_sql(result, dialect) for dialect in DIALECTS}
    lint_report = lint.lint_schema(schema, result=result, source=source)
    lifted = reverse.lift_ddl(ddl["sql2"])
    return DesignOutput(
        relations=len(result.relational.relations),
        lint_report=lint_report,
        lifted=lifted,
    )


def check_design(source: str, output: DesignOutput) -> str | None:
    errors = output.lint_report.errors
    if errors:
        return f"{len(errors)} lint error(s), first: {errors[0]}"
    if not output.lifted.schema.object_types:
        return "the lift produced an empty schema"
    return None


# ----------------------------------------------------------------------
# advise
# ----------------------------------------------------------------------


def advise_inputs(seed: int) -> list[str]:
    return _corpus("advise", seed, ADVISE_ROUND)


def advise_op(schema):
    return advisor.advise(schema, workers=1)


def check_advise(schema, report) -> str | None:
    failed = report.failures
    if failed:
        return f"{len(failed)} candidate(s) failed, first: {failed[0].error}"
    space = optionspace.enumerate_options(optionspace.discover_space(schema))
    if len(report.ranked) < len(space):
        return (
            f"ranking has {len(report.ranked)} candidates, "
            f"the enumerated space has {len(space)}"
        )
    return None


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="validate",
            round_size=1,
            make_inputs=validate_inputs,
            prepare=validate_prepare,
            op=validate_op,
            check=check_validate,
            items=lambda report: report.rows_loaded,
        ),
        Workload(
            name="design",
            round_size=len(DESIGN_ROUND),
            make_inputs=design_inputs,
            prepare=lambda source: source,
            op=design_op,
            check=check_design,
            items=lambda output: output.relations,
        ),
        Workload(
            name="advise",
            round_size=len(ADVISE_ROUND),
            make_inputs=advise_inputs,
            prepare=dsl.parse,
            op=advise_op,
            check=check_advise,
            items=lambda report: sum(
                1 for outcome in report.ranked if not outcome.failed
            ),
        ),
    )
}
