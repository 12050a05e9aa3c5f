"""The parallel mapping-option advisor.

Section 4.2 of the paper has the database engineer "turn and twist"
the mapping options and inspect the result of each choice.  The
advisor mechanizes the loop: it enumerates a
:class:`~repro.mapper.optionspace.OptionSpace` lattice of candidate
option sets, maps every candidate, scores each resulting relational
design with the page cost model of :mod:`repro.engine.cost`, and
returns the candidates ranked — the engineer starts from the best
design instead of from the default.

Two structural optimizations keep the exploration fast:

* **Shared-prefix reuse** — candidates agreeing on their
  :meth:`~repro.mapper.options.MappingOptions.prefix_key` (null and
  sublink policies, lexical preferences, scope) share the expensive
  binary phase and plan synthesis; each distinct prefix runs once
  (:func:`~repro.mapper.engine.map_prefix`) and the combine/omit
  suffixes fork from its snapshot.
* **Process-pool fan-out** — prefix groups are independent, so they
  are distributed over a :class:`concurrent.futures.\
ProcessPoolExecutor`; every payload (schema, options, outcomes) is
  picklable by construction.  ``workers=1`` short-circuits the pool
  and runs serially in-process; because outcomes are reassembled in
  enumeration order and scored deterministically, the report is
  bit-identical for any worker count.

Candidates are scored on their relation *plans* (columns, keys,
nullability and datatypes are all plan-level decisions), skipping
the materialization cost for designs that are only being compared;
:meth:`AdvisorReport.winner_options` hands the chosen candidate to a
full :func:`~repro.mapper.engine.map_schema` run.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from repro.analyzer.implication import check_implications
from repro.brm.schema import BinarySchema
from repro.engine.cost import CostModel
from repro.errors import MappingError
from repro.mapper.engine import map_prefix, plan_from_prefix
from repro.mapper.options import MappingOptions
from repro.mapper.optionspace import (
    OptionSpace,
    PrunePredicate,
    discover_space,
    enumerate_options,
)
from repro.mapper.rulebase import Rule
from repro.mapper.synthesis import MappingPlan
from repro.observability import tracer as obs
from repro.ridl.queries import ConceptualQuery, FactSelection, QueryCompiler
from repro.robustness.health import HealthReport
from repro.workloads.statistics import (
    QueryPattern,
    WorkloadProfile,
    plan_row_bytes,
    plan_statistics,
)


@dataclass(frozen=True)
class ScoreWeights:
    """How the score components combine into one ranking total.

    Entity-fetch pages dominate by default — the paper's case against
    always-normalizing mappers is the I/O of dynamically re-joining
    "the many smaller tables derived by normalization".
    """

    entity_fetch: float = 1.0
    tables: float = 1.0
    storage: float = 0.05
    null_exposure: float = 0.25


@dataclass(frozen=True)
class CandidateScore:
    """The cost profile of one candidate relational design."""

    tables: int
    storage_pages: int
    #: Whole pages for the default one-fetch-per-type workload; the
    #: frequency-weighted sum when the profile carries query patterns.
    entity_fetch_pages: float
    nullable_columns: int
    total: float

    def as_dict(self) -> dict:
        return {
            "tables": self.tables,
            "storage_pages": self.storage_pages,
            "entity_fetch_pages": self.entity_fetch_pages,
            "nullable_columns": self.nullable_columns,
            "total": self.total,
        }


@dataclass(frozen=True)
class CandidateHealth:
    """The deterministic slice of a candidate's session health."""

    ok: bool
    mode: str
    quarantined: tuple[str, ...]
    degraded: tuple[str, ...]
    completed_phases: tuple[str, ...]

    @classmethod
    def from_report(cls, report: HealthReport) -> "CandidateHealth":
        return cls(
            ok=report.ok,
            mode=report.mode,
            quarantined=report.quarantined_rule_names(),
            degraded=tuple(report.degraded),
            completed_phases=tuple(report.completed_phases),
        )

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "mode": self.mode,
            "quarantined": list(self.quarantined),
            "degraded": list(self.degraded),
            "completed_phases": list(self.completed_phases),
        }


@dataclass(frozen=True)
class CandidateOutcome:
    """One explored candidate: its options, score and session health.

    ``error`` is set (and ``score`` is None) for candidates whose
    mapping failed — an inadmissible option corner is a finding, not
    a crash of the whole exploration.
    """

    index: int  #: position in enumeration order
    options: MappingOptions
    label: str
    score: CandidateScore | None
    health: CandidateHealth | None
    error: str | None = None
    #: How many declared constraints of this candidate's canonical
    #: schema the implication engine proved redundant (None on
    #: failure): a high count flags a design carrying dead weight.
    implied_constraints: int | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def sort_key(self) -> tuple:
        """Ranking order: scored candidates by ascending total cost,
        ties by enumeration order; failures last, in enumeration
        order."""
        if self.score is None:
            return (1, 0.0, self.index)
        return (0, self.score.total, self.index)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "options": _options_dict(self.options),
            "score": None if self.score is None else self.score.as_dict(),
            "health": None if self.health is None else self.health.as_dict(),
            "error": self.error,
            "implied_constraints": self.implied_constraints,
        }


def _options_dict(options: MappingOptions) -> dict:
    c = options.canonical()
    return {
        "null_policy": c.null_policy.name,
        "sublink_policy": c.sublink_policy.name,
        "sublink_overrides": {
            name: policy.name for name, policy in c.sublink_overrides
        },
        "lexical_preferences": {
            name: list(key) for name, key in c.lexical_preferences
        },
        "combine_tables": [list(pair) for pair in c.combine_tables],
        "omit_tables": list(c.omit_tables),
        "scope": None if c.scope is None else list(c.scope),
    }


@dataclass(frozen=True)
class AdvisorReport:
    """The ranked outcome of one lattice exploration."""

    schema_name: str
    ranked: tuple[CandidateOutcome, ...]
    prefix_groups: int
    profile: WorkloadProfile
    weights: ScoreWeights

    @property
    def winner(self) -> CandidateOutcome | None:
        """The best-scoring successful candidate, if any."""
        if self.ranked and not self.ranked[0].failed:
            return self.ranked[0]
        return None

    @property
    def winner_options(self) -> MappingOptions | None:
        winner = self.winner
        return None if winner is None else winner.options

    @property
    def failures(self) -> tuple[CandidateOutcome, ...]:
        return tuple(o for o in self.ranked if o.failed)

    def top(self, k: int | None = None) -> tuple[CandidateOutcome, ...]:
        return self.ranked if k is None else self.ranked[: max(0, k)]

    def to_json(self, top_k: int | None = None) -> str:
        """A machine-readable report; deterministic bytes for a given
        schema, space and profile, independent of the worker count."""
        payload = {
            "schema": self.schema_name,
            "candidates": len(self.ranked),
            "failures": len(self.failures),
            "prefix_groups": self.prefix_groups,
            "winner": None if self.winner is None else self.winner.label,
            "ranked": [
                dict(outcome.as_dict(), rank=rank + 1)
                for rank, outcome in enumerate(self.top(top_k))
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def render(self, top_k: int | None = None) -> str:
        """The engineer-facing ranking table."""
        lines = [
            f"option advisor — schema {self.schema_name!r}: "
            f"{len(self.ranked)} candidates in {self.prefix_groups} "
            f"prefix groups, {len(self.failures)} failed",
        ]
        header = (
            f"{'rank':>4}  {'total':>10}  {'fetch':>6}  {'tables':>6}  "
            f"{'pages':>7}  {'nulls':>5}  {'impl':>4}  options"
        )
        lines.append(header)
        for rank, outcome in enumerate(self.top(top_k), start=1):
            if outcome.score is None:
                lines.append(
                    f"{rank:>4}  {'FAILED':>10}  {'-':>6}  {'-':>6}  "
                    f"{'-':>7}  {'-':>5}  {'-':>4}  {outcome.label}"
                    f"  [{outcome.error}]"
                )
                continue
            s = outcome.score
            implied = (
                "-"
                if outcome.implied_constraints is None
                else str(outcome.implied_constraints)
            )
            lines.append(
                f"{rank:>4}  {s.total:>10.4f}  {s.entity_fetch_pages:>6}  "
                f"{s.tables:>6}  {s.storage_pages:>7}  "
                f"{s.nullable_columns:>5}  {implied:>4}  {outcome.label}"
            )
        if self.winner is not None:
            lines.append(f"winner: {self.winner.label}")
        else:
            lines.append("winner: none (all candidates failed)")
        return "\n".join(lines)


def score_plan(
    plan: MappingPlan,
    profile: WorkloadProfile = WorkloadProfile(),
    weights: ScoreWeights = ScoreWeights(),
    model: CostModel = CostModel(),
) -> CandidateScore:
    """Score one candidate design from its relation plans.

    ``storage_pages`` totals the heap sizes; ``entity_fetch_pages``
    totals, over every object type, the keyed lookups needed to
    gather the type's facts from all relations owned by it (the
    dynamic-join cost of section 4) — or, when ``profile.patterns``
    is set, the frequency-weighted keyed lookups of each pattern's
    compiled fetch; ``nullable_columns`` counts the nullable non-key
    columns (the paper's bracketed attributes) as the design's null
    exposure.  A pattern the design cannot answer raises
    :class:`~repro.errors.MappingError`.
    """
    statistics = plan_statistics(plan, profile)

    def lookup_pages(name: str) -> int:
        return model.index_depth(statistics.row_count(name)) + 1

    storage_pages = 0
    nullable_columns = 0
    spread: dict[str, list[str]] = {}
    for name, relation_plan in sorted(plan.plans.items()):
        rows = statistics.row_count(name)
        storage_pages += model.heap_pages(plan_row_bytes(relation_plan), rows)
        nullable_columns += sum(
            1
            for unit in relation_plan.columns
            if unit.nullable and unit.name not in relation_plan.key_columns
        )
        if relation_plan.owner is not None:
            spread.setdefault(relation_plan.owner, []).append(name)
    entity_fetch_pages: float = 0
    if profile.patterns:
        entity_fetch_pages = _pattern_fetch_pages(
            plan, profile.patterns, lookup_pages
        )
    else:
        for owner in sorted(spread):
            for name in spread[owner]:
                entity_fetch_pages += lookup_pages(name)
    tables = len(plan.plans)
    total = round(
        weights.entity_fetch * entity_fetch_pages
        + weights.tables * tables
        + weights.storage * storage_pages
        + weights.null_exposure * nullable_columns,
        4,
    )
    return CandidateScore(
        tables=tables,
        storage_pages=storage_pages,
        entity_fetch_pages=entity_fetch_pages,
        nullable_columns=nullable_columns,
        total=total,
    )


def _pattern_fetch_pages(
    plan: MappingPlan,
    patterns: tuple[QueryPattern, ...],
    lookup_pages: Callable[[str], int],
) -> float:
    """Frequency-weighted page reads of the patterns' entity fetches:
    one keyed lookup per relation each compiled fetch touches."""
    compiler = QueryCompiler(plan)
    total = 0.0
    for pattern in patterns:
        query = ConceptualQuery(
            pattern.object_type,
            selections=tuple(FactSelection(fact) for fact in pattern.facts),
        )
        try:
            compiled = compiler.compile(query)
        except MappingError as exc:
            raise MappingError(
                f"pattern {pattern.object_type}({', '.join(pattern.facts)}): "
                f"{exc}"
            ) from exc
        total += pattern.frequency * sum(
            lookup_pages(name) for name in compiled.relations_touched
        )
    return total


def _check_patterns(schema: BinarySchema, profile: WorkloadProfile) -> None:
    """Refuse a profile whose patterns name an object type or fact type
    the schema does not have (:class:`~repro.errors.UnknownElementError`),
    before any candidate is mapped."""
    for pattern in profile.patterns:
        schema.object_type(pattern.object_type)
        for fact in pattern.facts:
            schema.fact_type(fact)


@dataclass(frozen=True)
class _GroupTask:
    """One prefix group's work order — the process-pool payload."""

    schema: BinarySchema
    prefix_options: MappingOptions
    items: tuple[tuple[int, MappingOptions], ...]
    profile: WorkloadProfile
    weights: ScoreWeights
    model: CostModel
    robustness: str | None
    extra_rules: tuple[Rule, ...] = ()
    #: Position in enumeration order — a deterministic span label.
    group_index: int = 0
    #: PID of the process whose tracer wants this group's spans, or
    #: ``None`` when tracing is off.  A worker (different PID) opens
    #: its own collector and ships the spans back; the serial path
    #: (same PID) records straight onto the active tracer.
    trace_parent: int | None = None


def _explore_group(task: _GroupTask) -> "_GroupResult":
    """Run one shared prefix, then fork and score every suffix.

    Module-level so the payload and the function itself pickle for
    the process pool; also the serial path, so both are one code
    path and the results are identical by construction.
    """
    if task.trace_parent is not None and os.getpid() != task.trace_parent:
        # Worker process: collect spans/metrics locally and ship them
        # back as picklable payloads for deterministic merging.  (With
        # a forking start method the worker inherits the parent's
        # active-tracer contextvar, but that tracer object is a dead
        # copy — hence the PID check, not an ``active()`` check.)
        collector = obs.Tracer("advisor-worker")
        with collector.activate():
            outcomes = _explore_group_outcomes(task)
        return _GroupResult(
            outcomes=outcomes,
            spans=collector.export_spans(),
            metrics=collector.metrics.snapshot(),
        )
    return _GroupResult(outcomes=_explore_group_outcomes(task))


@dataclass(frozen=True)
class _GroupResult:
    """One group's outcomes plus, when traced in a worker, its spans."""

    outcomes: list[CandidateOutcome]
    spans: list | None = None
    metrics: dict | None = None


def _explore_group_outcomes(task: _GroupTask) -> list[CandidateOutcome]:
    with obs.span(
        "advisor.group",
        group=task.group_index,
        prefix=task.prefix_options.describe(),
        candidates=len(task.items),
    ):
        return _run_group(task)


def _run_group(task: _GroupTask) -> list[CandidateOutcome]:
    try:
        prefix = map_prefix(
            task.schema,
            task.prefix_options,
            robustness=task.robustness,
            extra_rules=task.extra_rules,
        )
    except Exception as exc:
        return [
            CandidateOutcome(
                index=index,
                options=options,
                label=options.describe(),
                score=None,
                health=None,
                error=f"prefix failed: {exc}",
            )
            for index, options in task.items
        ]
    outcomes = []
    for index, options in task.items:
        try:
            plan, health = plan_from_prefix(prefix, options)
            outcomes.append(
                CandidateOutcome(
                    index=index,
                    options=options,
                    label=options.describe(),
                    score=score_plan(
                        plan, task.profile, task.weights, task.model
                    ),
                    health=CandidateHealth.from_report(health),
                    implied_constraints=len(
                        check_implications(plan.schema).implied
                    ),
                )
            )
        except Exception as exc:
            outcomes.append(
                CandidateOutcome(
                    index=index,
                    options=options,
                    label=options.describe(),
                    score=None,
                    health=None,
                    error=str(exc),
                )
            )
    return outcomes


def resolve_workers(workers: int | None, groups: int) -> int:
    """The effective worker count: ``None`` auto-sizes to the CPU
    count, and never more workers than prefix groups."""
    if workers is None:
        workers = os.cpu_count() or 1
    return max(1, min(workers, max(1, groups)))


def advise(
    schema: BinarySchema,
    space: OptionSpace | None = None,
    *,
    workers: int | None = None,
    prune: PrunePredicate | None = None,
    profile: WorkloadProfile = WorkloadProfile(),
    weights: ScoreWeights = ScoreWeights(),
    model: CostModel = CostModel(),
    robustness: str | None = None,
    extra_rules: tuple[Rule, ...] = (),
) -> AdvisorReport:
    """Explore a mapping-option lattice and rank the candidates.

    ``space`` defaults to :func:`~repro.mapper.optionspace.\
discover_space` for the schema.  ``workers`` defaults to the CPU
    count; ``workers=1`` runs serially in-process and produces a
    bit-identical report.  With ``workers > 1`` the payloads cross a
    process boundary, so ``extra_rules`` must be picklable
    (module-level functions).  Query patterns naming an unknown
    object type or fact type raise
    :class:`~repro.errors.UnknownElementError` up front; a candidate
    that cannot answer a known pattern (e.g. its fact relation is
    omitted) is reported as failed.
    """
    _check_patterns(schema, profile)
    tracer = obs.active()
    with obs.span("advisor.advise", schema=schema.name) as advise_span:
        if space is None:
            space = discover_space(schema)
        with obs.span("advisor.enumerate"):
            candidates = enumerate_options(space, prune=prune)
        groups: dict[tuple, list[tuple[int, MappingOptions]]] = {}
        prefix_options: dict[tuple, MappingOptions] = {}
        for index, options in enumerate(candidates):
            key = options.prefix_key()
            groups.setdefault(key, []).append((index, options))
            prefix_options.setdefault(key, options.prefix_options())
        tasks = [
            _GroupTask(
                schema=schema,
                prefix_options=prefix_options[key],
                items=tuple(items),
                profile=profile,
                weights=weights,
                model=model,
                robustness=robustness,
                extra_rules=extra_rules,
                group_index=group_index,
                trace_parent=None if tracer is None else os.getpid(),
            )
            for group_index, (key, items) in enumerate(groups.items())
        ]
        obs.count("advisor.groups", len(tasks))
        obs.count("advisor.candidates", len(candidates))
        effective = resolve_workers(workers, len(tasks))
        if effective <= 1:
            results = [_explore_group(task) for task in tasks]
        else:
            with ProcessPoolExecutor(max_workers=effective) as pool:
                results = list(pool.map(_explore_group, tasks))
        grouped = []
        for result in results:
            # Graft worker-collected spans in task (= enumeration)
            # order, so the span tree is identical to a serial run's
            # regardless of which worker ran which group.
            if tracer is not None and result.spans:
                tracer.adopt(
                    result.spans,
                    parent=None if advise_span is obs.NOOP_SPAN else advise_span,
                )
            if tracer is not None and result.metrics:
                tracer.metrics.merge(result.metrics)
            grouped.append(result.outcomes)
        outcomes = sorted(
            (outcome for group in grouped for outcome in group),
            key=CandidateOutcome.sort_key,
        )
        return AdvisorReport(
            schema_name=schema.name,
            ranked=tuple(outcomes),
            prefix_groups=len(tasks),
            profile=profile,
            weights=weights,
        )
