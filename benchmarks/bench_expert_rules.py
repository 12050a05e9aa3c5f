"""Ablation: workload-driven option selection (concluding remarks).

DESIGN.md calls out the rule-driven option choice as the design
decision to ablate: does letting "query information steer the mapping
towards limited de-normalization" actually beat (a) the always-
normalize naive stance and (b) the fixed default options, under a
co-access-heavy workload?  The advisor prices the workload's query
patterns on every candidate plan; the ablation re-prices the winner
and the default on fully materialized mappings with the I/O cost
model.
"""

from conftest import emit
from repro.engine.cost import TableStatistics, entity_fetch_cost
from repro.mapper import MappingOptions, ScoreWeights, advise, map_schema
from repro.ridl import ConceptualQuery, FactSelection, QueryCompiler
from repro.workloads.statistics import QueryPattern, WorkloadProfile

STATISTICS = TableStatistics(default_rows=100_000)

#: Rank on entity-fetch pages alone, so the advisor denormalizes only
#: when the workload pays; ties keep the earlier (DEFAULT SEPARATE)
#: candidate.
FETCH_ONLY = ScoreWeights(tables=0, storage=0, null_exposure=0)


def workload(*patterns):
    """100,000 instances per type, every optional role filled: each
    relation is as large as its owner type, as in ``STATISTICS``."""
    return WorkloadProfile(
        default_instances=100_000, optional_fill=1.0, patterns=patterns
    )


PROFILE = workload(
    QueryPattern(
        "Paper",
        ("Paper_has_Title", "submission", "presents", "scheduled"),
        frequency=100.0,
    ),
    QueryPattern("Paper", ("Paper_has_Title",), frequency=10.0),
)


def recommend(schema, profile):
    return advise(schema, workers=1, profile=profile, weights=FETCH_ONLY)


def workload_cost(result, profile):
    compiler = QueryCompiler.for_result(result)
    total = 0.0
    for pattern in profile.patterns:
        compiled = compiler.compile(
            ConceptualQuery(
                pattern.object_type,
                selections=tuple(FactSelection(f) for f in pattern.facts),
            )
        )
        total += pattern.frequency * entity_fetch_cost(
            result.relational, compiled.relations_touched, STATISTICS
        )
    return total


def test_recommendation(benchmark, fig6_schema):
    report = benchmark(recommend, fig6_schema, PROFILE)
    assert report.winner is not None


def test_ablation_recommended_beats_default(fig6_schema):
    report = recommend(fig6_schema, PROFILE)
    default_result = map_schema(fig6_schema, MappingOptions())
    recommended_result = map_schema(fig6_schema, report.winner_options)

    default_cost = workload_cost(default_result, PROFILE)
    recommended_cost = workload_cost(recommended_result, PROFILE)

    assert recommended_cost < default_cost
    emit(
        "Ablation — expert rules vs fixed defaults "
        "(weighted page reads for the co-access workload)",
        [
            f"default options: {default_cost:.0f}",
            f"recommended ({report.winner.label}): {recommended_cost:.0f}",
            f"improvement: {default_cost / recommended_cost:.1f}x",
        ],
    )


def test_cold_workload_not_denormalized(fig6_schema):
    """The advisor must not denormalize when the workload doesn't pay."""
    cold = workload(QueryPattern("Paper", ("Paper_has_Title",), frequency=1.0))
    assert recommend(fig6_schema, cold).winner.label == "DEFAULT SEPARATE"
