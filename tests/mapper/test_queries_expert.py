"""Tests for the conceptual query compiler and for workload-driven
option selection (the concluding remarks' expert rules) through the
advisor's query-pattern pricing."""

import pytest

from repro.cris import figure6_population, figure6_schema
from repro.errors import MappingError
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    ScoreWeights,
    SublinkPolicy,
    advise,
    map_schema,
)
from repro.ridl import (
    ConceptualQuery,
    FactSelection,
    QueryCompiler,
    SubtypeFilter,
    ValueFilter,
)
from repro.workloads.statistics import QueryPattern, WorkloadProfile

ALL_OPTIONS = [
    ("alt1", MappingOptions()),
    ("alt2", MappingOptions(null_policy=NullPolicy.NOT_ALLOWED)),
    ("indicator", MappingOptions(sublink_policy=SublinkPolicy.INDICATOR)),
    ("alt4", MappingOptions(sublink_policy=SublinkPolicy.TOGETHER)),
]


@pytest.fixture(scope="module")
def schema():
    return figure6_schema()


@pytest.fixture(scope="module")
def population(schema):
    return figure6_population(schema)


class TestCompilation:
    def test_anchor_only_query(self, schema, population):
        result = map_schema(schema)
        compiler = QueryCompiler.for_result(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(FactSelection("Paper_has_Title", optional=False),),
            )
        )
        assert compiled.relations_touched == ["Paper"]
        assert "SELECT Paper_Id, Title_of" in compiled.sql_text()

    def test_subtype_fact_joins_through_sublink_attribute(self, schema):
        result = map_schema(schema)
        compiler = QueryCompiler.for_result(result)
        compiled = compiler.compile(
            ConceptualQuery("Paper", selections=(FactSelection("scheduled"),))
        )
        assert compiled.relations_touched == ["Paper", "Program_Paper"]
        # The join goes through the `_Is` sublink attribute, exactly
        # as the map report prescribes.
        assert compiled.steps[0].join_on == (
            ("Paper_ProgramId_Is", "Paper_ProgramId"),
        )

    def test_unknown_fact_rejected(self, schema):
        compiler = QueryCompiler.for_result(map_schema(schema))
        with pytest.raises(MappingError):
            compiler.compile(
                ConceptualQuery("Paper", selections=(FactSelection("nope"),))
            )

    def test_unrelated_fact_rejected(self, schema):
        compiler = QueryCompiler.for_result(map_schema(schema))
        with pytest.raises(MappingError):
            compiler.compile(
                ConceptualQuery(
                    "Session", selections=(FactSelection("Paper_has_Title"),)
                )
            )

    def test_unanchored_type_rejected(self, schema):
        compiler = QueryCompiler.for_result(map_schema(schema))
        with pytest.raises(MappingError):
            compiler.compile(ConceptualQuery("Person"))

    def test_omitted_fact_rejected(self, schema):
        result = map_schema(
            schema, MappingOptions(omit_tables=("Invited_Paper",))
        )
        compiler = QueryCompiler.for_result(result)
        # Invited_Paper had no facts; but querying for a fact whose
        # table was omitted must fail loudly, so omit a satellite.
        result2 = map_schema(
            schema,
            MappingOptions(
                null_policy=NullPolicy.NOT_ALLOWED,
                omit_tables=("Paper_submission",),
            ),
        )
        compiler2 = QueryCompiler.for_result(result2)
        with pytest.raises(MappingError):
            compiler2.compile(
                ConceptualQuery(
                    "Paper", selections=(FactSelection("submission"),)
                )
            )


class TestExecution:
    @pytest.mark.parametrize("label,options", ALL_OPTIONS)
    def test_same_answers_under_every_physical_design(
        self, schema, population, label, options
    ):
        """One conceptual query; four physical designs; one answer."""
        result = map_schema(schema, options)
        database = result.forward(population)
        compiler = QueryCompiler.for_result(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(
                    FactSelection("Paper_has_Title", optional=False),
                    FactSelection("submission"),
                    FactSelection("scheduled"),
                ),
            )
        )
        answers = {
            (row["Paper"], row["Paper_has_Title"], row["submission"],
             row["scheduled"])
            for row in compiler.execute(compiled, database)
        }
        assert answers == {
            ("P1", "On Conference Databases", "1988-10-01", 101),
            ("P2", "Binary Models Revisited", None, 102),
            ("P3", "A Late Submission", "1988-12-24", None),
        }

    @pytest.mark.parametrize("label,options", ALL_OPTIONS)
    def test_subtype_filter_under_every_design(
        self, schema, population, label, options
    ):
        result = map_schema(schema, options)
        database = result.forward(population)
        compiler = QueryCompiler.for_result(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(FactSelection("Paper_has_Title", optional=False),),
                filters=(SubtypeFilter("Invited_Paper"),),
            )
        )
        answers = compiler.execute(compiled, database)
        assert [row["Paper"] for row in answers] == ["P1"]

    def test_value_filter(self, schema, population):
        result = map_schema(schema)
        database = result.forward(population)
        compiler = QueryCompiler.for_result(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(FactSelection("Paper_has_Title", optional=False),),
                filters=(ValueFilter("Paper_has_Title",
                                     "Binary Models Revisited"),),
            )
        )
        answers = compiler.execute(compiled, database)
        assert [row["Paper"] for row in answers] == ["P2"]

    def test_mandatory_selection_drops_lacking_instances(
        self, schema, population
    ):
        result = map_schema(schema)
        database = result.forward(population)
        compiler = QueryCompiler.for_result(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(FactSelection("scheduled", optional=False),),
            )
        )
        answers = compiler.execute(compiled, database)
        assert {row["Paper"] for row in answers} == {"P1", "P2"}


#: Rank on fetch pages alone: denormalize only when the workload pays.
FETCH_ONLY = ScoreWeights(tables=0, storage=0, null_exposure=0)


def advise_for(schema, *patterns):
    return advise(
        schema,
        workers=1,
        profile=WorkloadProfile(
            default_instances=100_000, optional_fill=1.0, patterns=patterns
        ),
        weights=FETCH_ONLY,
    )


class TestExpertRules:
    HOT = QueryPattern(
        "Paper",
        ("Paper_has_Title", "submission", "presents", "scheduled"),
        frequency=100.0,
    )

    def test_hot_co_access_recommends_denormalization(self, schema):
        report = advise_for(schema, self.HOT)
        assert "TOGETHER" in report.winner.label
        by_label = {o.label: o.score for o in report.ranked}
        assert (
            report.winner.score.entity_fetch_pages
            < by_label["DEFAULT SEPARATE"].entity_fetch_pages
        )
        assert (
            by_label["NOT_ALLOWED SEPARATE"].entity_fetch_pages
            > by_label["DEFAULT SEPARATE"].entity_fetch_pages
        )

    def test_cold_workload_keeps_default(self, schema):
        report = advise_for(
            schema, QueryPattern("Paper", ("Paper_has_Title",), frequency=1.0)
        )
        assert report.winner.label == "DEFAULT SEPARATE"

    def test_render_lists_all_candidates(self, schema):
        report = advise_for(schema, self.HOT)
        rendered = report.render()
        for outcome in report.ranked:
            assert outcome.label in rendered
        assert "winner: DEFAULT TOGETHER" in rendered

    def test_recommended_options_actually_map(self, schema):
        report = advise_for(schema, self.HOT)
        result = map_schema(schema, report.winner_options)
        assert result.relational.relations
