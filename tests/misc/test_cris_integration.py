"""Integration tests on the CRIS case — the paper's running example."""

import pytest

from repro.analyzer import analyze
from repro.cris import cris_schema, populate_cris
from repro.mapper import MappingOptions, NullPolicy, SublinkPolicy, map_schema
from repro.ridl import ConceptualQuery, FactSelection, QueryCompiler, SubtypeFilter


@pytest.fixture(scope="module")
def schema():
    return cris_schema()


@pytest.fixture(scope="module")
def population(schema):
    return populate_cris(schema)


class TestCrisSchema:
    def test_analyzes_clean(self, schema):
        report = analyze(schema)
        assert report.is_mappable
        assert report.errors == []

    def test_population_is_valid(self, schema, population):
        assert population.is_valid(), [str(v) for v in population.check()][:5]

    def test_every_nolot_referable(self, schema):
        from repro.brm import ReferenceResolver

        resolver = ReferenceResolver(schema)
        assert resolver.non_referable() == set()


class TestCrisMappings:
    POLICY_MATRIX = [
        MappingOptions(),
        MappingOptions(null_policy=NullPolicy.NOT_ALLOWED),
        MappingOptions(sublink_policy=SublinkPolicy.INDICATOR),
        MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
    ]

    @pytest.mark.parametrize(
        "options",
        POLICY_MATRIX,
        ids=["default", "no-nulls", "indicator", "together"],
    )
    def test_round_trip(self, schema, population, options):
        result = map_schema(schema, options)
        canonical = result.canonicalize(result.state.to_canonical(population))
        database = result.state_map.forward(canonical)
        assert database.is_valid(), [str(v) for v in database.check()][:5]
        assert result.state_map.backward(database) == canonical

    def test_many_to_many_relations_exist(self, schema):
        result = map_schema(schema)
        names = {r.name for r in result.relational.relations}
        assert "assigned_to" in names
        assert "committee_member" in names

    @pytest.mark.parametrize("dialect", ["sql2", "oracle", "ingres", "db2", "sybase"])
    def test_all_dialects_emit_all_tables(self, schema, dialect):
        result = map_schema(schema)
        ddl = result.sql(dialect)
        assert ddl.count("CREATE TABLE") == len(result.relational.relations)


class TestCrisQueries:
    def test_referee_assignments(self, schema, population):
        result = map_schema(schema)
        database = result.forward(population)
        compiler = QueryCompiler.for_result(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(
                    FactSelection("Paper_has_Title", optional=False),
                    FactSelection("authorship", optional=False),
                ),
            )
        )
        answers = compiler.execute(compiled, database)
        by_paper = {row["Paper"]: row["authorship"] for row in answers}
        assert by_paper == {
            "P1": "Ann Smith",
            "P2": "Bob Jones",
            "P3": "Carol King",
        }

    def test_program_papers_only(self, schema, population):
        result = map_schema(schema)
        database = result.forward(population)
        compiler = QueryCompiler.for_result(result)
        compiled = compiler.compile(
            ConceptualQuery(
                "Paper",
                selections=(FactSelection("Paper_has_Title", optional=False),),
                filters=(SubtypeFilter("Program_Paper"),),
            )
        )
        answers = compiler.execute(compiled, database)
        assert {row["Paper"] for row in answers} == {"P1", "P2"}

    def test_map_report_covers_cris(self, schema):
        result = map_schema(schema)
        report = result.map_report()
        for fact in schema.fact_types:
            assert f"ROLE {fact.first.name}" in report
        for relation in result.relational.relations:
            assert f"TABLE {relation.name}" in report
