"""Edge-branch tests: degraded constraints, infeasible candidates,
multi-item view constraints, collision handling."""

import pytest

from repro.brm import Population, SchemaBuilder, char, numeric
from repro.errors import UnknownElementError
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    OptionSpace,
    SublinkPolicy,
    advise,
    map_schema,
)
from repro.relational import EqualityViewConstraint
from repro.workloads.statistics import QueryPattern, WorkloadProfile


class TestDegradedConstraints:
    def test_three_way_equality_across_relations(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3))
        b.identifier("P", "K")
        b.lot_nolot("A", char(3)).lot_nolot("B", char(3)).lot_nolot("C", char(3))
        b.attribute("P", "A", fact="fa")
        b.attribute("P", "B", fact="fb")
        b.attribute("P", "C", fact="fc")
        b.equality(("fa", "with"), ("fb", "with"), ("fc", "with"))
        result = map_schema(
            b.build(), MappingOptions(null_policy=NullPolicy.NOT_ALLOWED)
        )
        views = [
            c
            for c in result.relational.view_constraints()
            if isinstance(c, EqualityViewConstraint)
        ]
        # Three equal populations in three satellites need two pairwise
        # equality views.
        assert len(views) == 2

    def test_three_way_equality_round_trip(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3))
        b.identifier("P", "K")
        b.lot_nolot("A", char(3)).lot_nolot("B", char(3))
        b.attribute("P", "A", fact="fa")
        b.attribute("P", "B", fact="fb")
        b.equality(("fa", "with"), ("fb", "with"))
        schema = b.build()
        population = Population(schema)
        population.add_fact("P_has_K", "p1", "K1")
        population.add_fact("fa", "p1", "a")
        population.add_fact("fb", "p1", "b")
        population.add_fact("P_has_K", "p2", "K2")
        result = map_schema(
            schema, MappingOptions(null_policy=NullPolicy.NOT_ALLOWED)
        )
        canonical = result.canonicalize(result.state.to_canonical(population))
        database = result.state_map.forward(canonical)
        assert database.is_valid()
        assert result.state_map.backward(database) == canonical

    def test_external_uniqueness_across_relations_is_pseudo(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3))
        b.identifier("P", "K")
        b.lot_nolot("A", char(3)).lot_nolot("B", char(3))
        b.attribute("P", "A", fact="fa")
        b.attribute("P", "B", fact="fb")
        b.unique(("fa", "of"), ("fb", "of"), name="EXT")
        result = map_schema(
            b.build(), MappingOptions(null_policy=NullPolicy.NOT_ALLOWED)
        )
        assert any(
            "external uniqueness" in p.text for p in result.pseudo_constraints
        )

    def test_external_uniqueness_same_relation_becomes_candidate_key(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3))
        b.identifier("P", "K")
        b.lot_nolot("A", char(3)).lot_nolot("B", char(3))
        b.attribute("P", "A", fact="fa", total=True)
        b.attribute("P", "B", fact="fb", total=True)
        b.unique(("fa", "of"), ("fb", "of"), name="EXT")
        result = map_schema(b.build())
        candidates = result.relational.candidate_keys("P")
        assert ("A_of", "B_of") in [c.columns for c in candidates]


class TestColumnCollisions:
    def test_two_facts_to_same_target_disambiguated(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3)).lot_nolot("Person", char(30))
        b.identifier("P", "K")
        b.attribute("P", "Person", fact="author")
        b.attribute("P", "Person", fact="editor")
        result = map_schema(b.build())
        names = result.relational.relation("P").attribute_names
        # Both columns land; the second gets a numeric suffix.
        person_columns = [n for n in names if n.startswith("Person_of")]
        assert len(person_columns) == 2
        assert len(set(person_columns)) == 2

    def test_collision_round_trip(self):
        b = SchemaBuilder("s")
        b.nolot("P").lot("K", char(3)).lot_nolot("Person", char(30))
        b.identifier("P", "K")
        b.attribute("P", "Person", fact="author")
        b.attribute("P", "Person", fact="editor")
        schema = b.build()
        population = Population(schema)
        population.add_fact("P_has_K", "p1", "K1")
        population.add_fact("author", "p1", "Ann")
        population.add_fact("editor", "p1", "Bob")
        result = map_schema(schema)
        canonical = result.canonicalize(result.state.to_canonical(population))
        database = result.state_map.forward(canonical)
        back = result.state_map.backward(database)
        assert back == canonical


class TestExpertEdgeCases:
    #: DEFAULT SEPARATE with and without the Program_Paper relation.
    SPACE = OptionSpace(
        null_policies=(NullPolicy.DEFAULT,),
        sublink_policies=(SublinkPolicy.SEPARATE,),
        omit_toggles=("Program_Paper",),
    )

    def advise_presents(self):
        from repro.cris import figure6_schema

        return advise(
            figure6_schema(),
            self.SPACE,
            workers=1,
            profile=WorkloadProfile(
                patterns=(QueryPattern("Paper", ("presents",)),)
            ),
        )

    def test_infeasible_candidate_reported_not_raised(self):
        report = self.advise_presents()
        (failed,) = report.failures
        assert failed.options.omit_tables == ("Program_Paper",)
        assert failed.error == (
            "pattern Paper(presents): fact 'presents' was not mapped "
            "(omitted table?)"
        )
        assert failed.score is None
        assert report.winner.label == "DEFAULT SEPARATE"

    def test_all_infeasible_raises(self):
        """A pattern no candidate could answer because the schema has
        no such fact is refused before any candidate is mapped."""
        from repro.cris import figure6_schema

        profile = WorkloadProfile(
            patterns=(QueryPattern("Paper", ("no_such_fact",)),)
        )
        with pytest.raises(UnknownElementError, match="no_such_fact"):
            advise(figure6_schema(), self.SPACE, workers=1, profile=profile)

    def test_render_marks_infeasible(self):
        report = self.advise_presents()
        rendered = report.render()
        assert "FAILED" in rendered
        assert "omit(Program_Paper)  [pattern Paper(presents):" in rendered
        assert "winner: DEFAULT SEPARATE" in rendered
