"""The columnar backward map vs. the row-at-a-time oracle.

``RelationalStateMap.backward`` rebuilds a canonical population
directly from bulk relation columns; ``row_backward``
(``tests/row_oracle``) is the tuple-at-a-time reference.  Both must
reconstruct byte-identical states for every database the forward map
can produce — across randomized schema shapes (subtypes with own
identifiers, satellites, rich constraints) and every sublink policy,
INDICATOR included, where subtype membership survives only as an
indicator fact.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.brm.population import Population
from repro.cris import cris_schema, figure6_schema
from repro.mapper import MappingOptions, map_schema
from repro.workloads import generate_population, generate_schema

from tests.row_oracle import population_of, row_backward
from tests.strategies import DEFAULT_SHAPE, OPTION_SETS, RICH_SHAPE


def columns_of(database):
    """Bulk relation columns, the shape ``fetch_columns`` returns."""
    return {
        relation.name: database.fetch_columns(
            relation.name, relation.attribute_names
        )
        for relation in database.schema.relations
    }


def assert_backward_maps_agree(result, population):
    """Both backward directions reconstruct the same canonical state."""
    canonical = result.canonicalize(result.state.to_canonical(population))
    database = result.state_map.forward(canonical)
    oracle = row_backward(result.state_map, database)
    reconstructed = result.state_map.backward(columns_of(database))
    assert reconstructed.state_diff(population_of(oracle)) == {}
    assert reconstructed == oracle
    assert reconstructed.state_diff(canonical) == {}
    # A Database reads as the same columns.
    assert result.state_map.backward(database) == oracle
    # Seeding the intern table (the harness fast path) must not change
    # the value-level content.
    seeded = result.state_map.backward(
        columns_of(database), intern_like=canonical
    )
    assert seeded.state_diff(canonical) == {}
    assert seeded == oracle


class TestOracleEquivalence:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=200),
        options=st.sampled_from(OPTION_SETS),
    )
    def test_random_schemas(self, seed, options):
        schema = generate_schema(DEFAULT_SHAPE, seed=seed)
        population = generate_population(
            schema, instances_per_type=5, seed=seed
        )
        result = map_schema(schema, options)
        assert_backward_maps_agree(result, population)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_rich_constraint_schemas(self, seed):
        schema = generate_schema(RICH_SHAPE, seed=seed)
        population = generate_population(
            schema, instances_per_type=4, seed=seed
        )
        result = map_schema(schema, MappingOptions())
        assert_backward_maps_agree(result, population)

    def test_figure6_all_option_sets(self):
        schema = figure6_schema()
        for options in OPTION_SETS:
            population = generate_population(
                schema, instances_per_type=6, seed=11
            )
            result = map_schema(schema, options)
            assert_backward_maps_agree(result, population)

    def test_cris_at_scale(self):
        from repro.workloads import generate_bulk_population

        schema = cris_schema()
        population = generate_bulk_population(
            schema, target_rows=5000, seed=7
        )
        result = map_schema(schema, MappingOptions())
        assert_backward_maps_agree(result, population)


class TestSeededInterning:
    def test_seed_intern_from_requires_empty(self):
        import pytest

        from repro.errors import PopulationError

        schema = figure6_schema()
        canonical = Population(schema)
        canonical.add_instance("Person", "p")
        other = Population(schema)
        other.add_instance("Person", "q")
        with pytest.raises(PopulationError):
            other.seed_intern_from(canonical)

    def test_seeded_ids_align(self):
        schema = figure6_schema()
        original = Population(schema)
        original.add_instance("Person", "alice")
        original.add_instance("Person", "bob")
        seeded = Population(schema)
        seeded.seed_intern_from(original)
        seeded.add_instance("Person", "bob")
        assert seeded.id_of("bob") == original.id_of("bob")
        assert seeded.state_diff(original) == {"Person": 1}
