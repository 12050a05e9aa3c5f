"""Shared hypothesis strategies for randomized BRM schemas.

The randomized-schema recipes — a :class:`SchemaShape` driven by a
seeded :func:`generate_schema`, a palette of mapping-option sets, and
the SQL dialect roster — used to be restated in every property suite
(``tests/mapper/test_backward_columnar.py``,
``tests/brm/test_columnar.py``, ``tests/dsl/test_dsl_properties.py``,
…).  This module is the single home: import the named shapes and the
strategy factories instead of re-deriving them.

The strategies stay deliberately seed-based (hypothesis draws an
integer, :func:`generate_schema` expands it deterministically) so
failures shrink to a single reportable seed and the CI fuzzer can
replay any example from its log line.
"""

import random

from hypothesis import strategies as st

from repro.brm import SchemaBuilder, char
from repro.mapper import MappingOptions, NullPolicy, SublinkPolicy
from repro.sql import PROFILES
from repro.workloads import SchemaShape, generate_schema

#: The mapping-option palette property suites sweep: every sublink
#: policy, both restrictive null policies, and the paper's default.
OPTION_SETS = (
    MappingOptions(),
    MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
    MappingOptions(sublink_policy=SublinkPolicy.INDICATOR),
    MappingOptions(null_policy=NullPolicy.NOT_ALLOWED),
    MappingOptions(
        null_policy=NullPolicy.NOT_IN_KEYS,
        sublink_policy=SublinkPolicy.INDICATOR,
    ),
)

#: Six entity types, half the subtypes carrying their own identifier:
#: the workhorse shape for mapper/state-map equivalence suites.
DEFAULT_SHAPE = SchemaShape(entity_types=6, subtype_own_identifier_ratio=0.5)

#: Five entity types with the full rich-constraint repertoire
#: (subsets, equalities, exclusions, total unions, values).
RICH_SHAPE = SchemaShape(entity_types=5, rich_constraints=True)

#: The DSL round-trip shape: exclusion groups exercise the renderer's
#: multi-item constraint syntax.
DSL_SHAPE = SchemaShape(entity_types=6, exclusion_groups=1)

#: Compact shape for population-heavy suites where every example
#: builds and mutates full populations.
SMALL_SHAPE = SchemaShape(entity_types=4)

#: Everything at once: subtypes with own identifiers, exclusion
#: groups, and the rich-constraint repertoire.
FULL_SHAPE = SchemaShape(
    entity_types=6,
    exclusion_groups=1,
    subtype_own_identifier_ratio=0.5,
    rich_constraints=True,
)

#: Six plain entity types, no extras — for lossless round trips
#: where the schema is scenery, not subject.
PLAIN_SHAPE = SchemaShape(entity_types=6)


def seeds(max_seed: int = 200) -> st.SearchStrategy:
    """An integer seed for :func:`generate_schema`."""
    return st.integers(min_value=0, max_value=max_seed)


def schemas(
    shape: SchemaShape = DEFAULT_SHAPE, max_seed: int = 200
) -> st.SearchStrategy:
    """A generated :class:`BinarySchema` from a seeded shape."""
    return st.builds(
        lambda seed: generate_schema(shape, seed=seed), seeds(max_seed)
    )


def mapping_options() -> st.SearchStrategy:
    """One of the canonical option sets."""
    return st.sampled_from(OPTION_SETS)


def dialects() -> st.SearchStrategy:
    """A registered SQL dialect key (``sql2``, ``oracle``, …)."""
    return st.sampled_from(sorted(PROFILES))


@st.composite
def schema_shapes(draw) -> SchemaShape:
    """A fully randomized :class:`SchemaShape`.

    Unlike the named shapes above (fixed shape, random seed), this
    varies every axis the generator exposes — entity count, subtype
    and satellite density, alternate identifiers, exclusion groups,
    the rich-constraint repertoire — for fuzzers that must cover the
    whole schema space, like the reverse round-trip harness.
    """
    ratio = st.floats(min_value=0.0, max_value=1.0)
    low = draw(st.integers(min_value=0, max_value=2))
    return SchemaShape(
        entity_types=draw(st.integers(min_value=2, max_value=12)),
        attributes_per_entity=(
            low,
            draw(st.integers(min_value=max(low, 2), max_value=6)),
        ),
        optional_ratio=draw(ratio),
        subtype_ratio=draw(st.floats(min_value=0.0, max_value=0.6)),
        subtype_own_identifier_ratio=draw(ratio),
        many_to_many_per_entity=draw(ratio),
        alternate_identifier_ratio=draw(st.floats(min_value=0.0, max_value=0.5)),
        exclusion_groups=draw(st.integers(min_value=0, max_value=3)),
        lot_nolot_pool=draw(st.integers(min_value=2, max_value=8)),
        rich_constraints=draw(st.booleans()),
        subset_ratio=draw(ratio),
        value_ratio=draw(ratio),
    )


@st.composite
def shaped_schemas(draw, max_seed: int = 10**6):
    """A schema generated from a fully randomized shape and seed."""
    shape = draw(schema_shapes())
    seed = draw(st.integers(min_value=0, max_value=max_seed))
    return generate_schema(shape, seed=seed)


def set_algebraic_schema(seed: int):
    """A small schema dense in set-algebraic constraints.

    3-7 NOLOTs with random (acyclic) sublinks, 3-8 fact types and 2-7
    subset, equality, exclusion, total-role and total-union
    constraints over roles and sublinks; about half of the schemas also
    carry frequency or value constraints.  Constraint items are drawn
    mostly from related populations (roles of one player or its
    sub/supertypes, sublinks of one hierarchy), so exclusions meet
    shared lower bounds, subsets duplicate or close cycles, and
    total unions cover emptied items — the shapes that force
    populations empty, which :func:`generate_schema` never emits.
    Deterministic in ``seed``.
    """
    rng = random.Random(seed)
    builder = SchemaBuilder(f"SetAlgebra{seed}")
    types = [f"T{i}" for i in range(rng.randint(3, 7))]
    for name in types:
        builder.nolot(name)
    builder.lot("K", char(4)).lot("L", char(4))
    schema = builder.build()

    # Sublinks point from a later type to an earlier one: no cycles.
    for index, subtype in enumerate(types[1:], start=1):
        count = min(rng.choice((0, 0, 1, 1, 2)), index)
        for supertype in rng.sample(types[:index], count):
            builder.subtype(subtype, supertype)

    roles = []
    for number in range(rng.randint(3, 8)):
        first = rng.choice(types)
        second = rng.choice(types + ["K", "L"])
        name = f"f{number}"
        builder.fact(name, (first, "a"), (second, "b"))
        roles.extend(schema.fact_type(name).role_ids)
        if rng.random() < 0.4:
            builder.unique((name, "a"))

    def population(item) -> str:
        if isinstance(item, str):
            return schema.sublink(item.removeprefix("sublink:")).subtype
        return schema.player_name(item)

    def related(name: str) -> set[str]:
        return (
            {name}
            | set(schema.ancestors_of(name))
            | {t for t in types if name in schema.ancestors_of(t)}
        )

    items = roles + [f"sublink:{s.name}" for s in schema.sublinks]

    def pick(count: int) -> list:
        first = rng.choice(items)
        near = [
            item
            for item in items
            if item != first and population(item) in related(population(first))
        ]
        pool = near if near and rng.random() < 0.8 else [
            item for item in items if item != first
        ]
        return [first] + rng.sample(pool, min(count - 1, len(pool)))

    for _ in range(rng.randint(2, 7)):
        kind = rng.choice(
            ("subset", "subset", "equality", "exclusion", "exclusion",
             "total", "total-union")
        )
        if kind == "total":
            builder.total(rng.choice(roles))
            continue
        if kind == "total-union":
            owner = rng.choice(types)
            cover = [
                role for role in roles if schema.player_name(role) == owner
            ] + [
                f"sublink:{s.name}"
                for s in schema.sublinks
                if s.supertype == owner
            ]
            if len(cover) >= 2:
                builder.total_union(
                    owner, *rng.sample(cover, rng.randint(2, len(cover)))
                )
            continue
        chosen = pick(2 if kind == "subset" else rng.randint(2, 3))
        if len(chosen) < 2:
            continue
        if kind == "subset":
            builder.subset(chosen[0], chosen[1])
        elif kind == "equality":
            builder.equality(*chosen)
        else:
            builder.exclusion(*chosen)

    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.6:
                minimum = rng.choice((0, 1, 2, 3))
                maximum = rng.choice((None, minimum, minimum + 1))
                builder.frequency(rng.choice(roles), minimum, maximum)
            else:
                domain = ("a", "b", "c", "d")
                builder.values(
                    rng.choice(("K", "L")),
                    rng.sample(domain, rng.randint(1, 3)),
                )
    return schema


def set_algebraic_schemas(max_seed: int = 10**6) -> st.SearchStrategy:
    """:func:`set_algebraic_schema` over a drawn seed."""
    return st.builds(set_algebraic_schema, seeds(max_seed))
