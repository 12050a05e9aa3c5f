"""Tuple-at-a-time oracles for the columnar population and state map.

:class:`repro.brm.Population` stores interned ids and id-pair columns,
and :meth:`repro.mapper.state_map.RelationalStateMap.backward` rebuilds
it column-at-a-time.  This module keeps the straightforward
formulations they replaced, for the property suites to compare them
against:

* :class:`RowPopulation` — the same states as plain value sets,
  checked tuple by tuple, with the exact violation messages the
  columnar checks must reproduce;
* :func:`row_of` / :func:`population_of` — lossless conversion
  between the two representations;
* :func:`row_backward` — the per-row backward state map, reading a
  :class:`~repro.engine.database.Database` one row dict at a time.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable

from repro.brm.constraints import (
    Constraint,
    ConstraintItem,
    EqualityConstraint,
    ExclusionConstraint,
    FrequencyConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
)
from repro.brm.facts import RoleId
from repro.brm.population import Population, Violation
from repro.brm.reference import LexicalLeaf
from repro.brm.schema import BinarySchema
from repro.engine.database import Database
from repro.errors import PopulationError
from repro.mapper.plan import FactPairs, RelationPlan, RolePlayers
from repro.mapper.state_map import RelationalStateMap, _BackwardPrep, _canon

Instance = Hashable


class RowPopulation:
    """A database state for a :class:`BinarySchema`, stored as plain
    sets of instance values and of ``(first, second)`` value pairs and
    checked tuple by tuple."""

    def __init__(self, schema: BinarySchema) -> None:
        self.schema = schema
        self._objects: dict[str, set[Instance]] = {
            t.name: set() for t in schema.object_types
        }
        self._facts: dict[str, set[tuple[Instance, Instance]]] = {
            f.name: set() for f in schema.fact_types
        }
        # Lazy per-fact co-role lookup (instance -> co-fillers), tagged
        # with the fact-mutation version so any add/remove invalidates
        # it.  Forward state mapping calls :meth:`facts_of` once per
        # instance per lexical-leg component; without the index each
        # call scans the whole fact population (quadratic at scale).
        self._facts_version = 0
        self._co_index: dict[
            str, tuple[int, tuple[dict, dict]]
        ] = {}
        # Object-population version plus a sorted-instances cache:
        # the bulk generator and the state maps repeatedly need "the
        # instances of T in deterministic order", and re-sorting an
        # unchanged population is O(n log n) per probe.  The cache is
        # keyed per type: mutating one type (and its propagation
        # closure) must not evict every other type's sorted column.
        self._objects_version = 0
        self._type_versions: dict[str, int] = {}
        self._sorted_cache: dict[str, tuple[int, list[Instance]]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_instance(self, type_name: str, instance: Instance) -> Instance:
        """Add an instance to an object type and all its supertypes.

        Supertype propagation keeps the population conformant with the
        extensional subtype semantics by construction.
        """
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        self._objects_version += 1
        version = self._objects_version
        self._objects[type_name].add(instance)
        self._type_versions[type_name] = version
        for ancestor in self.schema.ancestors_of(type_name):
            self._objects[ancestor].add(instance)
            self._type_versions[ancestor] = version
        return instance

    def add_instances(self, type_name: str, instances: Iterable[Instance]) -> None:
        """Add several instances to an object type (one bulk update)."""
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        new = set(instances)
        if not new:
            return
        self._objects_version += 1
        version = self._objects_version
        self._objects[type_name].update(new)
        self._type_versions[type_name] = version
        for ancestor in self.schema.ancestors_of(type_name):
            self._objects[ancestor].update(new)
            self._type_versions[ancestor] = version

    def add_fact(
        self, fact_name: str, first: Instance, second: Instance
    ) -> tuple[Instance, Instance]:
        """Add a fact instance; both fillers are auto-added to the players.

        Auto-adding mirrors how NIAM diagrams are populated: placing a
        pair in a fact's population asserts the existence of both
        objects.
        """
        if fact_name not in self._facts:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        fact = self.schema.fact_type(fact_name)
        self.add_instance(fact.first.player, first)
        self.add_instance(fact.second.player, second)
        self._facts[fact_name].add((first, second))
        self._facts_version += 1
        return (first, second)

    def add_facts(
        self, fact_name: str, pairs: Iterable[tuple[Instance, Instance]]
    ) -> None:
        """Add many fact instances in one batched update.

        Equivalent to calling :meth:`add_fact` per pair, but the
        filler auto-adds and ancestor propagation run once per filler
        set instead of once per pair — the bulk path the state maps
        use at harness scale.
        """
        if fact_name not in self._facts:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        pairs = list(pairs)
        if not pairs:
            return
        fact = self.schema.fact_type(fact_name)
        self.add_instances(fact.first.player, (pair[0] for pair in pairs))
        self.add_instances(fact.second.player, (pair[1] for pair in pairs))
        self._facts[fact_name].update(pairs)
        self._facts_version += 1

    def remove_fact(self, fact_name: str, first: Instance, second: Instance) -> None:
        """Remove one fact instance (object populations are untouched)."""
        try:
            self._facts[fact_name].remove((first, second))
            self._facts_version += 1
        except KeyError:
            raise PopulationError(
                f"fact {fact_name!r} has no instance ({first!r}, {second!r})"
            ) from None

    def discard_instance(self, type_name: str, instance: Instance) -> None:
        """Remove an instance from a type and all its subtypes.

        The instance stays in supertypes (use the root type to remove
        it entirely); facts referencing it are untouched — conformance
        checking will flag them, so callers should retract facts first.
        """
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        if instance not in self._objects[type_name]:
            raise PopulationError(
                f"{instance!r} is not an instance of {type_name!r}"
            )
        self._objects_version += 1
        version = self._objects_version
        self._objects[type_name].discard(instance)
        self._type_versions[type_name] = version
        for descendant in self.schema.descendants_of(type_name):
            self._objects[descendant].discard(instance)
            self._type_versions[descendant] = version

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def instances(self, type_name: str) -> frozenset[Instance]:
        """The population of an object type."""
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        return frozenset(self._objects[type_name])

    def sorted_instances(self, type_name: str) -> list[Instance]:
        """The population of an object type, sorted by ``repr``.

        Cached against the *per-type* population version: repeated
        probes of an unchanged type (the bulk generator's inner
        loops) pay one list copy instead of a fresh sort, even while
        other types keep mutating.
        """
        if type_name not in self._objects:
            raise PopulationError(f"no object type {type_name!r} in the schema")
        version = self._type_versions.get(type_name, 0)
        cached = self._sorted_cache.get(type_name)
        if cached is None or cached[0] != version:
            cached = (
                version,
                sorted(self._objects[type_name], key=repr),
            )
            self._sorted_cache[type_name] = cached
        return list(cached[1])

    def fact_instances(self, fact_name: str) -> frozenset[tuple[Instance, Instance]]:
        """The population of a fact type: a set of (first, second) pairs."""
        if fact_name not in self._facts:
            raise PopulationError(f"no fact type {fact_name!r} in the schema")
        return frozenset(self._facts[fact_name])

    def role_population(self, role_id: RoleId) -> frozenset[Instance]:
        """The set of instances actually playing a role."""
        fact = self.schema.fact_type(role_id.fact)
        position = fact.position_of(role_id.role)
        return frozenset(pair[position] for pair in self._facts[fact.name])

    def role_occurrences(self, role_id: RoleId) -> dict[Instance, int]:
        """How many times each instance plays the role."""
        fact = self.schema.fact_type(role_id.fact)
        position = fact.position_of(role_id.role)
        counts: dict[Instance, int] = {}
        for pair in self._facts[fact.name]:
            counts[pair[position]] = counts.get(pair[position], 0) + 1
        return counts

    def item_population(self, item: ConstraintItem) -> frozenset[Instance]:
        """The population a set-algebraic constraint item ranges over."""
        if isinstance(item, RoleId):
            return self.role_population(item)
        sublink = self.schema.sublink(item.sublink)
        return self.instances(sublink.subtype)

    def facts_of(
        self, fact_name: str, role_name: str, instance: Instance
    ) -> frozenset[Instance]:
        """Co-role fillers linked to ``instance`` through the fact type."""
        fact = self.schema.fact_type(fact_name)
        position = fact.position_of(role_name)
        cached = self._co_index.get(fact_name)
        if cached is None or cached[0] != self._facts_version:
            grouped: tuple[dict, dict] = ({}, {})
            for pair in self._facts[fact_name]:
                grouped[0].setdefault(pair[0], set()).add(pair[1])
                grouped[1].setdefault(pair[1], set()).add(pair[0])
            index = (
                {k: frozenset(v) for k, v in grouped[0].items()},
                {k: frozenset(v) for k, v in grouped[1].items()},
            )
            cached = (self._facts_version, index)
            self._co_index[fact_name] = cached
        return cached[1][position].get(instance, frozenset())

    def is_empty(self) -> bool:
        """True when no object type has any instance."""
        return not any(self._objects.values())

    # ------------------------------------------------------------------
    # Model checking
    # ------------------------------------------------------------------

    def check(self) -> list[Violation]:
        """All ways this population fails to be a model of its schema."""
        violations: list[Violation] = []
        violations.extend(self._check_conformance())
        for constraint in self.schema.constraints:
            violations.extend(self._check_constraint(constraint))
        return violations

    def is_valid(self) -> bool:
        """True when the population is a model of its schema."""
        return not self.check()

    def validate(self) -> None:
        """Raise :class:`PopulationError` listing every violation."""
        violations = self.check()
        if violations:
            summary = "; ".join(str(v) for v in violations[:10])
            if len(violations) > 10:
                summary += f"; ... ({len(violations) - 10} more)"
            raise PopulationError(summary)

    def _check_conformance(self) -> list[Violation]:
        violations = []
        for fact in self.schema.fact_types:
            for first, second in self._facts[fact.name]:
                if first not in self._objects[fact.first.player]:
                    violations.append(
                        Violation(
                            "conformance",
                            f"fact {fact.name!r}: filler {first!r} is not an "
                            f"instance of {fact.first.player!r}",
                        )
                    )
                if second not in self._objects[fact.second.player]:
                    violations.append(
                        Violation(
                            "conformance",
                            f"fact {fact.name!r}: filler {second!r} is not an "
                            f"instance of {fact.second.player!r}",
                        )
                    )
        for sublink in self.schema.sublinks:
            stray = self._objects[sublink.subtype] - self._objects[sublink.supertype]
            for instance in stray:
                violations.append(
                    Violation(
                        "conformance",
                        f"sublink {sublink.name!r}: {instance!r} is in subtype "
                        f"{sublink.subtype!r} but not in supertype "
                        f"{sublink.supertype!r}",
                    )
                )
        return violations

    def _check_constraint(self, constraint: Constraint) -> list[Violation]:
        if isinstance(constraint, UniquenessConstraint):
            return self._check_uniqueness(constraint)
        if isinstance(constraint, TotalUnionConstraint):
            return self._check_total(constraint)
        if isinstance(constraint, ExclusionConstraint):
            return self._check_exclusion(constraint)
        if isinstance(constraint, SubsetConstraint):
            return self._check_subset(constraint)
        if isinstance(constraint, EqualityConstraint):
            return self._check_equality(constraint)
        if isinstance(constraint, FrequencyConstraint):
            return self._check_frequency(constraint)
        if isinstance(constraint, ValueConstraint):
            return self._check_value(constraint)
        return []

    def _check_uniqueness(self, constraint: UniquenessConstraint) -> list[Violation]:
        if constraint.is_simple:
            role_id = constraint.roles[0]
            duplicates = [
                instance
                for instance, count in self.role_occurrences(role_id).items()
                if count > 1
            ]
            return [
                Violation(
                    constraint.name,
                    f"instance {instance!r} plays role {role_id} more than once",
                )
                for instance in duplicates
            ]
        if not constraint.is_external:
            # Uniqueness spanning both roles of one fact type: fact
            # populations are sets of pairs, so this is satisfied by
            # construction.
            return []
        return self._check_external_uniqueness(constraint)

    def _check_external_uniqueness(
        self, constraint: UniquenessConstraint
    ) -> list[Violation]:
        """External uniqueness: the combination of far-role fillers
        identifies at most one instance of the common (co-role) player."""
        value_maps: list[dict[Instance, frozenset[Instance]]] = []
        for role_id in constraint.roles:
            fact = self.schema.fact_type(role_id.fact)
            far_position = fact.position_of(role_id.role)
            near_position = 1 - far_position
            mapping: dict[Instance, set[Instance]] = {}
            for pair in self._facts[fact.name]:
                mapping.setdefault(pair[near_position], set()).add(
                    pair[far_position]
                )
            value_maps.append(
                {common: frozenset(values) for common, values in mapping.items()}
            )
        combos: dict[tuple[Instance, ...], Instance] = {}
        violations = []
        shared = set(value_maps[0])
        for mapping in value_maps[1:]:
            shared &= set(mapping)
        for common in shared:
            value_sets = [sorted(mapping[common], key=repr) for mapping in value_maps]
            for combo in itertools.product(*value_sets):
                previous = combos.get(combo)
                if previous is not None and previous != common:
                    violations.append(
                        Violation(
                            constraint.name,
                            f"combination {combo!r} identifies both "
                            f"{previous!r} and {common!r}",
                        )
                    )
                combos[combo] = common
        return violations

    def _check_total(self, constraint: TotalUnionConstraint) -> list[Violation]:
        covered: set[Instance] = set()
        for item in constraint.items:
            covered |= self.item_population(item)
        missing = self._objects[constraint.object_type] - covered
        return [
            Violation(
                constraint.name,
                f"instance {instance!r} of {constraint.object_type!r} plays "
                "none of the required roles/subtypes",
            )
            for instance in missing
        ]

    def _check_exclusion(self, constraint: ExclusionConstraint) -> list[Violation]:
        violations = []
        populations = [
            (item, self.item_population(item)) for item in constraint.items
        ]
        for (item_a, pop_a), (item_b, pop_b) in itertools.combinations(
            populations, 2
        ):
            for instance in pop_a & pop_b:
                violations.append(
                    Violation(
                        constraint.name,
                        f"instance {instance!r} populates both {item_a} and "
                        f"{item_b}, which are mutually exclusive",
                    )
                )
        return violations

    def _check_subset(self, constraint: SubsetConstraint) -> list[Violation]:
        stray = self.item_population(constraint.subset) - self.item_population(
            constraint.superset
        )
        return [
            Violation(
                constraint.name,
                f"instance {instance!r} populates {constraint.subset} but "
                f"not {constraint.superset}",
            )
            for instance in stray
        ]

    def _check_equality(self, constraint: EqualityConstraint) -> list[Violation]:
        reference = self.item_population(constraint.items[0])
        violations = []
        for item in constraint.items[1:]:
            population = self.item_population(item)
            if population != reference:
                difference = population ^ reference
                violations.append(
                    Violation(
                        constraint.name,
                        f"populations of {constraint.items[0]} and {item} "
                        f"differ on {sorted(difference, key=repr)!r}",
                    )
                )
        return violations

    def _check_frequency(self, constraint: FrequencyConstraint) -> list[Violation]:
        violations = []
        for instance, count in self.role_occurrences(constraint.role).items():
            if count < constraint.minimum or (
                constraint.maximum is not None and count > constraint.maximum
            ):
                bound = (
                    f"{constraint.minimum}..{constraint.maximum}"
                    if constraint.maximum is not None
                    else f">={constraint.minimum}"
                )
                violations.append(
                    Violation(
                        constraint.name,
                        f"instance {instance!r} plays role {constraint.role} "
                        f"{count} times (allowed: {bound})",
                    )
                )
        return violations

    def _check_value(self, constraint: ValueConstraint) -> list[Violation]:
        allowed = set(constraint.values)
        return [
            Violation(
                constraint.name,
                f"instance {instance!r} of {constraint.object_type!r} is not "
                f"among the allowed values",
            )
            for instance in self._objects[constraint.object_type] - allowed
        ]

    # ------------------------------------------------------------------
    # Whole-population operations
    # ------------------------------------------------------------------

    def copy(self) -> "RowPopulation":
        """An independent copy bound to the same schema object."""
        duplicate = RowPopulation(self.schema)
        duplicate._objects = {name: set(pop) for name, pop in self._objects.items()}
        duplicate._facts = {name: set(pop) for name, pop in self._facts.items()}
        return duplicate

    def as_dict(self) -> dict[str, object]:
        """A canonical, comparable snapshot of the state."""
        return {
            "objects": {name: frozenset(pop) for name, pop in self._objects.items()},
            "facts": {name: frozenset(pop) for name, pop in self._facts.items()},
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RowPopulation, Population)):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        objects = sum(len(pop) for pop in self._objects.values())
        facts = sum(len(pop) for pop in self._facts.values())
        return (
            f"<RowPopulation of {self.schema.name!r}: {objects} object "
            f"instances, {facts} fact instances>"
        )



def row_of(population: Population) -> RowPopulation:
    """The row image of a columnar population (lossless)."""
    row = RowPopulation(population.schema)
    for object_type in population.schema.object_types:
        row._objects[object_type.name].update(
            population.instances(object_type.name)
        )
    for fact in population.schema.fact_types:
        row._facts[fact.name].update(population.fact_instances(fact.name))
    row._facts_version += 1
    row._objects_version += 1
    return row


def population_of(row: RowPopulation) -> Population:
    """The columnar image of a row population (lossless)."""
    population = Population(row.schema)
    intern = population.intern
    for name, members in row._objects.items():
        population._objects[name].update(intern(value) for value in members)
    for name, pairs in row._facts.items():
        population._pairs[name].update(
            (intern(first), intern(second)) for first, second in pairs
        )
    population._version += 1
    return population


def row_backward(
    state_map: RelationalStateMap, database: Database
) -> RowPopulation:
    """The canonical population of a database state, rebuilt row by row."""
    return _RowBackward(state_map).backward(database)


class _RowBackward:
    """The per-row backward state map over one :class:`RelationalStateMap`."""

    def __init__(self, state_map: RelationalStateMap) -> None:
        self.plan = state_map.plan
        self.rschema = state_map.rschema
        self._delegate = state_map._delegate

    def backward(self, database: Database) -> RowPopulation:
        """The canonical population corresponding to a database state."""
        population = RowPopulation(self.plan.schema)
        index: dict[tuple[str, tuple], Instance] = {}

        anchors = [p for p in self.plan.plans.values() if p.kind == "anchor"]
        others = [p for p in self.plan.plans.values() if p.kind != "anchor"]

        # Pass 1a: anchor instances, reference chains, sublink columns
        # (builds the own-identifier resolution index top-down).
        rows_cache: dict[str, list[tuple[dict, Instance]]] = {}
        for relation_plan in anchors:
            if not self.rschema.has_relation(relation_plan.relation):
                continue
            prep = _BackwardPrep(relation_plan)
            cached = []
            for row in database.iter_rows(relation_plan.relation):
                instance = self._materialize_instance(
                    population, index, relation_plan, prep, row
                )
                cached.append((row, instance))
            rows_cache[relation_plan.relation] = cached

        # Pass 1b: functional fact columns of the anchors.
        for relation_plan in anchors:
            prep = _BackwardPrep(relation_plan)
            for row, instance in rows_cache.get(relation_plan.relation, ()):
                self._materialize_fact_columns(
                    population, index, prep, row, instance
                )

        # Pass 2: satellites and fact relations.
        for relation_plan in others:
            if not self.rschema.has_relation(relation_plan.relation):
                continue
            prep = _BackwardPrep(relation_plan)
            if isinstance(relation_plan.membership, RolePlayers):
                for row in database.iter_rows(relation_plan.relation):
                    self._materialize_satellite_row(
                        population, index, relation_plan, prep, row
                    )
            elif isinstance(relation_plan.membership, FactPairs):
                for row in database.iter_rows(relation_plan.relation):
                    self._materialize_pair_row(
                        population, index, relation_plan, prep, row
                    )

        # Pass 3: subtype membership carried only by an indicator fact
        # (INDICATOR policy with an omitted factless sub-relation).
        for repr_ in self.plan.sublink_reprs.values():
            if repr_.sub_relation is not None or repr_.indicator_fact is None:
                continue
            for first, second in population.fact_instances(
                repr_.indicator_fact
            ):
                if second == "Y":
                    population.add_instance(repr_.subtype, first)
        return population

    # -- pass 1a -------------------------------------------------------

    def _materialize_instance(
        self,
        population: RowPopulation,
        index: dict,
        relation_plan: RelationPlan,
        prep: _BackwardPrep,
        row: dict,
    ) -> Instance:
        owner = relation_plan.owner
        assert owner is not None
        if owner in self.plan.disjunctive:
            values = tuple(row.get(u.name) for u in prep.disjunct_units)
            instance = values  # full tuple including absent groups
            population.add_instance(owner, instance)
            return instance
        key_values = tuple(row.get(c) for c in relation_plan.key_columns)
        instance = self._resolve(index, owner, key_values)
        population.add_instance(owner, instance)
        # Reconstruct the owner's reference-fact chain.
        self_legs = [
            (leaf, row.get(name)) for name, leaf in prep.self_legs
        ]
        self._reconstruct_chain(population, index, owner, instance, self_legs)
        # Sublink columns: membership plus the subtype's own reference.
        for sublink_name, subtype, units in prep.sublink_groups:
            legs = [(u.source.leaf, row.get(u.name)) for u in units]
            values = tuple(value for _, value in legs)
            if any(value is None for value in values):
                continue
            population.add_instance(subtype, instance)
            index[(subtype, values)] = instance
            self._reconstruct_chain(
                population,
                index,
                subtype,
                instance,
                [(leaf, value) for (leaf, value) in legs if leaf.path],
            )
        return instance

    def _resolve(
        self, index: dict, type_name: str, values: tuple
    ) -> Instance:
        """An instance for reference values, via the sublink index for
        (types keyed like) own-identifier subtypes."""
        delegate = self._delegate.get(type_name)
        if delegate is not None:
            resolved = index.get((delegate, values))
            if resolved is not None:
                return resolved
            # No matching super row (the C_EQ$ rule is violated);
            # materialize a standalone instance so the defect stays
            # observable rather than crashing.
        return _canon(values)

    def _reconstruct_chain(
        self,
        population: RowPopulation,
        index: dict,
        owner_type: str,
        owner_instance: Instance,
        legs: list,
    ) -> None:
        """Rebuild the reference-fact instances along leaf paths."""
        groups: dict[object, list] = {}
        for leaf, value in legs:
            if value is None:
                return  # incomplete reference; leave unreconstructed
            groups.setdefault(leaf.path[0], []).append((leaf, value))
        schema = self.plan.schema
        for component, group in groups.items():
            values = tuple(value for _, value in group)
            target = self._resolve(index, component.target, values)
            fact = schema.fact_type(component.fact)
            if fact.first.name == component.near_role:
                population.add_fact(component.fact, owner_instance, target)
            else:
                population.add_fact(component.fact, target, owner_instance)
            deeper = [
                (LexicalLeaf(leaf.path[1:], leaf.lot, leaf.datatype), value)
                for leaf, value in group
                if len(leaf.path) > 1
            ]
            if deeper:
                self._reconstruct_chain(
                    population, index, component.target, target, deeper
                )

    # -- pass 1b -------------------------------------------------------

    def _materialize_fact_columns(
        self,
        population: RowPopulation,
        index: dict,
        prep: _BackwardPrep,
        row: dict,
        instance: Instance,
    ) -> None:
        schema = self.plan.schema
        for fact_name, units in prep.fact_groups:
            values = tuple(row.get(u.name) for u in units)
            if any(value is None for value in values):
                continue
            source = units[0].source
            fact = schema.fact_type(fact_name)
            target_type = fact.player_of(source.far_role)
            target = self._resolve(index, target_type, values)
            if fact.first.name == source.near_role:
                population.add_fact(fact_name, instance, target)
            else:
                population.add_fact(fact_name, target, instance)
            deeper = [
                (
                    LexicalLeaf(
                        u.source.leaf.path,
                        u.source.leaf.lot,
                        u.source.leaf.datatype,
                    ),
                    value,
                )
                for u, value in zip(units, values)
                if u.source.leaf.path
            ]
            if deeper:
                self._reconstruct_chain(
                    population, index, target_type, target, deeper
                )

    # -- pass 2 --------------------------------------------------------

    def _materialize_satellite_row(
        self,
        population: RowPopulation,
        index: dict,
        relation_plan: RelationPlan,
        prep: _BackwardPrep,
        row: dict,
    ) -> None:
        owner = relation_plan.owner
        assert owner is not None
        key_values = tuple(row.get(c) for c in relation_plan.key_columns)
        instance = self._resolve(index, owner, key_values)
        population.add_instance(owner, instance)
        self._materialize_fact_columns(
            population, index, prep, row, instance
        )

    def _materialize_pair_row(
        self,
        population: RowPopulation,
        index: dict,
        relation_plan: RelationPlan,
        prep: _BackwardPrep,
        row: dict,
    ) -> None:
        membership = relation_plan.membership
        assert isinstance(membership, FactPairs)
        fillers = []
        for units in prep.pair_sides:
            values = tuple(row.get(u.name) for u in units)
            source = units[0].source
            filler = self._resolve(index, source.player, values)
            fillers.append(filler)
            deeper = [
                (u.source.leaf, value)
                for u, value in zip(units, values)
                if u.source.leaf.path
            ]
            if deeper:
                population.add_instance(source.player, filler)
                self._reconstruct_chain(
                    population, index, source.player, filler, deeper
                )
        population.add_fact(membership.fact, fillers[0], fillers[1])
