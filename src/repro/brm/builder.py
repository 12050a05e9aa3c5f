"""Fluent construction of binary schemas — the RIDL-G core.

RIDL-G is the paper's interactive graphical editor.  Its essential,
non-GUI behaviour is captured here: a builder that creates schema
elements with sensible defaults, auto-generates names for roles and
constraints, and enforces BRM rules *as the schema is constructed*
(section 3.2: "certain rules of the BRM are enforced by RIDL-G as the
schema is constructed, the others are checked on demand" — the
on-demand checks are :mod:`repro.analyzer`).

Role and constraint arguments accept either explicit
:class:`~repro.brm.facts.RoleId` objects, ``(fact, role)`` tuples or
``"fact.role"`` strings; sublink items are named with a
``"sublink:<name>"`` string or a :class:`SublinkRef`.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Union

from repro.brm.constraints import (
    ConstraintItem,
    EqualityConstraint,
    ExclusionConstraint,
    FrequencyConstraint,
    SubsetConstraint,
    TotalUnionConstraint,
    UniquenessConstraint,
    ValueConstraint,
)
from repro.brm.datatypes import DataType
from repro.brm.facts import FactType, Role, RoleId
from repro.brm.objects import lot, lot_nolot, nolot
from repro.brm.schema import BinarySchema
from repro.brm.sublinks import SublinkRef, SublinkType
from repro.errors import SchemaError, UnknownElementError

RoleSpec = Union[RoleId, "tuple[str, str]", str]
ItemSpec = Union[RoleSpec, SublinkRef]


class SchemaBuilder:
    """Incrementally builds a :class:`BinarySchema`."""

    def __init__(self, name: str = "schema") -> None:
        self.schema = BinarySchema(name)
        self._counters: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Object types
    # ------------------------------------------------------------------

    def lot(self, name: str, datatype: DataType) -> "SchemaBuilder":
        """Add a LOT with the given data type."""
        self.schema.add_object_type(lot(name, datatype))
        return self

    def nolot(self, name: str) -> "SchemaBuilder":
        """Add a NOLOT."""
        self.schema.add_object_type(nolot(name))
        return self

    def lot_nolot(self, name: str, datatype: DataType) -> "SchemaBuilder":
        """Add a hybrid LOT-NOLOT."""
        self.schema.add_object_type(lot_nolot(name, datatype))
        return self

    # ------------------------------------------------------------------
    # Fact types
    # ------------------------------------------------------------------

    def fact(
        self,
        name: str,
        first: tuple[str, str],
        second: tuple[str, str],
        *,
        unique: str | None = None,
        total: str | None = None,
    ) -> "SchemaBuilder":
        """Add a binary fact type.

        ``first`` and ``second`` are ``(player, role_name)`` pairs.
        ``unique`` may be ``"first"``, ``"second"``, ``"both"`` (one
        uniqueness bar per role — a 1:1 fact type) or ``"pair"`` (one
        bar spanning both roles — a many-to-many fact type).
        ``total`` may be ``"first"``, ``"second"`` or ``"both"``.
        """
        fact_type = FactType(name, Role(first[1], first[0]), Role(second[1], second[0]))
        self.schema.add_fact_type(fact_type)
        first_id, second_id = fact_type.role_ids
        if unique in ("first", "both"):
            self.unique(first_id)
        if unique in ("second", "both"):
            self.unique(second_id)
        if unique == "pair":
            self.unique(first_id, second_id)
        if unique not in (None, "first", "second", "both", "pair"):
            raise SchemaError(f"unknown uniqueness shorthand {unique!r}")
        if total in ("first", "both"):
            self.total(first_id)
        if total in ("second", "both"):
            self.total(second_id)
        if total not in (None, "first", "second", "both"):
            raise SchemaError(f"unknown totality shorthand {total!r}")
        return self

    def attribute(
        self,
        owner: str,
        target: str,
        *,
        fact: str | None = None,
        owner_role: str | None = None,
        target_role: str | None = None,
        total: bool = False,
        unique_target: bool = False,
    ) -> "SchemaBuilder":
        """A functional fact from ``owner`` to ``target``.

        This is the common "attribute-like" NIAM pattern: a fact type
        with a uniqueness bar on the owner's role, optionally total
        (mandatory) and optionally 1:1 (``unique_target``).
        """
        fact_name = fact or f"{owner}_has_{target}"
        owner_role = owner_role or "with"
        target_role = target_role or "of"
        self.fact(
            fact_name,
            (owner, owner_role),
            (target, target_role),
            unique="both" if unique_target else "first",
            total="first" if total else None,
        )
        return self

    def identifier(
        self,
        owner: str,
        target: str,
        *,
        fact: str | None = None,
        owner_role: str | None = None,
        target_role: str | None = None,
    ) -> "SchemaBuilder":
        """Give ``owner`` a simple naming convention through ``target``.

        Creates a mandatory 1:1 fact type and marks the owner-side
        uniqueness as the reference constraint.
        """
        fact_name = fact or f"{owner}_has_{target}"
        owner_role = owner_role or "with"
        target_role = target_role or "of"
        fact_type = FactType(
            fact_name, Role(owner_role, owner), Role(target_role, target)
        )
        self.schema.add_fact_type(fact_type)
        first_id, second_id = fact_type.role_ids
        self.schema.add_constraint(
            UniquenessConstraint(
                self._next_name("U"), roles=(first_id,), is_reference=True
            )
        )
        self.unique(second_id)
        self.total(first_id)
        return self

    # ------------------------------------------------------------------
    # Sublinks
    # ------------------------------------------------------------------

    def subtype(
        self, subtype: str, supertype: str, *, name: str | None = None
    ) -> "SchemaBuilder":
        """Add a sublink type making ``subtype`` a subtype of ``supertype``."""
        sublink_name = name or f"{subtype}_IS_{supertype}"
        self.schema.add_sublink(SublinkType(sublink_name, subtype, supertype))
        return self

    # ------------------------------------------------------------------
    # Constraints
    # ------------------------------------------------------------------

    def unique(self, *roles: RoleSpec, name: str | None = None) -> "SchemaBuilder":
        """Uniqueness over one or more roles."""
        self.schema.add_constraint(
            UniquenessConstraint(
                name or self._next_name("U"),
                roles=tuple(self._role(spec) for spec in roles),
            )
        )
        return self

    def reference_unique(
        self, *roles: RoleSpec, name: str | None = None
    ) -> "SchemaBuilder":
        """Uniqueness marked as (part of) the preferred naming convention."""
        self.schema.add_constraint(
            UniquenessConstraint(
                name or self._next_name("U"),
                roles=tuple(self._role(spec) for spec in roles),
                is_reference=True,
            )
        )
        return self

    def total(self, role: RoleSpec, *, name: str | None = None) -> "SchemaBuilder":
        """A total role constraint (the NIAM "V" sign)."""
        role_id = self._role(role)
        self.schema.add_constraint(
            TotalUnionConstraint(
                name or self._next_name("T"),
                object_type=self.schema.player_name(role_id),
                items=(role_id,),
            )
        )
        return self

    def total_union(
        self, object_type: str, *items: ItemSpec, name: str | None = None
    ) -> "SchemaBuilder":
        """A total union constraint over roles and/or sublinks."""
        self.schema.add_constraint(
            TotalUnionConstraint(
                name or self._next_name("T"),
                object_type=object_type,
                items=tuple(self._item(spec) for spec in items),
            )
        )
        return self

    def exclusion(self, *items: ItemSpec, name: str | None = None) -> "SchemaBuilder":
        """Mutual exclusion between roles and/or subtypes."""
        self.schema.add_constraint(
            ExclusionConstraint(
                name or self._next_name("X"),
                items=tuple(self._item(spec) for spec in items),
            )
        )
        return self

    def subset(
        self, subset: ItemSpec, superset: ItemSpec, *, name: str | None = None
    ) -> "SchemaBuilder":
        """Population of ``subset`` contained in population of ``superset``."""
        self.schema.add_constraint(
            SubsetConstraint(
                name or self._next_name("S"),
                subset=self._item(subset),
                superset=self._item(superset),
            )
        )
        return self

    def equality(self, *items: ItemSpec, name: str | None = None) -> "SchemaBuilder":
        """Equal populations (role equality)."""
        self.schema.add_constraint(
            EqualityConstraint(
                name or self._next_name("E"),
                items=tuple(self._item(spec) for spec in items),
            )
        )
        return self

    def frequency(
        self,
        role: RoleSpec,
        minimum: int,
        maximum: int | None = None,
        *,
        name: str | None = None,
    ) -> "SchemaBuilder":
        """An occurrence frequency constraint on a role."""
        self.schema.add_constraint(
            FrequencyConstraint(
                name or self._next_name("F"),
                role=self._role(role),
                minimum=minimum,
                maximum=maximum,
            )
        )
        return self

    def values(
        self, object_type: str, values: Iterable[object], *, name: str | None = None
    ) -> "SchemaBuilder":
        """Restrict a lexical type to an enumerated value set."""
        self.schema.add_constraint(
            ValueConstraint(
                name or self._next_name("V"),
                object_type=object_type,
                values=tuple(values),
            )
        )
        return self

    # ------------------------------------------------------------------
    # Finishing
    # ------------------------------------------------------------------

    def build(self) -> BinarySchema:
        """The constructed schema (the builder stays usable)."""
        return self.schema

    # ------------------------------------------------------------------
    # Spec parsing
    # ------------------------------------------------------------------

    def _role(self, spec: RoleSpec) -> RoleId:
        """The address of an existing role.

        Every role argument of the builder resolves here, so a spec
        naming no fact type or no role of it raises
        :class:`UnknownElementError` before any lookup uses it.
        """
        if isinstance(spec, RoleId):
            role_id = spec
        elif isinstance(spec, tuple) and len(spec) == 2:
            role_id = RoleId(spec[0], spec[1])
        elif isinstance(spec, str) and "." in spec:
            fact, _, role = spec.partition(".")
            role_id = RoleId(fact, role)
        else:
            raise SchemaError(f"cannot interpret {spec!r} as a role")
        if role_id not in self.schema.fact_type(role_id.fact).role_ids:
            raise UnknownElementError("role", str(role_id))
        return role_id

    def _item(self, spec: ItemSpec) -> ConstraintItem:
        if isinstance(spec, SublinkRef):
            return spec
        if isinstance(spec, str) and spec.startswith("sublink:"):
            return SublinkRef(spec.removeprefix("sublink:"))
        return self._role(spec)

    def _next_name(self, prefix: str) -> str:
        self._counters[prefix] = self._counters.get(prefix, 0) + 1
        name = f"{prefix}{self._counters[prefix]}"
        while self.schema.has_constraint(name):
            self._counters[prefix] += 1
            name = f"{prefix}{self._counters[prefix]}"
        return name
