"""Transformation traces and provenance.

The paper insists on documentation: "problems are due to undocumented
decisions" (section 4) and the map report must let programmers "go
back and forth between the conceptual schema and the relational
schema generated from it" (section 3.3).  Two structures serve this:

* :class:`AppliedStep` — one record per basic schema transformation
  the engine applied, with the lossless rules it generated; the list
  of steps is the audit trail of the mapping session.
* :class:`Provenance` — the bidirectional cross-reference: which BRM
  concepts each relational concept derives from (backwards map), and
  the SQL expression each BRM concept maps to (forwards map).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The three basic transformation classes of section 5.
KIND_BINARY = "binary-binary"
KIND_BINARY_RELATIONAL = "binary-relational"
KIND_RELATIONAL = "relational-relational"
STEP_KINDS = frozenset(
    (KIND_BINARY, KIND_BINARY_RELATIONAL, KIND_RELATIONAL)
)


@dataclass(frozen=True)
class AppliedStep:
    """One applied basic schema transformation."""

    transformation: str  # e.g. "eliminate-sublink"
    kind: str  # "binary-binary" | "binary-relational" | "relational-relational"
    target: str  # the schema element transformed
    detail: str
    lossless_rules: tuple[str, ...] = ()

    def __str__(self) -> str:
        rules = f" [lossless: {', '.join(self.lossless_rules)}]" if (
            self.lossless_rules
        ) else ""
        return f"({self.kind}) {self.transformation} on {self.target}: {self.detail}{rules}"


@dataclass(frozen=True)
class PseudoConstraint:
    """A binary constraint with no relational counterpart.

    Emitted as a pseudo-SQL comment block, "a formal specification for
    a program segment to enforce this constraint" (section 4.2.2).
    """

    name: str
    text: str
    derived_from: tuple[str, ...]


@dataclass
class Provenance:
    """The raw material of the forwards and backwards maps."""

    # backwards: relational concept -> BRM concept descriptions
    tables: dict[str, list[str]] = field(default_factory=dict)
    columns: dict[tuple[str, str], list[str]] = field(default_factory=dict)
    constraints: dict[str, list[str]] = field(default_factory=dict)
    domains: dict[str, list[str]] = field(default_factory=dict)
    # forwards: BRM concept description -> SQL-ish mapping text
    forward: list[tuple[str, str]] = field(default_factory=list)

    def add_table(self, relation: str, *concepts: str) -> None:
        """Record BRM concepts a relation derives from."""
        bucket = self.tables.setdefault(relation, [])
        for concept in concepts:
            if concept not in bucket:
                bucket.append(concept)

    def add_column(self, relation: str, column: str, *concepts: str) -> None:
        """Record BRM concepts a column derives from."""
        bucket = self.columns.setdefault((relation, column), [])
        for concept in concepts:
            if concept not in bucket:
                bucket.append(concept)

    def add_constraint(self, name: str, *concepts: str) -> None:
        """Record BRM concepts a relational constraint derives from."""
        bucket = self.constraints.setdefault(name, [])
        for concept in concepts:
            if concept not in bucket:
                bucket.append(concept)

    def add_domain(self, name: str, *concepts: str) -> None:
        """Record BRM concepts a domain derives from."""
        bucket = self.domains.setdefault(name, [])
        for concept in concepts:
            if concept not in bucket:
                bucket.append(concept)

    def add_forward(self, concept: str, mapping_text: str) -> None:
        """Record how a BRM concept is expressed over the relational
        schema (one entry of the forwards map)."""
        self.forward.append((concept, mapping_text))

    def forward_concepts(self) -> frozenset[str]:
        """All BRM concept descriptions the forwards map covers."""
        return frozenset(concept for concept, _ in self.forward)

