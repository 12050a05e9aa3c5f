"""``BRM0xx`` — binary-schema smells.

Rules BRM001..BRM014 port RIDL-A's four analysis functions onto
stable lint codes (the analyzer's symbolic codes such as
``LEXICAL_FACT`` stay its public API; :data:`LEGACY_CODES` is the
bridge).  BRM015..BRM017 are new static smells over the same schema:
unreferable types that would still be mapped, transitively redundant
sublinks, and subset constraints already implied by the rest of the
population-inclusion graph (the implication engine's ``subset``
verdicts).
"""

from __future__ import annotations

from repro.analyzer.diagnostics import Severity
from repro.lint.registry import lint_rule

#: Analyzer symbolic code -> lint code.  One rule per legacy code so
#: ``--select``/``--ignore`` and suppression work at analyzer
#: granularity.
LEGACY_CODES = {
    "LEXICAL_FACT": "BRM001",
    "INCOMPATIBLE_ITEMS": "BRM002",
    "EXTERNAL_UNIQUENESS_SHAPE": "BRM003",
    "FREQUENCY_CONFLICT": "BRM004",
    "DUPLICATE_CONSTRAINT": "BRM005",
    "EMPTY_SCHEMA": "BRM006",
    "ISOLATED_OBJECT_TYPE": "BRM007",
    "NO_UNIQUENESS": "BRM008",
    "INDISTINCT_SUBTYPE": "BRM009",
    "FORCED_EMPTY_TYPE": "BRM010",
    "FORCED_EMPTY_ROLE": "BRM011",
    "FORCED_EMPTY_SUBLINK": "BRM012",
    "NOT_REFERABLE": "BRM013",
    "REFERENCE_SCHEME": "BRM014",
}


def _ported(legacy_code: str):
    """A check that relays one analyzer code's findings."""

    def check(context):
        for diagnostic in context.report.diagnostics:
            if diagnostic.code == legacy_code:
                yield diagnostic.subject, diagnostic.message

    return check


def _port(code, slug, severity, legacy_code, doc):
    check = _ported(legacy_code)
    check.__doc__ = doc
    check.__name__ = f"check_{slug.replace('-', '_')}"
    lint_rule(code, slug, severity)(check)


_port(
    "BRM001", "lexical-fact", Severity.ERROR, "LEXICAL_FACT",
    "A fact type connects two lexical object types (LOTs).",
)
_port(
    "BRM002", "incompatible-items", Severity.ERROR, "INCOMPATIBLE_ITEMS",
    "A set-algebraic constraint relates incompatible items.",
)
_port(
    "BRM003", "external-uniqueness-shape", Severity.ERROR,
    "EXTERNAL_UNIQUENESS_SHAPE",
    "An external uniqueness constraint has an invalid role shape.",
)
_port(
    "BRM004", "frequency-conflict", Severity.ERROR, "FREQUENCY_CONFLICT",
    "A frequency constraint conflicts with a uniqueness constraint.",
)
_port(
    "BRM005", "duplicate-constraint", Severity.WARNING,
    "DUPLICATE_CONSTRAINT",
    "Two constraints of the same kind cover the same items.",
)
_port(
    "BRM006", "empty-schema", Severity.ERROR, "EMPTY_SCHEMA",
    "The schema declares no fact types at all.",
)
_port(
    "BRM007", "isolated-object-type", Severity.WARNING,
    "ISOLATED_OBJECT_TYPE",
    "An object type plays no role and has no sublink.",
)
_port(
    "BRM008", "no-uniqueness", Severity.WARNING, "NO_UNIQUENESS",
    "A fact type carries no uniqueness constraint on either role.",
)
_port(
    "BRM009", "indistinct-subtype", Severity.WARNING, "INDISTINCT_SUBTYPE",
    "A subtype adds no fact or constraint of its own.",
)
_port(
    "BRM010", "forced-empty-type", Severity.ERROR, "FORCED_EMPTY_TYPE",
    "Set-algebraic constraints force an object type's population empty.",
)
_port(
    "BRM011", "forced-empty-role", Severity.WARNING, "FORCED_EMPTY_ROLE",
    "Set-algebraic constraints force a role's population empty.",
)
_port(
    "BRM012", "forced-empty-sublink", Severity.WARNING,
    "FORCED_EMPTY_SUBLINK",
    "Set-algebraic constraints force a subtype's population empty.",
)
_port(
    "BRM013", "not-referable", Severity.ERROR, "NOT_REFERABLE",
    "A NOLOT has no one-to-one lexical reference scheme.",
)
_port(
    "BRM014", "reference-scheme", Severity.INFO, "REFERENCE_SCHEME",
    "Records the lexical reference scheme chosen for a NOLOT.",
)


@lint_rule("BRM015", "unreferable-but-mapped", Severity.WARNING)
def check_unreferable_but_mapped(context):
    """A non-referable type still participates in mappable facts.

    Under ``NullPolicy.ALLOWED`` the mapper tolerates non-referable
    types, so facts involving them reach the relational schema with
    no stable key to address the instances — flagged separately from
    BRM013 because it concerns what *would be mapped*, not just the
    missing naming convention.
    """
    # The memoized analysis already ran the reference resolver; its
    # NOT_REFERABLE subjects are exactly the non-referable types.
    non_referable = sorted(
        d.subject
        for d in context.report.diagnostics
        if d.code == "NOT_REFERABLE"
    )
    for name in non_referable:
        facts = context.indexes.facts_by_player.get(name, ())
        sublinks = context.indexes.sublinks_by_subtype.get(name, ())
        carried = len(facts) + len(sublinks)
        if carried:
            yield name, (
                f"non-referable type participates in {carried} "
                "mappable fact(s)/sublink(s); its rows would have no "
                "one-to-one lexical key"
            )


@lint_rule("BRM016", "transitive-sublink", Severity.WARNING)
def check_transitive_sublink(context):
    """A sublink duplicates a longer chain of sublinks.

    A direct sublink ``A IS C`` next to a chain ``A IS B IS C`` adds
    no population information (subtype inclusion already composes);
    it only multiplies the mapped artifacts of the subtype hierarchy.
    """
    by_subtype = context.indexes.sublinks_by_subtype
    for sublink in context.schema.sublinks:
        for middle in by_subtype.get(sublink.subtype, ()):
            if middle.name == sublink.name:
                continue
            ancestors = context.indexes.ancestors_of(middle.supertype)
            if (
                sublink.supertype == middle.supertype
                or sublink.supertype in ancestors
            ):
                yield sublink.name, (
                    f"sublink {sublink.subtype} IS {sublink.supertype} "
                    "is implied by the chain through "
                    f"{middle.supertype}"
                )
                break


@lint_rule("BRM017", "redundant-subset", Severity.WARNING)
def check_redundant_subset(context):
    """A subset constraint is implied by the rest of the schema.

    A projection of the implication engine's ``subset`` IMPLIED
    verdicts: the inclusion still holds without the constraint's own
    edge.  The subjects are IMP401's; this smell keeps the one-line
    message, IMP401 carries the proof chain.
    """
    for verdict in context.implications.implied:
        if verdict.category == "subset":
            yield verdict.subject, (
                "subset constraint is already implied by the other "
                "constraints and the subtype/fact structure"
            )
