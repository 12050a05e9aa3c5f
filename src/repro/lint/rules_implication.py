"""``IMP4xx`` — constraint implication & satisfiability findings.

These rules surface the verdicts of the saturation engine
(:mod:`repro.analyzer.implication`) with their full proof chains in
the message, so a finding is never just "this looks redundant" — it
names exactly the constraints and structural inclusions it follows
from:

* IMP401–IMP405 — a declared constraint is *implied* by the rest of
  the schema (subset, equality, uniqueness, frequency, value), one
  rule per constraint kind so families can be suppressed
  independently;
* IMP406 — a role or sublink is *forced empty*: legal, but every
  constraint over it is dead weight;
* IMP407 — conflicting frequency bounds on one role admit no play
  count (an error: the role, and anything total over it, can never
  be populated);
* IMP408 — the schema is contradictory: an object type is forced
  empty, or two value constraints enumerate disjoint domains.

The warnings (401–406) overlap deliberately with BRM-family smells
(BRM017 flags exactly IMP401's subjects, BRM011/012 the
exclusion-forced part of IMP406's): the IMP rules add the
machine-checkable proof chain, which is what the
executor's ``prune_implied`` mode and the robustness kill-shot test
consume.
"""

from __future__ import annotations

from repro.analyzer.diagnostics import Severity
from repro.analyzer.implication import VerdictKind
from repro.lint.registry import lint_rule


def _implied(context, category):
    for verdict in context.implications.implied:
        if verdict.category == category:
            yield verdict.subject, verdict.proof.render_inline()


@lint_rule("IMP401", "implied-subset", Severity.WARNING)
def implied_subset(context):
    """Subset constraint provably implied by other inclusions."""
    yield from _implied(context, "subset")


@lint_rule("IMP402", "implied-equality", Severity.WARNING)
def implied_equality(context):
    """Equality constraint provably implied by an inclusion cycle."""
    yield from _implied(context, "equality")


@lint_rule("IMP403", "implied-uniqueness", Severity.WARNING)
def implied_uniqueness(context):
    """Uniqueness constraint implied by a frequency maximum of 1."""
    yield from _implied(context, "uniqueness")


@lint_rule("IMP404", "implied-frequency", Severity.WARNING)
def implied_frequency(context):
    """Frequency constraint vacuous or subsumed by a tighter bound."""
    yield from _implied(context, "frequency")


@lint_rule("IMP405", "implied-value", Severity.WARNING)
def implied_value(context):
    """Value constraint containing another domain on the same type."""
    yield from _implied(context, "value")


@lint_rule("IMP406", "forced-empty-item", Severity.WARNING)
def forced_empty_item(context):
    """Role or sublink whose population is provably always empty."""
    for verdict in context.implications.forced_empty:
        yield verdict.subject, verdict.proof.render_inline()


@lint_rule("IMP407", "frequency-contradiction", Severity.ERROR)
def frequency_contradiction(context):
    """Frequency bounds on one role admit no common play count."""
    for verdict in context.implications.contradictions:
        if verdict.category == "frequency-conflict":
            yield verdict.subject, verdict.proof.render_inline()


@lint_rule("IMP408", "schema-contradiction", Severity.ERROR)
def schema_contradiction(context):
    """Constraint set is unsatisfiable: an object type is forced empty."""
    for verdict in context.implications.contradictions:
        if verdict.category in ("empty-type", "value-conflict"):
            yield verdict.subject, verdict.proof.render_inline()
