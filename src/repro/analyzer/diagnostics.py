"""Diagnostics and the analysis report.

RIDL-A (section 3.2) performs four functions: correctness,
completeness, consistency of the set-algebraic constraints, and
detection of non-referable object types.  Each function emits
:class:`Diagnostic` records; an :class:`AnalysisReport` aggregates
them per function, so the database engineer (or RIDL-M, which refuses
to map schemas with errors) can act on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Severity(Enum):
    """How serious a diagnostic is.

    ``ERROR`` blocks mapping; ``WARNING`` flags quality issues the
    engineer should review; ``INFO`` records analysis facts.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the analyzer.

    ``code`` is a stable machine-readable identifier (e.g.
    ``LEXICAL_FACT``); ``subject`` names the schema element concerned.
    """

    severity: Severity
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity.value}[{self.code}] {self.subject}: {self.message}"


@dataclass
class AnalysisReport:
    """The combined result of RIDL-A's four functions."""

    schema_name: str
    correctness: list[Diagnostic] = field(default_factory=list)
    completeness: list[Diagnostic] = field(default_factory=list)
    consistency: list[Diagnostic] = field(default_factory=list)
    referability: list[Diagnostic] = field(default_factory=list)

    @property
    def diagnostics(self) -> list[Diagnostic]:
        """All diagnostics from all four functions."""
        return (
            self.correctness
            + self.completeness
            + self.consistency
            + self.referability
        )

    @property
    def errors(self) -> list[Diagnostic]:
        """Only the mapping-blocking findings."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        """Only the review-worthy findings."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def is_mappable(self) -> bool:
        """True when RIDL-M may proceed (no errors)."""
        return not self.errors

    def render(self) -> str:
        """A human-readable multi-section report."""
        lines = [f"RIDL-A analysis of schema {self.schema_name!r}"]
        sections = (
            ("1. Correctness", self.correctness),
            ("2. Completeness", self.completeness),
            ("3. Constraint consistency", self.consistency),
            ("4. Referability", self.referability),
        )
        for title, diagnostics in sections:
            lines.append(f"{title}: " + ("OK" if not diagnostics else ""))
            lines.extend(f"  {d}" for d in diagnostics)
        verdict = "MAPPABLE" if self.is_mappable else "NOT MAPPABLE"
        lines.append(
            f"Verdict: {verdict} ({len(self.errors)} errors, "
            f"{len(self.warnings)} warnings)"
        )
        return "\n".join(lines)
