"""Exception hierarchy for the RIDL* reproduction.

Every error raised by the library derives from :class:`RidlError`, so
applications can catch a single type.  The subclasses mirror the module
boundaries of the system: schema construction (RIDL-G), analysis
(RIDL-A), mapping (RIDL-M), population handling and SQL generation.
"""

from __future__ import annotations


class RidlError(Exception):
    """Base class for all errors raised by the RIDL* reproduction."""


class SchemaError(RidlError):
    """A binary schema is malformed or an operation on it is illegal.

    Raised by the BRM layer and the schema builder when a rule of the
    Binary Relationship Model would be violated by a construction step
    (the paper notes that "certain rules of the BRM are enforced by
    RIDL-G as the schema is constructed").
    """

    #: The source line of the DSL statement whose construction step
    #: failed, when the schema came from :func:`repro.dsl.parse`.
    line: int | None = None

    def at_line(self, line: int) -> "SchemaError":
        """Locate the error at a source line (prefixes the message)."""
        self.line = line
        self.args = (f"line {line}: {self}",)
        return self


class DuplicateNameError(SchemaError):
    """A schema element with the same name already exists."""

    def __init__(self, kind: str, name: str) -> None:
        super().__init__(f"{kind} named {name!r} already exists in the schema")
        self.kind = kind
        self.name = name


class UnknownElementError(SchemaError):
    """A referenced schema element does not exist."""

    def __init__(self, kind: str, name: str) -> None:
        super().__init__(f"no {kind} named {name!r} in the schema")
        self.kind = kind
        self.name = name


class ConstraintError(SchemaError):
    """A constraint definition is ill-formed (wrong arity, wrong targets)."""


class AnalysisError(RidlError):
    """RIDL-A could not analyze the schema."""


class PopulationError(RidlError):
    """A population violates its schema or an operation on it is illegal."""


class MappingError(RidlError):
    """RIDL-M could not map the schema under the given options."""


class NotReferableError(MappingError):
    """A NOLOT has no lexical reference scheme, so it cannot be mapped.

    The paper requires RIDL-A to detect these before mapping; RIDL-M
    raises this error if asked to map a schema containing one.
    """

    def __init__(self, nolot_name: str) -> None:
        super().__init__(
            f"object type {nolot_name!r} has no one-to-one lexical "
            "reference scheme; run the analyzer for details"
        )
        self.nolot_name = nolot_name


class TransformationError(MappingError):
    """A basic schema transformation was applied to an invalid input."""


class StepBudgetExceeded(MappingError):
    """The transformation engine hit its firing budget before quiescing.

    Carries the firing history so a non-terminating rule base can be
    diagnosed from the error alone: ``limit`` is the budget that was
    exhausted and ``history`` the names of the rules fired, in order.
    """

    def __init__(self, limit: int, history: tuple[str, ...]) -> None:
        tail = ", ".join(history[-10:]) if history else "(none)"
        prefix = "..., " if len(history) > 10 else ""
        super().__init__(
            f"rule base did not quiesce after {limit} firings; "
            f"check rule guards for progress (firing history: "
            f"{prefix}{tail})"
        )
        self.limit = limit
        self.history = history


class QuarantinedRuleError(MappingError):
    """A guarded rule firing failed and the rule was quarantined.

    Raised (in strict mode) after the offending firing has been rolled
    back; ``rule_name`` names the quarantined rule and ``reason``
    records the guard's finding or the exception the action raised.
    """

    def __init__(self, rule_name: str, reason: str) -> None:
        super().__init__(
            f"rule {rule_name!r} quarantined after rollback: {reason}"
        )
        self.rule_name = rule_name
        self.reason = reason


class CheckpointError(MappingError):
    """A mapping phase failed; earlier phases are checkpointed.

    ``phase`` names the failed phase.  When a
    :class:`~repro.robustness.CheckpointManager` was in use, rerunning
    ``map_schema`` with the same manager resumes from the last good
    checkpoint instead of redoing the completed phases.
    """

    def __init__(self, phase: str, message: str) -> None:
        super().__init__(f"mapping phase {phase!r} failed: {message}")
        self.phase = phase


class SqlGenerationError(RidlError):
    """A SQL emitter could not render the relational schema."""


class EngineError(RidlError):
    """The in-memory relational engine rejected an operation."""


class IntegrityViolation(EngineError):
    """A database state violates a constraint of its relational schema."""

    def __init__(self, constraint_name: str, message: str) -> None:
        super().__init__(f"constraint {constraint_name}: {message}")
        self.constraint_name = constraint_name


class DslSyntaxError(RidlError):
    """The textual schema DSL contained a syntax error."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class MetaDatabaseError(RidlError):
    """The meta-database rejected an operation (unknown schema, version)."""
