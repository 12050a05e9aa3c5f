"""RIDL-A function 3 — consistency of the set-algebraic constraints.

"It verifies the consistency of the set-algebraic constraints defined
in the binary schema on the populations of roles and object types"
(section 3.2).

The notion checked is *strong satisfiability*: every object type must
admit a non-empty population in some model of the schema.  The solver
is the implication engine's set-algebraic closure
(:func:`repro.analyzer.implication.set_algebraic_closure`) over the
population-inclusion preorder: an exclusion constraint empties every
*common lower bound* of two of its items — any population included in
two disjoint populations must be empty — and forced emptiness then
propagates downward through the inclusion preorder, across a fact
type (one empty role empties the other), and through total unions (a
type whose covering items are all empty is empty).  This module
projects that closure into RIDL-A's report: a forced-empty object type
is an inconsistency; a forced-empty role or sublink is reported as a
warning (the constraint can never be exercised).  Each reason is the
closure's rendered proof chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analyzer.diagnostics import Diagnostic, Severity
from repro.analyzer.implication import (
    Node,
    _node_subject,
    set_algebraic_closure,
)
from repro.brm.schema import BinarySchema


@dataclass
class ConsistencyResult:
    """Everything the solver derived."""

    forced_empty: dict[Node, str]  # node -> human-readable reason
    diagnostics: list[Diagnostic]

    @property
    def is_consistent(self) -> bool:
        """True when no object type is forced empty."""
        return not any(node[0] == "type" for node in self.forced_empty)


#: node kind -> (severity, code, message prefix) of its diagnostic.
_DIAGNOSTIC = {
    "type": (Severity.ERROR, "FORCED_EMPTY_TYPE",
             "no non-empty population possible"),
    "role": (Severity.WARNING, "FORCED_EMPTY_ROLE",
             "role can never be played"),
    "sublink": (Severity.WARNING, "FORCED_EMPTY_SUBLINK",
                "subtype can never have members"),
}


def check_consistency(schema: BinarySchema) -> ConsistencyResult:
    """Project the set-algebraic emptiness closure into diagnostics."""
    forced_empty = {
        node: proof.render_inline()
        for node, proof in set_algebraic_closure(schema).items()
    }
    diagnostics = []
    for node, reason in sorted(forced_empty.items(), key=lambda kv: repr(kv[0])):
        severity, code, prefix = _DIAGNOSTIC[node[0]]
        diagnostics.append(
            Diagnostic(severity, code, _node_subject(node), f"{prefix}: {reason}")
        )
    return ConsistencyResult(forced_empty=forced_empty, diagnostics=diagnostics)
