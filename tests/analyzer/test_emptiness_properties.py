"""Properties of the one emptiness solver over set-algebraic schemas.

RIDL-A's consistency function and BRM017 are projections of the
implication engine; these invariants pin what the projections must
satisfy on :func:`~tests.strategies.set_algebraic_schemas`, the
strategy dense in exclusions, duplicated subsets and total unions
that the other schema generators never reach.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analyzer import check_consistency, check_implications
from repro.analyzer.implication import set_algebraic_closure
from repro.brm import ExclusionConstraint
from repro.lint import lint_schema
from tests.strategies import set_algebraic_schemas

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

_CATEGORY = {
    "type": "empty-type", "role": "empty-role", "sublink": "empty-sublink",
}


def _subject(node) -> tuple[str, str]:
    name = f"{node[1]}.{node[2]}" if node[0] == "role" else node[1]
    return _CATEGORY[node[0]], name


@SETTINGS
@given(set_algebraic_schemas())
def test_brm017_subjects_are_imp401_subjects(schema):
    report = lint_schema(schema, select=["BRM017", "IMP401"])
    by_code = {"BRM017": [], "IMP401": []}
    for diagnostic in report.diagnostics:
        by_code[diagnostic.code].append(diagnostic.subject)
    assert by_code["BRM017"] == by_code["IMP401"]


@SETTINGS
@given(set_algebraic_schemas())
def test_every_forced_empty_proof_cites_an_exclusion(schema):
    for proof in set_algebraic_closure(schema).values():
        assert any(
            isinstance(schema.constraint(name), ExclusionConstraint)
            for name in proof.premises
        ), proof.render()


@SETTINGS
@given(set_algebraic_schemas())
def test_no_exclusions_means_nothing_forced_empty(schema):
    probe = schema.copy()
    for constraint in schema.exclusions():
        probe.remove_constraint(constraint.name)
    assert check_consistency(probe).forced_empty == {}


@SETTINGS
@given(set_algebraic_schemas(), st.integers(min_value=0))
def test_adding_a_constraint_never_shrinks_the_forced_empty_set(schema, pick):
    constraints = list(schema.constraints)
    without = schema.copy()
    without.remove_constraint(constraints[pick % len(constraints)].name)
    assert set(check_consistency(without).forced_empty) <= set(
        check_consistency(schema).forced_empty
    )


@SETTINGS
@given(set_algebraic_schemas())
def test_ridl_a_set_is_within_the_engine_verdicts(schema):
    result = check_implications(schema)
    engine = {
        (verdict.category, verdict.subject)
        for verdict in result.forced_empty + result.contradictions
        if verdict.category.startswith("empty-")
    }
    ridl_a = {_subject(node) for node in check_consistency(schema).forced_empty}
    assert ridl_a <= engine
