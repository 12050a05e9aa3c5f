"""Workload-driven mapping: the expert rules of the concluding remarks.

The paper closes with the research goal of a rule-driven RIDL-M "that
also has the capability to automatically generate the database schema
that best fits a particular application environment", steered by
"query information ... towards limited de-normalization".  This
example exercises that extension: two application environments with
opposite access patterns over the same conceptual schema produce two
different recommended physical designs — and the recommended design
demonstrably answers the workload's conceptual queries with less I/O.

Run with::

    python examples/workload_advisor.py
"""

from repro.cris import figure6_population, figure6_schema
from repro.mapper import ScoreWeights, advise, map_schema
from repro.ridl import ConceptualQuery, FactSelection, QueryCompiler
from repro.workloads.statistics import QueryPattern, WorkloadProfile

#: Rank on entity-fetch pages alone: denormalize only when the
#: workload pays for it (ties keep the default SEPARATE design).
FETCH_ONLY = ScoreWeights(tables=0, storage=0, null_exposure=0)


def environment(*patterns):
    """A workload of 100,000 instances per type with every optional
    role filled, fetched by the given query patterns."""
    return WorkloadProfile(
        default_instances=100_000, optional_fill=1.0, patterns=patterns
    )


def main():
    schema = figure6_schema()

    # Environment A: a conference-front-desk application that always
    # fetches a paper with its full programme information.
    front_desk = environment(
        QueryPattern(
            "Paper",
            ("Paper_has_Title", "submission", "presents", "scheduled"),
            frequency=100.0,
        ),
    )
    # Environment B: a submission-tracking application that only ever
    # reads titles and submission dates.
    tracker = environment(
        QueryPattern("Paper", ("Paper_has_Title",), frequency=50.0),
        QueryPattern("Paper", ("Paper_has_Title", "submission"), frequency=10.0),
    )

    recommended = {}
    for name, profile in (("front desk", front_desk), ("tracker", tracker)):
        print("=" * 70)
        print(f"application environment: {name}")
        print("=" * 70)
        report = advise(schema, workers=1, profile=profile, weights=FETCH_ONLY)
        print(report.render())
        recommended[name] = report.winner_options
        result = map_schema(schema, report.winner_options)
        print("recommended physical design:")
        for relation in result.relational.relations:
            columns = ", ".join(
                f"[{a.name}]" if a.nullable else a.name
                for a in relation.attributes
            )
            print(f"  {relation.name}({columns})")
        print()

    # The recommended design answers the same conceptual query with
    # fewer relations touched.
    population = figure6_population(schema)
    query = ConceptualQuery(
        "Paper",
        selections=(
            FactSelection("Paper_has_Title", optional=False),
            FactSelection("presents"),
            FactSelection("scheduled"),
        ),
    )
    print("=" * 70)
    print("one conceptual query, two physical plans")
    print("=" * 70)
    for label, options in (
        ("default (SEPARATE)", None),
        ("recommended for front desk", recommended["front desk"]),
    ):
        result = map_schema(schema, options) if options else map_schema(schema)
        compiler = QueryCompiler.for_result(result)
        compiled = compiler.compile(query)
        database = result.forward(population)
        answers = compiler.execute(compiled, database)
        print(f"{label}: touches {compiled.relations_touched}")
        print(compiled.sql_text())
        for answer in answers:
            print(f"  {answer}")
        print()


if __name__ == "__main__":
    main()
