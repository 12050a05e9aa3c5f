"""Knowledge acquisition to running database: the full RIDL* arc.

The paper's figure 1 starts before RIDL-G: "Actual knowledge
acquisition about the application domain typically precedes this",
assisted by the under-development RIDL-F module.  This example runs
the whole arc with the reproduction's RIDL-F: example data collected
from the domain is turned into a proposed binary schema (with an
evidence trail), refined, analyzed, mapped, and finally *populated
and queried* through the in-memory engine.

Run with::

    python examples/elicitation.py
"""

from repro import analyze, map_schema
from repro.ridl import ConceptualQuery, FactSelection, QueryCompiler
from repro.ridlf import ExampleTable, induce_schema


def main():
    # 1. Example data from the domain experts (nulls are unknowns).
    books = ExampleTable(
        "Book",
        (
            {"Isbn": "0-201-12227-8", "Title": "Principles of DB Systems",
             "Binding": "hard", "Year": 1988},
            {"Isbn": "90-277-2662-1", "Title": "NIAM in Theory",
             "Binding": "soft", "Year": 1986},
            {"Isbn": "0-201-14192-2", "Title": "An Introduction to DB",
             "Binding": "hard", "Year": None},
        ),
    )
    members = ExampleTable(
        "Member",
        (
            {"Nr": 1001, "Name": "Ann Smith", "Level": "staff"},
            {"Nr": 1002, "Name": "Bob Jones", "Level": "student"},
            {"Nr": 1003, "Name": "Carol King", "Level": "student"},
        ),
    )

    # 2. RIDL-F proposes a schema and shows its evidence.
    proposal = induce_schema([books, members], name="Library")
    print(proposal.render())
    print()

    # 3. RIDL-A validates the proposal.
    report = analyze(proposal.schema)
    print(report.render())
    print()

    # 4. RIDL-M maps it; the engine hosts the data.
    result = map_schema(proposal.schema)
    print(result.sql("sql2").split("-- " + "-" * 60)[0])
    database = result.state_map.forward(
        result.state.to_canonical(_populate(proposal.schema, books, members))
    )
    print(f"populated rows: "
          f"{sum(database.count(r.name) for r in result.relational.relations)}"
          f", valid: {database.is_valid()}")
    print()

    # 5. Query it conceptually.
    compiler = QueryCompiler.for_result(result)
    query = ConceptualQuery(
        "Book",
        selections=(
            FactSelection("Book_Title_fact", optional=False),
            FactSelection("Book_Year_fact"),
        ),
    )
    compiled = compiler.compile(query)
    print(compiled.sql_text())
    for answer in compiler.execute(compiled, database):
        print(f"  {answer}")


def _populate(schema, *tables):
    """Feed the example rows back in as the initial population."""
    from repro.brm import Population

    population = Population(schema)
    for table in tables:
        key = table.columns[0]
        for row in table.rows:
            instance = f"{table.name}:{row[key]}"
            population.add_fact(
                f"{table.name}_has_{key}", instance, row[key]
            )
            for column, value in row.items():
                if column == key or value is None:
                    continue
                population.add_fact(
                    f"{table.name}_{column}_fact", instance, value
                )
    return population


if __name__ == "__main__":
    main()
