"""Reverse engineering: DDL → BRM lifting and the differential fixpoint.

The contract under test (see ``docs/REVERSE.md``): for any schema S
the forward mapper can emit, ``lift(emit(S))`` produces a BRM schema
and options whose remap is a *fixpoint* — one round may canonicalize
the DDL, the second round must reproduce it byte-for-byte — while the
implication engine saturates both lifts to the same closure and
executor populations validate identically on source and lift.

The round-trip fuzzer at the bottom is the standing CI leg; scale it
with ``REVERSE_FUZZ_EXAMPLES`` (the CI job runs ≥200).
"""

import io
import json
import os

from hypothesis import HealthCheck, given, seed as hypothesis_seed, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cris import cris_schema
from repro.dsl import parse, to_dsl
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    SublinkPolicy,
    check_fixpoint,
    lift_ddl,
    map_schema,
)
from repro.workloads import SchemaShape, generate_schema

from tests.strategies import (
    FULL_SHAPE,
    OPTION_SETS,
    dialects,
    mapping_options,
    shaped_schemas,
)


def roundtrip(schema, options=MappingOptions(), dialect="sql2"):
    return lift_ddl(map_schema(schema, options).sql(dialect), dialect)


class TestLift:
    def test_cris_lifts_to_mappable_schema(self):
        lifted = roundtrip(cris_schema())
        assert lifted.schema.object_types
        assert lifted.schema.fact_types
        # The lifted schema maps again without error, under the
        # options the lift inferred.
        remapped = map_schema(lifted.schema, lifted.options)
        assert remapped.relational.relations

    def test_lift_is_deterministic(self):
        ddl = map_schema(cris_schema(), MappingOptions()).sql("sql2")
        first, second = lift_ddl(ddl), lift_ddl(ddl)
        assert to_dsl(first.schema) == to_dsl(second.schema)
        assert first.options == second.options

    def test_lifted_schema_parses_as_dsl(self):
        lifted = roundtrip(cris_schema())
        assert parse(to_dsl(lifted.schema)) == lifted.schema

    def test_provenance_covers_every_object_type(self):
        lifted = roundtrip(cris_schema())
        recorded = {e.element for e in lifted.report.entries}
        for object_type in lifted.schema.object_types:
            assert object_type.name in recorded

    def test_provenance_names_source_clauses(self):
        lifted = roundtrip(cris_schema())
        entries = lifted.report.provenance_of("Paper")
        assert entries
        assert any("CREATE TABLE" in e.clause for e in entries)

    def test_subtypes_survive_the_lift(self):
        schema = generate_schema(FULL_SHAPE, seed=13)
        lifted = roundtrip(schema)
        assert len(lifted.schema.sublinks) == len(schema.sublinks)

    def test_bare_sublink_reconstructed_from_is_columns(self):
        # Under TOGETHER + NOT_IN_KEYS a subtype with its own
        # identifier survives only as nullable `<LOT>_Is` candidate
        # keys on the supertype; the lift must rebuild the subtype
        # entity from those bare columns.
        options = MappingOptions(
            sublink_policy=SublinkPolicy.TOGETHER,
            null_policy=NullPolicy.NOT_IN_KEYS,
        )
        lifted = roundtrip(cris_schema(), options)
        assert any(
            s.supertype == "Paper" for s in lifted.schema.sublinks
        )

    def test_together_merges_subtypes_but_keeps_the_fixpoint(self):
        # Plain TOGETHER without own identifiers is genuinely
        # ambiguous at the DDL level — the `_Is` columns lift to
        # boolean facts, not sublinks — but the round trip must still
        # reproduce the DDL byte-for-byte.
        schema = generate_schema(
            SchemaShape(entity_types=5, subtype_ratio=0.6), seed=7
        )
        options = MappingOptions(sublink_policy=SublinkPolicy.TOGETHER)
        report = check_fixpoint(schema, options)
        assert report.ok, report.describe()

    def test_dropped_clauses_are_reported_not_lost(self):
        # Conditional-equality pseudo comments cannot be lifted into
        # DDL-expressible constraints; a NOT_IN_KEYS mapping of a
        # subset-rich schema produces some.  The report must say so.
        schema = generate_schema(FULL_SHAPE, seed=3)
        lifted = roundtrip(
            schema,
            MappingOptions(null_policy=NullPolicy.NOT_IN_KEYS,
                           sublink_policy=SublinkPolicy.INDICATOR),
        )
        assert isinstance(lifted.report.dropped, tuple)
        for note in lifted.report.dropped:
            assert note.detail

    def test_report_as_dict_is_json_serializable(self):
        lifted = roundtrip(cris_schema())
        payload = json.loads(json.dumps(lifted.report.as_dict()))
        assert payload["schema"] == "CRIS"
        assert payload["entries"]


class TestFixpoint:
    def test_cris_all_dialects(self):
        for dialect in ("sql2", "oracle", "ingres", "sybase", "db2"):
            report = check_fixpoint(cris_schema(), dialect=dialect)
            assert report.ok, report.describe()

    def test_cris_all_option_sets(self):
        for options in OPTION_SETS:
            report = check_fixpoint(cris_schema(), options)
            assert report.ok, report.describe()

    def test_empirical_leg_runs(self):
        report = check_fixpoint(
            cris_schema(), empirical_scale=500, seed=11
        )
        assert report.ok, report.describe()
        assert any(leg.name == "empirical" for leg in report.legs)

    def test_report_shape(self):
        report = check_fixpoint(cris_schema())
        names = [leg.name for leg in report.legs]
        assert names == ["ddl-idempotent", "structure", "implication"]
        payload = report.as_dict()
        assert payload["ok"] is True
        assert len(payload["legs"]) == 3

    def test_divergence_is_detected(self):
        # A lift that forgets a constraint cannot be a fixpoint: the
        # harness must notice, not vacuously pass.  Simulate by
        # remapping under the wrong options.
        schema = generate_schema(FULL_SHAPE, seed=13)
        first = map_schema(schema, MappingOptions())
        lifted = lift_ddl(first.sql("sql2"))
        wrong = MappingOptions(null_policy=NullPolicy.NOT_ALLOWED)
        second = map_schema(lifted.schema, wrong)
        assert second.sql("sql2") != first.sql("sql2")


class TestCli:
    def run(self, *argv):
        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_reverse_lifts_ddl(self, tmp_path):
        ddl = map_schema(cris_schema(), MappingOptions()).sql("oracle")
        path = tmp_path / "cris.sql"
        path.write_text(ddl)
        code, output = self.run(
            "reverse", str(path), "--dialect", "oracle"
        )
        assert code == 0
        assert "schema CRIS" in output
        assert "lift of 'CRIS'" in output

    def test_reverse_json(self, tmp_path):
        ddl = map_schema(cris_schema(), MappingOptions()).sql("sql2")
        path = tmp_path / "cris.sql"
        path.write_text(ddl)
        code, output = self.run("reverse", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(output)
        assert payload["schema"] == "CRIS"
        assert parse(payload["dsl"])

    def test_reverse_fixpoint(self, tmp_path):
        path = tmp_path / "cris.ridl"
        path.write_text(to_dsl(cris_schema()))
        code, output = self.run("reverse", str(path), "--fixpoint")
        assert code == 0
        assert "PASS" in output

    def test_reverse_unparseable_ddl_exits_2(self, tmp_path):
        path = tmp_path / "legacy.sql"
        path.write_text("CREATE TABLE t (x int);\n")
        code, output = self.run("reverse", str(path))
        assert code == 2
        assert "error:" in output

    def test_reverse_ddl_truncated_after_table_banner_exits_2(self, tmp_path):
        ddl = map_schema(cris_schema(), MappingOptions()).sql("sql2")
        lines = ddl.splitlines()
        banner = next(
            number
            for number, line in enumerate(lines, start=1)
            if line.startswith("-- TABLE ")
        )
        path = tmp_path / "truncated.sql"
        path.write_text("\n".join(lines[:banner]) + "\n")
        code, output = self.run("reverse", str(path))
        assert code == 2
        assert f"error: line {banner - 1}: table " in output
        assert "Traceback" not in output


class TestRoundTripFuzzer:
    """The standing CI leg: random schemas, random options, random
    dialect — the fixpoint must hold for every one.

    ``REVERSE_FUZZ_EXAMPLES`` scales the run (tier-1 default 25; the
    CI job sets 200+).  The hypothesis seed is pinned so a CI failure
    reproduces locally from the logged example.
    """

    @hypothesis_seed(20260808)
    @settings(
        max_examples=int(os.environ.get("REVERSE_FUZZ_EXAMPLES", "25")),
        deadline=None,
        derandomize=True,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.data_too_large,
            HealthCheck.filter_too_much,
            HealthCheck.large_base_example,
        ],
    )
    @given(
        schema=shaped_schemas(),
        options=mapping_options(),
        dialect=dialects(),
    )
    def test_fixpoint_holds(self, schema, options, dialect):
        report = check_fixpoint(schema, options, dialect=dialect)
        assert report.ok, report.describe()

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_lift_count_matches_source(self, seed):
        """Structural invariant independent of the byte fixpoint:
        under the policies where every subtype keeps its own relation
        (SEPARATE default, INDICATOR), the lift reconstructs exactly
        as many sublinks as the source schema had."""
        schema = generate_schema(FULL_SHAPE, seed=seed)
        for options in (
            MappingOptions(),
            MappingOptions(sublink_policy=SublinkPolicy.INDICATOR),
        ):
            lifted = roundtrip(schema, options)
            assert len(lifted.schema.sublinks) == len(schema.sublinks)
