"""``BRM0xx`` schema-smell rules, ported and new."""

from repro.analyzer import analyze
from repro.brm.builder import SchemaBuilder
from repro.brm.datatypes import char
from repro.brm.sublinks import SublinkType
from repro.lint import LEGACY_CODES, lint_schema
from repro.lint.rules_schema import LEGACY_CODES as MODULE_LEGACY_CODES


def find(report, code):
    return [d for d in report.diagnostics if d.code == code]


class TestPortedAnalyzerRules:
    def test_fig6_reports_indistinct_subtype_as_brm009(self, fig6):
        report = lint_schema(fig6, select=["BRM"])
        findings = find(report, "BRM009")
        assert [d.subject for d in findings] == ["Invited_Paper"]
        assert report.is_clean

    def test_reference_schemes_surface_as_brm014_infos(self, fig6):
        report = lint_schema(fig6, select=["BRM014"])
        assert report.diagnostics
        assert all(d.severity.value == "info" for d in report.diagnostics)

    def test_every_analyzer_finding_is_ported(self, fig6):
        analysis = analyze(fig6)
        report = lint_schema(fig6, select=["BRM"])
        ported = {
            (LEGACY_CODES[d.code], d.subject)
            for d in analysis.diagnostics
        }
        new_rules = {"BRM015", "BRM016", "BRM017"}
        assert {
            (d.code, d.subject)
            for d in report.diagnostics
            if d.code not in new_rules
        } == ported

    def test_legacy_code_table_is_exported(self):
        assert LEGACY_CODES is MODULE_LEGACY_CODES
        assert LEGACY_CODES["INDISTINCT_SUBTYPE"] == "BRM009"


def _chain_schema():
    """A IS B IS C with a redundant direct sublink A IS C."""
    builder = SchemaBuilder("Chained")
    builder.lot("K", char(4))
    for name in ("A", "B", "C"):
        builder.nolot(name)
    builder.identifier("C", "K")
    builder.subtype("B", "C")
    builder.subtype("A", "B")
    schema = builder.build()
    schema.add_sublink(SublinkType("A_IS_C_direct", "A", "C"))
    return schema


def _parallel_subset_schema():
    """leads <= helps <= works plus the implied direct leads <= works."""
    builder = SchemaBuilder("Parallel")
    builder.lot("Name", char(10))
    builder.nolot("P")
    builder.identifier("P", "Name")
    for fact, role in (
        ("works", "works_on"),
        ("helps", "helps_on"),
        ("leads", "leads_on"),
    ):
        builder.fact(
            fact, ("P", role), ("Name", f"of_{fact}"), unique="first"
        )
    builder.subset(("leads", "leads_on"), ("helps", "helps_on"), name="S_ab")
    builder.subset(("helps", "helps_on"), ("works", "works_on"), name="S_bc")
    builder.subset(("leads", "leads_on"), ("works", "works_on"), name="S_ac")
    return builder.build()


def _two_role_schema():
    """Two facts whose first roles are both played by P."""
    builder = SchemaBuilder("TwoRoles")
    builder.nolot("P").lot("K", char(3)).lot("L", char(3))
    builder.fact("f", ("P", "x"), ("K", "y"))
    builder.fact("g", ("P", "x"), ("L", "y"))
    return builder


def _subjects(report, code):
    return sorted(d.subject for d in report.diagnostics if d.code == code)


class TestNewSchemaRules:
    def test_transitive_sublink_detected(self):
        report = lint_schema(_chain_schema(), select=["BRM016"])
        assert [d.subject for d in report.diagnostics] == ["A_IS_C_direct"]

    def test_clean_hierarchy_has_no_transitive_sublinks(self, fig6):
        report = lint_schema(fig6, select=["BRM016"])
        assert report.diagnostics == []

    def test_redundant_subset_detected(self):
        report = lint_schema(_parallel_subset_schema(), select=["BRM017"])
        assert [d.subject for d in report.diagnostics] == ["S_ac"]

    def test_duplicate_subset_pair_is_redundant_like_imp401(self):
        builder = _two_role_schema()
        builder.subset(("g", "x"), ("f", "x"), name="S1")
        builder.subset(("g", "x"), ("f", "x"), name="S2")
        report = lint_schema(builder.build(), select=["BRM017", "IMP401"])
        assert _subjects(report, "BRM017") == ["S1", "S2"]
        assert _subjects(report, "IMP401") == ["S1", "S2"]

    def test_subset_parallel_to_role_equality_is_redundant(self):
        builder = _two_role_schema()
        builder.equality(("f", "x"), ("g", "x"), name="E1")
        builder.subset(("g", "x"), ("f", "x"), name="S1")
        report = lint_schema(builder.build(), select=["BRM017"])
        assert _subjects(report, "BRM017") == ["S1"]

    def test_no_redundant_subsets_in_paper_schemas(self, fig6, cris):
        for schema in (fig6, cris):
            report = lint_schema(schema, select=["BRM017"])
            assert report.diagnostics == []
