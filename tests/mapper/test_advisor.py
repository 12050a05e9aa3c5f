"""The parallel mapping-option advisor."""

import pytest

from repro.cris import cris_schema, figure6_schema
from repro.mapper import (
    MappingOptions,
    NullPolicy,
    OptionSpace,
    SublinkPolicy,
    advise,
    map_from_prefix,
    map_prefix,
    map_schema,
    plan_from_prefix,
    score_plan,
)
from repro.engine.cost import TableStatistics, entity_fetch_cost
from repro.errors import UnknownElementError
from repro.mapper.advisor import ScoreWeights, resolve_workers
from repro.ridl import ConceptualQuery, FactSelection, QueryCompiler
from repro.workloads.statistics import (
    QueryPattern,
    WorkloadProfile,
    plan_statistics,
)


@pytest.fixture(scope="module")
def schema():
    return figure6_schema()


SMALL_SPACE = OptionSpace(
    null_policies=(NullPolicy.DEFAULT, NullPolicy.NOT_IN_KEYS),
    sublink_policies=(SublinkPolicy.SEPARATE, SublinkPolicy.TOGETHER),
    omit_toggles=("Invited_Paper",),
)


class TestPrefixSeam:
    def test_forked_suffix_equals_direct_mapping(self, schema):
        options = MappingOptions(
            null_policy=NullPolicy.NOT_IN_KEYS,
            combine_tables=(("Paper", "Program_Paper"),),
        )
        prefix = map_prefix(schema, options)
        forked = map_from_prefix(prefix, options)
        direct = map_schema(schema, options)
        assert forked.sql("sql2") == direct.sql("sql2")
        assert {r.name for r in forked.relational.relations} == {
            r.name for r in direct.relational.relations
        }

    def test_one_prefix_many_suffixes(self, schema):
        base = MappingOptions(null_policy=NullPolicy.NOT_IN_KEYS)
        prefix = map_prefix(schema, base)
        plain = map_from_prefix(prefix, base)
        omitted = map_from_prefix(
            prefix, base.with_overrides(omit_tables=("Invited_Paper",))
        )
        names = {r.name for r in plain.relational.relations}
        assert "Invited_Paper" in names
        assert "Invited_Paper" not in {
            r.name for r in omitted.relational.relations
        }
        # The prefix is not consumed: a third fork still works.
        again = map_from_prefix(prefix, base)
        assert again.sql("sql2") == plain.sql("sql2")

    def test_mismatched_prefix_refused(self, schema):
        from repro.errors import MappingError

        prefix = map_prefix(schema, MappingOptions())
        with pytest.raises(MappingError, match="prefix"):
            map_from_prefix(
                prefix,
                MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
            )

    def test_plan_from_prefix_matches_materialized_plan(self, schema):
        options = MappingOptions(omit_tables=("Invited_Paper",))
        prefix = map_prefix(schema, options)
        plan, health = plan_from_prefix(prefix, options)
        full = map_from_prefix(prefix, options)
        assert sorted(plan.plans) == sorted(full.plan.plans)
        assert health.ok


class TestScoring:
    def test_score_components(self, schema):
        prefix = map_prefix(schema, MappingOptions())
        plan, _ = plan_from_prefix(prefix)
        score = score_plan(plan)
        assert score.tables == len(plan.plans)
        assert score.storage_pages > 0
        assert score.entity_fetch_pages > 0
        assert score.total > 0

    def test_fragmentation_scores_worse(self, schema):
        """NULL NOT ALLOWED splits optional facts into satellites —
        the paper's 'large number of small tables' — which must cost
        more to fetch an entity from."""
        compact = plan_from_prefix(
            map_prefix(schema, MappingOptions())
        )[0]
        fragmented = plan_from_prefix(
            map_prefix(
                schema,
                MappingOptions(null_policy=NullPolicy.NOT_ALLOWED),
            )
        )[0]
        assert (
            score_plan(fragmented).entity_fetch_pages
            > score_plan(compact).entity_fetch_pages
        )
        assert score_plan(fragmented).tables > score_plan(compact).tables

    def test_profile_drives_row_estimates(self, schema):
        prefix = map_prefix(schema, MappingOptions())
        plan, _ = plan_from_prefix(prefix)
        small = plan_statistics(plan, WorkloadProfile(default_instances=100))
        large = plan_statistics(
            plan, WorkloadProfile(default_instances=1_000_000)
        )
        assert small.row_count("Paper") == 100
        assert large.row_count("Paper") == 1_000_000
        assert (
            score_plan(plan, WorkloadProfile(default_instances=1_000_000)).total
            > score_plan(plan, WorkloadProfile(default_instances=100)).total
        )


class TestAdvise:
    def test_ranked_report(self, schema):
        report = advise(schema, SMALL_SPACE, workers=1)
        assert len(report.ranked) == 8  # 2 nulls x 2 sublinks x omit on/off
        assert report.prefix_groups == 4
        totals = [o.score.total for o in report.ranked if o.score]
        assert totals == sorted(totals)
        assert report.winner is report.ranked[0]
        assert report.winner_options is not None

    def test_serial_and_parallel_reports_identical(self, schema):
        serial = advise(schema, SMALL_SPACE, workers=1)
        parallel = advise(schema, SMALL_SPACE, workers=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.render() == parallel.render()

    def test_failed_candidates_reported_not_raised(self, schema):
        space = OptionSpace(
            null_policies=(NullPolicy.DEFAULT,),
            sublink_policies=(SublinkPolicy.SEPARATE,),
            combine_toggles=(("Paper", "Nope"),),
        )
        report = advise(schema, space, workers=1)
        assert len(report.ranked) == 2
        assert len(report.failures) == 1
        failed = report.failures[0]
        assert "Nope" in failed.error
        assert failed is report.ranked[-1]  # failures rank last
        assert report.winner is not None  # the clean corner still wins

    def test_prune_shrinks_exploration(self, schema):
        report = advise(
            schema,
            SMALL_SPACE,
            workers=1,
            prune=lambda c: not c.omit_tables,
        )
        assert len(report.ranked) == 4
        assert all(not o.options.omit_tables for o in report.ranked)

    def test_winner_options_map_cleanly(self, schema):
        report = advise(schema, SMALL_SPACE, workers=1)
        result = map_schema(schema, report.winner_options)
        assert result.health.ok
        assert (
            len(result.relational.relations) == report.winner.score.tables
        )

    def test_health_carried_per_candidate(self, schema):
        # Under TOGETHER the Invited_Paper relation is folded away, so
        # the omit toggle legitimately fails those corners.
        report = advise(schema, SMALL_SPACE, workers=1)
        scored = [o for o in report.ranked if not o.failed]
        assert scored
        for outcome in scored:
            assert outcome.health is not None
            assert outcome.health.ok
            assert "materialize" not in outcome.health.completed_phases
        for outcome in report.failures:
            assert outcome.health is None
            assert "Invited_Paper" in outcome.error

    def test_implied_constraint_counts_surface(self, schema):
        report = advise(schema, SMALL_SPACE, workers=1)
        for outcome in report.ranked:
            if outcome.failed:
                assert outcome.implied_constraints is None
            else:
                assert isinstance(outcome.implied_constraints, int)
                assert outcome.implied_constraints >= 0
            assert "implied_constraints" in outcome.as_dict()
        assert "impl" in report.render()

    def test_json_shape(self, schema):
        import json

        report = advise(schema, SMALL_SPACE, workers=1)
        payload = json.loads(report.to_json(top_k=3))
        assert payload["candidates"] == 8
        assert payload["prefix_groups"] == 4
        assert len(payload["ranked"]) == 3
        assert payload["ranked"][0]["rank"] == 1
        assert payload["winner"] == report.winner.label

    def test_discovered_space_on_cris(self):
        schema = cris_schema()
        report = advise(schema, workers=1)
        assert report.winner is not None
        # 3 nulls x 3 sublinks prefixes, omit toggles fan the rest out.
        assert report.prefix_groups == 9
        assert len(report.ranked) == 36


#: Three application environments over figure 6: a front desk that
#: fetches a paper with its whole programme entry, a one-off title
#: lookup, and a submission tracker.
PATTERN_PROFILES = {
    "hot": (
        QueryPattern(
            "Paper",
            ("Paper_has_Title", "submission", "presents", "scheduled"),
            frequency=100.0,
        ),
        QueryPattern("Paper", ("Paper_has_Title",), frequency=10.0),
    ),
    "cold": (QueryPattern("Paper", ("Paper_has_Title",), frequency=1.0),),
    "tracker": (
        QueryPattern("Paper", ("Paper_has_Title",), frequency=50.0),
        QueryPattern(
            "Paper", ("Paper_has_Title", "submission"), frequency=10.0
        ),
    ),
}

#: "Denormalize only when the workload pays": rank on fetch pages
#: alone, at a size where every relation is three index levels deep.
FETCH_ONLY = ScoreWeights(tables=0, storage=0, null_exposure=0)


def pattern_profile(patterns):
    return WorkloadProfile(
        default_instances=100_000, optional_fill=1.0, patterns=patterns
    )


def plan_for(schema, options):
    return plan_from_prefix(map_prefix(schema, options), options)[0]


#: The hand-picked candidates of the retired full-map recommender:
#: the global policies plus one TOGETHER override per sublink.
EXPERT_CANDIDATES = {
    "default": MappingOptions(),
    "not-allowed": MappingOptions(null_policy=NullPolicy.NOT_ALLOWED),
    "indicator": MappingOptions(sublink_policy=SublinkPolicy.INDICATOR),
    "together": MappingOptions(sublink_policy=SublinkPolicy.TOGETHER),
    "together-invited": MappingOptions(
        sublink_overrides=(("Invited_Paper_IS_Paper", SublinkPolicy.TOGETHER),)
    ),
    "together-program": MappingOptions(
        sublink_overrides=(("Program_Paper_IS_Paper", SublinkPolicy.TOGETHER),)
    ),
}

#: Weighted page reads per profile and candidate, as the full-map
#: recommender priced them (compile each pattern on the materialized
#: mapping, one keyed lookup per touched relation at 100,000 rows);
#: the plan-level pricing was checked equal to it before it was
#: removed.
EXPECTED_FETCH_PAGES = {
    "hot": {
        "default": 840,
        "not-allowed": 1640,
        "indicator": 840,
        "together": 440,
        "together-invited": 840,
        "together-program": 440,
    },
    "cold": dict.fromkeys(EXPERT_CANDIDATES, 4),
    "tracker": {
        "default": 240,
        "not-allowed": 280,
        "indicator": 240,
        "together": 240,
        "together-invited": 240,
        "together-program": 240,
    },
}


class TestPatternPricing:
    @pytest.mark.parametrize("profile_name", sorted(PATTERN_PROFILES))
    def test_matches_full_map_pricing(self, schema, profile_name):
        """Plan-level pattern pricing equals pricing each pattern's
        compiled fetch on a fully materialized mapping."""
        patterns = PATTERN_PROFILES[profile_name]
        statistics = TableStatistics(default_rows=100_000)
        for name, options in EXPERT_CANDIDATES.items():
            score = score_plan(
                plan_for(schema, options), pattern_profile(patterns)
            )
            result = map_schema(schema, options)
            compiler = QueryCompiler.for_result(result)
            full_map = sum(
                pattern.frequency
                * entity_fetch_cost(
                    result.relational,
                    compiler.compile(
                        ConceptualQuery(
                            pattern.object_type,
                            tuple(FactSelection(f) for f in pattern.facts),
                        )
                    ).relations_touched,
                    statistics,
                )
                for pattern in patterns
            )
            expected = EXPECTED_FETCH_PAGES[profile_name][name]
            assert score.entity_fetch_pages == full_map == expected, name

    def test_no_patterns_keeps_whole_pages(self, schema):
        # An int keeps the pattern-free JSON report byte-identical.
        plan = plan_for(schema, MappingOptions())
        assert isinstance(score_plan(plan).entity_fetch_pages, int)

    def test_tracker_ties_keep_the_default(self, schema):
        report = advise(
            schema,
            workers=1,
            profile=pattern_profile(PATTERN_PROFILES["tracker"]),
            weights=FETCH_ONLY,
        )
        assert report.winner.label == "DEFAULT SEPARATE"
        assert report.winner.score.entity_fetch_pages == 240

    def test_unknown_object_type_rejected_up_front(self, schema):
        pattern = QueryPattern("Ghost", ("Paper_has_Title",))
        with pytest.raises(UnknownElementError) as info:
            advise(
                schema,
                SMALL_SPACE,
                workers=1,
                profile=WorkloadProfile(patterns=(pattern,)),
            )
        assert (info.value.kind, info.value.name) == ("object type", "Ghost")


class TestResolveWorkers:
    def test_explicit(self):
        assert resolve_workers(4, groups=8) == 4

    def test_capped_by_groups(self):
        assert resolve_workers(8, groups=3) == 3

    def test_floor_of_one(self):
        assert resolve_workers(0, groups=5) == 1
        assert resolve_workers(None, groups=0) == 1

    def test_auto_uses_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert resolve_workers(None, groups=100) == 6
