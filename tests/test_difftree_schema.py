"""Tests for Difftree schema extraction (choice contexts and tree profiles)."""

from __future__ import annotations


from repro.difftree import (
    build_forest,
    choice_contexts,
    forest_schema,
    merge_nodes,
    tree_profile,
)
from repro.difftree.transformations import applicable_transformations
from repro.difftree.tree_schema import TreeProfileCache
from repro.sql.parser import parse_select
from repro.sql.schema import AttributeRole


class TestChoiceContexts:
    def test_no_choices_for_plain_query(self):
        assert choice_contexts(parse_select("SELECT a FROM t")) == []

    def test_equality_literal_context(self):
        merged = merge_nodes(
            parse_select("SELECT a FROM t WHERE region = 'South'"),
            parse_select("SELECT a FROM t WHERE region = 'Northeast'"),
        )
        context = choice_contexts(merged)[0]
        assert context.kind == "any"
        assert context.clause == "where"
        assert context.target_attribute == "region"
        assert context.comparison_op == "="
        assert context.alternative_kind == "text_literal"

    def test_between_range_pair(self):
        merged = merge_nodes(
            parse_select("SELECT a FROM t WHERE x BETWEEN 1 AND 10"),
            parse_select("SELECT a FROM t WHERE x BETWEEN 2 AND 20"),
        )
        # The both-operands-differ rule keeps the BETWEEN as a predicate ANY;
        # factor it to expose the low/high literal choices.
        for transformation in applicable_transformations(merged):
            if transformation.rule == "factor_common_root":
                merged = transformation(merged)
        contexts = choice_contexts(merged)
        positions = {context.range_position for context in contexts}
        assert positions == {"low", "high"}
        partners = {context.range_partner for context in contexts}
        assert None not in partners

    def test_opt_subquery_context(self):
        merged = merge_nodes(
            parse_select("SELECT a FROM t WHERE a IN (SELECT a FROM u)"),
            parse_select("SELECT a FROM t"),
        )
        context = choice_contexts(merged)[0]
        assert context.kind == "opt"
        assert context.alternative_kind == "subquery"
        assert context.wraps_subquery is True

    def test_select_clause_context(self, fig2_queries):
        forest = build_forest(fig2_queries, strategy="merged")
        contexts = choice_contexts(forest.trees[0])
        clauses = {context.clause for context in contexts}
        assert "select" in clauses

    def test_group_by_clause_context(self):
        merged = merge_nodes(
            parse_select("SELECT a, count(*) FROM t GROUP BY a"),
            parse_select("SELECT b, count(*) FROM t GROUP BY b"),
        )
        clauses = {context.clause for context in choice_contexts(merged)}
        assert "group_by" in clauses

    def test_in_list_context(self):
        merged = merge_nodes(
            parse_select("SELECT a FROM t WHERE region IN ('South')"),
            parse_select("SELECT a FROM t WHERE region IN ('Northeast')"),
        )
        context = choice_contexts(merged)[0]
        assert context.comparison_op == "in"
        assert context.target_attribute == "region"


class TestTreeProfiles:
    def test_profile_of_covid_overview(self, covid_catalog, covid_log):
        forest = build_forest(covid_log[:1], strategy="per_query")
        profile = tree_profile(forest.trees[0], 0, covid_catalog.schemas())
        schema = profile.query_profile.result_schema
        assert schema.column_names() == ["date", "total_cases"]
        assert schema.column("date").resolved_role() is AttributeRole.TEMPORAL
        assert schema.column("total_cases").resolved_role() is AttributeRole.QUANTITATIVE
        assert profile.choices == []

    def test_forest_schema_indexes_profiles(self, covid_catalog, covid_log):
        forest = build_forest(covid_log, strategy="clustered")
        schema = forest_schema(forest, covid_catalog.schemas())
        assert len(schema.profiles) == forest.tree_count
        for index, profile in enumerate(schema.profiles):
            assert profile.tree_index == index

    def test_profile_cache_reuse(self, covid_catalog, covid_log):
        forest = build_forest(covid_log, strategy="clustered")
        cache = TreeProfileCache()
        first = forest_schema(forest, covid_catalog.schemas(), profile_cache=cache)
        assert (cache.hits, cache.misses) == (0, forest.tree_count)
        second = forest_schema(forest, covid_catalog.schemas(), profile_cache=cache)
        assert (cache.hits, cache.misses) == (forest.tree_count, forest.tree_count)
        assert cache.stats()["entries"] == forest.tree_count
        assert [(p.query_profile, p.choices) for p in first.profiles] == [
            (p.query_profile, p.choices) for p in second.profiles
        ]
        assert all(a is b for a, b in zip(first.profiles, second.profiles))

    def test_range_pairs_accessor(self, sdss_log, sdss_catalog):
        forest = build_forest(sdss_log, strategy="merged")
        tree = forest.trees[0]
        for transformation in applicable_transformations(tree):
            if transformation.rule == "factor_common_root":
                tree = transformation(tree)
        profile = tree_profile(tree, 0, sdss_catalog.schemas())
        pairs = profile.range_pairs()
        assert len(pairs) == 2
        for low, high in pairs:
            assert low.range_position == "low"
            assert high.range_position == "high"
            assert low.target_attribute == high.target_attribute
