"""Tests for Difftree construction: merging, choice nodes, forests.

These tests follow the worked examples of Section 2 of the paper (Figures
2-5) using the toy queries Q1-Q3.
"""

from __future__ import annotations

import pytest

from repro.difftree import (
    AnyNode,
    OptNode,
    build_forest,
    choice_contexts,
    collect_choice_nodes,
    covers,
    find_binding_for,
    merge_nodes,
    merge_query_sequence,
    parse_query_log,
    similarity_matrix,
    structural_similarity,
)
from repro.errors import MergeError
from repro.sql.parser import parse_select


class TestPairwiseMerge:
    def test_identical_queries_add_no_choices(self):
        q = parse_select("SELECT a FROM t WHERE a = 1")
        merged = merge_nodes(q, q)
        assert merged == q
        assert collect_choice_nodes(merged) == ()

    def test_figure3a_predicate_choice(self, fig2_queries):
        """Q1/Q2 differ in both predicate operands → one ANY over whole predicates."""
        q1, q2 = parse_query_log(fig2_queries[:2])
        merged = merge_nodes(q1, q2)
        choices = collect_choice_nodes(merged)
        assert len(choices) == 1
        assert isinstance(choices[0], AnyNode)
        assert choices[0].cardinality == 2
        context = choice_contexts(merged)[0]
        assert context.clause == "where"
        assert context.alternative_kind == "predicate"

    def test_literal_only_difference_merges_in_place(self, fig5_queries):
        """Q1/Q2 of Figure 5 differ only in the literal → a = ANY(1, 2)."""
        q1, q2 = parse_query_log(fig5_queries[:2])
        merged = merge_nodes(q1, q2)
        contexts = choice_contexts(merged)
        assert len(contexts) == 1
        assert contexts[0].alternative_kind == "numeric_literal"
        assert contexts[0].target_attribute == "a"
        assert contexts[0].comparison_op == "="
        assert contexts[0].literal_values == (1, 2)

    def test_missing_where_becomes_opt(self):
        with_where = parse_select("SELECT a FROM t WHERE a = 1")
        without = parse_select("SELECT a FROM t")
        merged = merge_nodes(with_where, without)
        choices = collect_choice_nodes(merged)
        assert len(choices) == 1
        assert isinstance(choices[0], OptNode)

    def test_extra_conjunct_becomes_opt(self):
        base = parse_select("SELECT a FROM t WHERE a = 1")
        extended = parse_select("SELECT a FROM t WHERE a = 1 AND b = 2")
        merged = merge_nodes(base, extended)
        choices = collect_choice_nodes(merged)
        assert len(choices) == 1
        assert isinstance(choices[0], OptNode)
        assert covers(merged, [base, extended])

    def test_extra_select_item_becomes_opt(self):
        narrow = parse_select("SELECT date, sum(cases) FROM c GROUP BY date")
        wide = parse_select("SELECT date, state, sum(cases) FROM c GROUP BY date, state")
        merged = merge_nodes(narrow, wide)
        kinds = {type(node) for node in collect_choice_nodes(merged)}
        assert OptNode in kinds

    def test_different_limits_fall_back_to_query_choice(self):
        q1 = parse_select("SELECT a FROM t LIMIT 5")
        q2 = parse_select("SELECT a FROM t LIMIT 10")
        merged = merge_nodes(q1, q2)
        assert isinstance(merged, AnyNode)
        assert covers(merged, [q1, q2])

    def test_merging_text_literals(self):
        south = parse_select("SELECT a FROM t WHERE region = 'South'")
        northeast = parse_select("SELECT a FROM t WHERE region = 'Northeast'")
        merged = merge_nodes(south, northeast)
        context = choice_contexts(merged)[0]
        assert context.alternative_kind == "text_literal"
        assert set(context.literal_values) == {"South", "Northeast"}

    def test_three_way_merge_dedupes_alternatives(self):
        queries = parse_query_log(
            [
                "SELECT a FROM t WHERE region = 'South'",
                "SELECT a FROM t WHERE region = 'Northeast'",
                "SELECT a FROM t WHERE region = 'South'",
            ]
        )
        merged = merge_query_sequence(queries)
        choice = collect_choice_nodes(merged)[0]
        assert isinstance(choice, AnyNode)
        assert choice.cardinality == 2

    def test_empty_sequence_raises(self):
        with pytest.raises(MergeError):
            merge_query_sequence([])


class TestFigure4:
    def test_merged_tree_covers_all_three_queries(self, fig2_queries):
        forest = build_forest(fig2_queries, strategy="merged")
        assert forest.tree_count == 1
        tree = forest.trees[0]
        assert covers(tree, forest.queries)
        contexts = choice_contexts(tree)
        kinds = {context.kind for context in contexts}
        # Figure 4: an ANY in the SELECT clause and an OPT for the WHERE clause.
        assert "any" in kinds
        assert "opt" in kinds
        clauses = {context.clause for context in contexts}
        assert "select" in clauses
        assert "where" in clauses


class TestForests:
    def test_per_query_strategy(self, fig2_queries):
        forest = build_forest(fig2_queries, strategy="per_query")
        assert forest.tree_count == 3
        assert forest.members == [[0], [1], [2]]
        assert forest.choice_count() == 0
        assert forest.covers_all()

    def test_clustered_strategy_groups_similar_queries(self, fig2_queries):
        forest = build_forest(fig2_queries, strategy="clustered")
        assert forest.members[0] == [0, 1]
        assert forest.covers_all()

    def test_merge_trees_action(self, fig2_queries):
        forest = build_forest(fig2_queries, strategy="per_query")
        merged = forest.merge_trees(0, 1)
        assert merged.tree_count == 2
        assert merged.members[0] == [0, 1]
        # The original forest is unchanged (merge returns a copy).
        assert forest.tree_count == 3

    def test_merge_trees_bad_indices(self, fig2_queries):
        forest = build_forest(fig2_queries, strategy="per_query")
        with pytest.raises(MergeError):
            forest.merge_trees(0, 0)
        with pytest.raises(MergeError):
            forest.merge_trees(0, 9)

    def test_unknown_strategy(self, fig2_queries):
        with pytest.raises(MergeError):
            build_forest(fig2_queries, strategy="bogus")

    def test_empty_log(self):
        with pytest.raises(MergeError):
            build_forest([])

    def test_signature_distinguishes_structures(self, fig2_queries):
        forest = build_forest(fig2_queries, strategy="per_query")
        assert forest.signature() != forest.merge_trees(0, 1).signature()


class TestSimilarity:
    def test_similarity_bounds_and_symmetry(self, fig2_queries):
        matrix = similarity_matrix(fig2_queries)
        for i, row in enumerate(matrix):
            assert row[i] == 1.0
            for j, value in enumerate(row):
                assert 0.0 <= value <= 1.0
                assert value == pytest.approx(matrix[j][i])

    def test_similar_queries_score_higher(self, fig2_queries):
        q1, q2, q3 = parse_query_log(fig2_queries)
        assert structural_similarity(q1, q2) > structural_similarity(q2, q3)

    def test_coverage_of_sdss_log(self, sdss_log):
        forest = build_forest(sdss_log, strategy="merged")
        assert covers(forest.trees[0], forest.queries)

    def test_find_binding_reproduces_specific_query(self, fig2_queries):
        forest = build_forest(fig2_queries[:2], strategy="merged")
        target = parse_query_log(fig2_queries[:1])[0]
        binding = find_binding_for(forest.trees[0], target)
        assert binding is not None
