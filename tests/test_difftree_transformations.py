"""Tests for Difftree transformation rules (Figure 3's factoring and friends)."""

from __future__ import annotations

import pytest

from repro.difftree import (
    AnyNode,
    OptNode,
    applicable_transformations,
    build_forest,
    can_factor,
    choice_contexts,
    collect_choice_nodes,
    covers,
    factor_common_root,
    find_binding_for,
    flatten_nested_any,
    inline_singleton_any,
    merge_nodes,
    normalize_difftree,
    parse_query_log,
)
from repro.errors import TransformationError
from repro.sql.ast_nodes import BinaryOp, ColumnRef, Literal
from repro.sql.parser import parse_select


class TestFactorCommonRoot:
    def test_figure3_a_to_b(self, fig2_queries):
        """Factoring the '=' above the ANY yields independent operand choices."""
        q1, q2 = parse_query_log(fig2_queries[:2])
        tree = merge_nodes(q1, q2)
        any_node = collect_choice_nodes(tree)[0]
        assert can_factor(any_node)

        factored = factor_common_root(tree, any_node.choice_id)
        contexts = choice_contexts(factored)
        kinds = sorted(context.alternative_kind for context in contexts)
        assert kinds == ["column", "numeric_literal"]

    def test_factored_tree_still_covers_inputs(self, fig2_queries):
        q1, q2 = parse_query_log(fig2_queries[:2])
        tree = merge_nodes(q1, q2)
        any_node = collect_choice_nodes(tree)[0]
        factored = factor_common_root(tree, any_node.choice_id)
        assert covers(factored, [q1, q2])

    def test_factored_tree_generalizes_beyond_inputs(self, fig2_queries):
        """Figure 3(b) can express SELECT p, count(*) WHERE b = 1 — 3(a) cannot."""
        q1, q2 = parse_query_log(fig2_queries[:2])
        unfactored = merge_nodes(q1, q2)
        any_node = collect_choice_nodes(unfactored)[0]
        factored = factor_common_root(unfactored, any_node.choice_id)
        generalized = parse_select("SELECT p, count(*) FROM t WHERE b = 1 GROUP BY p")
        assert find_binding_for(factored, generalized) is not None
        assert find_binding_for(unfactored, generalized) is None

    def test_identical_child_positions_stay_concrete(self):
        a = parse_select("SELECT x FROM t WHERE a = 1")
        b = parse_select("SELECT x FROM t WHERE a = 2")
        # Literal-only difference already merges in place; build an artificial
        # ANY over the predicates to factor instead.
        pred_a = a.where
        pred_b = b.where
        any_node = AnyNode(alternatives=[pred_a, pred_b])
        factored = factor_common_root(any_node, any_node.choice_id)
        assert isinstance(factored, BinaryOp)
        assert isinstance(factored.left, ColumnRef)  # the shared 'a' stays concrete
        assert isinstance(factored.right, AnyNode)

    def test_cannot_factor_mismatched_roots(self):
        any_node = AnyNode(
            alternatives=[
                parse_select("SELECT a FROM t").where or Literal(1),
                BinaryOp(op="<", left=ColumnRef("a"), right=Literal(2)),
            ]
        )
        assert not can_factor(any_node)
        with pytest.raises(TransformationError):
            factor_common_root(any_node, any_node.choice_id)

    def test_cannot_factor_leaf_alternatives(self):
        any_node = AnyNode(alternatives=[Literal(1), Literal(2)])
        assert not can_factor(any_node)

    def test_sdss_factoring_produces_range_pairs(self, sdss_log):
        forest = build_forest(sdss_log, strategy="merged")
        tree = forest.trees[0]
        for transformation in applicable_transformations(tree):
            if transformation.rule == "factor_common_root":
                tree = transformation(tree)
        contexts = choice_contexts(tree)
        range_members = [context for context in contexts if context.is_range_member]
        attributes = {context.target_attribute for context in range_members}
        assert attributes == {"ra", "dec"}
        assert covers(tree, forest.queries)


class TestCleanupRules:
    def test_inline_singleton_any(self):
        tree = AnyNode(alternatives=[Literal(1)])
        assert inline_singleton_any(tree) == Literal(1)

    def test_flatten_nested_any(self):
        nested = AnyNode(alternatives=[AnyNode(alternatives=[Literal(1), Literal(2)]), Literal(3)])
        flattened = flatten_nested_any(nested)
        assert isinstance(flattened, AnyNode)
        assert flattened.cardinality == 3

    def test_flatten_dedupes(self):
        nested = AnyNode(alternatives=[AnyNode(alternatives=[Literal(1), Literal(2)]), Literal(2)])
        assert flatten_nested_any(nested).cardinality == 2

    def test_normalize_combines_both(self):
        nested = AnyNode(alternatives=[AnyNode(alternatives=[Literal(1)])])
        assert normalize_difftree(nested) == Literal(1)


class TestApplicableTransformations:
    def test_enumeration_contains_factor_and_toggle(self, fig2_queries):
        """Factoring is offered; no rule flips an OPT default (the tree has one OPT)."""
        forest = build_forest(fig2_queries, strategy="merged")
        assert any(isinstance(node, OptNode) for node in collect_choice_nodes(forest.trees[0]))
        rules = {t.rule for t in applicable_transformations(forest.trees[0])}
        assert rules == {"factor_common_root"}

    def test_no_transformations_for_choice_free_tree(self):
        tree = parse_select("SELECT a FROM t")
        assert applicable_transformations(tree) == []

    def test_transformation_describe(self, fig2_queries):
        q1, q2 = parse_query_log(fig2_queries[:2])
        tree = merge_nodes(q1, q2)
        transformation = applicable_transformations(tree)[0]
        assert "@" in transformation.describe()
