"""Tests for Difftree transformation rules (Figure 3's factoring and friends)."""

from __future__ import annotations

import pytest

from repro.datasets import (
    covid_query_log,
    covid_region_variant_queries,
    sdss_extended_query_log,
    sdss_query_log,
    sp500_query_log,
    sp500_window_query_log,
)
from repro.difftree import (
    AnyNode,
    OptNode,
    applicable_transformations,
    build_forest,
    can_factor,
    choice_contexts,
    choice_node_by_id,
    collect_choice_nodes,
    covers,
    factor_common_root,
    find_binding_for,
    merge_nodes,
    merge_query_sequence,
    parse_query_log,
)
from repro.errors import TransformationError
from repro.search.space import SearchSpace
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


#: The paper logs: every query log the datasets ship.
PAPER_LOGS = {
    "covid": covid_query_log(),
    "covid_v3": covid_query_log() + [covid_region_variant_queries()[1]],
    "covid_region_variants": covid_region_variant_queries(),
    "sdss": sdss_query_log(),
    "sdss_extended": sdss_extended_query_log(),
    "sp500": sp500_query_log(),
    "sp500_window": sp500_window_query_log(),
}


def assert_normalized(tree):
    """No ANY in ``tree`` has an ANY alternative or fewer than two alternatives."""
    for node in tree.walk():
        if isinstance(node, AnyNode):
            assert node.cardinality >= 2, f"single-alternative ANY: {node!r}"
            assert not any(isinstance(alt, AnyNode) for alt in node.alternatives), f"nested ANY: {node!r}"


def merged_trees(queries):
    """Every pairwise merge of ``queries`` and every prefix of their running merge."""
    for first in range(len(queries)):
        for second in range(first + 1, len(queries)):
            yield merge_nodes(queries[first], queries[second])
    running = queries[0]
    for query in queries[1:]:
        running = merge_nodes(running, query)
        yield running


class TestNormalizedByConstruction:
    """Merges and factorings never build a nested or single-alternative ANY."""

    @pytest.mark.parametrize("log_name", sorted(PAPER_LOGS))
    def test_merges_and_factorings_on_paper_logs(self, log_name):
        for tree in merged_trees(parse_query_log(PAPER_LOGS[log_name])):
            assert_normalized(tree)
            # Every applicable factoring, and every factoring of its result.
            for transformation in applicable_transformations(tree):
                once = factor_common_root(tree, transformation.choice_id)
                assert_normalized(once)
                for again in applicable_transformations(once):
                    assert_normalized(factor_common_root(once, again.choice_id))

    @pytest.mark.parametrize("log_name", sorted(PAPER_LOGS))
    def test_every_tree_the_search_can_reach(self, log_name):
        """Every tree of every forest the search's actions reach within MCTS's depth.

        Factoring a tree that merged a factored tree is where a column holds
        an ANY; the covid and sdss-extended logs get there.
        """
        space = SearchSpace(PAPER_LOGS[log_name], table_schemas={})
        frontier = [space.initial_state]
        seen = {space.initial_state.signature()}
        spliced = 0
        for _ in range(6):
            successors = []
            for forest in frontier:
                for action in space.actions(forest):
                    if action.kind == "transform":
                        choice_id = action.description.rpartition("@")[2]
                        node = choice_node_by_id(forest.trees[action.touched[0]], choice_id)
                        columns = [child for alternative in node.alternatives for child in alternative.children()]
                        spliced += any(isinstance(child, AnyNode) for child in columns)
                    successor = space.apply(forest, action)
                    if successor.signature() not in seen:
                        seen.add(successor.signature())
                        successors.append(successor)
                        for tree in successor.trees:
                            assert_normalized(tree)
            frontier = successors
        if log_name in ("covid", "covid_v3", "sdss_extended"):
            assert spliced > 0

    @pytest.mark.parametrize("strategy", ["per_query", "merged", "clustered"])
    @pytest.mark.parametrize("log_name", sorted(PAPER_LOGS))
    def test_forests_on_paper_logs(self, log_name, strategy):
        for tree in build_forest(PAPER_LOGS[log_name], strategy=strategy).trees:
            assert_normalized(tree)

    def test_merging_into_an_any_splices_its_alternatives(self):
        left = AnyNode(alternatives=[Literal(1), Literal(2)])
        merged = merge_nodes(left, AnyNode(alternatives=[Literal(2), Literal(3)]))
        assert merged == AnyNode(alternatives=[Literal(1), Literal(2), Literal(3)])


class TestNestedAnyFactoring:
    """Factoring an ANY whose column holds an ANY splices that ANY's alternatives.

    The expected trees are those the removed ``normalize_difftree`` post-pass
    produced from ``factor_common_root`` (``ANY(ANY(1, 2), 3)`` flattened to
    ``ANY(1, 2, 3)``), so dropping the pass changed no tree.
    """

    @staticmethod
    def factored(third_predicate):
        queries = parse_query_log(
            [
                "SELECT x FROM t WHERE a = 1",
                "SELECT x FROM t WHERE a = 2",
                f"SELECT x FROM t WHERE {third_predicate}",
            ]
        )
        tree = merge_query_sequence(queries)
        # ANY(a = ANY(1, 2), b = ...): both operands differ, so the merge keeps
        # whole predicates, and the literal column of a factoring holds ANY(1, 2).
        assert isinstance(tree.where, AnyNode)
        assert isinstance(tree.where.alternatives[0].right, AnyNode)
        (transformation,) = applicable_transformations(tree)
        return factor_common_root(tree, transformation.choice_id), queries

    def test_column_any_is_spliced(self):
        factored, queries = self.factored("b = 3")
        assert factored.where == BinaryOp(
            op="=",
            left=AnyNode(alternatives=[ColumnRef("a"), ColumnRef("b")]),
            right=AnyNode(alternatives=[Literal(1), Literal(2), Literal(3)]),
        )
        assert_normalized(factored)
        assert covers(factored, queries)

    def test_spliced_alternatives_are_deduplicated(self):
        factored, queries = self.factored("b = 2")
        assert factored.where == BinaryOp(
            op="=",
            left=AnyNode(alternatives=[ColumnRef("a"), ColumnRef("b")]),
            right=AnyNode(alternatives=[Literal(1), Literal(2)]),
        )
        assert covers(factored, queries)

    def test_spliced_any_takes_a_fresh_choice_id(self):
        factored, _ = self.factored("b = 3")
        inner_ids = {node.choice_id for node in collect_choice_nodes(factored)}
        assert len(inner_ids) == 2


class TestApplicableTransformations:
    def test_enumeration_contains_factor_and_toggle(self, fig2_queries):
        """Factoring is offered; no rule flips an OPT default (the tree has one OPT)."""
        forest = build_forest(fig2_queries, strategy="merged")
        assert any(isinstance(node, OptNode) for node in collect_choice_nodes(forest.trees[0]))
        rules = {t.rule for t in applicable_transformations(forest.trees[0])}
        assert rules == {"factor_common_root"}

    def test_enumeration_allocates_no_choice_id(self, fig2_queries):
        """Asking whether factoring applies builds no factored node (Fig. 3's merged tree)."""
        q1, q2 = parse_query_log(fig2_queries[:2])
        tree = merge_nodes(q1, q2)
        before = AnyNode(alternatives=[Literal(1)])
        assert applicable_transformations(tree)
        after = AnyNode(alternatives=[Literal(1)])

        def number(node):
            return int(node.choice_id.removeprefix("any_"))

        assert number(after) == number(before) + 1

    def test_no_transformations_for_choice_free_tree(self):
        tree = parse_select("SELECT a FROM t")
        assert applicable_transformations(tree) == []

    def test_transformation_describe(self, fig2_queries):
        q1, q2 = parse_query_log(fig2_queries[:2])
        tree = merge_nodes(q1, q2)
        transformation = applicable_transformations(tree)[0]
        assert "@" in transformation.describe()
