"""Unit tests for the Difftree node model and its helpers."""

from __future__ import annotations

import pytest

from repro.difftree.nodes import (
    AnyNode,
    OptNode,
    choice_node_by_id,
    collect_choice_nodes,
    count_choice_nodes,
    count_static_nodes,
    is_choice_node,
    parent_of,
)
from repro.errors import DifftreeError
from repro.sql.ast_nodes import ColumnRef, Literal
from repro.sql.parser import parse_select


class TestChoiceNodeBasics:
    def test_any_node_properties(self):
        node = AnyNode(alternatives=[Literal(1), Literal(2.5)])
        assert node.cardinality == 2
        assert node.is_literal_choice()
        assert node.is_numeric_literal_choice()
        assert node.literal_values() == [1, 2.5]
        assert is_choice_node(node)

    def test_text_literal_choice_is_not_numeric(self):
        node = AnyNode(alternatives=[Literal("a"), Literal("b")])
        assert node.is_literal_choice()
        assert not node.is_numeric_literal_choice()

    def test_boolean_literals_are_not_numeric(self):
        node = AnyNode(alternatives=[Literal(True), Literal(False)])
        assert not node.is_numeric_literal_choice()

    def test_column_choice(self):
        node = AnyNode(alternatives=[ColumnRef("a"), ColumnRef("b")])
        assert node.is_column_choice()
        assert not node.is_literal_choice()
        with pytest.raises(DifftreeError):
            node.literal_values()

    def test_choice_ids_are_unique_and_stable(self):
        first = AnyNode(alternatives=[Literal(1), Literal(2)])
        second = AnyNode(alternatives=[Literal(1), Literal(2)])
        assert first.choice_id != second.choice_id
        # Equality is structural: ids do not participate.
        assert first == second

    def test_explicit_choice_id_preserved(self):
        node = AnyNode(alternatives=[Literal(1)], choice_id="my_choice")
        assert node.choice_id == "my_choice"

    def test_opt_node_defaults(self):
        node = OptNode(child=Literal(1))
        assert node.default_on is True
        assert node.kind == "OptNode"


class TestTreeHelpers:
    def test_collect_and_count(self):
        query = parse_select("SELECT a FROM t WHERE a = 1")
        opt = OptNode(child=query.where)
        tree = query.with_children([query.select_items[0], query.from_clause, opt])
        choices = collect_choice_nodes(tree)
        assert [type(node) for node in choices] == [OptNode]
        assert count_choice_nodes(tree) == 1
        assert count_static_nodes(tree) == count_static_nodes(query)

    def test_choice_node_by_id(self):
        any_node = AnyNode(alternatives=[Literal(1), Literal(2)])
        assert choice_node_by_id(any_node, any_node.choice_id) is any_node
        with pytest.raises(DifftreeError):
            choice_node_by_id(any_node, "missing")

    def test_parent_of(self):
        query = parse_select("SELECT a FROM t WHERE a = 1")
        where = query.where
        assert parent_of(query, where) is query
        assert parent_of(query, query) is None

    def test_walk_includes_alternatives(self):
        node = AnyNode(alternatives=[Literal(1), ColumnRef("x")])
        kinds = {type(descendant).__name__ for descendant in node.walk()}
        assert kinds == {"AnyNode", "Literal", "ColumnRef"}
