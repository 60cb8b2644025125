"""Tests for Difftree instantiation, bindings and coverage."""

from __future__ import annotations

import itertools

import pytest

from repro.cost.expressiveness import forest_covered_count
from repro.difftree import (
    AnyNode,
    OptNode,
    binding_space_size,
    build_forest,
    collect_choice_nodes,
    covers,
    default_bindings,
    enumerate_bindings,
    expressiveness_ratio,
    find_binding_for,
    instantiate,
    merge_nodes,
    parse_query_log,
)
from repro.errors import BindingError, DifftreeError
from repro.sql.ast_nodes import Literal, Select
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql
from repro.sql.visitor import transform


@pytest.fixture()
def literal_tree():
    q1 = parse_select("SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p")
    q2 = parse_select("SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p")
    return merge_nodes(q1, q2), q1, q2


@pytest.fixture()
def opt_tree():
    q1 = parse_select("SELECT a FROM t")
    q2 = parse_select("SELECT a FROM t WHERE a = 1 AND b = 2")
    return merge_nodes(q1, q2), q1, q2


class TestBindings:
    def test_default_bindings_select_first_alternative(self, literal_tree):
        tree, q1, _q2 = literal_tree
        assert instantiate(tree, default_bindings(tree)) == q1

    def test_explicit_index_binding(self, literal_tree):
        tree, _q1, q2 = literal_tree
        choice = collect_choice_nodes(tree)[0]
        assert instantiate(tree, {choice.choice_id: 1}) == q2

    def test_literal_value_binding_generalizes(self, literal_tree):
        """A slider/brush can bind values never seen in the input queries."""
        tree, _q1, _q2 = literal_tree
        choice = collect_choice_nodes(tree)[0]
        query = instantiate(tree, {choice.choice_id: 42})
        assert "a = 42" in to_sql(query)

    def test_invalid_index_raises(self, literal_tree):
        tree, _q1, _q2 = literal_tree
        choice = collect_choice_nodes(tree)[0]
        with pytest.raises(BindingError):
            # A non-literal binding value that is not an index: booleans are
            # rejected explicitly to avoid the int/bool confusion.
            instantiate(tree, {choice.choice_id: True})

    def test_out_of_range_index_on_non_literal_choice_raises(self, fig2_queries):
        tree = build_forest(fig2_queries[:2], strategy="merged").trees[0]
        choice = collect_choice_nodes(tree)[0]
        assert isinstance(choice, AnyNode)
        with pytest.raises(BindingError):
            instantiate(tree, {choice.choice_id: 7})

    def test_opt_binding_toggles_conjunct(self, opt_tree):
        tree, q1, q2 = opt_tree
        opts = [node for node in collect_choice_nodes(tree) if isinstance(node, OptNode)]
        all_on = {opt.choice_id: True for opt in opts}
        all_off = {opt.choice_id: False for opt in opts}
        assert instantiate(tree, all_on) == q2
        assert instantiate(tree, all_off) == q1

    def test_binding_space_size(self, opt_tree):
        tree, _q1, _q2 = opt_tree
        opts = collect_choice_nodes(tree)
        assert binding_space_size(tree) == 2 ** len(opts)

    def test_enumerate_bindings_respects_limit(self, opt_tree):
        tree, _q1, _q2 = opt_tree
        assert len(list(enumerate_bindings(tree))) == binding_space_size(tree)


class TestInstantiationStructure:
    def test_instantiation_always_yields_select(self, fig2_queries):
        tree = build_forest(fig2_queries, strategy="merged").trees[0]
        for bindings in itertools.islice(enumerate_bindings(tree), 64):
            query = instantiate(tree, bindings)
            assert isinstance(query, Select)
            # Every instantiation must be printable, re-parseable SQL.
            assert parse_select(to_sql(query)) == query

    def test_opt_off_removes_where_clause(self):
        with_where = parse_select("SELECT a FROM t WHERE a = 1")
        without = parse_select("SELECT a FROM t")
        tree = merge_nodes(with_where, without)
        opt = collect_choice_nodes(tree)[0]
        assert instantiate(tree, {opt.choice_id: False}) == without

    def test_removing_all_select_items_raises(self):
        tree = Select(select_items=[], from_clause=None)
        # Build a pathological tree whose only select item is an OPT.
        from repro.sql.ast_nodes import SelectItem, ColumnRef, TableRef

        opt = OptNode(child=SelectItem(expr=ColumnRef("a")), default_on=True)
        tree = Select(select_items=[opt], from_clause=TableRef("t"))
        with pytest.raises(BindingError):
            instantiate(tree, {opt.choice_id: False})

    def test_any_requires_alternatives(self):
        with pytest.raises(DifftreeError):
            AnyNode(alternatives=[])

    def test_opt_requires_child(self):
        with pytest.raises(DifftreeError):
            OptNode(child=None)


class TestCoverage:
    def test_expressiveness_ratio_full(self, fig2_queries):
        forest = build_forest(fig2_queries, strategy="merged")
        assert expressiveness_ratio(forest.trees[0], forest.queries) == 1.0

    def test_expressiveness_ratio_partial(self, fig2_queries):
        queries = parse_query_log(fig2_queries)
        pair_tree = merge_nodes(queries[0], queries[1])
        ratio = expressiveness_ratio(pair_tree, queries)
        assert 0.0 < ratio < 1.0

    def test_find_binding_for_unreachable_query(self):
        tree = parse_select("SELECT a FROM t")
        target = parse_select("SELECT b FROM t")
        assert find_binding_for(tree, target) is None

    def test_covid_forest_covers_log(self, covid_log):
        forest = build_forest(covid_log, strategy="clustered")
        assert forest.covers_all()

    def test_covers_all_agrees_with_the_cost_model_on_literal_types(self):
        """``1000`` and ``1000.0`` merge into one tree, which renders only the first."""
        forest = build_forest(
            [
                "SELECT date FROM covid_cases WHERE cases > 1000",
                "SELECT date FROM covid_cases WHERE cases > 1000.0",
            ],
            strategy="merged",
        )
        assert forest.tree_count == 1 and forest.choice_count() == 0
        assert forest_covered_count(forest) == 1
        assert not forest.covers_all()

    def test_find_binding_for_tells_an_integer_from_a_boolean(self):
        tree = parse_select("SELECT date FROM covid_cases WHERE cases = 1")
        assert find_binding_for(tree, parse_select("SELECT date FROM covid_cases WHERE cases = TRUE")) is None
        assert find_binding_for(tree, parse_select("SELECT date FROM covid_cases WHERE cases = 1")) == {}

    def test_find_binding_for_has_no_enumeration_limit(self):
        """The last of 5000 literal alternatives lies past any fixed cap on bindings tried."""
        choice = AnyNode(alternatives=[Literal(value) for value in range(5000)])
        tree = transform(
            parse_select("SELECT a FROM t WHERE x = 0"),
            lambda node: choice if isinstance(node, Literal) else None,
        )
        target = parse_select("SELECT a FROM t WHERE x = 4999")
        assert find_binding_for(tree, target) == {choice.choice_id: 4999}
        assert covers(tree, [target, parse_select("SELECT a FROM t WHERE x = 0")])
        assert expressiveness_ratio(tree, [target, parse_select("SELECT a FROM t WHERE x = 5000")]) == 0.5
