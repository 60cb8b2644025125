"""Property-based tests (hypothesis) for core invariants.

Three families of invariants:

* SQL front-end: printing then re-parsing any generated AST is the identity;
* Difftrees: merging any two generated queries yields a tree that covers both
  and whose default instantiation is a valid query, and no merge or factoring
  builds a nested or single-alternative ANY;
* Engine: WHERE never adds rows, LIMIT bounds row counts, aggregates match a
  reference computation.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.difftree import (
    AnyNode,
    applicable_transformations,
    collect_choice_nodes,
    covers,
    default_bindings,
    instantiate,
    merge_nodes,
)
from repro.engine.catalog import Catalog
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    FunctionCall,
    Literal,
    Select,
    SelectItem,
    Star,
    TableRef,
)
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

# --------------------------------------------------------------------------- #
# Strategies: random small SELECT ASTs over the toy table t(p, a, b)
# --------------------------------------------------------------------------- #

COLUMNS = ("p", "a", "b")

column_refs = st.sampled_from(COLUMNS).map(lambda name: ColumnRef(name=name))
int_literals = st.integers(min_value=-5, max_value=5).map(Literal)
text_literals = st.sampled_from(["x", "y", "South"]).map(Literal)
literals = st.one_of(int_literals, text_literals)

comparison_ops = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


@st.composite
def predicates(draw, depth: int = 0):
    if depth >= 2 or draw(st.booleans()):
        return BinaryOp(
            op=draw(comparison_ops), left=draw(column_refs), right=draw(int_literals)
        )
    return BinaryOp(
        op=draw(st.sampled_from(["AND", "OR"])),
        left=draw(predicates(depth=depth + 1)),
        right=draw(predicates(depth=depth + 1)),
    )


@st.composite
def select_queries(draw):
    group_column = draw(st.sampled_from(COLUMNS))
    aggregate = draw(st.booleans())
    items = [SelectItem(expr=ColumnRef(group_column))]
    group_by: list = []
    if aggregate:
        items.append(SelectItem(expr=FunctionCall(name="count", args=[Star()])))
        group_by = [ColumnRef(group_column)]
    else:
        extra = draw(st.sampled_from(COLUMNS))
        if extra != group_column:
            items.append(SelectItem(expr=ColumnRef(extra)))
    where = draw(st.one_of(st.none(), predicates()))
    return Select(
        select_items=items,
        from_clause=TableRef("t"),
        where=where,
        group_by=group_by,
    )


#: An equality filter over two columns and two values, so that edits often
#: share an operand: merging ``a = 1``, ``a = 2`` and ``b = 2`` builds an ANY
#: whose factoring meets an ANY in a column.
equality_filters = st.builds(
    lambda column, value: BinaryOp(op="=", left=ColumnRef(column), right=Literal(value)),
    st.sampled_from(["a", "b"]),
    st.integers(min_value=1, max_value=2),
)


@st.composite
def filter_edits(draw):
    """3-4 queries that differ only in an equality filter, as filter edits in a notebook do."""
    return [
        Select(
            select_items=[SelectItem(expr=ColumnRef("p")), SelectItem(expr=FunctionCall(name="count", args=[Star()]))],
            from_clause=TableRef("t"),
            where=where,
            group_by=[ColumnRef("p")],
        )
        for where in draw(st.lists(equality_filters, min_size=3, max_size=4))
    ]


def make_toy_catalog() -> Catalog:
    catalog = Catalog()
    rows = [[p, a, b] for p in range(1, 4) for a in range(0, 3) for b in range(0, 3)]
    catalog.create_table("t", ["p", "a", "b"], rows)
    return catalog


TOY_CATALOG = make_toy_catalog()


# --------------------------------------------------------------------------- #
# SQL front-end invariants
# --------------------------------------------------------------------------- #


class TestSqlRoundTripProperties:
    @SETTINGS
    @given(select_queries())
    def test_print_parse_identity(self, query):
        assert parse_select(to_sql(query)) == query

    @SETTINGS
    @given(select_queries())
    def test_printing_is_idempotent(self, query):
        once = to_sql(query)
        assert to_sql(parse_select(once)) == once


# --------------------------------------------------------------------------- #
# Difftree invariants
# --------------------------------------------------------------------------- #


class TestDifftreeProperties:
    @SETTINGS
    @given(select_queries(), select_queries())
    def test_merge_covers_both_inputs(self, first, second):
        merged = merge_nodes(first, second)
        assert covers(merged, [first, second])

    @SETTINGS
    @given(select_queries(), select_queries())
    def test_default_instantiation_is_valid_sql(self, first, second):
        merged = merge_nodes(first, second)
        query = instantiate(merged, default_bindings(merged))
        assert isinstance(query, Select)
        assert parse_select(to_sql(query)) == query

    @SETTINGS
    @given(select_queries())
    def test_self_merge_is_identity(self, query):
        merged = merge_nodes(query, query)
        assert merged == query
        assert collect_choice_nodes(merged) == ()

    @SETTINGS
    @given(st.one_of(st.lists(select_queries(), min_size=2, max_size=4), filter_edits()))
    def test_merges_and_factorings_are_normalized(self, queries):
        """No merge or factoring builds an ANY with an ANY alternative or fewer than two."""
        trees, built = [queries[0]], []
        # Merge each query in, as the search does, into the running tree and
        # into each factoring of it.
        for query in queries[1:]:
            merged = [merge_nodes(tree, query) for tree in trees]
            trees = merged + [apply(tree) for tree in merged for apply in applicable_transformations(tree)]
            built += trees
        for tree in built:
            for node in tree.walk():
                if isinstance(node, AnyNode):
                    assert node.cardinality >= 2
                    assert not any(isinstance(alternative, AnyNode) for alternative in node.alternatives)

    @SETTINGS
    @given(select_queries(), select_queries())
    def test_merge_executes_against_engine(self, first, second):
        merged = merge_nodes(first, second)
        query = instantiate(merged, default_bindings(merged))
        result = TOY_CATALOG.execute(query)
        assert result.columns


# --------------------------------------------------------------------------- #
# Engine invariants
# --------------------------------------------------------------------------- #


class TestEngineProperties:
    @SETTINGS
    @given(predicates())
    def test_where_never_adds_rows(self, predicate):
        base = TOY_CATALOG.execute("SELECT p, a, b FROM t")
        filtered = TOY_CATALOG.execute(
            Select(
                select_items=[SelectItem(expr=Star())],
                from_clause=TableRef("t"),
                where=predicate,
            )
        )
        assert filtered.row_count <= base.row_count

    @SETTINGS
    @given(st.integers(min_value=0, max_value=40))
    def test_limit_bounds_rows(self, limit):
        result = TOY_CATALOG.execute(f"SELECT p FROM t LIMIT {limit}")
        assert result.row_count == min(limit, 27)

    @SETTINGS
    @given(st.sampled_from(COLUMNS))
    def test_sum_and_count_match_reference(self, column):
        result = TOY_CATALOG.execute(f"SELECT sum({column}), count({column}) FROM t")
        values = TOY_CATALOG.table("t").column(column)
        assert result.rows[0][0] == sum(values)
        assert result.rows[0][1] == len(values)

    @SETTINGS
    @given(st.sampled_from(COLUMNS), predicates())
    def test_group_counts_sum_to_filtered_total(self, column, predicate):
        filtered = TOY_CATALOG.execute(
            Select(
                select_items=[SelectItem(expr=Star())],
                from_clause=TableRef("t"),
                where=predicate,
            )
        )
        grouped = TOY_CATALOG.execute(
            Select(
                select_items=[
                    SelectItem(expr=ColumnRef(column)),
                    SelectItem(expr=FunctionCall(name="count", args=[Star()]), alias="n"),
                ],
                from_clause=TableRef("t"),
                where=predicate,
                group_by=[ColumnRef(column)],
            )
        )
        assert sum(row[1] for row in grouped.rows) == filtered.row_count

    @SETTINGS
    @given(st.sampled_from(COLUMNS))
    def test_avg_matches_reference(self, column):
        result = TOY_CATALOG.execute(f"SELECT avg({column}) FROM t")
        values = TOY_CATALOG.table("t").column(column)
        assert math.isclose(result.rows[0][0], sum(values) / len(values))

    @SETTINGS
    @given(st.sampled_from(COLUMNS))
    def test_order_by_sorts(self, column):
        result = TOY_CATALOG.execute(f"SELECT {column} FROM t ORDER BY {column}")
        values = [row[0] for row in result.rows]
        assert values == sorted(values)
