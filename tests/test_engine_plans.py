"""EXPLAIN-style snapshot tests for logical → physical plan lowering.

These tests pin the operator pipeline the *lowerer* produces from a verbatim
logical plan (``explain(..., options=ExecOptions(optimize=False))``): hash
joins with extracted equi-keys (and residual predicates), vectorized nested
loops for non-equi conditions, hash aggregation with HAVING above it, CTE
materialization, correlated-subquery filters and set operations.  Snapshots
of the shapes the logical optimizer rewrites plans into live in
``test_optimizer_rules.py``.
"""

from __future__ import annotations

import pytest

from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.options import ExecOptions
from repro.engine.plan_nodes import (
    FilterExec,
    HashAggregateExec,
    JoinExec,
    ProjectExec,
    ScanExec,
    SetOpExec,
)
from repro.sql.parser import parse


@pytest.fixture()
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table(
        "sales",
        ["region", "product", "amount", "quantity"],
        [["east", "apple", 100, 10], ["west", "banana", 50, 5]],
    )
    cat.create_table("regions", ["region", "manager"], [["east", "alice"]])
    return cat


class TestJoinLowering:
    def test_equi_join_lowered_to_hash_join_with_residual(self, catalog):
        plan = catalog.explain(
            "SELECT s.product, r.manager FROM sales s "
            "JOIN regions r ON s.region = r.region AND s.amount > 10",
            physical=True,
            options=ExecOptions(optimize=False),
        )
        assert plan == (
            "Project(s.product, r.manager)\n"
            "  HashJoin(INNER, keys=[s.region = r.region], residual=s.amount > 10)\n"
            "    SeqScan(sales AS s)\n"
            "    SeqScan(regions AS r)"
        )

    def test_expression_keys_are_hashable_too(self, catalog):
        plan = catalog.explain(
            "SELECT s.product FROM sales s LEFT JOIN regions r "
            "ON upper(s.region) = upper(r.region)",
            physical=True,
            options=ExecOptions(optimize=False),
        )
        assert "HashJoin(LEFT, keys=[upper(s.region) = upper(r.region)])" in plan

    def test_non_equi_join_falls_back_to_nested_loop(self, catalog):
        plan = catalog.explain(
            "SELECT s.product FROM sales s JOIN regions r ON s.amount > 10",
            physical=True,
            options=ExecOptions(optimize=False),
        )
        assert "NestedLoopJoin(INNER, on=s.amount > 10)" in plan

    def test_using_join_is_hash_joined(self, catalog):
        plan = catalog.explain(
            "SELECT manager FROM sales JOIN regions USING (region)", physical=True
        )
        assert "HashJoin(INNER, using=['region'])" in plan

    def test_ambiguous_unqualified_key_stays_in_nested_loop(self, catalog):
        # 'region' exists on both sides, so the equality cannot be assigned a
        # side at compile time and must stay a residual condition.
        plan = catalog.explain(
            "SELECT product FROM sales JOIN regions ON region = manager",
            physical=True,
            options=ExecOptions(optimize=False),
        )
        assert "NestedLoopJoin" in plan

    def test_logical_join_plan_unchanged(self, catalog):
        plan = catalog.explain(
            "SELECT s.product FROM sales s JOIN regions r ON s.region = r.region"
        )
        assert plan == (
            "Project(s.product)\n"
            "  Join(INNER, on=s.region = r.region)\n"
            "    Scan(sales AS s)\n"
            "    Scan(regions AS r)"
        )


class TestAggregateLowering:
    def test_grouped_aggregate_pipeline(self, catalog):
        plan = catalog.explain(
            "SELECT region, count(*) AS n FROM sales WHERE amount > 10 "
            "GROUP BY region HAVING count(*) >= 1 ORDER BY n DESC LIMIT 2",
            physical=True,
            options=ExecOptions(optimize=False),
        )
        assert plan == (
            "Limit(limit=2, offset=None)\n"
            "  Sort(n DESC)\n"
            "    Project(region, count(*) AS n)\n"
            "      Filter[having](count(*) >= 1)\n"
            "        HashAggregate(group_by=[region], aggregates=[count(*)])\n"
            "          Filter[where](amount > 10)\n"
            "            SeqScan(sales)"
        )

    def test_order_by_aggregate_is_planned_into_the_aggregate(self, catalog):
        # Aggregates appearing only in ORDER BY must still be computed by the
        # aggregation operator (they are not in the SELECT list).
        physical = Executor(catalog).compile(
            parse("SELECT region FROM sales GROUP BY region ORDER BY sum(amount)")
        )
        aggregate = next(
            node for node in physical.walk() if isinstance(node, HashAggregateExec)
        )
        assert [str(call.name) for call in aggregate.aggregates] == ["sum"]

    def test_aggregate_inside_subquery_does_not_group_outer_query(self, catalog):
        physical = Executor(catalog).compile(
            parse("SELECT product FROM sales WHERE amount > (SELECT avg(amount) FROM sales)")
        )
        assert not any(isinstance(node, HashAggregateExec) for node in physical.walk())

    def test_star_projection_disallowed_above_aggregate(self, catalog):
        physical = Executor(catalog).compile(
            parse("SELECT region, count(*) FROM sales GROUP BY region")
        )
        project = next(node for node in physical.walk() if isinstance(node, ProjectExec))
        assert project.allow_star is False
        plain = Executor(catalog).compile(parse("SELECT * FROM sales"))
        project = next(node for node in plain.walk() if isinstance(node, ProjectExec))
        assert project.allow_star is True


class TestSubqueryAndCteLowering:
    def test_correlated_subquery_stays_in_filter_predicate(self, catalog):
        plan = catalog.explain(
            "SELECT s.product FROM sales s WHERE s.amount >= "
            "(SELECT max(s2.amount) FROM sales s2 WHERE s2.region = s.region)",
            physical=True,
            options=ExecOptions(optimize=False),
        )
        assert plan == (
            "Project(s.product)\n"
            "  Filter[where](s.amount >= (SELECT max(s2.amount) "
            "FROM sales AS s2 WHERE s2.region = s.region))\n"
            "    SeqScan(sales AS s)"
        )

    def test_cte_lowered_to_materialization(self, catalog):
        plan = catalog.explain(
            "WITH t AS (SELECT region, sum(amount) AS total FROM sales GROUP BY region) "
            "SELECT region FROM t WHERE total > 10",
            physical=True,
            options=ExecOptions(optimize=False),
        )
        assert plan == (
            "MaterializeCtes(t)\n"
            "  Project(region, sum(amount) AS total)\n"
            "    HashAggregate(group_by=[region], aggregates=[sum(amount)])\n"
            "      SeqScan(sales)\n"
            "  Project(region)\n"
            "    Filter[where](total > 10)\n"
            "      SeqScan(t)"
        )

    def test_derived_table_plan(self, catalog):
        plan = catalog.explain(
            "SELECT big.product FROM (SELECT product, amount FROM sales "
            "WHERE amount > 90) AS big",
            physical=True,
            options=ExecOptions(optimize=False),
        )
        assert plan == (
            "Project(big.product)\n"
            "  DerivedScan(big)\n"
            "    Project(product, amount)\n"
            "      Filter[where](amount > 90)\n"
            "        SeqScan(sales)"
        )


class TestSetOperationLowering:
    def test_union_lowering(self, catalog):
        plan = catalog.explain(
            "SELECT region FROM sales UNION SELECT region FROM regions",
            physical=True,
            options=ExecOptions(optimize=False),
        )
        assert plan == (
            "SetOp(UNION)\n"
            "  Project(region)\n"
            "    SeqScan(sales)\n"
            "  Project(region)\n"
            "    SeqScan(regions)"
        )

    def test_set_op_physical_nodes(self, catalog):
        physical = Executor(catalog).compile(
            parse("SELECT region FROM sales EXCEPT SELECT region FROM regions")
        )
        assert isinstance(physical, SetOpExec)
        assert physical.op == "EXCEPT"
        scans = [node for node in physical.walk() if isinstance(node, ScanExec)]
        assert {scan.table_name for scan in scans} == {"sales", "regions"}


class TestCompiledPlanReuse:
    def test_plan_cache_reuses_compiled_plans(self, catalog):
        catalog.execute("SELECT product FROM sales WHERE amount > 10", ExecOptions(use_cache=False))
        entries = catalog.cache_stats()["plan_cache_entries"]
        catalog.execute("SELECT product FROM sales WHERE amount > 10", ExecOptions(use_cache=False))
        assert catalog.cache_stats()["plan_cache_entries"] == entries

    def test_plan_cache_cleared_on_schema_change(self, catalog):
        catalog.execute("SELECT product FROM sales", ExecOptions(use_cache=False))
        assert catalog.cache_stats()["plan_cache_entries"] > 0
        catalog.create_table("extra", ["x"], [[1]])
        assert catalog.cache_stats()["plan_cache_entries"] == 0

    def test_compiled_plan_is_stateless_across_runs(self, catalog):
        executor = Executor(catalog)
        node = parse("SELECT region, sum(amount) AS total FROM sales GROUP BY region")
        plan = executor.compile(node)
        first = executor.execute(node)
        second = executor.execute(node)
        assert first.rows == second.rows
        assert executor.compile(node) is plan

    def test_physical_plan_contains_no_interpreter_state(self, catalog):
        physical = Executor(catalog).compile(
            parse("SELECT region FROM sales WHERE amount > 10")
        )
        filters = [node for node in physical.walk() if isinstance(node, FilterExec)]
        joins = [node for node in physical.walk() if isinstance(node, JoinExec)]
        assert len(filters) == 1 and not joins
