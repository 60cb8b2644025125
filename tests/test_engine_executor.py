"""Integration tests for the SQL executor against small in-memory tables."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, ExecutionError
from repro.engine.catalog import Catalog
from repro.engine.executor import Executor
from repro.engine.options import ExecOptions
from repro.sql.schema import AttributeRole


@pytest.fixture()
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table(
        "sales",
        ["region", "product", "amount", "quantity"],
        [
            ["east", "apple", 100, 10],
            ["east", "banana", 50, 20],
            ["west", "apple", 150, 15],
            ["west", "banana", None, 5],
            ["north", "cherry", 75, 7],
        ],
    )
    cat.create_table(
        "regions",
        ["region", "manager"],
        [["east", "alice"], ["west", "bob"]],
    )
    return cat


class TestProjectionAndFilter:
    def test_select_star(self, catalog):
        result = catalog.execute("SELECT * FROM sales")
        assert result.columns == ["region", "product", "amount", "quantity"]
        assert result.row_count == 5

    def test_projection_with_expression(self, catalog):
        result = catalog.execute("SELECT product, amount * 2 AS double_amount FROM sales WHERE region = 'east'")
        assert result.columns == ["product", "double_amount"]
        assert result.rows == [("apple", 200), ("banana", 100)]

    def test_where_with_and_or(self, catalog):
        result = catalog.execute(
            "SELECT product FROM sales WHERE region = 'east' OR (region = 'west' AND amount > 100)"
        )
        assert {row[0] for row in result.rows} == {"apple", "banana"}

    def test_null_comparison_filters_row_out(self, catalog):
        result = catalog.execute("SELECT product FROM sales WHERE amount > 10")
        # The west/banana row has NULL amount and must not pass the filter.
        assert ("banana",) in result.rows
        assert result.row_count == 4

    def test_is_null(self, catalog):
        result = catalog.execute("SELECT product FROM sales WHERE amount IS NULL")
        assert result.rows == [("banana",)]

    def test_between_and_in(self, catalog):
        result = catalog.execute(
            "SELECT product FROM sales WHERE amount BETWEEN 60 AND 160 AND region IN ('west', 'north')"
        )
        assert {row[0] for row in result.rows} == {"apple", "cherry"}

    def test_like(self, catalog):
        result = catalog.execute("SELECT product FROM sales WHERE product LIKE 'a%'")
        assert {row[0] for row in result.rows} == {"apple"}

    def test_case_expression(self, catalog):
        result = catalog.execute(
            "SELECT product, CASE WHEN amount >= 100 THEN 'big' ELSE 'small' END AS size "
            "FROM sales WHERE amount IS NOT NULL"
        )
        sizes = dict(result.rows)
        assert sizes["apple"] == "big"
        assert sizes["cherry"] == "small"

    def test_select_without_from(self, catalog):
        result = catalog.execute("SELECT 1 + 2 AS three, 'x' AS label")
        assert result.rows == [(3, "x")]


class TestAggregation:
    def test_group_by_sum(self, catalog):
        result = catalog.execute(
            "SELECT region, sum(amount) AS total FROM sales GROUP BY region ORDER BY region"
        )
        assert result.rows == [("east", 150), ("north", 75), ("west", 150)]

    def test_global_aggregate_without_group_by(self, catalog):
        result = catalog.execute("SELECT count(*), avg(amount) FROM sales")
        assert result.rows[0][0] == 5
        assert result.rows[0][1] == pytest.approx(93.75)

    def test_global_aggregate_on_empty_input(self, catalog):
        result = catalog.execute("SELECT count(*) AS n, sum(amount) AS s FROM sales WHERE region = 'nowhere'")
        assert result.rows == [(0, None)]

    def test_having(self, catalog):
        result = catalog.execute(
            "SELECT region, count(*) AS n FROM sales GROUP BY region HAVING count(*) >= 2 ORDER BY region"
        )
        assert result.rows == [("east", 2), ("west", 2)]

    def test_count_distinct(self, catalog):
        result = catalog.execute("SELECT count(DISTINCT product) FROM sales")
        assert result.rows == [(3,)]

    def test_aggregate_of_expression(self, catalog):
        result = catalog.execute("SELECT sum(amount * quantity) AS weighted FROM sales WHERE amount IS NOT NULL")
        assert result.rows == [(100 * 10 + 50 * 20 + 150 * 15 + 75 * 7,)]

    def test_group_by_expression(self, catalog):
        result = catalog.execute(
            "SELECT upper(region) AS r, count(*) FROM sales GROUP BY upper(region) ORDER BY r"
        )
        assert result.rows[0] == ("EAST", 2)

    def test_select_star_with_group_by_raises(self, catalog):
        with pytest.raises(ExecutionError):
            catalog.execute("SELECT * FROM sales GROUP BY region")

    def test_result_schema_roles(self, catalog):
        result = catalog.execute("SELECT region, sum(amount) AS total FROM sales GROUP BY region")
        assert result.schema.column("total").resolved_role() is AttributeRole.QUANTITATIVE
        assert result.schema.column("region").resolved_role() is AttributeRole.NOMINAL


class TestJoins:
    def test_inner_join(self, catalog):
        result = catalog.execute(
            "SELECT s.product, r.manager FROM sales s JOIN regions r ON s.region = r.region"
        )
        assert result.row_count == 4
        assert ("apple", "alice") in result.rows

    def test_left_join_pads_nulls(self, catalog):
        result = catalog.execute(
            "SELECT s.region, r.manager FROM sales s LEFT JOIN regions r ON s.region = r.region"
        )
        managers = {row for row in result.rows}
        assert ("north", None) in managers

    def test_right_join(self, catalog):
        result = catalog.execute(
            "SELECT r.manager, s.product FROM sales s RIGHT JOIN regions r ON s.region = r.region AND s.amount > 120"
        )
        assert ("alice", None) in result.rows
        assert ("bob", "apple") in result.rows

    def test_full_join(self, catalog):
        result = catalog.execute(
            "SELECT s.region, r.region FROM sales s FULL JOIN regions r ON s.region = r.region AND s.amount > 1000"
        )
        left_only = [row for row in result.rows if row[1] is None]
        right_only = [row for row in result.rows if row[0] is None]
        assert left_only and right_only

    def test_cross_join(self, catalog):
        result = catalog.execute("SELECT s.product FROM sales s CROSS JOIN regions r")
        assert result.row_count == 10

    def test_join_using(self, catalog):
        result = catalog.execute("SELECT manager FROM sales JOIN regions USING (region)")
        assert result.row_count == 4

    def test_derived_table(self, catalog):
        result = catalog.execute(
            "SELECT big.product FROM (SELECT product, amount FROM sales WHERE amount > 90) AS big"
        )
        assert {row[0] for row in result.rows} == {"apple"}


class TestSubqueries:
    def test_uncorrelated_scalar_subquery(self, catalog):
        result = catalog.execute(
            "SELECT product FROM sales WHERE amount > (SELECT avg(amount) FROM sales)"
        )
        assert {row[0] for row in result.rows} == {"apple"}

    def test_correlated_subquery(self, catalog):
        result = catalog.execute(
            "SELECT s.product, s.region FROM sales s "
            "WHERE s.amount >= (SELECT max(s2.amount) FROM sales s2 WHERE s2.region = s.region)"
        )
        products = {row[0] for row in result.rows}
        assert products == {"apple", "cherry"}

    def test_in_subquery(self, catalog):
        result = catalog.execute(
            "SELECT product FROM sales WHERE region IN (SELECT region FROM regions)"
        )
        assert result.row_count == 4

    def test_not_in_subquery(self, catalog):
        result = catalog.execute(
            "SELECT DISTINCT region FROM sales WHERE region NOT IN (SELECT region FROM regions)"
        )
        assert result.rows == [("north",)]

    def test_exists_correlated(self, catalog):
        result = catalog.execute(
            "SELECT r.manager FROM regions r WHERE EXISTS "
            "(SELECT 1 FROM sales s WHERE s.region = r.region AND s.amount > 120)"
        )
        assert result.rows == [("bob",)]

    def test_cte(self, catalog):
        result = catalog.execute(
            "WITH totals AS (SELECT region, sum(amount) AS total FROM sales GROUP BY region) "
            "SELECT region FROM totals WHERE total >= 150 ORDER BY region"
        )
        assert result.rows == [("east",), ("west",)]


class TestSubqueryRuns:
    """How often the executor runs a subquery within one evaluation."""

    def runs(self, monkeypatch, catalog, sql) -> int:
        counted = [0]
        run_subquery = Executor.run_subquery

        def counting(self, *args):
            counted[0] += 1
            return run_subquery(self, *args)

        catalog.execute(sql, ExecOptions(use_cache=False))  # plan-warm
        monkeypatch.setattr(Executor, "run_subquery", counting)
        catalog.execute(sql, ExecOptions(use_cache=False))
        return counted[0]

    def test_an_uncorrelated_subquery_runs_once(self, monkeypatch, covid_catalog, covid_log):
        """An IN-subquery whose HAVING holds a scalar subquery: one run each, not one per row."""
        assert self.runs(monkeypatch, covid_catalog, covid_log[4]) == 2

    def test_a_correlated_subquery_runs_per_row(self, monkeypatch, catalog):
        sql = (
            "SELECT s.product FROM sales s "
            "WHERE s.amount >= (SELECT max(s2.amount) FROM sales s2 WHERE s2.region = s.region)"
        )
        assert self.runs(monkeypatch, catalog, sql) == 5


class TestOrderingLimitsSetOps:
    def test_order_by_desc_with_nulls_last(self, catalog):
        result = catalog.execute("SELECT product, amount FROM sales ORDER BY amount DESC")
        assert result.rows[0][0] == "apple" and result.rows[0][1] == 150
        assert result.rows[-1][1] is None

    def test_order_by_positional(self, catalog):
        result = catalog.execute("SELECT product, amount FROM sales WHERE amount IS NOT NULL ORDER BY 2")
        assert result.rows[0][1] == 50

    def test_order_by_alias(self, catalog):
        result = catalog.execute(
            "SELECT region, sum(amount) AS total FROM sales GROUP BY region ORDER BY total DESC"
        )
        assert result.rows[0][1] == 150

    def test_limit_offset(self, catalog):
        result = catalog.execute("SELECT product FROM sales ORDER BY product LIMIT 2 OFFSET 1")
        assert result.rows == [("apple",), ("banana",)]

    def test_distinct(self, catalog):
        result = catalog.execute("SELECT DISTINCT region FROM sales")
        assert result.row_count == 3

    def test_union_and_union_all(self, catalog):
        union = catalog.execute("SELECT region FROM sales UNION SELECT region FROM regions")
        union_all = catalog.execute("SELECT region FROM sales UNION ALL SELECT region FROM regions")
        assert union.row_count == 3
        assert union_all.row_count == 7

    def test_intersect_and_except(self, catalog):
        intersect = catalog.execute("SELECT region FROM sales INTERSECT SELECT region FROM regions")
        except_ = catalog.execute("SELECT DISTINCT region FROM sales EXCEPT SELECT region FROM regions")
        assert {row[0] for row in intersect.rows} == {"east", "west"}
        assert except_.rows == [("north",)]

    def test_set_operation_column_mismatch(self, catalog):
        with pytest.raises(ExecutionError):
            catalog.execute("SELECT region, product FROM sales UNION SELECT region FROM regions")


class TestCatalogManagement:
    def test_unknown_table(self, catalog):
        with pytest.raises(CatalogError):
            catalog.execute("SELECT * FROM missing")

    def test_register_duplicate_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.create_table("sales", ["a"], [])

    def test_register_replace(self, catalog):
        catalog.create_table("sales", ["a"], [[1]], replace=True)
        assert catalog.execute("SELECT * FROM sales").columns == ["a"]

    def test_drop(self, catalog):
        catalog.drop("regions")
        assert not catalog.has_table("regions")
        with pytest.raises(CatalogError):
            catalog.drop("regions")

    def test_only_selects_executable(self, catalog):
        with pytest.raises(Exception):
            catalog.execute("DELETE FROM sales")

    def test_explain_mentions_operators(self, catalog):
        plan = catalog.explain(
            "SELECT region, count(*) FROM sales WHERE amount > 10 GROUP BY region ORDER BY 2 LIMIT 1"
        )
        for operator in ("Scan", "Filter", "Aggregate", "Project", "Sort", "Limit"):
            assert operator in plan


class TestVectorizedShortCircuit:
    def test_and_short_circuits_rows_that_would_type_error(self, catalog):
        catalog.create_table("mixed", ["kind", "val"], [["num", 5], ["num", 12], ["str", "hello"]])
        result = catalog.execute("SELECT val FROM mixed WHERE kind = 'num' AND val > 5")
        assert result.rows == [(12,)]

    def test_or_short_circuits_rows_that_would_type_error(self, catalog):
        catalog.create_table("mixed", ["kind", "val"], [["num", 5], ["str", "hello"]])
        result = catalog.execute("SELECT kind FROM mixed WHERE kind = 'str' OR val > 1")
        assert result.rows == [("num",), ("str",)]

    def test_case_arms_evaluate_lazily_per_row(self, catalog):
        catalog.create_table("mixed", ["kind", "val"], [["num", 5], ["str", "hello"]])
        result = catalog.execute(
            "SELECT CASE WHEN kind = 'num' THEN val * 2 ELSE val END AS v FROM mixed"
        )
        assert result.rows == [(10,), ("hello",)]

    def test_type_error_on_reached_rows_still_raises(self, catalog):
        catalog.create_table("mixed", ["kind", "val"], [["num", 5], ["str", "hello"]])
        with pytest.raises(Exception):
            catalog.execute("SELECT val FROM mixed WHERE val > 5")


class TestOrderByAggregates:
    def test_order_by_aggregate_without_grouping_raises(self, catalog):
        # ORDER BY alone must not turn a plain projection into a one-row
        # global aggregate.
        with pytest.raises(ExecutionError):
            catalog.execute("SELECT product FROM sales ORDER BY max(amount)")

    def test_grouped_query_can_order_by_unprojected_aggregate(self, catalog):
        result = catalog.execute(
            "SELECT region FROM sales GROUP BY region ORDER BY sum(amount) DESC, region"
        )
        assert result.rows == [("east",), ("west",), ("north",)]
