"""Per-rule unit tests and plan snapshots for the logical optimizer.

Each rewrite rule (constant folding, predicate pushdown, join reordering,
projection pruning) is tested in isolation through ``optimize_plan`` and its
trace, plus snapshot tests of the shapes ``Catalog.explain(physical=True)``
renders.  The legality edges — outer joins, OR chains, subquery-bearing
conjuncts, mixed-type columns that rely on the row-wise AND/OR/CASE fallback,
correlated subqueries — each have a test asserting the rule stays its hand
and the results match the unoptimized path.
"""

from __future__ import annotations

import pytest

from repro.engine.catalog import Catalog
from repro.engine.optimizer import optimize_plan
from repro.engine.options import ExecOptions
from repro.engine.planner import Planner
from repro.sql.parser import parse


@pytest.fixture()
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table(
        "sales",
        ["region", "product", "amount", "quantity"],
        [
            ["east", "apple", 100, 10],
            ["west", "banana", 50, 5],
            ["east", "pear", 70, 7],
            ["north", "fig", 20, 2],
        ],
    )
    cat.create_table(
        "regions", ["region", "manager"], [["east", "alice"], ["west", "bob"]]
    )
    cat.create_table(
        "products",
        ["product", "category"],
        [["apple", "fruit"], ["banana", "fruit"], ["pear", "fruit"], ["fig", "fruit"]],
    )
    return cat


def rewrite(catalog: Catalog, sql: str):
    logical = Planner().plan(parse(sql))
    return optimize_plan(logical, catalog)


def section(text: str, header: str) -> str:
    """One section of the explain(physical=True) output."""
    body = text.split(f"== {header} ==\n", 1)[1]
    return body.split("\n== ", 1)[0]


# --------------------------------------------------------------------------- #
# Rule: constant folding
# --------------------------------------------------------------------------- #


class TestConstantFolding:
    def test_constant_comparison_folds_and_trivial_filter_is_dropped(self, catalog):
        optimized, trace = rewrite(catalog, "SELECT region FROM sales WHERE 1 + 1 = 2")
        assert "Filter" not in optimized.pretty()
        assert any(rule == "constant_folding" for rule, _ in trace.events)

    def test_constant_subexpression_folds_inside_predicate(self, catalog):
        optimized, _ = rewrite(
            catalog, "SELECT region FROM sales WHERE amount > 10 + 20"
        )
        assert "Filter[where](amount > 30)" in optimized.pretty()

    def test_true_operand_absorbed_from_and_chain(self, catalog):
        optimized, _ = rewrite(
            catalog, "SELECT region FROM sales WHERE 2 > 1 AND amount > 10"
        )
        assert "Filter[where](amount > 10)" in optimized.pretty()

    def test_false_constant_collapses_conjunction(self, catalog):
        optimized, _ = rewrite(
            catalog, "SELECT region FROM sales WHERE 1 = 2 AND amount > 10"
        )
        assert "Filter[where](FALSE)" in optimized.pretty()

    def test_folding_and_execution_agree(self, catalog):
        sql = "SELECT region FROM sales WHERE 1 = 2 AND amount > 10"
        assert catalog.execute(sql, ExecOptions(use_cache=False)).rows == []
        sql = "SELECT region FROM sales WHERE abs(-2) = 2 AND amount >= 100"
        on = catalog.execute(sql, ExecOptions(use_cache=False)).rows
        off = catalog.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
        assert on == off == [("east",)]

    def test_erroring_constant_is_left_alone(self, catalog):
        # sqrt(-1) raises; folding must skip it, not hide or hoist the error.
        optimized, _ = rewrite(
            catalog, "SELECT region FROM sales WHERE amount > 10 AND sqrt(-1) = 1"
        )
        assert "sqrt(-1)" in optimized.pretty()


# --------------------------------------------------------------------------- #
# Rule: predicate pushdown
# --------------------------------------------------------------------------- #


class TestPredicatePushdown:
    def test_single_side_where_conjunct_pushes_below_inner_join(self, catalog):
        optimized, trace = rewrite(
            catalog,
            "SELECT s.product FROM sales s JOIN regions r ON s.region = r.region "
            "WHERE s.amount > 60 AND r.manager = 'alice'",
        )
        text = optimized.pretty()
        assert text == (
            "Project(s.product)\n"
            "  Join(INNER, on=s.region = r.region)\n"
            "    Filter[where](s.amount > 60)\n"
            "      Scan(sales AS s, cols=[region, product, amount])\n"
            "    Filter[where](r.manager = 'alice')\n"
            "      Scan(regions AS r)"
        )
        assert "predicate_pushdown" in trace.rules_applied()

    def test_on_conjunct_referencing_one_side_pushes_below_inner_join(self, catalog):
        optimized, _ = rewrite(
            catalog,
            "SELECT s.product FROM sales s JOIN regions r "
            "ON s.region = r.region AND s.amount > 60",
        )
        text = optimized.pretty()
        assert "Join(INNER, on=s.region = r.region)" in text
        assert "Filter[where](s.amount > 60)\n      Scan(sales AS s" in text

    def test_where_equality_merges_into_cross_join_condition(self, catalog):
        optimized, trace = rewrite(
            catalog,
            "SELECT s.product FROM sales s, regions r WHERE s.region = r.region",
        )
        assert "Join(INNER, on=s.region = r.region)" in optimized.pretty()
        assert any("merged" in detail for _, detail in trace.events)

    def test_comma_join_compiles_to_hash_join(self, catalog):
        plan = catalog.explain(
            "SELECT s.product FROM sales s, regions r WHERE s.region = r.region",
            physical=True,
        )
        assert "HashJoin(INNER, keys=[s.region = r.region])" in section(
            plan, "Physical plan"
        )

    def test_left_join_keeps_null_padding_filter_above(self, catalog):
        # A WHERE predicate on the NULL-padded side would change semantics if
        # pushed below the join: it must stay above.
        optimized, _ = rewrite(
            catalog,
            "SELECT s.product FROM sales s LEFT JOIN regions r ON s.region = r.region "
            "WHERE r.manager = 'alice'",
        )
        text = optimized.pretty()
        assert text.startswith(
            "Project(s.product)\n"
            "  Filter[where](r.manager = 'alice')\n"
            "    Join(LEFT, on=s.region = r.region)"
        )

    def test_left_join_pushes_preserved_side_where_conjunct(self, catalog):
        optimized, _ = rewrite(
            catalog,
            "SELECT s.product FROM sales s LEFT JOIN regions r ON s.region = r.region "
            "WHERE s.amount > 60",
        )
        assert "Filter[where](s.amount > 60)\n      Scan(sales AS s" in optimized.pretty()

    def test_left_join_pushes_inner_side_on_conjunct(self, catalog):
        # ON conditions only control matching; filtering the non-preserved
        # input before the join is equivalent and cheaper.
        optimized, _ = rewrite(
            catalog,
            "SELECT s.product FROM sales s LEFT JOIN regions r "
            "ON s.region = r.region AND r.manager = 'alice'",
        )
        text = optimized.pretty()
        assert "Join(LEFT, on=s.region = r.region)" in text
        assert "Filter[where](r.manager = 'alice')\n      Scan(regions AS r)" in text

    def test_or_chains_are_never_split(self, catalog):
        optimized, _ = rewrite(
            catalog,
            "SELECT s.product FROM sales s JOIN regions r ON s.region = r.region "
            "WHERE s.amount > 60 OR r.manager = 'alice'",
        )
        # The OR conjunct may move as one unit (here: merged whole into the
        # inner-join condition) but its disjuncts must never be separated.
        text = optimized.pretty()
        assert "(s.amount > 60 OR r.manager = 'alice')" in text
        assert "Filter[where](s.amount > 60)" not in text
        assert "Filter[where](r.manager = 'alice')" not in text

    def test_subquery_conjunct_is_not_moved(self, catalog):
        optimized, _ = rewrite(
            catalog,
            "SELECT s.product FROM sales s JOIN regions r ON s.region = r.region "
            "WHERE s.amount > (SELECT avg(amount) FROM sales)",
        )
        text = optimized.pretty()
        # The subquery conjunct stays above the join (never pushed below).
        assert text.index("SELECT avg(amount)") < text.index("Join(")

    def test_having_group_key_conjunct_pushes_below_aggregation(self, catalog):
        optimized, trace = rewrite(
            catalog,
            "SELECT region, count(*) AS n FROM sales GROUP BY region "
            "HAVING region <> 'west' AND count(*) > 0",
        )
        assert optimized.pretty() == (
            "Project(region, count(*) AS n)\n"
            "  Filter[having](count(*) > 0)\n"
            "    Aggregate(group_by=[region], aggregates=[count(*)])\n"
            "      Filter[where](region <> 'west')\n"
            "        Scan(sales, cols=[region])"
        )
        assert any("HAVING" in detail for _, detail in trace.events)

    def test_derived_table_pushdown_substitutes_projected_expressions(self, catalog):
        optimized, trace = rewrite(
            catalog,
            "SELECT d.p FROM (SELECT product AS p, amount * 2 AS double_amount "
            "FROM sales) d WHERE d.double_amount > 150",
        )
        text = optimized.pretty()
        assert "Filter[where](amount * 2 > 150)" in text
        assert any("derived table" in detail for _, detail in trace.events)

    def test_derived_aggregate_output_filter_stays_outside_aggregation(self, catalog):
        optimized, _ = rewrite(
            catalog,
            "SELECT d.g FROM (SELECT region AS g, count(*) AS n FROM sales "
            "GROUP BY region) d WHERE d.n > 1",
        )
        text = optimized.pretty()
        # The aggregate-output conjunct is rejected by the derived-table rule
        # (aggregates are never movable): it stays above the derived scan and
        # must not slip below the Aggregate operator in any substituted form.
        assert "Filter[where](d.n > 1)" in text
        assert text.index("Filter[where](d.n > 1)") < text.index("Aggregate(")

    def test_pushdown_results_match_unoptimized(self, catalog):
        queries = [
            "SELECT s.product FROM sales s JOIN regions r ON s.region = r.region "
            "WHERE s.amount > 60 AND r.manager = 'alice'",
            "SELECT s.product FROM sales s LEFT JOIN regions r ON s.region = r.region "
            "WHERE r.manager = 'alice'",
            "SELECT s.product, r.manager FROM sales s, regions r "
            "WHERE s.region = r.region AND s.amount >= 50",
        ]
        for sql in queries:
            on = catalog.execute(sql, ExecOptions(use_cache=False)).rows
            off = catalog.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
            assert sorted(on) == sorted(off), sql


# --------------------------------------------------------------------------- #
# Rule: join reordering
# --------------------------------------------------------------------------- #


class TestJoinReorder:
    @pytest.fixture()
    def sized_catalog(self) -> Catalog:
        cat = Catalog()
        cat.create_table(
            "big", ["k", "payload"], [[i % 20, f"p{i}"] for i in range(100)]
        )
        cat.create_table("mid", ["k", "j"], [[i % 20, i % 6] for i in range(30)])
        cat.create_table("small", ["j", "tag"], [[i, f"t{i}"] for i in range(5)])
        return cat

    def test_greedy_reorder_starts_from_smallest_input(self, sized_catalog):
        optimized, trace = rewrite(
            sized_catalog,
            "SELECT b.payload FROM big b, mid m, small s "
            "WHERE b.k = m.k AND m.j = s.j",
        )
        reorder = [detail for rule, detail in trace.events if rule == "join_reorder"]
        assert reorder and "-> [s, m, b]" in reorder[0]
        text = optimized.pretty()
        assert text.index("Scan(small AS s") < text.index("Scan(mid AS m")
        assert text.index("Scan(mid AS m") < text.index("Scan(big AS b")

    def test_two_way_joins_keep_their_order(self, sized_catalog):
        _, trace = rewrite(
            sized_catalog, "SELECT b.payload FROM big b JOIN mid m ON b.k = m.k"
        )
        assert "join_reorder" not in trace.rules_applied()

    def test_select_star_scope_is_never_reordered(self, sized_catalog):
        _, trace = rewrite(
            sized_catalog,
            "SELECT * FROM big b, mid m, small s WHERE b.k = m.k AND m.j = s.j",
        )
        assert "join_reorder" not in trace.rules_applied()

    def test_outer_join_region_boundary_is_respected(self, sized_catalog):
        optimized, trace = rewrite(
            sized_catalog,
            "SELECT b.payload FROM big b LEFT JOIN mid m ON b.k = m.k "
            "LEFT JOIN small s ON s.j = m.j",
        )
        assert "join_reorder" not in trace.rules_applied()
        text = optimized.pretty()
        assert text.index("Scan(big AS b") < text.index("Scan(mid AS m")

    def test_reordered_results_are_bag_equal(self, sized_catalog):
        sql = (
            "SELECT b.payload, s.tag FROM big b, mid m, small s "
            "WHERE b.k = m.k AND m.j = s.j"
        )
        on = sized_catalog.execute(sql, ExecOptions(use_cache=False)).rows
        off = sized_catalog.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
        assert sorted(on) == sorted(off)
        assert len(on) > 0


# --------------------------------------------------------------------------- #
# Rule: projection pruning
# --------------------------------------------------------------------------- #


class TestProjectionPruning:
    def test_scan_narrowed_to_referenced_columns(self, catalog):
        optimized, trace = rewrite(
            catalog, "SELECT product FROM sales WHERE amount > 60"
        )
        assert "cols=[product, amount]" in optimized.pretty()
        assert "projection_pruning" in trace.rules_applied()

    def test_select_star_disables_pruning_everywhere(self, catalog):
        optimized, trace = rewrite(catalog, "SELECT * FROM sales WHERE amount > 60")
        assert "cols=" not in optimized.pretty()
        assert "projection_pruning" not in trace.rules_applied()

    def test_qualified_star_keeps_that_scan_wide(self, catalog):
        optimized, _ = rewrite(
            catalog,
            "SELECT s.* FROM sales s JOIN regions r ON s.region = r.region "
            "WHERE r.manager = 'alice'",
        )
        text = optimized.pretty()
        assert "Scan(sales AS s)" in text  # full width
        assert "Scan(regions AS r, cols=[region, manager])" in text or (
            "Scan(regions AS r)" in text
        )

    def test_count_star_does_not_demand_any_column(self, catalog):
        optimized, _ = rewrite(catalog, "SELECT count(*) FROM sales")
        assert "Scan(sales, cols=[])" in optimized.pretty()
        result = catalog.execute("SELECT count(*) FROM sales", ExecOptions(use_cache=False))
        assert result.rows == [(4,)]

    def test_correlated_subquery_columns_survive_pruning(self, catalog):
        sql = (
            "SELECT s.product FROM sales s WHERE EXISTS "
            "(SELECT 1 FROM regions r WHERE r.region = s.region)"
        )
        optimized, _ = rewrite(catalog, sql)
        # s.region is referenced only inside the correlated subquery; the scan
        # must still materialize it.
        assert "Scan(sales AS s, cols=[region, product])" in optimized.pretty()
        on = catalog.execute(sql, ExecOptions(use_cache=False)).rows
        off = catalog.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
        assert sorted(on) == sorted(off)

    def test_cte_scans_are_not_pruned(self, catalog):
        optimized, _ = rewrite(
            catalog,
            "WITH t AS (SELECT region, amount FROM sales) "
            "SELECT region FROM t WHERE amount > 60",
        )
        text = optimized.pretty()
        assert "Scan(t, cols=" not in text
        assert "Scan(sales" in text


# --------------------------------------------------------------------------- #
# Short-circuit fallback paths under the optimizer
# --------------------------------------------------------------------------- #


class TestShortCircuitLegality:
    @pytest.fixture()
    def mixed_catalog(self) -> Catalog:
        # 'val' mixes integers and strings; comparing it to a number raises
        # unless a guard filters the string rows first.  The engine handles
        # this via the row-wise AND/OR/CASE fallback; the optimizer must not
        # move the unguarded comparison anywhere it would be evaluated alone
        # over unguarded rows.
        cat = Catalog()
        cat.create_table(
            "mix",
            ["id", "kind", "val"],
            [
                [1, "num", 15],
                [2, "num", 5],
                [3, "word", "abc"],
                [4, "word", "def"],
            ],
        )
        cat.create_table("kinds", ["kind", "label"], [["num", "n"], ["word", "w"]])
        return cat

    def test_mixed_type_conjunct_is_not_movable(self, mixed_catalog):
        _, trace = rewrite(
            mixed_catalog,
            "SELECT m.id FROM mix m JOIN kinds k ON m.kind = k.kind "
            "WHERE m.kind = 'num' AND m.val > 10",
        )
        assert not any("m.val > 10" in detail for _, detail in trace.events)

    def test_guarded_and_chain_still_evaluates_rowwise(self, mixed_catalog):
        sql = (
            "SELECT m.id FROM mix m JOIN kinds k ON m.kind = k.kind "
            "WHERE m.kind = 'num' AND m.val > 10"
        )
        on = mixed_catalog.execute(sql, ExecOptions(use_cache=False)).rows
        off = mixed_catalog.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
        assert on == off == [(1,)]

    def test_case_guard_fallback_matches_unoptimized(self, mixed_catalog):
        sql = (
            "SELECT m.id FROM mix m JOIN kinds k ON m.kind = k.kind "
            "WHERE CASE WHEN m.kind = 'num' THEN m.val > 10 ELSE m.id > 3 END"
        )
        on = mixed_catalog.execute(sql, ExecOptions(use_cache=False)).rows
        off = mixed_catalog.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
        assert on == off == [(1,), (4,)]

    def test_or_guard_fallback_matches_unoptimized(self, mixed_catalog):
        sql = (
            "SELECT m.id FROM mix m WHERE m.kind = 'word' OR m.val > 10"
        )
        on = mixed_catalog.execute(sql, ExecOptions(use_cache=False)).rows
        off = mixed_catalog.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
        assert on == off == [(1,), (3,), (4,)]

    def test_cached_plan_is_recompiled_after_row_mutation(self):
        # Regression: an optimized plan proves totality from the *data*
        # (Table.value_type), so a compiled plan cached before a row append
        # must not be reused after the append makes the proof stale — here,
        # a column that was all-integer gains a string.
        cat = Catalog()
        cat.create_table("t", ["x", "y"], [[1, 1], [2, 2]])
        cat.create_table("u", ["k"], [[1]])
        sql = "SELECT t.x FROM t JOIN u ON t.y = u.k WHERE u.k = 99 AND t.x < 5"
        assert cat.execute(sql, ExecOptions(use_cache=False)).rows == []
        cat.table("t").append(["oops", 3])
        on = cat.execute(sql, ExecOptions(use_cache=False)).rows
        off = cat.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
        assert on == off == []

    def test_boolean_arithmetic_is_not_proven_textual(self):
        # Regression: DataType.unify(BOOLEAN, INTEGER) is TEXT, which once
        # proved (b + 1) < 'zz' "total" and pushed it below the join; the
        # verbatim path hides the type error behind the always-false guard.
        cat = Catalog()
        cat.create_table("t", ["b", "y"], [[True, 1], [False, 2]])
        cat.create_table("u", ["k"], [[1]])
        sql = "SELECT t.y FROM t JOIN u ON t.y = u.k WHERE u.k = 99 AND (t.b + 1) < 'zz'"
        on = cat.execute(sql, ExecOptions(use_cache=False)).rows
        off = cat.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
        assert on == off == []

    def test_correlated_scalar_subquery_matches_unoptimized(self, catalog):
        sql = (
            "SELECT s.product FROM sales s WHERE s.amount >= "
            "(SELECT max(s2.amount) FROM sales s2 WHERE s2.region = s.region)"
        )
        on = catalog.execute(sql, ExecOptions(use_cache=False)).rows
        off = catalog.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
        assert sorted(on) == sorted(off)
        assert ("apple",) in on


# --------------------------------------------------------------------------- #
# explain(physical=True) rendering
# --------------------------------------------------------------------------- #


class TestExplainRendering:
    def test_explain_renders_all_four_sections(self, catalog):
        text = catalog.explain(
            "SELECT product FROM sales WHERE amount > 60", physical=True
        )
        for header in (
            "== Logical plan ==",
            "== Optimizer trace ==",
            "== Optimized logical plan ==",
            "== Physical plan ==",
        ):
            assert header in text

    def test_explain_trace_names_applied_rules(self, catalog):
        text = catalog.explain(
            "SELECT s.product FROM sales s, regions r "
            "WHERE s.region = r.region AND 1 = 1",
            physical=True,
        )
        trace = section(text, "Optimizer trace")
        assert "constant_folding" in trace
        assert "predicate_pushdown" in trace
        assert "projection_pruning" in trace

    def test_explain_without_rewrites_says_so(self, catalog):
        text = catalog.explain("SELECT * FROM sales", physical=True)
        assert "(no rewrites applied)" in section(text, "Optimizer trace")

    def test_explain_optimize_false_renders_verbatim_lowering(self, catalog):
        text = catalog.explain(
            "SELECT product FROM sales WHERE amount > 60",
            physical=True,
            options=ExecOptions(optimize=False),
        )
        assert "== " not in text
        assert text.startswith("Project(product)")
        assert "cols=" not in text


# --------------------------------------------------------------------------- #
# Rule: predicate pushdown at window boundaries
# --------------------------------------------------------------------------- #


class TestWindowBoundary:
    SQL = (
        "SELECT d.k, d.s FROM (SELECT region AS k, amount, "
        "sum(amount) OVER (PARTITION BY region) AS s FROM sales) d "
        "WHERE d.k = 'east' AND d.amount > 50 AND d.s > 100"
    )

    def test_partition_key_conjunct_pushes_below_window(self, catalog):
        optimized, trace = rewrite(catalog, self.SQL)
        text = optimized.pretty()
        # The partition-key filter lands below the Window, on the scan side.
        assert (
            "Window(sum(amount) OVER (PARTITION BY region))\n"
            "            Filter[where](region = 'east')" in text
        )
        assert any(
            "pushed region = 'east' below window boundary (partition keys only)" in detail
            for _, detail in trace.events
        )

    def test_non_partition_conjunct_stays_above_window(self, catalog):
        optimized, trace = rewrite(catalog, self.SQL)
        text = optimized.pretty()
        # amount is not a partition key: its filter stays above the Window.
        assert "Filter[where](amount > 50)\n          Window(" in text
        assert any(
            "kept amount > 50 above window boundary: references non-partition column(s)"
            in detail
            for _, detail in trace.events
        )

    def test_window_output_conjunct_stays_outside_derived_table(self, catalog):
        optimized, trace = rewrite(catalog, self.SQL)
        # The filter on the window's output never enters the derived table.
        assert "Filter[where](d.s > 100)\n    DerivedScan(d)" in optimized.pretty()
        assert any(
            "kept d.s > 100 above window boundary: references window function output"
            in detail
            for _, detail in trace.events
        )

    def test_explain_shows_blocked_rewrites(self, catalog):
        report = catalog.explain(self.SQL, physical=True)
        trace_text = section(report, "Optimizer trace")
        assert "below window boundary (partition keys only)" in trace_text
        assert "above window boundary: references non-partition column(s)" in trace_text
        assert "above window boundary: references window function output" in trace_text

    def test_projection_pruning_keeps_window_inputs(self, catalog):
        optimized, _ = rewrite(
            catalog,
            "SELECT region, rank() OVER (ORDER BY amount) AS r FROM sales",
        )
        # amount feeds only the window: pruning must still keep it in the scan.
        assert "Scan(sales, cols=[region, amount])" in optimized.pretty()

    def test_multi_window_requires_keys_of_every_window(self, catalog):
        _, trace = rewrite(
            catalog,
            "SELECT d.k FROM (SELECT region AS k, "
            "sum(amount) OVER (PARTITION BY region) AS s, "
            "count(*) OVER (PARTITION BY product) AS n FROM sales) d "
            "WHERE d.k = 'east'",
        )
        # region is a partition key of one window but not the other: blocked.
        assert any(
            "kept region = 'east' above window boundary" in detail
            for _, detail in trace.events
        )
