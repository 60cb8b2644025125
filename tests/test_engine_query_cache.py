"""Unit tests for the canonical-query result cache and its catalog wiring."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.engine.catalog import AST_CACHE_CAPACITY, Catalog, ParseMemo
from repro.engine.options import ExecOptions
from repro.engine.query_cache import QueryCache, cache_key
from repro.engine.table import QueryResult
from repro.errors import ExecutionError
from repro.sql.parser import parse
from repro.sql.schema import ResultSchema


@pytest.fixture()
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table(
        "sales",
        ["region", "product", "amount"],
        [["east", "apple", 100], ["west", "banana", 50], ["east", "cherry", 75]],
    )
    return cat


class TestCacheKey:
    def test_canonical_variants_share_a_key(self, catalog):
        version = catalog.data_version()
        plain = cache_key(parse("SELECT region FROM sales WHERE amount > 10"), version)
        qualified = cache_key(
            parse("SELECT sales.region FROM sales WHERE sales.amount > 10"), version
        )
        aliased = cache_key(
            parse("SELECT s.region FROM sales s WHERE s.amount > 10"), version
        )
        assert plain == qualified == aliased

    def test_and_chain_shape_is_normalized(self, catalog):
        version = catalog.data_version()
        left_deep = cache_key(
            parse("SELECT region FROM sales WHERE (amount > 10 AND amount < 90) AND region = 'east'"),
            version,
        )
        right_deep = cache_key(
            parse("SELECT region FROM sales WHERE amount > 10 AND (amount < 90 AND region = 'east')"),
            version,
        )
        assert left_deep == right_deep

    def test_different_versions_produce_different_keys(self, catalog):
        node = parse("SELECT region FROM sales")
        before = cache_key(node, catalog.data_version())
        catalog.table("sales").append(["north", "date", 10])
        after = cache_key(node, catalog.data_version())
        assert before != after

    def test_parameterized_queries_are_uncacheable(self, catalog):
        node = parse("SELECT region FROM sales WHERE amount > :threshold")
        assert cache_key(node, catalog.data_version()) is None

    def test_correlated_subquery_variants_do_not_alias(self, catalog):
        # Stripping the outer alias inside the subquery would turn the
        # correlated reference into an inner-scope one — a different query.
        cat = Catalog()
        cat.create_table("t", ["id", "k"], [[1, "a"], [2, "b"]])
        cat.create_table("s", ["k", "other"], [["a", 1]])
        correlated = cat.execute(
            "SELECT id FROM t c WHERE EXISTS (SELECT 1 FROM s WHERE s.k = c.k)"
        )
        inner_scope = cat.execute(
            "SELECT id FROM t WHERE EXISTS (SELECT 1 FROM s WHERE s.k = k)"
        )
        assert correlated.rows == [(1,)]
        assert inner_scope.rows == [(1,), (2,)]
        assert cat.cache_stats()["entries"] == 2


class TestCacheIdentityMemo:
    """``cache_identity`` canonicalizes each parsed query once, on the node."""

    def test_second_execute_of_one_text_skips_canonicalization(self, catalog, monkeypatch):
        from repro.engine import query_cache

        calls = []
        canonical_text = query_cache.canonical_text
        monkeypatch.setattr(
            query_cache, "canonical_text", lambda node: calls.append(node) or canonical_text(node)
        )
        sql = "SELECT region, sum(amount) AS total FROM sales GROUP BY region"
        first = catalog.execute(sql)
        assert len(calls) == 1
        catalog.table("sales").append(["north", "date", 10])  # a new version: a miss
        second = catalog.execute(sql)
        assert catalog.execute(sql).rows == second.rows  # and a hit
        assert len(calls) == 1
        assert ("north", 10) in second.rows and ("north", 10) not in first.rows

    def test_parameterized_read_counts_one_bypass_per_read(self, catalog):
        sql = "SELECT region FROM sales WHERE amount > :threshold"
        for read in range(1, 4):
            with pytest.raises(ExecutionError, match="threshold"):
                catalog.execute(sql)
            assert catalog.cache_stats()["bypassed"] == read
        assert catalog.cache_stats()["misses"] == 0


class TestCatalogCacheBehavior:
    def test_hit_on_repeat_and_on_canonical_variant(self, catalog):
        first = catalog.execute("SELECT region FROM sales WHERE amount > 60")
        variant = catalog.execute("SELECT sales.region FROM sales WHERE sales.amount > 60")
        assert variant.rows == first.rows
        stats = catalog.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)

    def test_miss_after_row_mutation(self, catalog):
        catalog.execute("SELECT count(*) FROM sales")
        catalog.table("sales").append(["north", "date", 10])
        result = catalog.execute("SELECT count(*) FROM sales")
        assert result.rows == [(4,)]
        assert catalog.cache_stats()["hits"] == 0

    def test_miss_after_table_replacement(self, catalog):
        catalog.execute("SELECT count(*) FROM sales")
        catalog.create_table("sales", ["region"], [["only"]], replace=True)
        result = catalog.execute("SELECT count(*) FROM sales")
        assert result.rows == [(1,)]
        assert catalog.cache_stats()["hits"] == 0

    def test_miss_after_register_of_unrelated_table(self, catalog):
        # Registering any table changes the catalog version: conservative but
        # always correct (new tables can shadow CTE-free name resolution).
        catalog.execute("SELECT count(*) FROM sales")
        catalog.create_table("other", ["x"], [[1]])
        catalog.execute("SELECT count(*) FROM sales")
        assert catalog.cache_stats()["hits"] == 0

    def test_use_cache_false_bypasses_lookup_and_store(self, catalog):
        catalog.execute("SELECT region FROM sales", ExecOptions(use_cache=False))
        catalog.execute("SELECT region FROM sales", ExecOptions(use_cache=False))
        stats = catalog.cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 0 and stats["entries"] == 0

    def test_cached_result_is_isolated_from_caller_mutation(self, catalog):
        first = catalog.execute("SELECT region FROM sales")
        first.rows.clear()
        first.columns.append("junk")
        second = catalog.execute("SELECT region FROM sales")
        assert second.columns == ["region"]
        assert len(second.rows) == 3

    def test_identical_results_across_cold_and_cached_paths(self, catalog):
        sql = "SELECT region, sum(amount) AS total FROM sales GROUP BY region ORDER BY total DESC"
        cold = catalog.execute(sql, ExecOptions(use_cache=False))
        warm_store = catalog.execute(sql)
        warm_hit = catalog.execute(sql)
        assert cold.rows == warm_store.rows == warm_hit.rows
        assert cold.columns == warm_hit.columns
        assert [c.name for c in warm_hit.schema.columns] == cold.columns

    def test_clear_caches(self, catalog):
        catalog.execute("SELECT region FROM sales")
        catalog.clear_caches()
        stats = catalog.cache_stats()
        assert stats["entries"] == 0 and stats["plan_cache_entries"] == 0

    def test_stats_exposed_via_catalog(self, catalog):
        stats = catalog.cache_stats()
        for key in ("hits", "misses", "hit_rate", "entries", "capacity", "plan_cache_entries"):
            assert key in stats


class TestParseMemo:
    def test_catalog_and_snapshots_share_one_memo(self, catalog):
        text = "SELECT region FROM sales"
        node = catalog.parse(text)
        assert catalog.snapshot().parse(text) is node
        catalog.clear_caches()
        assert catalog.parse(text) is not node

    def test_memo_stays_bounded_under_threads(self):
        """More threads than cores, a tiny switch interval: no error, no overgrown memo."""
        memo = ParseMemo()
        errors: list[BaseException] = []
        texts = [f"SELECT {index} FROM t" for index in range(AST_CACHE_CAPACITY + 200)]

        def hammer(offset: int) -> None:
            try:
                for index in range(300):
                    text = texts[(offset + index) % len(texts)]
                    assert memo(text) == parse(text)
                    if index == 150:
                        memo.clear()
            except Exception as exc:  # noqa: BLE001 - reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(offset * 113,)) for offset in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(memo._memo) <= AST_CACHE_CAPACITY


class TestQueryCacheUnit:
    @staticmethod
    def _result(rows) -> QueryResult:
        return QueryResult(columns=["a"], rows=rows, schema=ResultSchema(columns=()))

    def test_lru_eviction(self):
        cache = QueryCache(capacity=2)
        cache.store("k1", self._result([(1,)]))
        cache.store("k2", self._result([(2,)]))
        assert cache.lookup("k1") is not None  # k1 becomes most recent
        cache.store("k3", self._result([(3,)]))  # evicts k2
        assert cache.lookup("k2") is None
        assert cache.lookup("k1") is not None
        assert cache.lookup("k3") is not None
        assert cache.stats.evictions == 1

    def test_store_copies_input(self):
        cache = QueryCache()
        result = self._result([(1,)])
        cache.store("k", result)
        result.rows.append((2,))
        assert cache.lookup("k").rows == [(1,)]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryCache(capacity=0)

    def test_hit_rate_with_no_traffic(self):
        assert QueryCache().stats.hit_rate == 0.0

    def test_clear_resets_counters_and_counts_the_clear(self):
        # Regression: clear() used to drop the entries but leave every
        # counter, so hit_rate kept describing a population that no longer
        # existed.
        cache = QueryCache(capacity=1)
        cache.store("k1", self._result([(1,)]))
        cache.store("k2", self._result([(2,)]))  # evicts k1
        cache.lookup("k2")
        cache.lookup("gone")
        cache.note_bypass()
        cache.note_fold()
        cache.note_fallback()
        cache.clear()
        stats = cache.snapshot()
        for counter in ("hits", "misses", "stores", "evictions", "bypassed",
                        "ivm_folds", "ivm_fallbacks"):
            assert stats[counter] == 0, counter
        assert stats["cleared"] == 1
        assert stats["hit_rate"] == 0.0 and stats["effective_hit_rate"] == 0.0
        assert stats["entries"] == 0 and stats["folders"] == 0
        cache.clear()
        assert cache.stats.cleared == 2  # cumulative across clears

    def test_clear_drops_folders(self):
        cache = QueryCache()
        cache.store_folder("SELECT 1", object())
        cache.clear()
        assert cache.folder("SELECT 1") is None

    def test_effective_hit_rate_counts_folds_as_hits(self):
        cache = QueryCache()
        cache.lookup("miss-1")
        cache.lookup("miss-2")
        cache.note_fold()
        assert cache.stats.hit_rate == 0.0
        assert cache.stats.effective_hit_rate == pytest.approx(0.5)


class TestTableStatisticsMemoization:
    def test_distinct_count_memoized_and_invalidated(self, catalog):
        table = catalog.table("sales")
        assert table.distinct_count("region") == 2
        version = table.data_version
        assert table.distinct_count("region") == 2
        assert table.data_version == version
        table.append(["north", "date", 10])
        assert table.data_version != version
        assert table.distinct_count("region") == 3

    def test_distinct_values_returns_a_fresh_list(self, catalog):
        table = catalog.table("sales")
        values = table.distinct_values("region")
        values.append("junk")
        assert table.distinct_values("region") == ["east", "west"]

    def test_column_returns_a_copy_so_mutation_cannot_poison_caches(self, catalog):
        catalog.execute("SELECT region FROM sales")
        catalog.table("sales").column("region")[0] = "junk"
        assert catalog.execute("SELECT region FROM sales").rows[0] == ("east",)
        assert catalog.table("sales").column_data("region")[0] == "east"

    def test_schema_memo_tracks_data_version(self, catalog):
        table = catalog.table("sales")
        schema_a = table.schema()
        assert table.schema() is schema_a
        table.append(["north", "date", 10])
        assert table.schema() is not schema_a


class TestOptimizerCacheAgreement:
    """The result cache and the optimizer must agree (regression tests).

    The canonical cache key is computed from the *AST*, before planning, so
    optimization can never change which entry a query maps to; and cached
    entries always correspond to the default (optimized) compile path because
    ``ExecOptions(optimize=False)`` executions bypass the cache entirely.
    """

    def test_unoptimized_execution_bypasses_result_cache(self, catalog):
        sql = "SELECT region FROM sales WHERE amount > 60"
        cached = catalog.execute(sql)  # stored by the optimized path
        before = catalog.cache_stats()
        raw = catalog.execute(sql, ExecOptions(optimize=False))
        after = catalog.cache_stats()
        assert raw.rows == cached.rows
        assert after["bypassed"] == before["bypassed"] + 1
        assert after["hits"] == before["hits"]
        assert after["misses"] == before["misses"]

    def test_result_cached_preoptimization_is_not_served_a_stale_shape(self, catalog):
        # A result stored via the optimized compile path must be invalidated
        # by data changes exactly like before: the key includes the data
        # version, so the rewritten plan shape never leaks into staleness.
        sql = "SELECT region FROM sales WHERE amount > 60"
        first = catalog.execute(sql)
        catalog.table("sales").append(["south", "kiwi", 99])
        second = catalog.execute(sql)
        assert ("south",) in second.rows and ("south",) not in first.rows
        unoptimized = catalog.execute(sql, ExecOptions(use_cache=False, optimize=False))
        assert sorted(second.rows) == sorted(unoptimized.rows)

    def test_hit_rate_survives_the_optimizing_compile_step(self, catalog):
        sql = "SELECT s.region FROM sales s WHERE s.amount > 60"
        catalog.execute(sql)
        repeat = catalog.execute(sql)
        variant = catalog.execute("SELECT region FROM sales WHERE amount > 60")
        stats = catalog.cache_stats()
        assert stats["hits"] >= 2  # repeat + canonical variant both hit
        assert stats["hit_rate"] > 0
        assert repeat.rows == variant.rows

    def test_plan_cache_keys_optimized_and_verbatim_plans_separately(self, catalog):
        sql = "SELECT product FROM sales WHERE amount > 60"
        catalog.execute(sql, ExecOptions(use_cache=False))
        optimized_entries = catalog.cache_stats()["plan_cache_entries"]
        catalog.execute(sql, ExecOptions(use_cache=False, optimize=False))
        both_entries = catalog.cache_stats()["plan_cache_entries"]
        assert both_entries == optimized_entries + 1
        # Re-running either mode reuses its own compiled plan.
        catalog.execute(sql, ExecOptions(use_cache=False))
        catalog.execute(sql, ExecOptions(use_cache=False, optimize=False))
        assert catalog.cache_stats()["plan_cache_entries"] == both_entries
        flags = {key[2] for key in catalog._plan_cache}
        assert flags == {True, False}

    def test_optimized_and_verbatim_results_agree_for_cached_queries(self, catalog):
        sql = (
            "SELECT s.region, s.amount FROM sales s "
            "WHERE s.amount > 40 AND s.region <> 'north'"
        )
        cached_twice = [catalog.execute(sql).rows, catalog.execute(sql).rows]
        verbatim = catalog.execute(sql, ExecOptions(use_cache=False, optimize=False)).rows
        assert cached_twice[0] == cached_twice[1]
        assert sorted(cached_twice[0]) == sorted(verbatim)
