"""Tests for secondary indexes and cost-based access-path selection.

Covers the index data structures themselves (build, append maintenance,
sealing, clone sharing, poisoning), their integration with Column/Table/
Catalog (copy-on-write survival, snapshot pickling, freeze consistency),
the distinct-set cap on ColumnStats, and the optimizer's scan-vs-index
decision as seen through EXPLAIN.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.engine.catalog import Catalog
from repro.engine.column import Column, ColumnStats
from repro.engine.indexes import (
    HASH,
    ORDERED,
    ORDERED_TAIL_LIMIT,
    UNBOUNDED,
    HashIndex,
    OrderedIndex,
    build_index,
)
from repro.engine.options import ExecOptions
from repro.engine.table import Table
from repro.errors import CatalogError, EngineError


def brute_eq(values, probe):
    return [i for i, v in enumerate(values) if v is not None and v == probe]


def brute_range(values, low, high, low_inc, high_inc):
    out = []
    for i, v in enumerate(values):
        if v is None:
            continue
        if low is not UNBOUNDED:
            if low_inc:
                if v < low:
                    continue
            elif v <= low:
                continue
        if high is not UNBOUNDED:
            if high_inc:
                if v > high:
                    continue
            elif v >= high:
                continue
        out.append(i)
    return out


class TestHashIndex:
    def test_build_and_lookup(self):
        values = [3, 1, None, 3, 7, 1, 3]
        index = build_index(HASH, values)
        assert index.lookup_eq(3) == [0, 3, 6]
        assert index.lookup_eq(1) == [1, 5]
        assert index.lookup_eq(99) == []
        assert index.covered == len(values)

    def test_lookup_positions_ascending(self):
        rng = random.Random(11)
        values = [rng.randrange(20) if rng.random() > 0.1 else None for _ in range(5000)]
        index = build_index(HASH, values)
        for probe in range(20):
            assert index.lookup_eq(probe) == brute_eq(values, probe)

    def test_incremental_add_matches_rebuild(self):
        index = HashIndex()
        values = []
        rng = random.Random(5)
        for i in range(3000):
            value = rng.randrange(50) if rng.random() > 0.2 else None
            index.add(value, i)
            values.append(value)
            if i % 700 == 0:
                index.seal()
        fresh = build_index(HASH, values)
        for probe in range(50):
            assert index.lookup_eq(probe) == fresh.lookup_eq(probe)
        assert index.covered == len(values)

    def test_lookup_in_dedupes_and_sorts(self):
        index = build_index(HASH, [5, 2, 5, 9])
        assert index.lookup_in([5, 2, 5]) == [0, 1, 2]
        assert index.lookup_in([404]) == []

    def test_unhashable_value_poisons(self):
        index = build_index(HASH, [1, [2, 3], 4])
        assert index.poisoned
        assert index.lookup_eq(1) is None

    def test_unhashable_probe_falls_back(self):
        index = build_index(HASH, [1, 2, 3])
        assert index.lookup_eq([1]) is None


class TestOrderedIndex:
    def test_range_lookup_matches_brute_force(self):
        rng = random.Random(7)
        values = [rng.randrange(100) if rng.random() > 0.15 else None for _ in range(4000)]
        index = build_index(ORDERED, values)
        for _ in range(50):
            low, high = sorted((rng.randrange(100), rng.randrange(100)))
            for low_inc in (True, False):
                for high_inc in (True, False):
                    assert index.lookup_range(low, high, low_inc, high_inc) == brute_range(
                        values, low, high, low_inc, high_inc
                    )
        assert index.lookup_range(30, UNBOUNDED, True, True) == brute_range(
            values, 30, UNBOUNDED, True, True
        )
        assert index.lookup_range(UNBOUNDED, 30, True, False) == brute_range(
            values, UNBOUNDED, 30, True, False
        )

    def test_tail_seals_itself_past_limit(self):
        index = OrderedIndex()
        total = ORDERED_TAIL_LIMIT * 3 + 17
        for i in range(total):
            index.add(i % 97, i)
        assert index.tail_size <= ORDERED_TAIL_LIMIT
        assert index.segments  # at least one sealed segment exists
        fresh = build_index(ORDERED, [i % 97 for i in range(total)])
        assert index.lookup_eq(13) == fresh.lookup_eq(13)

    def test_null_bound_selects_nothing(self):
        index = build_index(ORDERED, [1, 2, 3])
        assert index.lookup_range(None, 5, True, True) == []
        assert index.lookup_range(1, None, True, True) == []

    def test_mixed_incomparable_types_poison(self):
        index = build_index(ORDERED, [1, "two", 3] * 500)
        index.seal()
        assert index.poisoned
        assert index.lookup_range(0, 10, True, True) is None

    def test_incomparable_probe_falls_back(self):
        index = build_index(ORDERED, [1, 2, 3])
        assert index.lookup_range("a", "z", True, True) is None


class TestCloneSharing:
    @pytest.mark.parametrize("kind", [HASH, ORDERED])
    def test_clone_shares_sealed_segments_by_identity(self, kind):
        index = build_index(kind, list(range(2000)))
        index.seal()
        original_segments = index.segments
        clone = index.clone()
        assert len(clone.segments) == len(original_segments)
        for ours, theirs in zip(clone.segments, original_segments):
            assert ours is theirs  # shared, not rebuilt
        assert clone.tail_size == 0
        assert clone.covered == index.covered

    def test_clone_tail_isolation(self):
        index = build_index(HASH, [1, 2, 3])
        clone = index.clone()
        clone.add(4, 3)
        assert clone.lookup_eq(4) == [3]
        assert index.lookup_eq(4) == []  # original untouched

    def test_clone_chain_keeps_sharing(self):
        """A chain of clones (repeated CoW swaps) never rebuilds segments."""
        index = build_index(ORDERED, list(range(5000)))
        index.seal()
        first_generation = index.segments
        current = index
        position = 5000
        for _ in range(10):
            current = current.clone()
            current.add(position, position)
            position += 1
        current.seal()
        shared = [
            segment
            for segment in current.segments
            if any(segment is original for original in first_generation)
        ]
        assert shared, "deep clone chain lost segment sharing"
        fresh = build_index(ORDERED, list(range(position)))
        assert current.lookup_range(4995, 5005, True, True) == fresh.lookup_range(
            4995, 5005, True, True
        )

    def test_clone_of_poisoned_index_stays_poisoned(self):
        index = build_index(HASH, [1, [2], 3])
        assert index.poisoned
        assert index.clone().poisoned

    def test_column_clone_is_o1_in_index_size(self):
        """Cloning an indexed column must not scale with the index contents.

        The mechanism under test: clone() shares sealed segment objects
        instead of copying them, so a 50k-entry index and a 50-entry index
        clone in the same handful of object allocations.
        """
        big = Column(list(range(50_000)))
        big.create_index(HASH)
        big.seal_indexes()
        import tracemalloc

        tracemalloc.start()
        clones = [big.clone() for _ in range(5)]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # Each clone re-wraps the shared values list (~8 bytes/slot here) but
        # must NOT duplicate the index dict (which would be megabytes).
        assert peak < 5 * len(big.values) * 16
        for clone in clones:
            assert clone.index(HASH).segments[0] is big.index(HASH).segments[0]


class TestColumnIntegration:
    def test_append_maintains_indexes(self):
        column = Column([1, 2, 3])
        column.create_index(HASH)
        column.create_index(ORDERED)
        for value in (2, None, 9):
            column.append(value)
        assert column.index(HASH).lookup_eq(2) == [1, 3]
        assert column.index(ORDERED).lookup_range(2, 9, True, True) == [1, 2, 3, 5]
        assert column.index(HASH).covered == len(column.values)

    def test_drop_index(self):
        column = Column([1])
        column.create_index(HASH)
        column.drop_index(HASH)
        assert column.index(HASH) is None
        assert column.index_kinds() == ()

    def test_index_pickle_round_trip(self):
        column = Column([3, 1, None, 3, 5])
        column.create_index(HASH)
        column.create_index(ORDERED)
        column.seal_indexes()
        restored = pickle.loads(pickle.dumps(column))
        for kind in (HASH, ORDERED):
            index = restored.index(kind)
            assert index.tail_size == 0
            assert index.covered == len(restored.values)
        assert restored.index(HASH).lookup_eq(3) == [0, 3]
        assert restored.index(ORDERED).lookup_range(1, 3, True, True) == [0, 1, 3]


class TestDistinctCap:
    def test_distinct_caps_to_estimate(self, monkeypatch):
        monkeypatch.setattr("repro.engine.column.DISTINCT_TRACK_LIMIT", 8)
        column = Column()
        column.stats()  # arm incremental maintenance
        for i in range(20):
            column.append(i)
        stats = column.stats()
        assert stats.distinct is None
        assert stats.distinct_capped
        assert stats.distinct_estimate == 9  # size when it crossed the cap
        assert column.distinct_count() == 9
        # The full set remains recomputable and exact.
        assert column.distinct_set() == set(range(20))

    def test_capped_is_distinct_from_poisoned(self, monkeypatch):
        monkeypatch.setattr("repro.engine.column.DISTINCT_TRACK_LIMIT", 4)
        capped = ColumnStats.from_values(range(10))
        assert capped.distinct_capped and capped.distinct is None
        poisoned = ColumnStats.from_values([[1], [2]])
        assert poisoned.distinct is None and not poisoned.distinct_capped

    def test_copy_shares_set_until_mutation(self):
        stats = ColumnStats.from_values([1, 2, 3])
        copied = stats.copy()
        assert copied.distinct is stats.distinct  # O(1) shared copy
        assert stats.distinct_shared and copied.distinct_shared
        copied.observe(4)  # first mutation pays the copy
        assert copied.distinct is not stats.distinct
        assert stats.distinct == {1, 2, 3}
        assert copied.distinct == {1, 2, 3, 4}
        # The original's next mutation also copies (it is still marked shared).
        stats.observe(5)
        assert stats.distinct == {1, 2, 3, 5}
        assert copied.distinct == {1, 2, 3, 4}

    def test_capped_copy_is_free(self, monkeypatch):
        monkeypatch.setattr("repro.engine.column.DISTINCT_TRACK_LIMIT", 4)
        stats = ColumnStats.from_values(range(10))
        copied = stats.copy()
        assert copied.distinct is None
        assert copied.distinct_capped
        assert copied.distinct_estimate == stats.distinct_estimate


class TestTableAndFreeze:
    def test_table_create_index_and_introspection(self):
        table = Table("t", ["a", "b"], [(1, "x"), (2, "y")])
        table.create_index("a", HASH)
        assert table.indexed_columns() == {"a": (HASH,)}
        assert table.column_index("a", HASH) is not None
        assert table.column_index("a", ORDERED) is None
        assert table.column_index("missing", HASH) is None

    def test_frozen_table_rejected_append_leaves_index_consistent(self):
        """Satellite regression: a raising stray append must not half-fold.

        The freeze tripwire raises before any column mutates, so after the
        raise every index must still agree exactly with a fresh rebuild over
        the (unchanged) values.
        """
        table = Table("t", ["a"], [(i,) for i in range(100)])
        table.create_index("a", HASH)
        table.create_index("a", ORDERED)
        table.freeze()
        with pytest.raises(EngineError):
            table.append((777,))
        store = table.column_store("a")
        assert len(store.values) == 100
        for kind in (HASH, ORDERED):
            index = table.column_index("a", kind)
            fresh = build_index(kind, store.values)
            assert index.covered == fresh.covered == 100
            for probe in (0, 50, 99, 777):
                assert index.lookup_eq(probe) == fresh.lookup_eq(probe)

    def test_index_survives_cow_clone_chain(self):
        catalog = Catalog()
        catalog.create_table("t", ["id", "val"], [(i, i % 7) for i in range(200)])
        catalog.create_index("t", "id", HASH)
        first = catalog.table("t").column_index("id", HASH)
        first.seal()
        original_segments = first.segments
        for generation in range(5):
            catalog.append_rows("t", [(1000 + generation, 0)])
        final = catalog.table("t").column_index("id", HASH)
        assert final is not first  # CoW produced new index objects...
        final.seal()
        assert any(
            segment in original_segments for segment in final.segments
        ), "CoW chain rebuilt the index instead of sharing segments"
        assert final.covered == 205
        assert final.lookup_eq(1003) == [203]

    def test_catalog_create_index_unknown_table(self):
        with pytest.raises(CatalogError):
            Catalog().create_index("nope", "a", HASH)

    def test_unknown_kind_raises(self):
        with pytest.raises(EngineError):
            build_index("btree", [1, 2])


class TestSnapshotTransport:
    def test_snapshot_pickle_ships_warm_sealed_indexes(self):
        catalog = Catalog()
        catalog.create_table("t", ["id", "val"], [(i, i % 10) for i in range(300)])
        catalog.create_index("t", "id", HASH)
        catalog.create_index("t", "val", ORDERED)
        snapshot = catalog.snapshot()
        restored = pickle.loads(pickle.dumps(snapshot))
        table = restored.table("t")
        for column, kind in (("id", HASH), ("val", ORDERED)):
            index = table.column_index(column, kind)
            assert index is not None
            assert index.tail_size == 0  # warm: sealed before pickling
            assert index.covered == 300
        assert restored.execute("SELECT val FROM t WHERE id = 123").rows == [(3,)]

    def test_snapshot_executes_index_scan_in_process_worker_path(self):
        """Drive the exact code path the process tier runs (no subprocess)."""
        from repro.serving.workers import _run_task

        catalog = Catalog()
        catalog.create_table("t", ["id", "val"], [(i, i * 2) for i in range(500)])
        catalog.create_index("t", "id", HASH)
        snapshot = pickle.loads(pickle.dumps(catalog.snapshot()))
        from repro.engine.catalog import ParseMemo
        from repro.engine.query_cache import QueryCache

        snapshot.attach_caches(
            plan_cache={}, query_cache=QueryCache(capacity=8), parse=ParseMemo()
        )
        result = _run_task(
            "execute", snapshot, ("SELECT val FROM t WHERE id = 250", ExecOptions())
        )
        assert result.rows == [(500,)]


class TestAccessPathSelection:
    @pytest.fixture()
    def catalog(self):
        rng = random.Random(99)
        catalog = Catalog()
        rows = [(i, rng.randrange(100), f"n{i % 10}") for i in range(400)]
        catalog.create_table("t", ["id", "val", "name"], rows)
        catalog.create_index("t", "id", HASH)
        catalog.create_index("t", "val", ORDERED)
        return catalog

    def test_point_lookup_uses_hash_index(self, catalog):
        explain = catalog.explain("SELECT val FROM t WHERE id = 7", physical=True)
        assert "access_path" in explain
        assert "IndexScan" in explain
        assert "hash" in explain

    def test_range_uses_ordered_index(self, catalog):
        explain = catalog.explain("SELECT id FROM t WHERE val < 20", physical=True)
        assert "IndexScan" in explain
        assert "ordered" in explain

    def test_residual_conjuncts_stay_filtered(self, catalog):
        sql = "SELECT id FROM t WHERE id = 7 AND name = 'n7'"
        explain = catalog.explain(sql, physical=True)
        assert "IndexScan" in explain
        assert "Filter" in explain  # the name conjunct survives above
        assert catalog.execute(sql).rows == catalog.execute(sql, ExecOptions(optimize=False)).rows

    def test_optimize_false_never_index_scans(self, catalog):
        explain = catalog.explain("SELECT val FROM t WHERE id = 7")
        assert "IndexScan" not in explain.split("== Optimizer")[0]
        result = catalog.execute("SELECT val FROM t WHERE id = 7", ExecOptions(optimize=False))
        assert len(result.rows) == 1

    def test_no_index_no_index_scan(self, catalog):
        explain = catalog.explain("SELECT id FROM t WHERE name = 'n3'", physical=True)
        assert "IndexScan" not in explain

    def test_unselective_predicate_keeps_seq_scan(self, catalog):
        explain = catalog.explain("SELECT id FROM t WHERE val >= 0", physical=True)
        assert "IndexScan" not in explain
        assert "kept sequential scan" in explain

    def test_small_table_keeps_seq_scan(self):
        catalog = Catalog()
        catalog.create_table("tiny", ["id"], [(i,) for i in range(10)])
        catalog.create_index("tiny", "id", HASH)
        explain = catalog.explain("SELECT id FROM tiny WHERE id = 3", physical=True)
        assert "IndexScan" not in explain

    def test_parameters_and_nulls_never_index(self, catalog):
        explain = catalog.explain("SELECT id FROM t WHERE val = val", physical=True)
        assert "IndexScan" not in explain

    def test_cte_shadowing_table_name_is_refused(self, catalog):
        sql = "WITH t AS (SELECT 1 AS id, 2 AS val) SELECT id FROM t WHERE id = 1"
        explain = catalog.explain(sql, physical=True)
        assert "IndexScan" not in explain
        assert catalog.execute(sql).rows == [(1,)]

    def test_create_index_invalidates_plan_cache(self):
        catalog = Catalog()
        catalog.create_table("t", ["id"], [(i,) for i in range(400)])
        sql = "SELECT id FROM t WHERE id = 7"
        assert catalog.execute(sql).rows == [(7,)]  # caches a seq-scan plan
        catalog.create_index("t", "id", HASH)
        explain = catalog.explain(sql, physical=True)
        assert "IndexScan" in explain
        assert catalog.execute(sql, ExecOptions(use_cache=False)).rows == [(7,)]

    def test_poisoned_index_falls_back(self, catalog):
        catalog.table("t").column_index("id", HASH).poison()
        explain = catalog.explain("SELECT val FROM t WHERE id = 7", physical=True)
        assert "IndexScan" not in explain
        assert catalog.execute("SELECT val FROM t WHERE id = 7", ExecOptions(use_cache=False)).rows

    def test_stale_index_executor_fallback_matches(self, catalog):
        """An index whose coverage lags the column must not be probed."""
        store = catalog.table("t").column_store("id")
        store.values.append(9999)  # simulate drift: value bypassed append()
        result = catalog.execute("SELECT id FROM t WHERE id = 9999", ExecOptions(use_cache=False))
        assert result.rows == [(9999,)]  # linear fallback still finds it

    def test_in_list_uses_hash_index(self, catalog):
        sql = "SELECT id FROM t WHERE id IN (1, 5, 9)"
        explain = catalog.explain(sql, physical=True)
        assert "IndexScan" in explain
        assert catalog.execute(sql).rows == [(1,), (5,), (9,)]

    def test_in_list_with_null_member_is_refused(self, catalog):
        explain = catalog.explain(
            "SELECT id FROM t WHERE id IN (1, NULL)", physical=True
        )
        assert "IndexScan" not in explain

    def test_between_uses_ordered_index(self, catalog):
        sql = "SELECT id FROM t WHERE val BETWEEN 3 AND 5"
        explain = catalog.explain(sql, physical=True)
        assert "IndexScan" in explain
        on = catalog.execute(sql).rows
        off = catalog.execute(sql, ExecOptions(optimize=False)).rows
        assert on == off

    def test_flipped_literal_comparison(self, catalog):
        sql = "SELECT id FROM t WHERE 30 > val"
        on = catalog.execute(sql).rows
        off = catalog.execute(sql, ExecOptions(optimize=False)).rows
        assert on == off
        assert "IndexScan" in catalog.explain(sql, physical=True)

    def test_index_scan_preserves_row_order(self, catalog):
        sql = "SELECT id, val FROM t WHERE val < 40"
        on = catalog.execute(sql).rows
        off = catalog.execute(sql, ExecOptions(optimize=False)).rows
        assert on == off  # positional equality, not just bag equality
