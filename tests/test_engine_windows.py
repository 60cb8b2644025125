"""Window-function operator unit suite.

Partition edge cases, NULL-ordering parity with sqlite, frame defaults,
lag/lead beyond partition bounds, shared-spec sorting, placement rules, and
ordered indexes on the window's order column — the unit-level complement to
the seeded window differential fuzz in ``test_differential_sqlite.py``.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.engine.catalog import Catalog
from repro.engine.options import ExecOptions
from repro.errors import EngineError

NO_CACHE = ExecOptions(use_cache=False)


def _catalog_with(name, columns, rows):
    catalog = Catalog()
    catalog.create_table(name, columns, rows)
    return catalog


def _rows(catalog, sql):
    return catalog.execute(sql, NO_CACHE).rows


def _sqlite_rows(columns, rows, sql, table="t"):
    connection = sqlite3.connect(":memory:")
    connection.execute(f"CREATE TABLE {table} ({', '.join(columns)})")
    connection.executemany(
        f"INSERT INTO {table} VALUES ({', '.join('?' for _ in columns)})", rows
    )
    result = [tuple(row) for row in connection.execute(sql).fetchall()]
    connection.close()
    return result


class TestPartitionEdges:
    COLUMNS = ["id", "grp", "val"]

    def test_empty_table(self):
        catalog = _catalog_with("t", self.COLUMNS, [])
        assert _rows(catalog, "SELECT id, row_number() OVER (ORDER BY id) AS r FROM t") == []

    def test_single_row_partitions(self):
        rows = [(1, "a", 10), (2, "b", 20), (3, "c", 30)]
        catalog = _catalog_with("t", self.COLUMNS, rows)
        result = _rows(
            catalog,
            "SELECT id, row_number() OVER (PARTITION BY grp ORDER BY val) AS r, "
            "sum(val) OVER (PARTITION BY grp) AS s FROM t ORDER BY id",
        )
        assert result == [(1, 1, 10), (2, 1, 20), (3, 1, 30)]

    def test_single_partition_spans_table(self):
        rows = [(i, "only", i * 10) for i in range(1, 6)]
        catalog = _catalog_with("t", self.COLUMNS, rows)
        result = _rows(
            catalog,
            "SELECT id, sum(val) OVER (PARTITION BY grp ORDER BY id) AS running "
            "FROM t ORDER BY id",
        )
        assert [row[1] for row in result] == [10, 30, 60, 100, 150]

    def test_null_partition_key_forms_one_partition(self):
        rows = [(1, None, 5), (2, None, 7), (3, "a", 9)]
        catalog = _catalog_with("t", self.COLUMNS, rows)
        result = _rows(
            catalog,
            "SELECT id, count(*) OVER (PARTITION BY grp) AS n FROM t ORDER BY id",
        )
        assert result == [(1, 2), (2, 2), (3, 1)]


class TestSqliteParity:
    """Pin NULL ordering, frame defaults and tie handling to the oracle."""

    COLUMNS = ["id", "grp", "val"]
    ROWS = [
        (1, "a", 10),
        (2, "a", None),
        (3, "b", 10),
        (4, None, 7),
        (5, "b", None),
        (6, "a", 10),
        (7, None, None),
        (8, "b", 3),
    ]

    @pytest.mark.parametrize(
        "sql",
        [
            # NULLs sort smallest: first ASC, last DESC — window values
            # (ranks, running sums) depend on that placement.
            "SELECT id, rank() OVER (ORDER BY val) AS r FROM t ORDER BY id",
            "SELECT id, rank() OVER (ORDER BY val DESC) AS r FROM t ORDER BY id",
            "SELECT id, dense_rank() OVER (ORDER BY val) AS r FROM t ORDER BY id",
            # Default frame with ORDER BY: running value, peers share it.
            "SELECT id, sum(val) OVER (ORDER BY val) AS s FROM t ORDER BY id",
            "SELECT id, count(val) OVER (ORDER BY val) AS c FROM t ORDER BY id",
            # Default frame without ORDER BY: the whole partition.
            "SELECT id, sum(val) OVER (PARTITION BY grp) AS s FROM t ORDER BY id",
            "SELECT id, avg(val) OVER () AS a FROM t ORDER BY id",
            # Explicit physical frames.
            "SELECT id, sum(val) OVER (ORDER BY id ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) "
            "AS s FROM t ORDER BY id",
            "SELECT id, min(val) OVER (PARTITION BY grp ORDER BY id "
            "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS m FROM t ORDER BY id",
        ],
    )
    def test_matches_sqlite(self, sql):
        catalog = _catalog_with("t", self.COLUMNS, self.ROWS)
        assert _rows(catalog, sql) == _sqlite_rows(self.COLUMNS, self.ROWS, sql)


class TestLagLead:
    COLUMNS = ["id", "grp", "val"]
    ROWS = [(1, "a", 10), (2, "a", 20), (3, "a", 30), (4, "b", 40), (5, "b", 50)]

    def _run(self, sql):
        catalog = _catalog_with("t", self.COLUMNS, self.ROWS)
        return _rows(catalog, sql)

    def test_lag_beyond_partition_start_is_null(self):
        result = self._run(
            "SELECT id, lag(val, 2) OVER (PARTITION BY grp ORDER BY id) AS p "
            "FROM t ORDER BY id"
        )
        assert result == [(1, None), (2, None), (3, 10), (4, None), (5, None)]

    def test_lead_beyond_partition_end_uses_default(self):
        result = self._run(
            "SELECT id, lead(val, 1, -1) OVER (PARTITION BY grp ORDER BY id) AS n "
            "FROM t ORDER BY id"
        )
        assert result == [(1, 20), (2, 30), (3, -1), (4, 50), (5, -1)]

    def test_zero_offset_is_current_row(self):
        result = self._run(
            "SELECT id, lag(val, 0) OVER (ORDER BY id) AS p FROM t ORDER BY id"
        )
        assert [row[1] for row in result] == [10, 20, 30, 40, 50]

    def test_lag_never_crosses_partitions(self):
        result = self._run(
            "SELECT id, lag(val) OVER (PARTITION BY grp ORDER BY id) AS p "
            "FROM t ORDER BY id"
        )
        # Row 4 opens partition 'b': its lag is NULL, not 30 from 'a'.
        assert result[3] == (4, None)


class TestPlacementRules:
    COLUMNS = ["id", "grp", "val"]
    ROWS = [(1, "a", 10)]

    def _catalog(self):
        return _catalog_with("t", self.COLUMNS, self.ROWS)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t WHERE row_number() OVER (ORDER BY id) = 1",
            "SELECT grp FROM t GROUP BY grp HAVING count(*) OVER () > 0",
            "SELECT count(*) FROM t GROUP BY rank() OVER (ORDER BY id)",
            # Nested windows are rejected.
            "SELECT sum(rank() OVER (ORDER BY id)) OVER (ORDER BY id) FROM t",
        ],
    )
    def test_rejected_placements(self, sql):
        with pytest.raises(EngineError):
            self._catalog().execute(sql, NO_CACHE)

    def test_window_allowed_in_select_and_order_by(self):
        result = self._catalog().execute(
            "SELECT id, rank() OVER (ORDER BY val) AS r FROM t ORDER BY r", NO_CACHE
        )
        assert result.rows == [(1, 1)]


class TestSharedSpecAndIndexElision:
    def test_same_spec_windows_agree_with_sqlite(self):
        columns = ["id", "grp", "val"]
        rows = [(i, "ab"[i % 2], (i * 37) % 19) for i in range(40)]
        sql = (
            "SELECT id, row_number() OVER (PARTITION BY grp ORDER BY val, id) AS r, "
            "sum(val) OVER (PARTITION BY grp ORDER BY val, id) AS s FROM t ORDER BY id"
        )
        catalog = _catalog_with("t", columns, rows)
        assert _rows(catalog, sql) == _sqlite_rows(columns, rows, sql)

    def test_ordered_index_leaves_window_rows_unchanged(self):
        """Every window spec sorts; an ordered index is no access decision."""
        columns = ["id", "ts", "qty"]
        rows = [(i, (i * 131) % 997, i % 7 + 1) for i in range(200)]
        sql = "SELECT id, sum(qty) OVER (ORDER BY ts) AS running FROM t ORDER BY id"

        plain = _catalog_with("t", columns, rows)
        indexed = _catalog_with("t", columns, rows)
        indexed.create_index("t", "ts", "ordered")

        assert _rows(indexed, sql) == _rows(plain, sql)
        assert indexed.explain(sql, physical=True).access_paths == ()

    def test_elided_plan_survives_appends(self):
        """Rows appended behind an ordered index reach the window sort."""
        columns = ["id", "ts", "qty"]
        rows = [(i, (i * 17) % 101, 1) for i in range(50)]
        sql = "SELECT id, sum(qty) OVER (ORDER BY ts) AS running FROM t ORDER BY id"
        indexed = _catalog_with("t", columns, rows)
        indexed.create_index("t", "ts", "ordered")
        before = _rows(indexed, sql)
        assert len(before) == 50
        indexed.append_rows("t", [(50 + i, 3 + i, 2) for i in range(10)])
        plain = _catalog_with("t", columns, rows + [(50 + i, 3 + i, 2) for i in range(10)])
        assert _rows(indexed, sql) == _rows(plain, sql)
