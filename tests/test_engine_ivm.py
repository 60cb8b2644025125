"""Tests for the incremental-maintenance plane (``engine/ivm.py``).

The correctness bar everywhere: a folded result must equal (rows, columns,
schema column names) an ``ExecOptions(use_cache=False)`` cold recompute at
the same version — not just bag-equal; folds feed rows in table order, so
even row order matches.
"""

from __future__ import annotations

import pytest

from repro.engine.catalog import Catalog
from repro.engine.ivm import AppendDelta, VersionLog, analyze
from repro.engine.options import ExecOptions
from repro.engine.query_cache import canonical_text
from repro.sql.parser import parse

COLD = ExecOptions(use_cache=False)


def make_catalog(**kwargs) -> Catalog:
    cat = Catalog(**kwargs)
    cat.create_table(
        "events",
        ["kind", "region", "value"],
        [
            ["view", "east", 10],
            ["click", "west", 5],
            ["view", "east", 7],
            ["view", "west", 2],
        ],
    )
    return cat


def assert_fold_matches_cold(catalog: Catalog, sql: str) -> None:
    warm = catalog.execute(sql)
    cold = catalog.execute(sql, COLD)
    assert warm.columns == cold.columns
    assert warm.rows == cold.rows
    assert [c.name for c in warm.schema.columns] == [c.name for c in cold.schema.columns]


MAINTAINABLE_QUERIES = [
    "SELECT kind, count(*) AS n FROM events GROUP BY kind",
    "SELECT kind, sum(value) AS total FROM events GROUP BY kind",
    "SELECT kind, avg(value) AS a FROM events GROUP BY kind",
    "SELECT kind, min(value) AS lo, max(value) AS hi FROM events GROUP BY kind",
    "SELECT kind, median(value) AS m FROM events GROUP BY kind",
    "SELECT kind, stddev(value) AS s, variance(value) AS v FROM events GROUP BY kind",
    "SELECT kind, count(DISTINCT region) AS regions FROM events GROUP BY kind",
    "SELECT kind, region, sum(value) AS total FROM events GROUP BY kind, region",
    "SELECT count(*) AS n FROM events",
    "SELECT sum(value) AS total, avg(value) AS a FROM events",
    "SELECT count(*) AS n FROM events WHERE value > 4",
    "SELECT kind, value FROM events",
    "SELECT kind, value FROM events WHERE value > 4",
    "SELECT * FROM events WHERE region = 'east'",
    "SELECT kind, value FROM events ORDER BY kind",
    "SELECT kind, value FROM events WHERE value > 4 ORDER BY value DESC",
    "SELECT * FROM events ORDER BY region DESC, 3",
    "SELECT kind, count(*) AS n FROM events GROUP BY kind ORDER BY n DESC, kind",
    "SELECT region, sum(value) FROM events GROUP BY region ORDER BY sum(value)",
    "SELECT count(*) AS n FROM events ORDER BY 1",
]


class TestFoldCorrectness:
    @pytest.mark.parametrize("sql", MAINTAINABLE_QUERIES)
    def test_fold_equals_cold_recompute(self, sql):
        catalog = make_catalog()
        assert_fold_matches_cold(catalog, sql)  # cold store + folder
        catalog.append_rows("events", [["click", "east", 3], ["view", "north", 9]])
        assert_fold_matches_cold(catalog, sql)  # first fold
        catalog.append_rows("events", [["view", "north", 1]])
        catalog.append_rows("events", [["click", "west", 11], ["view", "east", 0]])
        assert_fold_matches_cold(catalog, sql)  # multi-record chain walk
        stats = catalog.cache_stats()
        assert stats["ivm_folds"] >= 2
        assert stats["ivm_fallbacks"] == 0

    def test_new_group_appearing_only_in_the_delta(self):
        catalog = make_catalog()
        sql = "SELECT region, count(*) AS n FROM events GROUP BY region"
        catalog.execute(sql)
        catalog.append_rows("events", [["view", "south", 1], ["view", "south", 2]])
        warm = catalog.execute(sql)
        assert ("south", 2) in warm.rows
        assert_fold_matches_cold(catalog, sql)

    def test_global_aggregate_with_filter_matching_zero_rows(self):
        catalog = make_catalog()
        sql = "SELECT count(*) AS n, sum(value) AS total FROM events WHERE value > 1000"
        assert catalog.execute(sql).rows == [(0, None)]
        catalog.append_rows("events", [["view", "east", 1]])
        assert_fold_matches_cold(catalog, sql)
        catalog.append_rows("events", [["view", "east", 5000]])
        warm = catalog.execute(sql)
        assert warm.rows == [(1, 5000)]
        assert_fold_matches_cold(catalog, sql)

    def test_splice_preserves_row_order_and_isolation(self):
        catalog = make_catalog()
        sql = "SELECT kind, value FROM events WHERE value > 3"
        first = catalog.execute(sql)
        catalog.append_rows("events", [["tap", "east", 99]])
        folded = catalog.execute(sql)
        assert folded.rows[: len(first.rows)] == first.rows
        assert folded.rows[-1] == ("tap", 99)
        # Mutating the served copy must not poison the folder's state.
        folded.rows.clear()
        again = catalog.execute(sql)
        assert again.rows[-1] == ("tap", 99)

    def test_empty_append_does_not_break_the_chain(self):
        catalog = make_catalog()
        sql = "SELECT kind, count(*) AS n FROM events GROUP BY kind"
        catalog.execute(sql)
        assert catalog.append_rows("events", []) == 0
        catalog.append_rows("events", [["view", "east", 4]])
        assert_fold_matches_cold(catalog, sql)
        assert catalog.cache_stats()["ivm_fallbacks"] == 0

    def test_fold_result_served_as_plain_hit_on_repeat(self):
        catalog = make_catalog()
        sql = "SELECT count(*) AS n FROM events"
        catalog.execute(sql)
        catalog.append_rows("events", [["view", "east", 4]])
        catalog.execute(sql)
        before = catalog.cache_stats()
        catalog.execute(sql)
        after = catalog.cache_stats()
        assert after["hits"] == before["hits"] + 1
        assert after["ivm_folds"] == before["ivm_folds"]


class TestSortedFolds:
    """ORDER BY over either shape: state in table order, every emit sorted."""

    def test_ties_keep_first_seen_order_across_appends(self):
        catalog = make_catalog()
        sql = "SELECT kind, region, value FROM events ORDER BY kind"
        catalog.execute(sql)
        catalog.append_rows("events", [["click", "north", 1], ["view", "south", 3]])
        folded = catalog.execute(sql)
        assert folded.rows == [
            ("click", "west", 5),
            ("click", "north", 1),
            ("view", "east", 10),
            ("view", "east", 7),
            ("view", "west", 2),
            ("view", "south", 3),
        ]
        assert folded.rows == catalog.execute(sql, COLD).rows
        assert catalog.cache_stats()["ivm_folds"] == 1

    @pytest.mark.parametrize(
        "order",
        ["value NULLS FIRST", "value NULLS LAST", "value DESC", "value DESC NULLS LAST"],
    )
    def test_null_placement_matches_recompute(self, order):
        catalog = make_catalog()
        sql = f"SELECT kind, value FROM events ORDER BY {order}"
        catalog.execute(sql)
        catalog.append_rows("events", [["tap", "east", None], ["tap", "west", 6]])
        assert_fold_matches_cold(catalog, sql)
        catalog.append_rows("events", [["tap", "north", None]])
        assert_fold_matches_cold(catalog, sql)
        assert catalog.cache_stats()["ivm_folds"] == 2

    def test_sorted_aggregate_reorders_when_a_delta_moves_a_group(self):
        catalog = make_catalog()
        sql = "SELECT region, sum(value) AS total FROM events GROUP BY region ORDER BY total DESC"
        assert [row[0] for row in catalog.execute(sql).rows] == ["east", "west"]
        catalog.append_rows("events", [["view", "west", 20], ["click", "south", 1]])
        folded = catalog.execute(sql)
        assert [row[0] for row in folded.rows] == ["west", "east", "south"]
        assert_fold_matches_cold(catalog, sql)
        assert catalog.cache_stats()["ivm_folds"] == 1

    def test_a_walk_over_two_appends_emits_only_the_version_read(self):
        catalog = make_catalog()
        sql = "SELECT kind, value FROM events ORDER BY value"
        catalog.execute(sql)
        catalog.append_rows("events", [["view", "east", 1]])
        pinned_mid = catalog.snapshot()
        catalog.append_rows("events", [["click", "west", 0]])
        before = catalog.cache_stats()
        assert_fold_matches_cold(catalog, sql)  # one walk over both appends
        after = catalog.cache_stats()
        assert after["ivm_folds"] == before["ivm_folds"] + 1
        assert after["stores"] == before["stores"] + 1
        # The version the walk passed through was never materialized: a
        # session pinned there recomputes once, sorted like a cold run.
        mid = pinned_mid.execute(sql)
        assert mid.rows == pinned_mid.execute(sql, COLD).rows
        assert mid.rows[0] == ("view", 1)
        stats = catalog.cache_stats()
        assert stats["ivm_fallbacks"] == 1
        assert stats["ivm_folds"] == after["ivm_folds"]
        # The backward probe kept the advanced folder, which still folds.
        catalog.append_rows("events", [["tap", "north", 2]])
        assert_fold_matches_cold(catalog, sql)
        assert catalog.cache_stats()["ivm_folds"] == stats["ivm_folds"] + 1

    def test_evicted_entry_is_rebuilt_sorted_at_the_folders_version(self):
        catalog = make_catalog(query_cache_capacity=2)
        sql = "SELECT kind, value FROM events ORDER BY value DESC"
        catalog.execute(sql)
        catalog.execute("SELECT DISTINCT value FROM events WHERE value > 100")
        catalog.execute("SELECT region FROM events ORDER BY region LIMIT 3")
        assert_fold_matches_cold(catalog, sql)  # entry evicted; folder rebuilds it
        assert catalog.cache_stats()["ivm_folds"] == 1


class TestFallbacks:
    def test_version_log_truncation_falls_back_to_recompute(self):
        catalog = make_catalog()
        catalog._version_log = VersionLog(capacity=2)
        sql = "SELECT kind, sum(value) AS total FROM events GROUP BY kind"
        catalog.execute(sql)
        for i in range(4):  # more appends than the log holds
            catalog.append_rows("events", [["view", "east", i]])
        assert_fold_matches_cold(catalog, sql)
        stats = catalog.cache_stats()
        assert stats["ivm_fallbacks"] == 1
        # The recompute registered a fresh folder at the current version.
        catalog.append_rows("events", [["view", "west", 8]])
        assert_fold_matches_cold(catalog, sql)
        assert catalog.cache_stats()["ivm_folds"] >= 1

    def test_table_replacement_invalidates_fold_state(self):
        catalog = make_catalog()
        sql = "SELECT count(*) AS n FROM events"
        catalog.execute(sql)
        catalog.create_table("events", ["kind", "region", "value"], [["x", "y", 1]], replace=True)
        assert catalog.execute(sql).rows == [(1,)]
        assert_fold_matches_cold(catalog, sql)

    def test_drop_and_recreate_invalidates_fold_state(self):
        catalog = make_catalog()
        sql = "SELECT sum(value) AS total FROM events"
        catalog.execute(sql)
        catalog.drop("events")
        catalog.create_table("events", ["kind", "region", "value"], [["x", "y", 41]])
        assert catalog.execute(sql).rows == [(41,)]
        assert_fold_matches_cold(catalog, sql)

    def test_in_place_append_breaks_the_chain(self):
        # Table.append mutates without a log record: the fingerprint moves
        # but no chain exists, so the probe falls back (and stays correct).
        catalog = make_catalog()
        sql = "SELECT count(*) AS n FROM events"
        catalog.execute(sql)
        catalog.table("events").append(["view", "east", 4])
        assert catalog.execute(sql).rows == [(5,)]
        assert catalog.cache_stats()["ivm_fallbacks"] == 1

    def test_schema_drift_on_replacement_with_different_columns(self):
        catalog = make_catalog()
        sql = "SELECT count(*) AS n FROM events"
        catalog.execute(sql)
        catalog.create_table("events", ["kind"], [["a"], ["b"]], replace=True)
        assert catalog.execute(sql).rows == [(2,)]


class TestFolderLifecycle:
    def test_entry_eviction_does_not_destroy_fold_state(self):
        # The folder map is LRU'd separately: evicting the *result entry*
        # (here by flooding a capacity-2 cache) must leave the folder able
        # to answer the next probe.
        catalog = make_catalog(query_cache_capacity=2)
        sql = "SELECT kind, count(*) AS n FROM events GROUP BY kind"
        catalog.execute(sql)
        catalog.execute("SELECT DISTINCT value FROM events WHERE value > 100")
        catalog.execute("SELECT region FROM events ORDER BY region LIMIT 3")
        assert_fold_matches_cold(catalog, sql)  # entry evicted; folder alive
        catalog.append_rows("events", [["view", "east", 4]])
        assert_fold_matches_cold(catalog, sql)
        assert catalog.cache_stats()["ivm_folds"] >= 1

    def test_folder_survives_being_probed_from_an_old_version(self):
        # A session pinned before the append keeps reading its own version's
        # entry; the folder advanced past it must not serve it new rows.
        catalog = make_catalog()
        sql = "SELECT count(*) AS n FROM events"
        old = catalog.snapshot()
        assert old.execute(sql).rows == [(4,)]
        catalog.append_rows("events", [["view", "east", 4]])
        new = catalog.snapshot()
        assert new.execute(sql).rows == [(5,)]
        assert old.execute(sql).rows == [(4,)]

    def test_frozen_snapshot_never_observes_a_torn_append(self):
        # append_rows is copy-on-write: the pinned (frozen) table object is
        # untouched, so a fold primed from the old snapshot and a reader of
        # the old snapshot both see exactly the base rows.
        catalog = make_catalog()
        sql = "SELECT kind, sum(value) AS total FROM events GROUP BY kind"
        pinned = catalog.snapshot()
        before = pinned.execute(sql)
        catalog.append_rows("events", [["view", "east", 1000]])
        assert pinned.execute(sql).rows == before.rows
        with pytest.raises(Exception):
            pinned.table("events").append(["view", "east", 1])
        assert_fold_matches_cold(catalog, sql)

    def test_backward_probe_keeps_the_advanced_folder(self):
        # An unfoldable probe from behind the write frontier must not drop a
        # folder that is still on the chain — live sessions keep folding.
        catalog = make_catalog()
        sql = "SELECT count(*) AS n FROM events"
        old = catalog.snapshot()  # pinned at the base; never executes there
        catalog.append_rows("events", [["view", "east", 1]])
        catalog.execute(sql)  # cold store + folder
        catalog.append_rows("events", [["view", "east", 1]])
        assert catalog.execute(sql).rows == [(6,)]  # folder advances by fold
        assert old.execute(sql).rows == [(4,)]  # backward probe: recomputes
        stats = catalog.cache_stats()
        assert stats["ivm_fallbacks"] == 1
        # The advanced folder survived the backward probe and still folds.
        catalog.append_rows("events", [["view", "east", 1]])
        assert catalog.execute(sql).rows == [(7,)]
        assert catalog.cache_stats()["ivm_folds"] == stats["ivm_folds"] + 1

    def test_unpickled_snapshot_recomputes_cold(self):
        import pickle

        catalog = make_catalog()
        sql = "SELECT kind, count(*) AS n FROM events GROUP BY kind"
        catalog.execute(sql)
        shipped = pickle.loads(pickle.dumps(catalog.snapshot()))
        assert shipped.execute(sql).rows == catalog.execute(sql, COLD).rows
        stats = shipped.query_cache.snapshot()
        assert (stats["hits"], stats["misses"], stats["ivm_folds"]) == (0, 1, 0)


class TestShapeAnalysis:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT kind FROM events ORDER BY value",
            "SELECT kind FROM events ORDER BY 2",
            "SELECT kind, value FROM events ORDER BY value + 1",
            "SELECT kind, count(*) AS n FROM events GROUP BY kind ORDER BY sum(value)",
            "SELECT kind FROM events ORDER BY kind LIMIT 2",
            "SELECT kind FROM events ORDER BY kind LIMIT 2 OFFSET 1",
            "SELECT DISTINCT kind FROM events ORDER BY kind",
            "SELECT DISTINCT kind FROM events",
            "SELECT kind FROM events LIMIT 2",
            "SELECT kind, count(*) AS n FROM events GROUP BY kind HAVING count(*) > 1",
            "SELECT e.kind FROM events e, events f WHERE e.kind = f.kind",
            "SELECT kind FROM events WHERE value > (SELECT avg(value) FROM events)",
            "SELECT kind, row_number() OVER (ORDER BY value) AS r FROM events",
            "SELECT 1 AS one",
        ],
    )
    def test_non_maintainable_shapes_are_refused(self, sql):
        node = parse(sql)
        assert analyze(node, canonical_text(node)) is None

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT kind, count(*) AS n FROM events GROUP BY kind",
            "SELECT kind, value FROM events WHERE value > 3",
            "SELECT * FROM events",
            "SELECT sum(value) AS total FROM events WHERE kind = 'view'",
            "SELECT kind, value AS v FROM events ORDER BY v DESC, 1",
            "SELECT e.kind, count(*) AS n FROM events e GROUP BY e.kind ORDER BY e.kind",
            "SELECT * FROM events ORDER BY region, 3 DESC",
        ],
    )
    def test_maintainable_shapes_are_detected(self, sql):
        node = parse(sql)
        shape = analyze(node, canonical_text(node))
        assert shape is not None
        assert shape.table_name.lower() == "events"

    def test_explain_reports_the_maintainability_verdict(self):
        catalog = make_catalog()
        report = catalog.explain(
            "SELECT kind, count(*) AS n FROM events GROUP BY kind", physical=True
        )
        assert "ivm: maintainable (aggregate over events)" in report
        report = catalog.explain("SELECT kind FROM events ORDER BY kind", physical=True)
        assert "ivm: maintainable (splice over events, sorted)" in report
        report = catalog.explain("SELECT kind FROM events ORDER BY kind LIMIT 2", physical=True)
        assert "ivm: not maintainable (LimitNode above the projection)" in report
        report = catalog.explain("SELECT DISTINCT kind FROM events", physical=True)
        assert "ivm: not maintainable (DistinctNode above the projection)" in report
        report = catalog.explain("SELECT kind FROM events ORDER BY value", physical=True)
        assert "ivm: not maintainable (ORDER BY value is not an output column)" in report

    def test_explain_keeps_the_no_rewrites_marker(self):
        catalog = make_catalog()
        report = catalog.explain("SELECT * FROM events", physical=True)
        assert "(no rewrites applied)" in report


class TestVersionLogUnit:
    @staticmethod
    def _delta(i: int) -> AppendDelta:
        return AppendDelta(
            table="t", start_row=i, end_row=i + 1, from_version=(i,), to_version=(i + 1,)
        )

    def test_chain_walks_forward(self):
        log = VersionLog()
        for i in range(3):
            log.record(self._delta(i))
        chain = log.chain((0,), (3,))
        assert [d.start_row for d in chain] == [0, 1, 2]
        assert log.chain((1,), (3,)) is not None
        assert log.chain((0,), (0,)) == []

    def test_missing_link_yields_none(self):
        log = VersionLog()
        log.record(self._delta(0))
        log.record(self._delta(2))
        assert log.chain((0,), (3,)) is None

    def test_capacity_truncates_oldest(self):
        log = VersionLog(capacity=2)
        for i in range(4):
            log.record(self._delta(i))
        assert len(log) == 2
        assert log.chain((0,), (4,)) is None
        assert log.chain((2,), (4,)) is not None

    def test_self_loop_is_never_recorded(self):
        log = VersionLog()
        log.record(
            AppendDelta(table="t", start_row=0, end_row=0, from_version=(1,), to_version=(1,))
        )
        assert len(log) == 0

    def test_clear_truncates_everything(self):
        log = VersionLog()
        log.record(self._delta(0))
        log.clear()
        assert log.chain((0,), (1,)) is None


class TestStatsSurface:
    def test_effective_hit_rate_counts_folds(self):
        catalog = make_catalog()
        sql = "SELECT count(*) AS n FROM events"
        catalog.execute(sql)  # miss
        catalog.append_rows("events", [["view", "east", 4]])
        catalog.execute(sql)  # miss answered by fold
        stats = catalog.cache_stats()
        assert stats["hits"] == 0 and stats["misses"] == 2
        assert stats["ivm_folds"] == 1
        assert stats["hit_rate"] == 0.0
        assert stats["effective_hit_rate"] == pytest.approx(0.5)
        assert stats["folders"] == 1

    def test_service_stats_surface_ivm_counters(self):
        from repro.datasets import load_covid_catalog
        from repro.serving import InterfaceService, ServiceConfig

        with InterfaceService(load_covid_catalog(), ServiceConfig(max_workers=2)) as service:
            session = service.create_session("ivm")
            sql = "SELECT state, count(*) AS n FROM covid_cases GROUP BY state"
            session.execute(sql)
            service.ingest("covid_cases", [["ZZ", "2021-11-05", 1]])
            session.refresh()
            session.execute(sql)
            data = service.stats_snapshot()
        assert data["ivm_folds"] >= 1
        assert data["ivm_fallbacks"] == 0
        assert 0.0 <= data["query_cache_hit_rate"] <= 1.0
        assert data["query_cache_effective_hit_rate"] >= data["query_cache_hit_rate"]
        assert session.stats.refreshes == 1
