"""Concurrency tests for the serving layer and the snapshot-isolated catalog.

Three families, mirroring the serving contract (``docs/SERVING.md``):

* **Storms** — barrier-synchronized reader/writer threads hammering one
  catalog.  Readers must never observe a torn table (rows are written with a
  self-checking invariant, and writes land in atomic batches whose size every
  observed count must be a multiple of), and per-thread observed versions
  must be monotonic.
* **Cache consistency** — interleaved ingest must never let the result cache
  serve a row set from a different version than the one the reader pinned
  (the ``Catalog.execute`` version-read/cache-probe atomicity fix).
* **Determinism** — interfaces generated through the concurrent service
  (worker pool + per-tree profile fan-out) must be identical, modulo gensym
  choice-id labels, to interfaces generated by the serial pipeline.

The storms are sized to finish in seconds locally; CI additionally runs this
file under ``pytest-timeout`` with a hard cap and a ``faulthandler`` dump so
a deadlock hangs the job for minutes, not hours.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets import covid_query_log, load_covid_catalog
from repro.engine.catalog import Catalog
from repro.engine.options import ExecOptions
from repro.errors import AdmissionError, EngineError, SessionError
from repro.pipeline import PipelineConfig, generate_interface
from repro.serving import (
    InterfaceService,
    LoadGenerator,
    ServiceConfig,
    WorkloadMix,
)

#: Every write appends this many rows in one atomic copy-on-write batch; any
#: observed count that is not a multiple of it proves a torn/partial read.
BATCH = 7


def make_ledger_catalog(initial_batches: int = 3) -> Catalog:
    """A private catalog with a self-checking table: every row has b == 2*a."""
    catalog = Catalog()
    rows = [[i, 2 * i] for i in range(initial_batches * BATCH)]
    catalog.create_table("ledger", ["a", "b"], rows)
    return catalog


def ledger_batch(start: int) -> list[list[int]]:
    return [[i, 2 * i] for i in range(start, start + BATCH)]


def run_threads(workers) -> list[str]:
    """Start/join the given target callables; return collected error strings."""
    errors: list[str] = []
    lock = threading.Lock()

    def wrap(fn):
        def runner():
            try:
                fn()
            except Exception as exc:  # noqa: BLE001 - report, don't hang the join
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")

        return runner

    threads = [threading.Thread(target=wrap(fn)) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive(), "worker thread failed to finish (deadlock?)"
    return errors


class TestSnapshotIsolationStorm:
    """Barrier-synchronized reader/writer storms on one catalog."""

    READERS = 6
    WRITERS = 2
    ROUNDS = 40

    def test_readers_never_see_torn_tables(self):
        catalog = make_ledger_catalog()
        barrier = threading.Barrier(self.READERS + self.WRITERS)
        next_start = [3 * BATCH]
        start_lock = threading.Lock()

        def writer():
            barrier.wait()
            for _ in range(self.ROUNDS):
                with start_lock:
                    start = next_start[0]
                    next_start[0] += BATCH
                catalog.append_rows("ledger", ledger_batch(start))

        def reader():
            barrier.wait()
            last_count = 0
            for _ in range(self.ROUNDS):
                result = catalog.execute("SELECT a, b FROM ledger", ExecOptions(use_cache=False))
                rows = result.rows
                # Tear check 1: the invariant holds on every observed row.
                assert all(b == 2 * a for a, b in rows)
                # Tear check 2: writes are atomic batches, so any count that
                # is not a multiple of the batch size is a partial read.
                assert len(rows) % BATCH == 0
                # Tear check 3: versions pinned by one thread are monotonic.
                assert len(rows) >= last_count
                last_count = len(rows)

        errors = run_threads([writer] * self.WRITERS + [reader] * self.READERS)
        assert errors == []
        final = catalog.execute("SELECT count(*) FROM ledger", ExecOptions(use_cache=False))
        assert final.rows[0][0] == (3 + self.WRITERS * self.ROUNDS) * BATCH

    def test_pinned_snapshot_is_repeatable_while_writers_proceed(self):
        catalog = make_ledger_catalog()
        snapshot = catalog.snapshot()
        before = snapshot.execute("SELECT count(*) FROM ledger").rows[0][0]

        barrier = threading.Barrier(2)

        def writer():
            barrier.wait()
            for round_index in range(20):
                catalog.append_rows("ledger", ledger_batch(1000 + round_index * BATCH))

        def pinned_reader():
            barrier.wait()
            for _ in range(20):
                count = snapshot.execute("SELECT count(*) FROM ledger").rows[0][0]
                assert count == before

        assert run_threads([writer, pinned_reader]) == []
        # The live catalog moved on; the snapshot still reads its version.
        live = catalog.execute("SELECT count(*) FROM ledger", ExecOptions(use_cache=False)).rows[0][0]
        assert live == before + 20 * BATCH
        assert snapshot.execute("SELECT count(*) FROM ledger").rows[0][0] == before

    def test_freeze_turns_inplace_append_into_an_error(self):
        catalog = make_ledger_catalog()
        table = catalog.table("ledger")
        table.append([900, 1800])  # unfrozen: in-place mutation still works
        catalog.snapshot()  # serving pin freezes the table map
        with pytest.raises(EngineError, match="frozen"):
            table.append([901, 1802])
        # The copy-on-write path keeps working and swaps in an unfrozen clone.
        catalog.append_rows("ledger", ledger_batch(2000))
        assert catalog.table("ledger") is not table


class TestCacheConsistencyUnderIngest:
    """The result cache must never cross data versions (the execute race fix)."""

    def test_cached_reads_match_uncached_reads_under_interleaved_ingest(self):
        catalog = make_ledger_catalog()
        barrier = threading.Barrier(4)

        def writer():
            barrier.wait()
            for round_index in range(30):
                catalog.append_rows("ledger", ledger_batch(5000 + round_index * BATCH))

        def reader():
            barrier.wait()
            for _ in range(30):
                cached = catalog.execute("SELECT count(*) AS c FROM ledger")
                # Whatever version the cached probe pinned, the count must be
                # a whole number of atomic batches — a stale entry served
                # across a writer swap at a *different* version would still
                # satisfy this, but a torn/poisoned entry cannot.
                assert cached.rows[0][0] % BATCH == 0

        errors = run_threads([writer] + [reader] * 3)
        assert errors == []
        # After the storm the cache must agree with a fresh execution.
        cached = catalog.execute("SELECT count(*) AS c FROM ledger")
        fresh = catalog.execute("SELECT count(*) AS c FROM ledger", ExecOptions(use_cache=False))
        assert cached.rows == fresh.rows

    def test_verbatim_plans_do_not_cross_schema_versions(self):
        """A pinned snapshot repopulating the shared plan cache after a schema
        swap must not leak old-schema verbatim plans to new-schema readers
        (verbatim entries are keyed by schema version, not just cleared)."""
        catalog = Catalog()
        catalog.create_table("t1", ["a", "b"], [[1, 10], [2, 20]])
        pinned = catalog.snapshot(freeze=False)
        # Writer swaps the schema: same table name, different columns.
        catalog.create_table("t1", ["c", "e"], [[7, 70]], replace=True)
        # The pinned snapshot compiles (and caches) an old-schema verbatim plan.
        assert pinned.execute("SELECT a FROM t1", ExecOptions(optimize=False)).rows == [(1,), (2,)]
        # A new-schema reader with the same SQL shape must recompile, not hit it.
        assert catalog.execute("SELECT c FROM t1", ExecOptions(optimize=False)).rows == [(7,)]
        with pytest.raises(Exception):
            catalog.execute("SELECT a FROM t1", ExecOptions(optimize=False))

    def test_store_is_keyed_by_the_pinned_version_not_the_current_one(self):
        """Regression for the version-read/cache-probe race.

        Simulates the interleaving directly: pin a snapshot, let a writer
        swap the table, then execute through the pinned snapshot.  The result
        must be stored under the *pinned* version, so a subsequent live
        execute must miss the cache and see the new rows.
        """
        catalog = make_ledger_catalog()
        pinned = catalog.snapshot(freeze=False)
        catalog.append_rows("ledger", ledger_batch(7000))

        old_count = pinned.execute("SELECT count(*) FROM ledger").rows[0][0]
        new_count = catalog.execute("SELECT count(*) FROM ledger").rows[0][0]
        assert new_count == old_count + BATCH
        # And the pinned snapshot still serves its own version from cache.
        assert pinned.execute("SELECT count(*) FROM ledger").rows[0][0] == old_count


class TestServingDeterminism:
    """Concurrent serving must be observationally identical to serial runs."""

    CONFIG = PipelineConfig(method="greedy", greedy_max_steps=6)

    def test_generation_matches_serial_pipeline(self):
        queries = covid_query_log()[:5]
        serial_catalog = load_covid_catalog()
        serial = generate_interface(queries, serial_catalog, self.CONFIG)

        with InterfaceService(
            load_covid_catalog(), ServiceConfig(max_workers=4)
        ) as service:
            session = service.create_session("determinism")
            served = service.generate(session.session_id, queries, self.CONFIG)

        assert served.cost.as_dict() == serial.cost.as_dict()
        assert served.interface.fingerprint() == serial.interface.fingerprint()

    def test_eight_concurrent_sessions_generate_identical_interfaces(self):
        queries = covid_query_log()[:4]
        serial = generate_interface(queries, load_covid_catalog(), self.CONFIG)
        serial_dump = serial.interface.fingerprint()

        with InterfaceService(
            load_covid_catalog(),
            ServiceConfig(max_workers=8, max_sessions=8, max_pending=64),
        ) as service:
            sessions = [service.create_session(f"user-{i}") for i in range(8)]
            futures = [
                service.submit_generate(session.session_id, queries, self.CONFIG)
                for session in sessions
            ]
            results = [future.result(timeout=120) for future in futures]

        assert len(results) == 8
        for result in results:
            assert result.cost.as_dict() == serial.cost.as_dict()
            assert result.interface.fingerprint() == serial_dump

    def test_session_events_run_against_the_pinned_snapshot(self):
        with InterfaceService(load_covid_catalog(), ServiceConfig(max_workers=2)) as service:
            session = service.create_session()
            service.generate(session.session_id, covid_query_log()[:4], self.CONFIG)
            data_before = {
                vis_id: result.row_count for vis_id, result in session.refresh_all().items()
            }
            service.ingest("covid_cases", [["ZZ", "2021-11-05", 123]])
            # Still pinned: the event loop sees the session's version.
            data_after = {
                vis_id: result.row_count for vis_id, result in session.refresh_all().items()
            }
            assert data_after == data_before
            if session.state.interface.widgets:
                widget = session.state.interface.widgets[0]
                record = session.set_widget(
                    widget.widget_id, 0 if widget.options else True
                )
                assert record.affected_trees


class TestAdmissionControl:
    def test_session_cap(self):
        with InterfaceService(
            make_ledger_catalog(), ServiceConfig(max_workers=2, max_sessions=2)
        ) as service:
            service.create_session("a")
            second = service.create_session("b")
            with pytest.raises(AdmissionError, match="Session limit"):
                service.create_session("c")
            service.close_session(second.session_id)
            service.create_session("d")  # slot freed

    def test_session_cap_holds_under_concurrent_creates(self):
        """Racing creators must never overshoot max_sessions."""
        with InterfaceService(
            make_ledger_catalog(), ServiceConfig(max_workers=2, max_sessions=5)
        ) as service:
            admitted: list[str] = []
            admitted_lock = threading.Lock()
            barrier = threading.Barrier(12)

            def creator():
                barrier.wait()
                try:
                    session = service.create_session()
                except AdmissionError:
                    return
                with admitted_lock:
                    admitted.append(session.session_id)

            assert run_threads([creator] * 12) == []
            assert len(admitted) == 5
            assert service.session_count() == 5

    def test_backlog_cap_sheds_load(self):
        gate = threading.Event()
        with InterfaceService(
            make_ledger_catalog(),
            ServiceConfig(max_workers=1, max_pending=2),
        ) as service:
            session = service.create_session()
            blocker = service._submit(gate.wait)  # occupies the single worker
            service.submit_execute(session.session_id, "SELECT a FROM ledger")
            with pytest.raises(AdmissionError, match="backlog"):
                service.submit_execute(session.session_id, "SELECT b FROM ledger")
            gate.set()
            blocker.result(timeout=30)

    def test_closed_session_and_service_raise(self):
        service = InterfaceService(make_ledger_catalog(), ServiceConfig(max_workers=1))
        session = service.create_session()
        service.close_session(session.session_id)
        with pytest.raises(SessionError):
            session.execute("SELECT a FROM ledger")
        with pytest.raises(SessionError):
            service.session(session.session_id)
        service.shutdown()
        with pytest.raises(SessionError):
            service.create_session()

    def test_storm_with_admission_pressure_still_completes(self):
        """The loadgen storm used by the bench, at test-sized dimensions."""
        catalog = load_covid_catalog()
        with InterfaceService(
            catalog,
            ServiceConfig(max_workers=4, max_sessions=12, max_pending=16),
        ) as service:
            generator = LoadGenerator(
                service,
                read_queries=covid_query_log()[:5],
                generate_logs=[covid_query_log()[:3]],
                write_table="covid_cases",
                write_row=lambda client, i: [f"Z{client}", f"2021-12-{i % 28 + 1:02d}", i],
                mix=WorkloadMix(read=0.6, write=0.3, generate=0.1),
                generation_config=PipelineConfig(method="greedy", greedy_max_steps=3),
                seed=11,
            )
            report = generator.run(clients=8, ops_per_client=8)
        assert report.failures == []
        assert len(report.ops) == 64
        assert report.ops_per_sec > 0
