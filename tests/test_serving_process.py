"""Process execution tier and asyncio frontend tests.

Six families, mirroring the process-tier shipping contract
(``docs/SERVING.md``):

* **Snapshot shipping** — a pickled :class:`CatalogSnapshot` must survive the
  process boundary *warm*: same data version, same column statistics (shipped
  ready-to-use, never recomputed worker-side), same query results.  Verified
  both in-process and in a real child interpreter.
* **Worker cache lifecycle** — workers cache snapshots by
  ``(catalog_id, data_version)`` in a bounded LRU; a catalog version bump
  ships the new version and evicts exactly the stale entry once capacity
  forces it out — never the live one.  Two catalogs at equal data versions
  on one worker never read each other's cached results.
* **Determinism** — interfaces generated inside worker processes (snapshot
  shipped, generation executed there) must fingerprint-match the in-process
  serial pipeline, across 8 concurrent sessions.
* **Async frontend** — stable tenant→shard routing and a 256-user storm on
  one event loop over 4 shards that must complete with zero failures in
  process mode.
* **Tier parity** — one read sequence moves the frontend's result cache the
  same way in both tiers, and a process-tier read after a refresh is folded
  in the frontend without a dispatch.
* **Stats contract** — the ``stats_snapshot()`` keys the repo benchmark
  reads, in both tiers and summed over an async frontend's shards.

The process-tier tests spawn real worker processes (seconds, not
milliseconds); they are sized so the whole file stays well inside the CI
300s cap.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import pickle
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.datasets import covid_query_log, generate_state_regions, load_covid_catalog
from repro.engine.catalog import Catalog
from repro.engine.options import ExecOptions
from repro.engine.table import Table
from repro.errors import ExecutionError, WorkerError
from repro.pipeline import PipelineConfig, generate_interface
from repro.serving import (
    AsyncInterfaceService,
    AsyncLoadGenerator,
    InterfaceService,
    ProcessExecutionTier,
    ServiceConfig,
    ServiceStats,
    WorkloadMix,
)
from repro.serving.workers import _run_task, _WorkerState

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

GENERATION_CONFIG = PipelineConfig(method="greedy", greedy_max_steps=4)


def snapshot_is_warm(snapshot) -> bool:
    """True when every column ships with its statistics block materialized."""
    return all(
        table.column_store(column)._stats is not None
        for table in (snapshot.table(name) for name in snapshot.table_names())
        for column in table.column_names
    )


class TestSnapshotShipping:
    def test_pickle_round_trip_preserves_version_stats_and_results(self):
        query = covid_query_log()[0]
        snapshot = load_covid_catalog().snapshot()
        local = snapshot.execute(query)

        clone = pickle.loads(pickle.dumps(snapshot))

        assert clone.catalog_id == snapshot.catalog_id
        assert clone.data_version() == snapshot.data_version()
        # __getstate__ warms the tables before serializing, so the clone's
        # statistics arrive materialized (no worker-side O(data) rebuild)
        # and identical to the shipper's.
        assert snapshot_is_warm(clone)
        for name in snapshot.table_names():
            original, shipped = snapshot.table(name), clone.table(name)
            for column in original.column_names:
                ours, theirs = (
                    original.column_store(column).stats(),
                    shipped.column_store(column).stats(),
                )
                assert (ours.minimum, ours.maximum) == (theirs.minimum, theirs.maximum)
                assert original.null_count(column) == shipped.null_count(column)
        assert clone.execute(query).rows == local.rows

    def test_round_trip_in_real_subprocess(self, tmp_path):
        """A child interpreter unpickles the snapshot warm and agrees on rows."""
        query = covid_query_log()[0]
        snapshot = load_covid_catalog().snapshot()
        local = snapshot.execute(query)
        blob = tmp_path / "snapshot.pkl"
        blob.write_bytes(pickle.dumps(snapshot))

        child = (
            "import json, pickle, sys\n"
            "snapshot = pickle.load(open(sys.argv[1], 'rb'))\n"
            "warm = all(\n"
            "    table.column_store(column)._stats is not None\n"
            "    for table in (snapshot.table(n) for n in snapshot.table_names())\n"
            "    for column in table.column_names\n"
            ")\n"
            "result = snapshot.execute(sys.argv[2])\n"
            "print(json.dumps({\n"
            "    'warm': warm,\n"
            "    'data_version': repr(snapshot.data_version()),\n"
            "    'rows': [list(row) for row in result.rows],\n"
            "}))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-c", child, str(blob), query],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        reply = json.loads(completed.stdout)
        assert reply["warm"] is True
        assert reply["data_version"] == repr(snapshot.data_version())
        assert reply["rows"] == [list(row) for row in local.rows]


class TestWorkerSnapshotCache:
    def test_version_bump_ships_new_and_evicts_exactly_the_stale_entry(self):
        query = "SELECT COUNT(*) AS n FROM covid_cases"
        catalog = load_covid_catalog()
        with ProcessExecutionTier(processes=1, snapshot_cache_capacity=1) as tier:
            old = catalog.snapshot()
            old_key = (old.catalog_id, old.data_version())
            first = tier.submit_execute(old, query).result(timeout=120)
            assert tier.worker_cached_fingerprints(0) == [old_key]

            catalog.append_rows("covid_cases", [["ZZ", "2021-12-31", 1]])
            new = catalog.snapshot()
            new_key = (new.catalog_id, new.data_version())
            assert new_key != old_key
            second = tier.submit_execute(new, query).result(timeout=120)

            # Capacity 1: admitting the new version evicted exactly the
            # stale key; the live one stays resident for re-use.
            assert tier.worker_cached_fingerprints(0) == [new_key]
            assert tier.stats.snapshot_ships == 2
            # The bumped version really reached the worker — a stale cached
            # snapshot answering would miss the appended row.
            assert second.rows[0][0] == first.rows[0][0] + 1
            third = tier.submit_execute(new, query).result(timeout=120)
            assert third.rows == second.rows
            assert tier.stats.snapshot_ships == 2  # re-used, not re-shipped

    def test_both_versions_stay_resident_under_larger_capacity(self):
        """Invalidation is lazy: old versions are LRU-evicted, not purged."""
        query = covid_query_log()[0]
        catalog = load_covid_catalog()
        with ProcessExecutionTier(processes=1, snapshot_cache_capacity=4) as tier:
            old = catalog.snapshot()
            tier.submit_execute(old, query).result(timeout=120)
            catalog.append_rows("covid_cases", [["ZZ", "2021-12-31", 1]])
            new = catalog.snapshot()
            tier.submit_execute(new, query).result(timeout=120)
            cached = tier.worker_cached_fingerprints(0)
            assert (old.catalog_id, old.data_version()) in cached
            assert (new.catalog_id, new.data_version()) in cached


    def test_two_catalogs_at_equal_versions_keep_their_own_results(self):
        """Data versions are local to a catalog lineage, so results are cached per catalog."""
        full = load_covid_catalog()
        cases = full.table("covid_cases")
        half = Catalog()
        half.register(
            Table.from_columns(
                "covid_cases",
                {name: cases.column(name)[: cases.row_count // 2] for name in cases.column_names},
            )
        )
        half.register(generate_state_regions())
        assert half.data_version() == full.data_version()
        query = covid_query_log()[3]
        state = _WorkerState(capacity=1)
        for catalog in (full, half):
            key = (catalog.catalog_id, catalog.data_version())
            snapshot = state.admit(key, pickle.dumps(catalog.snapshot()))
            served = _run_task("execute", snapshot, (query, ExecOptions()))
            assert served.rows == catalog.execute(query, ExecOptions(use_cache=False)).rows
        assert full.execute(query).row_count == 392 and served.row_count == 196
        # Capacity 1: the first catalog's result cache left with its last snapshot.
        assert list(state.query_caches) == [half.catalog_id]


class TestProcessDeterminism:
    def test_eight_process_sessions_match_serial_fingerprint(self):
        queries = covid_query_log()[:4]
        serial = generate_interface(queries, load_covid_catalog(), GENERATION_CONFIG)
        serial_fingerprint = serial.interface.fingerprint()

        config = ServiceConfig(
            max_workers=8,
            max_sessions=16,
            max_pending=64,
            execution_tier="process",
            worker_processes=2,
        )
        with InterfaceService(load_covid_catalog(), config) as service:
            sessions = [service.create_session(f"det-{i}") for i in range(8)]
            futures = [
                service.submit_generate(s.session_id, queries, GENERATION_CONFIG)
                for s in sessions
            ]
            results = [future.result(timeout=300) for future in futures]

        assert len(results) == 8
        for result in results:
            assert result.interface.fingerprint() == serial_fingerprint
            assert result.cost.as_dict() == serial.cost.as_dict()


class TestWorkerSizing:
    def test_explicit_override_wins(self):
        from repro.serving.workers import default_worker_processes

        assert default_worker_processes(2) == 2
        assert default_worker_processes(13) == 13  # overrides are not clamped

    def test_auto_sizing_clamps_to_machine(self, monkeypatch):
        import os

        from repro.serving.workers import (
            MAX_AUTO_WORKER_PROCESSES,
            default_worker_processes,
        )

        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_worker_processes(None) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_worker_processes(None) == MAX_AUTO_WORKER_PROCESSES
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown machine
        assert default_worker_processes(None) == 1

    def test_tier_resolves_none_to_machine_size(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with ProcessExecutionTier() as tier:
            assert tier.processes == 1
            assert tier.stats_snapshot()["worker_processes"] == 1

    def test_service_records_resolved_worker_count(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        config = ServiceConfig(execution_tier="process")
        assert config.worker_processes is None  # auto-size is the default
        with InterfaceService(load_covid_catalog(), config) as service:
            stats = service.stats_snapshot()
        assert stats["worker_processes"] == 1

    def test_thread_tier_reports_no_worker_processes(self):
        with InterfaceService(load_covid_catalog(), ServiceConfig()) as service:
            assert service.stats_snapshot()["worker_processes"] is None


class TestIndexedSnapshotShipping:
    def test_index_scan_executes_in_real_worker_process(self):
        """A shipped snapshot carries sealed indexes the worker can probe."""
        from repro.engine.catalog import Catalog

        catalog = Catalog()
        catalog.create_table(
            "events", ["id", "val"], [(i, i * 3) for i in range(2000)]
        )
        catalog.create_index("events", "id", "hash")
        snapshot = catalog.snapshot()
        # The plan compiled worker-side must be an index scan (same optimizer,
        # same catalog state) — proven locally via EXPLAIN, then the worker
        # must agree on the rows.
        assert "IndexScan" in catalog.explain(
            "SELECT val FROM events WHERE id = 1234", physical=True
        )
        with ProcessExecutionTier(processes=1) as tier:
            result = tier.execute(snapshot, "SELECT val FROM events WHERE id = 1234")
            assert result.rows == [(3702,)]
            # Second fingerprint use must hit the worker's snapshot cache.
            tier.execute(snapshot, "SELECT val FROM events WHERE id = 7")
            assert tier.stats_snapshot()["worker_snapshot_cache_hits"] >= 1


class TestTierRobustness:
    """Shutdown-while-inflight and respawn-storm races (PR 8 satellites)."""

    def test_shutdown_while_inflight_never_hangs(self):
        """Concurrent shutdown during dispatched tasks completes promptly."""
        snapshot = load_covid_catalog().snapshot()
        queries = covid_query_log()[:4]
        tier = ProcessExecutionTier(processes=2)
        futures = [
            tier.submit_execute(snapshot, queries[i % len(queries)], ExecOptions(use_cache=False))
            for i in range(12)
        ]
        finished = threading.Event()

        def close() -> None:
            tier.shutdown(wait=True)
            finished.set()

        closer = threading.Thread(target=close, name="closer")
        closer.start()
        # The join timeouts inside shutdown() bound it; 90s of slack covers
        # slow CI without masking a real hang.
        assert finished.wait(timeout=90), "shutdown(wait=True) hung past the join timeout"
        closer.join()
        # Every future resolved: a row count on success, a typed error if
        # the shutdown raced its dispatch.
        for future in futures:
            try:
                assert future.result(timeout=5).row_count >= 0
            except WorkerError:
                pass

    def test_respawn_storm_keeps_tier_serving(self):
        """Back-to-back worker kills: the tier must keep answering correctly."""
        snapshot = load_covid_catalog().snapshot()
        query = covid_query_log()[0]
        baseline = snapshot.execute(query).rows
        with ProcessExecutionTier(processes=2) as tier:
            for _ in range(5):
                # Worker 0 is the light-reserved worker every read routes
                # to — killing it guarantees each round exercises the
                # die → respawn → retry path rather than dodging it.
                tier._handles[0].process.kill()
                result = tier.submit_execute(
                    snapshot, query, ExecOptions(use_cache=False)
                ).result(timeout=120)
                assert result.rows == baseline
            stats = tier.stats_snapshot()
            assert stats["workers_respawned"] >= 5
            # Idempotent retries absorbed the kills: the storm saw worker
            # deaths, not caller-visible failures.
            assert stats["tasks_retried"] >= 1

    def test_respawn_escalates_to_kill_when_join_times_out(self):
        """A worker that survives terminate()+join is SIGKILLed, not leaked."""

        class StubbornProcess:
            """Stays 'alive' through terminate/join until kill() lands."""

            def __init__(self) -> None:
                self.killed = False
                self.terminated = False

            def is_alive(self) -> bool:
                return not self.killed

            def terminate(self) -> None:
                self.terminated = True

            def kill(self) -> None:
                self.killed = True

            def join(self, timeout=None) -> None:
                pass

        with ProcessExecutionTier(processes=1) as tier:
            real = tier._handles[0].process
            stub = StubbornProcess()
            tier._handles[0].process = stub
            try:
                tier._respawn(0)
                assert stub.terminated and stub.killed
                assert tier.stats_snapshot()["respawn_escalations"] == 1
                # The replacement worker serves.
                snapshot = load_covid_catalog().snapshot()
                result = tier.execute(snapshot, "SELECT COUNT(*) AS n FROM covid_cases")
                assert result.row_count == 1
            finally:
                # The displaced real process lost its parent pipe end when
                # _respawn closed it; reap it so the test leaks nothing.
                real.terminate()
                real.join(timeout=10)


class TestAsyncFrontend:
    def test_tenant_routing_is_stable_and_spreads(self):
        frontend = AsyncInterfaceService(
            [load_covid_catalog() for _ in range(4)],
            ServiceConfig(),
        )
        try:
            routes = {f"tenant-{i}": frontend.shard_for(f"tenant-{i}") for i in range(64)}
            # Stable: same tenant, same shard, every time.
            for tenant, shard in routes.items():
                assert frontend.shard_for(tenant) == shard
            # Spreads: 64 tenants must land on more than one shard.
            assert len(set(routes.values())) == 4
        finally:
            frontend.close_sync()

    def test_storm_256_async_users_process_tier_zero_failures(self):
        log = covid_query_log()
        frontend = AsyncInterfaceService(
            [load_covid_catalog() for _ in range(4)],
            ServiceConfig(
                max_workers=8,
                max_sessions=128,
                max_pending=1024,
                execution_tier="process",
                worker_processes=2,
            ),
        )
        try:
            generator = AsyncLoadGenerator(
                frontend,
                read_queries=log[:6],
                generate_logs=[log[:3], log[1:4]],
                write_table="covid_cases",
                write_row=lambda user, i: [f"Z{user}", f"2021-12-{i % 28 + 1:02d}", i],
                mix=WorkloadMix(read=0.8, write=0.15, generate=0.05),
                generation_config=GENERATION_CONFIG,
                seed=20260727,
            )
            report = generator.run_sync(users=256, ops_per_user=4)
            stats = frontend.stats_snapshot()
        finally:
            frontend.close_sync()

        assert len(report.ops) == 256 * 4
        assert report.failures == [], [op.error for op in report.failures[:5]]
        assert stats["sessions_opened"] == 256
        # All four shards share one tier; shipping happened and paid off.
        assert stats["snapshot_ships"] > 0
        assert stats["worker_snapshot_cache_hits"] > 0


def single_worker_config(tier: str) -> ServiceConfig:
    return ServiceConfig(max_workers=2, execution_tier=tier, worker_processes=1)


class TestTierParity:
    """A query means the same thing whichever tier serves it."""

    QUERY = "SELECT state, count(*) AS n FROM covid_cases GROUP BY state"
    STEPS = (
        ExecOptions(optimize=False),
        ExecOptions(),
        ExecOptions(),
        ExecOptions(optimize=False),
        ExecOptions(use_cache=False),
    )

    def read_trace(self, tier: str, identity_calls: list) -> list:
        """Per step: the rows, the frontend cache counters moved, cache_identity calls."""
        trace = []
        with InterfaceService(load_covid_catalog(), single_worker_config(tier)) as service:
            session = service.create_session("parity")
            for options in self.STEPS:
                before, calls = service.catalog.cache_stats(), len(identity_calls)
                result = service.execute(session.session_id, self.QUERY, options)
                after = service.catalog.cache_stats()
                moved = {key: after[key] - before[key] for key in ("hits", "misses", "bypassed")}
                trace.append((sorted(result.rows), moved, len(identity_calls) - calls))
        return trace

    def test_one_read_sequence_moves_the_frontend_cache_identically(self, monkeypatch):
        from repro.engine import catalog as catalog_module

        calls: list = []
        identity = catalog_module.cache_identity

        def counting_identity(*args):
            calls.append(args)
            return identity(*args)

        monkeypatch.setattr(catalog_module, "cache_identity", counting_identity)
        thread = self.read_trace("thread", calls)
        process = self.read_trace("process", calls)
        assert process == thread
        # Unoptimized and uncached reads skip the cache; the second default
        # read is the only hit.
        assert [step[2] for step in thread] == [0, 1, 1, 0, 0]
        assert [step[1] for step in thread] == [
            {"hits": 0, "misses": 0, "bypassed": 1},
            {"hits": 0, "misses": 1, "bypassed": 0},
            {"hits": 1, "misses": 0, "bypassed": 0},
            {"hits": 0, "misses": 0, "bypassed": 1},
            {"hits": 0, "misses": 0, "bypassed": 0},
        ]

    @pytest.mark.parametrize("tier", ["thread", "process"])
    def test_a_bad_query_raises_its_engine_error(self, tier):
        with InterfaceService(load_covid_catalog(), single_worker_config(tier)) as service:
            session = service.create_session("errors")
            with pytest.raises(ExecutionError, match="Unknown column 'nosuch'") as raised:
                service.execute(session.session_id, "SELECT nosuch FROM covid_cases")
        assert type(raised.value) is ExecutionError
        assert not isinstance(raised.value, WorkerError)

    def test_a_half_open_probe_carrying_a_bad_query_closes_the_breaker(self):
        config = dataclasses.replace(
            single_worker_config("process"),
            breaker_failure_threshold=1,
            breaker_cooldown_seconds=0.2,
        )
        with InterfaceService(load_covid_catalog(), config) as service:
            breaker = service.process_tier.breaker
            session = service.create_session("probe")
            assert breaker.record_failure() is True
            time.sleep(0.25)
            with pytest.raises(ExecutionError):
                service.execute(session.session_id, "SELECT nosuch FROM covid_cases")
            assert breaker.state() == "closed"
            assert breaker.trips == 1
            assert service.stats_snapshot()["degraded"] == 0

    def test_read_after_refresh_is_folded_in_the_frontend(self):
        query = "SELECT count(*) AS n FROM covid_cases"
        with InterfaceService(load_covid_catalog(), single_worker_config("process")) as service:
            session = service.create_session("fold")
            first = service.execute(session.session_id, query)
            service.ingest("covid_cases", [["ZZ", "2021-12-31", 4]])
            session.refresh()
            before = service.stats_snapshot()
            folded = service.execute(session.session_id, query)
            after = service.stats_snapshot()
        assert folded.rows == [(first.rows[0][0] + 1,)]
        assert after["ivm_folds"] == before["ivm_folds"] + 1
        assert after["tasks_dispatched"] == before["tasks_dispatched"]


#: ``stats_snapshot()`` keys perfbench's serving metrics read in both tiers.
BENCHMARK_SERVICE_KEYS = ("frontend_queue_wait_p50_ms", "frontend_queue_wait_p95_ms", "rejected", "shed")
#: ...and the ones only the process tier reports.
BENCHMARK_TIER_KEYS = (
    "snapshot_ships",
    "worker_snapshot_cache_hits",
    "process_queue_wait_p95_ms",
    "tasks_retried",
)


class TestStatsContract:
    @pytest.mark.parametrize("tier", ["thread", "process"])
    def test_service_reports_the_benchmark_keys(self, tier):
        with InterfaceService(load_covid_catalog(), single_worker_config(tier)) as service:
            session = service.create_session("stats")
            service.execute(session.session_id, covid_query_log()[0])
            stats = service.stats_snapshot()
        for key in BENCHMARK_SERVICE_KEYS:
            assert key in stats, key
        assert (stats["submitted"], stats["completed"], stats["rejected"]) == (1, 1, 0)
        if tier == "thread":
            assert stats["worker_processes"] is None
            assert not set(BENCHMARK_TIER_KEYS) & set(stats)
        else:
            for key in BENCHMARK_TIER_KEYS:
                assert key in stats, key
            assert (stats["worker_processes"], stats["snapshot_ships"]) == (1, 1)

    def test_async_frontend_sums_shards_and_reads_the_tier_once(self):
        query = covid_query_log()[0]
        frontend = AsyncInterfaceService(
            [load_covid_catalog(), load_covid_catalog()], single_worker_config("process")
        )
        tenants = {frontend.shard_for(f"tenant-{i}"): f"tenant-{i}" for i in range(16)}

        async def drive():
            first = await frontend.open_session(tenants[0])
            second = await frontend.open_session(tenants[1])
            for handle in (first, first, second):
                await frontend.execute(handle, query)

        try:
            asyncio.run(drive())
            stats = frontend.stats_snapshot()
            tier_stats = frontend._tier.stats_snapshot()
        finally:
            frontend.close_sync()
        for stat in dataclasses.fields(ServiceStats):
            assert stats[stat.name] == sum(shard[stat.name] for shard in stats["per_shard"])
        assert (stats["shards"], stats["submitted"], stats["sessions_opened"]) == (2, 3, 2)
        assert {key: stats[key] for key in tier_stats} == tier_stats
        # Shard 0's second read hits its own frontend cache; each catalog
        # ships once.
        assert (stats["tasks_dispatched"], stats["snapshot_ships"]) == (2, 2)
