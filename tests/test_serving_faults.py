"""Seeded chaos suite for the serving fault-tolerance plane.

Every failure path the serving stack claims to survive is driven here
*deterministically* via :class:`repro.serving.FaultPlan` — no random
process killing, no sleep-and-hope.  Families:

* **Circuit breaker** — the state machine in isolation, on a fake clock.
* **Deadlines** — executor-checkpoint cancellation, queued-task expiry,
  and the caller-side wait timeout (which must *not* count against the
  worker).
* **Retries** — a killed worker's task is retried to success on the
  respawned worker; exhausted retries surface typed.
* **Ship faults** — corrupted/delayed snapshot payloads recover through
  the CRC + ``need_snapshot`` handshake with correct results.
* **Executor injection** — a planned in-executor fault at query K fires at
  exactly K and leaves queries K±1 untouched; it counts and fires only on
  the service's own catalogs, and an async frontend's shards share one
  injector.
* **Graceful degradation** — breaker-open thread-fallback serving, half-open
  probe recovery, and queue-depth load shedding (``OverloadError``).
* **Chaos storm** (the acceptance gate) — a mixed multi-client storm with
  two workers killed mid-run under deadlines + retries: zero wrong or torn
  results, every caller-visible failure typed, all successful results
  identical to the fault-free baseline.

``CHAOS_STORM_REQUESTS`` (default 256) sizes the storm;
``CHAOS_KILL_RATE`` (default 0) adds a seeded random kill probability on
top of the planned kills for elevated nightly runs.  To reproduce a chaos
failure, re-run with the same envs: the plan is fully determined by its
seed and ordinals.
"""

from __future__ import annotations

import asyncio
import os
import random
import threading
import time

import pytest

from repro.datasets import covid_query_log, load_covid_catalog
from repro.engine.options import ExecOptions
from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    OverloadError,
    QueryTimeoutError,
    WorkerError,
)
from repro.pipeline import PipelineConfig, generate_interface
from repro.serving import (
    AsyncInterfaceService,
    CircuitBreaker,
    FaultPlan,
    InjectedFault,
    InterfaceService,
    ProcessExecutionTier,
    RetryPolicy,
    ServiceConfig,
)
from repro.serving.workers import _Future

GENERATION_CONFIG = PipelineConfig(method="greedy", greedy_max_steps=4)

STORM_REQUESTS = int(os.environ.get("CHAOS_STORM_REQUESTS", "256"))
STORM_KILL_RATE = float(os.environ.get("CHAOS_KILL_RATE", "0"))


class FakeClock:
    """A manually advanced monotonic clock for breaker unit tests."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def make(self, clock, threshold=3, window=10.0, cooldown=5.0) -> CircuitBreaker:
        return CircuitBreaker(
            failure_threshold=threshold,
            window_seconds=window,
            cooldown_seconds=cooldown,
            clock=clock,
        )

    def test_trips_at_threshold_within_window(self):
        clock = FakeClock()
        breaker = self.make(clock)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.state() == "closed"
        assert breaker.record_failure() is True
        assert breaker.state() == "open"
        assert breaker.trips == 1
        assert breaker.acquire() == "rejected"

    def test_window_prunes_old_failures(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=3, window=10.0)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(11.0)  # both fall out of the window
        assert breaker.record_failure() is False
        assert breaker.state() == "closed"

    def test_half_open_single_probe_then_recovery(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, cooldown=5.0)
        assert breaker.record_failure() is True
        assert breaker.acquire() == "rejected"  # cooling down
        clock.advance(5.0)
        assert breaker.acquire() == "probe"
        # Only one probe at a time: concurrent callers keep degrading.
        assert breaker.acquire() == "rejected"
        breaker.record_success()
        assert breaker.state() == "closed"
        assert breaker.acquire() == "closed"

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=1, cooldown=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.acquire() == "probe"
        breaker.record_probe_failure()
        assert breaker.state() == "open"
        assert breaker.trips == 2
        assert breaker.acquire() == "rejected"  # cooldown restarted
        clock.advance(5.0)
        assert breaker.acquire() == "probe"

    def test_success_outside_half_open_is_a_no_op(self):
        clock = FakeClock()
        breaker = self.make(clock, threshold=2)
        breaker.record_failure()
        breaker.record_success()  # closed: must not clear the window
        assert breaker.record_failure() is True


class TestDeadlines:
    def test_executor_checkpoint_cancels_past_deadline(self):
        catalog = load_covid_catalog()
        with pytest.raises(QueryTimeoutError):
            catalog.execute(
                covid_query_log()[0],
                ExecOptions(use_cache=False, deadline=time.monotonic() - 0.001),
            )

    def test_timed_out_query_never_poisons_the_result_cache(self):
        catalog = load_covid_catalog()
        query = covid_query_log()[0]
        with pytest.raises(QueryTimeoutError):
            catalog.execute(query, ExecOptions(deadline=time.monotonic() - 0.001))
        # The same query with room to run must compute fresh and succeed.
        fresh = catalog.execute(query, ExecOptions(deadline=time.monotonic() + 60))
        assert fresh.row_count >= 0

    def test_expired_queued_task_is_dropped_typed(self):
        snapshot = load_covid_catalog().snapshot()
        with ProcessExecutionTier(processes=1) as tier:
            future = tier.submit_execute(
                snapshot, covid_query_log()[0], ExecOptions(deadline=time.monotonic() - 1.0)
            )
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=60)
            stats = tier.stats_snapshot()
            assert stats["tasks_expired"] == 1
            # The worker never saw the task, so nothing failed or respawned.
            assert stats["workers_respawned"] == 0

    def test_future_wait_timeout_is_not_a_worker_error(self):
        future = _Future()
        with pytest.raises(DeadlineExceededError):
            future.result(timeout=0.01)
        # The future is still live: a late completion is observable.
        future.set_result(41)
        assert future.result(timeout=1) == 41

    def test_worker_side_timeout_comes_back_typed(self):
        """A deadline blowing *inside* the worker crosses the pipe typed."""
        snapshot = load_covid_catalog().snapshot()
        with ProcessExecutionTier(processes=1) as tier:
            # Warm the worker's snapshot cache with a deadline-free task so
            # the timed task is dispatched (not dropped) and expires at an
            # executor checkpoint inside the worker.
            tier.submit_execute(snapshot, covid_query_log()[0]).result(timeout=120)
            future = tier.submit_execute(
                snapshot,
                covid_query_log()[1],
                ExecOptions(use_cache=False, deadline=time.monotonic() + 0.0005),
            )
            with pytest.raises((QueryTimeoutError, DeadlineExceededError)):
                future.result(timeout=120)
            assert tier.stats_snapshot()["workers_respawned"] == 0


class TestRetries:
    def test_killed_worker_task_retries_to_success(self):
        snapshot = load_covid_catalog().snapshot()
        query = covid_query_log()[0]
        baseline = snapshot.execute(query).rows
        plan = FaultPlan(kill_worker_at_task={0: (1,)})
        with ProcessExecutionTier(processes=1, faults=plan.injector()) as tier:
            result = tier.submit_execute(snapshot, query).result(timeout=120)
            stats = tier.stats_snapshot()
        assert result.rows == baseline
        assert stats["tasks_retried"] >= 1
        assert stats["workers_respawned"] >= 1

    def test_exhausted_retries_surface_worker_error(self):
        snapshot = load_covid_catalog().snapshot()
        plan = FaultPlan(kill_rate=1.0)  # every dispatch kills the worker
        policy = RetryPolicy(max_attempts=2, base_delay_ms=1.0, max_delay_ms=2.0)
        with ProcessExecutionTier(
            processes=1, retry_policy=policy, faults=plan.injector()
        ) as tier:
            future = tier.submit_execute(snapshot, covid_query_log()[0])
            with pytest.raises(WorkerError):
                future.result(timeout=120)
            assert tier.stats_snapshot()["tasks_retried"] == policy.max_attempts - 1

    def test_backoff_is_bounded_and_jittered(self):
        policy = RetryPolicy(max_attempts=5, base_delay_ms=10.0, max_delay_ms=40.0, jitter=0.5)
        rng = random.Random(7)
        for attempt in range(1, 5):
            backoff = policy.backoff_seconds(attempt, rng)
            base = min(40.0, 10.0 * 2 ** (attempt - 1)) / 1000.0
            assert base <= backoff <= base * 1.5


class TestShipFaults:
    def test_corrupt_ship_recovers_via_integrity_retry(self):
        snapshot = load_covid_catalog().snapshot()
        query = covid_query_log()[0]
        baseline = snapshot.execute(query).rows
        plan = FaultPlan(corrupt_ships=frozenset({1}))
        injector = plan.injector()
        with ProcessExecutionTier(processes=1, faults=injector) as tier:
            result = tier.submit_execute(snapshot, query).result(timeout=120)
            stats = tier.stats_snapshot()
        assert result.rows == baseline
        assert stats["ship_integrity_retries"] == 1
        assert injector.counters()["ships_corrupted"] == 1
        # No respawn: the worker stayed healthy the whole time.
        assert stats["workers_respawned"] == 0

    def test_delayed_ship_still_returns_correct_rows(self):
        snapshot = load_covid_catalog().snapshot()
        query = covid_query_log()[0]
        baseline = snapshot.execute(query).rows
        plan = FaultPlan(delay_ship_ms=50.0, delay_ships=frozenset({1}))
        injector = plan.injector()
        with ProcessExecutionTier(processes=1, faults=injector) as tier:
            result = tier.submit_execute(snapshot, query).result(timeout=120)
        assert result.rows == baseline
        assert injector.counters()["ships_delayed"] == 1


class TestExecutorInjection:
    def test_planned_fault_fires_at_exact_query_ordinal(self):
        plan = FaultPlan(executor_raise_at=frozenset({2}))
        config = ServiceConfig(max_workers=2, fault_plan=plan)
        with InterfaceService(load_covid_catalog(), config) as service:
            session = service.create_session("chaos")
            query = covid_query_log()[0]
            # Ordinal 1: clean.
            first = service.execute(session.session_id, query, ExecOptions(use_cache=False))
            # Ordinal 2: the planned fault, raised from inside the executor.
            with pytest.raises(InjectedFault):
                service.execute(session.session_id, query, ExecOptions(use_cache=False))
            # Ordinal 3: clean again — the plane is surgical, not sticky.
            third = service.execute(session.session_id, query, ExecOptions(use_cache=False))
            assert third.rows == first.rows
            assert service.fault_injector.counters()["executor_raises"] == 1

    def test_planned_fault_never_fires_on_another_catalogs_query(self):
        plan = FaultPlan(executor_raise_at=frozenset({2}))
        query = covid_query_log()[0]
        service = InterfaceService(
            load_covid_catalog(), ServiceConfig(max_workers=1, fault_plan=plan)
        )
        try:
            # An unrelated catalog in the same process: its second top-level
            # execution is neither counted nor failed by the service's plan.
            bystander = load_covid_catalog()
            for _ in range(2):
                bystander.execute(query, ExecOptions(use_cache=False))
            assert service.fault_injector.counters()["executes_seen"] == 0
        finally:
            service.shutdown()
        assert service.catalog.fault_hook is None

    def test_shards_share_one_injector(self):
        # Ordinals are global across shards: shard 0 runs queries 1-3, so
        # the planned fault at 4 lands on shard 1's first query.
        plan = FaultPlan(executor_raise_at=frozenset({4}))
        query = covid_query_log()[0]
        cold = ExecOptions(use_cache=False)
        frontend = AsyncInterfaceService(
            [load_covid_catalog(), load_covid_catalog()],
            ServiceConfig(max_workers=1, fault_plan=plan),
        )
        tenants = {frontend.shard_for(f"tenant-{i}"): f"tenant-{i}" for i in range(16)}

        async def drive():
            first = await frontend.open_session(tenants[0])
            second = await frontend.open_session(tenants[1])
            for _ in range(3):
                await frontend.execute(first, query, cold)
            with pytest.raises(InjectedFault):
                await frontend.execute(second, query, cold)
            await frontend.execute(second, query, cold)

        try:
            asyncio.run(drive())
            injectors = [service.fault_injector for service in frontend._shards]
        finally:
            frontend.close_sync()
        assert injectors[0] is injectors[1]
        counters = injectors[0].counters()
        assert counters["executes_seen"] == 5
        assert counters["executor_raises"] == 1
        assert [service.catalog.fault_hook for service in frontend._shards] == [None, None]


class TestGracefulDegradation:
    def test_breaker_open_falls_back_to_frontend_then_recovers(self):
        config = ServiceConfig(
            max_workers=4,
            execution_tier="process",
            worker_processes=1,
            breaker_failure_threshold=2,
            breaker_window_seconds=30.0,
            breaker_cooldown_seconds=0.3,
        )
        query = covid_query_log()[0]
        with InterfaceService(load_covid_catalog(), config) as service:
            tier = service.process_tier
            session = service.create_session("degraded")
            baseline = service.execute(session.session_id, query, ExecOptions(use_cache=False))

            # Trip the breaker the way real worker deaths would feed it.
            assert tier.breaker.record_failure() is False
            assert tier.breaker.record_failure() is True
            assert tier.breaker.state() == "open"

            # Open: requests are served in-frontend — correct, degraded.
            degraded = service.execute(session.session_id, query, ExecOptions(use_cache=False))
            assert degraded.rows == baseline.rows
            stats = service.stats_snapshot()
            assert stats["degraded"] >= 1
            assert stats["breaker_state"] == "open"
            assert stats["breaker_trips"] == 1

            # After the cooldown the next request carries the probe; its
            # success closes the breaker and normal dispatch resumes.
            time.sleep(0.35)
            recovered = service.execute(session.session_id, query, ExecOptions(use_cache=False))
            assert recovered.rows == baseline.rows
            assert tier.breaker.state() == "closed"

    def test_breaker_open_generation_degrades_to_serial(self):
        queries = covid_query_log()[:3]
        serial = generate_interface(queries, load_covid_catalog(), GENERATION_CONFIG)
        config = ServiceConfig(
            max_workers=2,
            execution_tier="process",
            worker_processes=1,
            breaker_failure_threshold=1,
            breaker_cooldown_seconds=300.0,  # stays open for the whole test
        )
        with InterfaceService(load_covid_catalog(), config) as service:
            service.process_tier.breaker.record_failure()
            session = service.create_session("degraded-gen")
            result = service.generate(session.session_id, queries, GENERATION_CONFIG)
            assert result.interface.fingerprint() == serial.interface.fingerprint()
            assert service.stats_snapshot()["degraded"] >= 1

    def test_queue_watermark_sheds_generate_class_work(self):
        config = ServiceConfig(max_workers=2, max_pending=4, shed_watermark=0.5)
        with InterfaceService(load_covid_catalog(), config) as service:
            session = service.create_session("shed")
            release = threading.Event()
            started = [service._submit(lambda: release.wait(30)) for _ in range(2)]
            try:
                # 2 in flight == watermark (0.5 * 4): heavy work is shed...
                with pytest.raises(OverloadError):
                    service.submit_generate(
                        session.session_id, covid_query_log()[:2], GENERATION_CONFIG
                    )
                # ...while light reads still admit below max_pending, and
                # OverloadError stays catchable as AdmissionError for
                # existing backpressure handling.
                assert issubclass(OverloadError, AdmissionError)
                future = service.submit_execute(session.session_id, covid_query_log()[0])
                assert future.result(timeout=60).row_count >= 0
                assert service.stats_snapshot()["shed"] == 1
            finally:
                release.set()
                for future in started:
                    future.result(timeout=60)


class TestChaosStorm:
    """The acceptance gate: a mixed storm with workers dying mid-run.

    Two workers are killed at planned dispatch ordinals (plus an optional
    ``CHAOS_KILL_RATE`` for nightly soak runs).  With deadlines and retries
    enabled the storm must complete with zero wrong or torn results: every
    successful read matches the fault-free baseline rows, every successful
    generation matches the fault-free fingerprint, and every caller-visible
    failure is one of the three typed outcomes.
    """

    def test_storm_with_worker_kills_yields_no_wrong_results(self):
        clients = 8
        ops_per_client = max(1, STORM_REQUESTS // clients)
        read_queries = covid_query_log()[:6]
        generate_log = covid_query_log()[:3]

        # Fault-free baselines, computed serially on an identical catalog.
        baseline_catalog = load_covid_catalog()
        baseline_rows = {
            query: baseline_catalog.snapshot().execute(query).rows
            for query in read_queries
        }
        serial_fingerprint = generate_interface(
            generate_log, load_covid_catalog(), GENERATION_CONFIG
        ).interface.fingerprint()

        plan = FaultPlan(
            seed=20260807,
            # Both workers die mid-storm; worker 0 twice for good measure.
            kill_worker_at_task={0: (3, 11), 1: (5,)},
            kill_rate=STORM_KILL_RATE,
        )
        config = ServiceConfig(
            max_workers=8,
            max_sessions=2 * clients,
            max_pending=256,
            execution_tier="process",
            worker_processes=2,
            default_deadline_ms=120_000.0,  # enabled, generous for slow CI
            fault_plan=plan,
        )
        allowed_failures = (QueryTimeoutError, OverloadError, DeadlineExceededError)
        if STORM_KILL_RATE > 0:
            # Elevated-rate soak runs can exhaust the retry budget before
            # any deadline passes; that surfaces as the (typed) WorkerError.
            allowed_failures = allowed_failures + (WorkerError,)

        service = InterfaceService(load_covid_catalog(), config)
        wrong: list[str] = []
        untyped: list[str] = []
        lock = threading.Lock()

        def client_loop(client: int) -> None:
            rng = random.Random(1000 + client)
            session = service.create_session(f"chaos-{client}")
            for sequence in range(ops_per_client):
                roll = rng.random()
                try:
                    if roll < 0.80:
                        query = rng.choice(read_queries)
                        result = service.execute(
                            session.session_id,
                            query,
                            ExecOptions(use_cache=sequence % 2 == 0),
                        )
                        if result.rows != baseline_rows[query]:
                            with lock:
                                wrong.append(f"read mismatch: {query}")
                    elif roll < 0.90:
                        appended = service.ingest(
                            "covid_cases",
                            [[f"Z{client}", f"2021-12-{sequence % 28 + 1:02d}", 1]],
                        )
                        if appended != 1:
                            with lock:
                                wrong.append(f"torn write: appended={appended}")
                    else:
                        generated = service.generate(
                            session.session_id, generate_log, GENERATION_CONFIG
                        )
                        if generated.interface.fingerprint() != serial_fingerprint:
                            with lock:
                                wrong.append("generation fingerprint mismatch")
                except allowed_failures:
                    pass  # bounded, typed, expected under injected faults
                except Exception as exc:  # noqa: BLE001 - the assertion target
                    with lock:
                        untyped.append(f"{type(exc).__name__}: {exc}")
            service.close_session(session.session_id)

        threads = [
            threading.Thread(target=client_loop, args=(i,), name=f"chaos-{i}")
            for i in range(clients)
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=280)
            stats = service.stats_snapshot()
            injector = service.fault_injector
        finally:
            service.shutdown()

        assert not any(thread.is_alive() for thread in threads), "storm hung"
        # Zero wrong or torn results; all failures typed.
        assert wrong == [], wrong[:5]
        assert untyped == [], untyped[:5]
        # The faults actually fired and the plane actually recovered.
        assert injector.counters()["workers_killed"] >= 3
        assert stats["workers_respawned"] >= 3
        assert stats["tasks_retried"] >= 1
