"""The multi-session serving service: admission control + bounded worker pool.

:class:`InterfaceService` turns the single-threaded pipeline into a
concurrent service.  It owns

* the live :class:`~repro.engine.catalog.Catalog` (all writes go through the
  catalog's copy-on-write path, so readers pinned at older versions are never
  torn),
* a bounded **worker pool** (``concurrent.futures.ThreadPoolExecutor``) that
  runs ad-hoc query execution, interface generation and dataset ingest
  concurrently,
* a dedicated **profile pool** the search layer fans per-tree candidate
  profiling out on — deliberately separate from the worker pool, because a
  generation task blocking on futures scheduled into its *own* saturated pool
  would deadlock,
* **admission control**: a hard cap on live sessions and on in-flight
  submitted tasks; past either cap, :class:`~repro.errors.AdmissionError` is
  raised instead of queueing unboundedly.

Lock hierarchy (top to bottom; a thread may only acquire downwards):

1. ``InterfaceService._lock`` — session registry and in-flight accounting,
2. ``Session._lock`` — per-session state (held across that session's own
   query execution: serializing one session's reads is intended),
3. ``Catalog._write_lock`` — copy-on-write writers (ingest),
4. ``Catalog._lock`` — table-map swaps, version reads, snapshot pinning,
5. cache-internal locks (``QueryCache``).

The ordering is rooted by the engine never calling back up into the serving
layer: catalog and cache locks are always acquired at the *bottom* of a call
chain, so no task body or callback acquires upwards, which is what makes the
layer deadlock-free by construction (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.engine.catalog import Catalog
from repro.engine.options import DEFAULT_OPTIONS, ExecOptions
from repro.engine.table import QueryResult
from repro.errors import (
    AdmissionError,
    DeadlineExceededError,
    OverloadError,
    SessionError,
    WorkerError,
)
from repro.obs import percentile
from repro.pipeline import GenerationResult, PipelineConfig, generate_interface
from repro.serving.faults import FaultPlan
from repro.serving.session import Session
from repro.serving.workers import (
    QUEUE_WAIT_SAMPLE_CAPACITY,
    CircuitBreaker,
    ProcessExecutionTier,
    RetryPolicy,
)

#: Extra slack granted on top of a task's deadline when blocking on its
#: future: the deadline is enforced *inside* the tier (queued-task drops,
#: executor checkpoints), so the frontend wait only needs to cover delivery
#: of the typed deadline error, not race it.
DEADLINE_GRACE_SECONDS = 1.0


@dataclass
class ServiceConfig:
    """Sizing and admission knobs of one :class:`InterfaceService`."""

    #: Worker threads running queries, generations and ingest.  In the
    #: process tier these threads only *marshal* work (they block GIL-free on
    #: worker pipes), so size this at least as large as ``worker_processes``.
    max_workers: int = 4
    #: Threads of the dedicated per-tree profile pool (0 disables fan-out).
    profile_workers: int = 2
    #: Hard cap on concurrently open sessions.
    max_sessions: int = 16
    #: Hard cap on submitted-but-unfinished tasks across all sessions.
    max_pending: int = 64
    #: Default pipeline configuration for ``submit_generate``.
    generation: PipelineConfig = field(default_factory=PipelineConfig)
    #: Where CPU-heavy ops execute: ``"thread"`` (PR 5 behaviour — queries
    #: and generations run on the worker threads, GIL-bound) or ``"process"``
    #: (they dispatch to a :class:`ProcessExecutionTier`; sessions, admission
    #: control and writes stay in the frontend either way).
    execution_tier: str = "thread"
    #: Worker process count of the process tier (ignored for ``"thread"``).
    #: ``None`` sizes the pool from ``os.cpu_count()`` (clamped; see
    #: :func:`repro.serving.workers.default_worker_processes`) — a hardcoded
    #: default either starves big hosts or oversizes small containers.  An
    #: explicit integer still wins unchanged.
    worker_processes: int | None = None
    #: ``multiprocessing`` start method for the process tier.
    worker_start_method: str = "spawn"
    #: Shard count the async frontend partitions tenants across (each shard
    #: is one InterfaceService over its own catalog; tenants on different
    #: shards never contend on one ``Catalog._write_lock``).  Ignored by a
    #: directly constructed single service.
    shards: int = 1
    #: Default deadline applied to every submitted task, in milliseconds
    #: (``None`` = no deadline).  Per-request ``deadline_ms`` overrides win.
    #: Deadlines are absolute: computed once at submission and enforced at
    #: every stage (frontend queue, tier dispatch queue, executor
    #: checkpoints), so queue time counts against them.
    default_deadline_ms: float | None = None
    #: Fraction of ``max_pending`` past which generate-class submissions are
    #: shed with :class:`~repro.errors.OverloadError` — heavy work is
    #: rejected *before* it can starve light reads of the remaining slots.
    shed_watermark: float = 0.75
    #: Retry policy for process-tier tasks whose worker died mid-flight.
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Circuit-breaker tuning for the process tier: trip open after
    #: ``breaker_failure_threshold`` worker failures inside
    #: ``breaker_window_seconds``; probe for recovery after
    #: ``breaker_cooldown_seconds``.  While open, work transparently falls
    #: back to in-frontend thread execution.
    breaker_failure_threshold: int = 4
    breaker_window_seconds: float = 30.0
    breaker_cooldown_seconds: float = 5.0
    #: Deterministic fault-injection plan (chaos testing only; ``None``
    #: keeps every fault site a no-op).
    fault_plan: FaultPlan | None = None


@dataclass
class ServiceStats:
    """Service-wide counters (reads are snapshots; writes are lock-guarded).

    ``snapshot_ships`` / ``worker_snapshot_cache_hits`` mirror the process
    tier (always 0 in the thread tier): how many times a pickled snapshot
    actually crossed a process boundary versus how many tasks found their
    fingerprint already cached in the worker.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    #: Generate-class submissions rejected by the load-shedding watermark.
    shed: int = 0
    #: Requests served by the in-frontend fallback because the process
    #: tier's circuit breaker was open.
    degraded: int = 0
    #: Tasks dropped in the frontend because their deadline elapsed while
    #: queued (the process tier counts its own drops in ``tasks_expired``).
    expired: int = 0
    sessions_opened: int = 0
    sessions_rejected: int = 0
    snapshot_ships: int = 0
    worker_snapshot_cache_hits: int = 0


class InterfaceService:
    """A thread-safe, multi-session facade over the generation pipeline."""

    def __init__(
        self,
        catalog: Catalog,
        config: ServiceConfig | None = None,
        process_tier: ProcessExecutionTier | None = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or ServiceConfig()
        if self.config.max_workers <= 0:
            raise AdmissionError("InterfaceService needs at least one worker")
        if self.config.execution_tier not in ("thread", "process"):
            raise AdmissionError(
                f"Unknown execution tier {self.config.execution_tier!r} "
                f"(expected 'thread' or 'process')"
            )
        # The process tier must exist before any frontend thread is spawned
        # (a 'fork' start method is only safe while the process is still
        # single-threaded).  A shared tier may be injected — the async
        # frontend passes one tier to all of its shards so S shards do not
        # spawn S * worker_processes processes.
        # Fault plane: one injector instance shared by every site of this
        # service (tier dispatchers, ship path, executor hook) so the plan's
        # ordinals are global and its counters audit the whole run.  None —
        # the default — keeps every site a no-op.
        plan = self.config.fault_plan
        self._fault_injector = plan.injector() if plan is not None and plan.enabled() else None
        self._previous_executor_hook = None
        self._executor_hook_installed = False
        if self._fault_injector is not None and plan.executor_raise_at:
            from repro.engine.executor import install_fault_hook

            self._previous_executor_hook = install_fault_hook(
                self._fault_injector.executor_hook()
            )
            self._executor_hook_installed = True
        self._process_tier: ProcessExecutionTier | None = None
        self._owns_process_tier = False
        if self.config.execution_tier == "process":
            if process_tier is not None:
                self._process_tier = process_tier
            else:
                self._process_tier = ProcessExecutionTier(
                    processes=self.config.worker_processes,
                    start_method=self.config.worker_start_method,
                    retry_policy=self.config.retry_policy,
                    breaker=CircuitBreaker(
                        failure_threshold=self.config.breaker_failure_threshold,
                        window_seconds=self.config.breaker_window_seconds,
                        cooldown_seconds=self.config.breaker_cooldown_seconds,
                    ),
                    faults=self._fault_injector,
                )
                self._owns_process_tier = True
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_workers, thread_name_prefix="serve"
        )
        self._profile_pool = (
            ThreadPoolExecutor(
                max_workers=self.config.profile_workers, thread_name_prefix="profile"
            )
            if self.config.profile_workers > 0 and self._process_tier is None
            else None
        )
        self._queue_waits: deque = deque(maxlen=QUEUE_WAIT_SAMPLE_CAPACITY)
        self._sessions: dict[str, Session] = {}
        self._lock = threading.Lock()
        #: Admission slots reserved by in-progress create_session calls (the
        #: session is constructed outside the registry lock — catalog locks
        #: rank above service locks — so the slot is held by this counter
        #: until the session lands in the registry).
        self._reserved_sessions = 0
        self._inflight = 0
        self._ids = itertools.count(1)
        self._closed = False
        self.stats = ServiceStats()

    # ------------------------------------------------------------------ #
    # Session lifecycle / admission control
    # ------------------------------------------------------------------ #

    def create_session(self, user: str = "anonymous") -> Session:
        """Open a session, pinning a snapshot at the current data version.

        Raises :class:`AdmissionError` once ``max_sessions`` sessions are
        live — callers are expected to retry after closing one, not to queue.
        """
        with self._lock:
            self._ensure_open()
            if len(self._sessions) + self._reserved_sessions >= self.config.max_sessions:
                self.stats.sessions_rejected += 1
                raise AdmissionError(
                    f"Session limit reached ({self.config.max_sessions}); "
                    f"close a session before opening another"
                )
            self._reserved_sessions += 1
            session_id = f"s{next(self._ids)}"
            self.stats.sessions_opened += 1
        # Pinning reads the catalog lock; done outside the registry lock so
        # concurrent creators and submitters never queue behind a snapshot
        # pin.  The reserved counter keeps concurrent creators from
        # overshooting the cap in the meantime.
        try:
            session = Session(session_id=session_id, user=user, catalog=self.catalog)
        except BaseException:
            with self._lock:
                self._reserved_sessions -= 1
            raise
        with self._lock:
            self._reserved_sessions -= 1
            self._ensure_open()
            self._sessions[session_id] = session
        return session

    def session(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionError(f"Unknown session {session_id!r}")
        return session

    def close_session(self, session_id: str) -> None:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is None:
            raise SessionError(f"Unknown session {session_id!r}")
        session.close()

    def session_count(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------ #
    # Task submission
    # ------------------------------------------------------------------ #

    def submit_execute(
        self,
        session_id: str,
        query: str,
        options: ExecOptions = DEFAULT_OPTIONS,
    ) -> "Future[QueryResult]":
        """Run one SQL query on the session's pinned snapshot.

        Thread tier: the query executes on the worker pool.  Process tier:
        the worker-pool thread only marshals — it ships ``(canonical SQL,
        fingerprint)`` to a worker process (plus the snapshot itself iff that
        worker has never seen this fingerprint) and blocks GIL-free on the
        pipe, so concurrent queries execute truly in parallel.

        ``options`` carries the execution knobs (:class:`ExecOptions`).  A
        relative ``deadline_ms`` budget (or, absent one,
        ``ServiceConfig.default_deadline_ms``) is resolved to an absolute
        deadline at submission; past it the request resolves to a typed error
        (:class:`~repro.errors.QueryTimeoutError` if cancelled mid-execution,
        :class:`~repro.errors.DeadlineExceededError` if dropped in a queue).
        """
        if options.deadline is None and options.deadline_ms is None:
            options = options.replace(deadline=self._deadline_from(None))
        resolved = options.pinned()
        session = self.session(session_id)
        runner = self._tier_runner()
        return self._submit(
            lambda: session.execute(query, resolved, runner=runner),
            deadline=resolved.deadline,
        )

    def _deadline_from(self, deadline_ms: float | None) -> float | None:
        """Resolve a per-request override + config default to an absolute deadline."""
        ms = deadline_ms if deadline_ms is not None else self.config.default_deadline_ms
        if ms is None:
            return None
        return time.monotonic() + ms / 1000.0

    def _tier_runner(self):
        """The session-execute runner for the configured execution tier."""
        tier = self._process_tier
        if tier is None:
            return None

        def run(snapshot, query, options):
            # Read fast path: hot queries are served from the frontend's
            # shared result cache at thread-tier cost; only misses pay the
            # worker round-trip, and their answers are published back so
            # every session pinned at this version hits next time.
            if options.use_cache:
                cached = snapshot.cached_result(query)
                if cached is not None:
                    return cached
            result = self._tier_call(
                tier,
                lambda: tier.submit_execute(snapshot, query, options),
                lambda: snapshot.execute(query, options),
                options.resolved_deadline(),
            )
            if options.use_cache:
                snapshot.store_result(query, result)
            return result

        return run

    def _tier_call(self, tier, submit, fallback, deadline):
        """One process-tier dispatch under the circuit-breaker protocol.

        Breaker closed: dispatch normally.  Open: serve via ``fallback`` —
        in-frontend execution at thread-tier cost (degraded mode: correct
        answers, reduced parallelism).  Half-open: this call may carry the
        recovery probe, in which case it must report the tier's health back.
        Only transport-class failures (worker death, deadline blown inside
        the tier) count against a probe — a typed engine error still proves
        the tier can run work.
        """
        breaker = tier.breaker
        ticket = breaker.acquire() if breaker is not None else "closed"
        if ticket == "rejected":
            with self._lock:
                self.stats.degraded += 1
            return fallback()
        try:
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic()) + DEADLINE_GRACE_SECONDS
            result = submit().result(timeout)
        except (WorkerError, DeadlineExceededError):
            if ticket == "probe":
                breaker.record_probe_failure()
            raise
        except Exception:
            if ticket == "probe":
                breaker.record_success()
            raise
        if ticket == "probe":
            breaker.record_success()
        return result

    def execute(
        self,
        session_id: str,
        query: str,
        options: ExecOptions = DEFAULT_OPTIONS,
    ) -> QueryResult:
        return self.submit_execute(session_id, query, options).result()

    def submit_generate(
        self,
        session_id: str,
        queries: Sequence[str],
        config: PipelineConfig | None = None,
        deadline_ms: float | None = None,
    ) -> "Future[GenerationResult]":
        """Generate an interface for the session's query log, on the pool.

        The generation runs against the session's pinned snapshot (one
        consistent data version end to end) with per-tree profiling fanned
        out across the dedicated profile pool, and attaches the resulting
        interface to the session on completion.

        Generation is the shedding class: past the queue-depth watermark it
        is rejected with :class:`~repro.errors.OverloadError` before it can
        starve light reads (see ``ServiceConfig.shed_watermark``).
        """
        session = self.session(session_id)
        generation_config = config or self.config.generation
        tier = self._process_tier
        deadline = self._deadline_from(deadline_ms)

        if tier is not None:

            def run() -> GenerationResult:
                # The whole generation is one picklable task descriptor
                # (query log + config + fingerprint); the search, mapping,
                # costing and per-tree profiling all run inside one worker
                # process, so concurrent sessions' generations use separate
                # cores instead of interleaving under the GIL.  Breaker
                # open: the generation runs serially in the frontend —
                # slower, still correct (the pipeline is a pure function of
                # snapshot + queries + config).
                result = self._tier_call(
                    tier,
                    lambda: tier.submit_generate(
                        session.snapshot, list(queries), generation_config, deadline=deadline
                    ),
                    lambda: generate_interface(
                        list(queries), session.snapshot, generation_config
                    ),
                    deadline,
                )
                session.attach(result)
                return result

        else:

            def run() -> GenerationResult:
                result = generate_interface(
                    list(queries),
                    session.snapshot,
                    generation_config,
                    profile_executor=self._profile_pool,
                )
                session.attach(result)
                return result

        return self._submit(run, heavy=True, deadline=deadline)

    def generate(
        self,
        session_id: str,
        queries: Sequence[str],
        config: PipelineConfig | None = None,
        deadline_ms: float | None = None,
    ) -> GenerationResult:
        return self.submit_generate(session_id, queries, config, deadline_ms=deadline_ms).result()

    def submit_ingest(
        self, table_name: str, rows: Iterable[Sequence[Any]]
    ) -> "Future[int]":
        """Append rows to a live table via the catalog's copy-on-write path.

        Sessions pinned at older versions keep their view; they observe the
        new rows after :meth:`Session.refresh`.
        """
        materialized = [list(row) for row in rows]
        return self._submit(lambda: self.catalog.append_rows(table_name, materialized))

    def ingest(self, table_name: str, rows: Iterable[Sequence[Any]]) -> int:
        return self.submit_ingest(table_name, rows).result()

    def _submit(
        self,
        task: Callable[[], Any],
        heavy: bool = False,
        deadline: float | None = None,
    ) -> Future:
        """Admission-checked submission onto the worker pool.

        ``heavy`` marks generate-class work, which is load-shed at the
        queue-depth watermark — strictly below the hard ``max_pending`` cap,
        so heavy work runs out of headroom while light reads still admit.
        """
        with self._lock:
            self._ensure_open()
            if heavy and 0 < self.config.shed_watermark < 1:
                watermark = max(1, int(self.config.shed_watermark * self.config.max_pending))
                if self._inflight >= watermark:
                    self.stats.shed += 1
                    raise OverloadError(
                        f"Load shedding: {self._inflight} tasks in flight is past the "
                        f"heavy-work watermark ({watermark} of {self.config.max_pending})"
                    )
            if self._inflight >= self.config.max_pending:
                self.stats.rejected += 1
                raise AdmissionError(
                    f"Task backlog limit reached ({self.config.max_pending} in flight)"
                )
            self._inflight += 1
            self.stats.submitted += 1
        submitted_at = time.perf_counter()

        def timed_task():
            # Frontend queue wait: submission -> a pool thread picking the
            # task up.  (The process tier separately samples its own
            # dispatch-queue wait; both surface in stats_snapshot().)
            with self._lock:
                self._queue_waits.append(time.perf_counter() - submitted_at)
            if deadline is not None and time.monotonic() >= deadline:
                # The deadline elapsed while the task sat in the frontend
                # queue — drop it before it wastes a worker.
                with self._lock:
                    self.stats.expired += 1
                raise DeadlineExceededError(
                    "Task deadline elapsed in the frontend queue; dropped before execution"
                )
            return task()

        try:
            future = self._pool.submit(timed_task)
        except BaseException:
            with self._lock:
                self._inflight -= 1
                self.stats.submitted -= 1
            raise
        future.add_done_callback(self._task_done)
        return future

    def _task_done(self, future: Future) -> None:
        with self._lock:
            self._inflight -= 1
            if future.cancelled() or future.exception() is not None:
                self.stats.failed += 1
            else:
                self.stats.completed += 1

    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #

    @property
    def process_tier(self) -> ProcessExecutionTier | None:
        """The process execution tier, or None in the thread tier."""
        return self._process_tier

    @property
    def fault_injector(self):
        """The live fault-injection runtime, or None (chaos tests audit it)."""
        return self._fault_injector

    def stats_snapshot(self) -> dict[str, Any]:
        """Machine-readable service statistics (what the bench JSON stores).

        Includes the admission counters, per-tier queue-wait percentiles
        (``frontend_queue_wait_*`` always; ``process_queue_wait_*`` in the
        process tier), and the snapshot-transport counters mirrored from the
        process tier.
        """
        with self._lock:
            data: dict[str, Any] = {
                "submitted": self.stats.submitted,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "rejected": self.stats.rejected,
                "shed": self.stats.shed,
                "degraded": self.stats.degraded,
                "expired": self.stats.expired,
                "sessions_opened": self.stats.sessions_opened,
                "sessions_rejected": self.stats.sessions_rejected,
                "execution_tier": self.config.execution_tier,
            }
            waits = list(self._queue_waits)
        for name, fraction in (("p50", 0.50), ("p95", 0.95)):
            wait = percentile(waits, fraction)
            data[f"frontend_queue_wait_{name}_ms"] = (
                None if wait is None else round(wait * 1000, 3)
            )
        tier = self._process_tier
        if tier is not None:
            tier_stats = tier.stats_snapshot()
            with self._lock:
                self.stats.snapshot_ships = tier_stats["snapshot_ships"]
                self.stats.worker_snapshot_cache_hits = tier_stats[
                    "worker_snapshot_cache_hits"
                ]
            data["snapshot_ships"] = tier_stats["snapshot_ships"]
            data["worker_snapshot_cache_hits"] = tier_stats["worker_snapshot_cache_hits"]
            data["workers_respawned"] = tier_stats["workers_respawned"]
            data["respawn_escalations"] = tier_stats["respawn_escalations"]
            data["tasks_retried"] = tier_stats["tasks_retried"]
            data["tasks_expired"] = tier_stats["tasks_expired"]
            data["ship_integrity_retries"] = tier_stats["ship_integrity_retries"]
            if "breaker_state" in tier_stats:
                data["breaker_state"] = tier_stats["breaker_state"]
                data["breaker_trips"] = tier_stats["breaker_trips"]
            # The *resolved* pool size — with worker_processes=None this is
            # what default_worker_processes() picked for the machine.
            data["worker_processes"] = tier_stats["workers"]
            data["process_queue_wait_p50_ms"] = tier_stats["queue_wait_p50_ms"]
            data["process_queue_wait_p95_ms"] = tier_stats["queue_wait_p95_ms"]
        else:
            data["snapshot_ships"] = 0
            data["worker_snapshot_cache_hits"] = 0
            data["worker_processes"] = None
        # Incremental-maintenance counters from the catalog's result cache:
        # folds answered a probe by applying appended deltas, fallbacks had
        # to recompute cold.  The effective hit rate counts folds as hits —
        # the number a refresh-heavy dashboard workload actually experiences.
        cache_stats = self.catalog.cache_stats()
        data["ivm_folds"] = cache_stats.get("ivm_folds", 0)
        data["ivm_fallbacks"] = cache_stats.get("ivm_fallbacks", 0)
        data["query_cache_hit_rate"] = cache_stats.get("hit_rate")
        data["query_cache_effective_hit_rate"] = cache_stats.get("effective_hit_rate")
        return data

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionError("InterfaceService is shut down")

    def shutdown(self, wait: bool = True) -> None:
        """Stop the service (idempotent).

        New submissions and sessions are rejected immediately; with
        ``wait=True`` the pools drain in-flight tasks *before* the sessions
        are closed, so already-submitted work completes normally instead of
        failing against a closed session.  ``wait=False`` abandons in-flight
        work (tasks may then fail with :class:`SessionError`).
        """
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
        if self._profile_pool is not None:
            self._profile_pool.shutdown(wait=wait)
        if self._process_tier is not None and self._owns_process_tier:
            self._process_tier.shutdown(wait=wait)
        if self._executor_hook_installed:
            from repro.engine.executor import install_fault_hook

            install_fault_hook(self._previous_executor_hook)
            self._executor_hook_installed = False
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def __enter__(self) -> "InterfaceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InterfaceService(sessions={self.session_count()}, "
            f"inflight={self.inflight()}, workers={self.config.max_workers})"
        )
