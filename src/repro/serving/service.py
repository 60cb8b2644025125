"""The multi-session serving service: admission control + bounded worker pool.

:class:`InterfaceService` turns the single-threaded pipeline into a
concurrent service.  It owns

* the live :class:`~repro.engine.catalog.Catalog` (all writes go through the
  catalog's copy-on-write path, so readers pinned at older versions are never
  torn),
* a bounded **worker pool** (``concurrent.futures.ThreadPoolExecutor``) that
  runs ad-hoc query execution, interface generation and dataset ingest
  concurrently,
* optionally a :class:`ProcessExecutionTier`.  Each operation has one body
  for both tiers: it hands :meth:`InterfaceService._dispatch` the work to
  submit to the tier and the work to run locally, and the thread tier is
  simply the absence of a process tier,
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

The ordering is rooted by a layering rule: the engine calls serving code
only through the ``run`` callable of :meth:`CatalogSnapshot.execute`, and
holds no lock when it does.  Catalog and cache locks are therefore always
acquired at the *bottom* of a call chain, so no task body or callback
acquires upwards, which is what makes the layer deadlock-free by
construction (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import dataclasses
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
from repro.serving.faults import FaultInjector, FaultPlan
from repro.serving.session import Session
from repro.serving.workers import (
    QUEUE_WAIT_SAMPLE_CAPACITY,
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
    #: Accepted and ignored: generation no longer profiles candidates, so
    #: there is no profile pool to size.
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
    """Service-wide counters (reads are snapshots; writes are lock-guarded)."""

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


class InterfaceService:
    """A thread-safe, multi-session facade over the generation pipeline.

    ``process_tier`` and ``faults`` let the async frontend hand one shared
    tier and one shared fault injector to every shard; the service shuts
    down only a tier it built itself.
    """

    def __init__(
        self,
        catalog: Catalog,
        config: ServiceConfig | None = None,
        process_tier: ProcessExecutionTier | None = None,
        faults: FaultInjector | None = None,
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
        # Fault plane: one injector instance shared by every site of this
        # service (tier dispatchers, ship path, the catalog's executor hook)
        # so the plan's ordinals are global and its counters audit the whole
        # run.  None — the default — keeps every site a no-op.
        plan = self.config.fault_plan
        if faults is None and plan is not None and plan.enabled():
            faults = plan.injector()
        self._fault_injector = faults
        self._process_tier: ProcessExecutionTier | None = None
        self._owns_process_tier = False
        if self.config.execution_tier == "process":
            self._owns_process_tier = process_tier is None
            self._process_tier = process_tier or ProcessExecutionTier.from_config(
                self.config, faults
            )
        if faults is not None and faults.plan.executor_raise_at:
            catalog.fault_hook = faults.executor_hook()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.max_workers, thread_name_prefix="serve"
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

        Both tiers read through :meth:`CatalogSnapshot.execute` on the
        worker pool: the frontend's result cache answers hits and folds, and
        stores what a miss computes.  The tiers differ only in where a miss
        (or an uncacheable read) is computed.  Thread tier: on the pool
        thread.  Process tier: the pool thread ships the query text and the
        snapshot's fingerprint to a worker process (plus the snapshot itself
        iff that worker has never seen this fingerprint) and blocks GIL-free
        on the pipe, so concurrent misses execute truly in parallel.

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

        def run(snapshot, compute) -> QueryResult:
            return self._dispatch(
                lambda: self._process_tier.submit_execute(snapshot, query, resolved),
                compute,
                resolved.deadline,
            )

        return self._submit(
            lambda: session.execute(query, resolved, run=run),
            deadline=resolved.deadline,
        )

    def _deadline_from(self, deadline_ms: float | None) -> float | None:
        """Resolve a per-request override + config default to an absolute deadline."""
        ms = deadline_ms if deadline_ms is not None else self.config.default_deadline_ms
        if ms is None:
            return None
        return time.monotonic() + ms / 1000.0

    def _dispatch(self, submit, local, deadline):
        """Run one operation: ``local()`` here, or ``submit()`` on the process tier.

        No process tier: ``local()`` on the calling pool thread.  With one,
        the circuit-breaker protocol decides.  Closed: dispatch via
        ``submit()`` and wait on its future.  Open: serve via ``local()``
        (degraded mode: correct answers, reduced parallelism).  Half-open:
        this call may carry the recovery probe, in which case it must report
        the tier's health back.  Only transport-class failures (worker
        death, deadline blown inside the tier) count against a probe — a
        typed engine error still proves the tier can run work.
        """
        tier = self._process_tier
        if tier is None:
            return local()
        breaker = tier.breaker
        ticket = breaker.acquire() if breaker is not None else "closed"
        if ticket == "rejected":
            with self._lock:
                self.stats.degraded += 1
            return local()
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
        consistent data version end to end) and attaches the resulting
        interface to the session on completion.  Thread tier: on the pool
        thread.  Process tier: the query log, config and fingerprint
        ship as one task, and the whole search runs inside one worker
        process, so concurrent sessions' generations use separate cores.
        The pipeline is a pure function of snapshot, queries and config, so
        both give the same interface.

        Generation is the shedding class: past the queue-depth watermark it
        is rejected with :class:`~repro.errors.OverloadError` before it can
        starve light reads (see ``ServiceConfig.shed_watermark``).
        """
        session = self.session(session_id)
        generation_config = config or self.config.generation
        deadline = self._deadline_from(deadline_ms)

        def run() -> GenerationResult:
            snapshot = session.snapshot
            result = self._dispatch(
                lambda: self._process_tier.submit_generate(
                    snapshot, list(queries), generation_config, deadline=deadline
                ),
                lambda: generate_interface(list(queries), snapshot, generation_config),
                deadline,
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

        The :class:`ServiceStats` counters, the frontend queue-wait
        percentiles, the process tier's own counters
        (:meth:`ProcessExecutionTier.stats_snapshot`; only
        ``worker_processes=None`` in the thread tier) and the result cache's
        incremental-maintenance counters.
        """
        with self._lock:
            data: dict[str, Any] = dataclasses.asdict(self.stats)
            waits = list(self._queue_waits)
        data["execution_tier"] = self.config.execution_tier
        for name, fraction in (("p50", 0.50), ("p95", 0.95)):
            wait = percentile(waits, fraction)
            data[f"frontend_queue_wait_{name}_ms"] = (
                None if wait is None else round(wait * 1000, 3)
            )
        tier = self._process_tier
        data.update(tier.stats_snapshot() if tier is not None else {"worker_processes": None})
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
        ``wait=True`` the pool drains in-flight tasks *before* the sessions
        are closed, so already-submitted work completes normally instead of
        failing against a closed session.  ``wait=False`` abandons in-flight
        work (tasks may then fail with :class:`SessionError`).
        """
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
        if self._owns_process_tier:
            self._process_tier.shutdown(wait=wait)
        if self._fault_injector is not None:
            self.catalog.fault_hook = None
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
