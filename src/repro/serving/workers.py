"""The process-pool execution tier: GIL-free workers over shipped snapshots.

The thread-pool serving layer (PR 5) cannot scale CPU-bound work — every
engine operation is pure Python, so eight worker threads still execute one
bytecode at a time.  :class:`ProcessExecutionTier` moves the two CPU-heavy
operation classes into a pool of **worker processes**:

* ad-hoc query execution (a frontend cache miss: the query text as given,
  its :class:`~repro.engine.options.ExecOptions` and the fingerprint),
* interface generation (query log + pipeline config + fingerprint).

The design leans entirely on PR 5's snapshot contract:
:class:`~repro.engine.catalog.CatalogSnapshot` is immutable and
version-fingerprinted, so it crosses the process boundary **once per
``(catalog_id, fingerprint)``** instead of once per request.  Each worker
caches unpickled snapshots in a small LRU keyed by that pair; a data-version
bump simply introduces a new fingerprint, and the stale snapshot falls out of
the LRU lazily — no invalidation protocol, no shared memory, no locks in the
workers at all.  Workers are stateless and read-only by construction: every
task names the snapshot it runs against, sessions/admission/writes stay in
the frontend, and nothing a worker computes ever flows back into catalog
state (results return as picklable columnar ``QueryResult`` /
``GenerationResult`` values).

Frontend threading model: one dispatcher thread per worker process pulls
tasks off one shared queue (natural least-loaded balancing), performs the
ship-if-needed handshake over the worker's pipe, and blocks in ``recv`` —
which releases the GIL, so N workers genuinely execute N tasks in parallel.
A worker that dies mid-task is respawned transparently and the task —
idempotent by the snapshot contract — is retried with jittered exponential
backoff within its remaining deadline; only exhausted retries surface as
:class:`~repro.errors.WorkerError`.

Fault-tolerance plane (PR 8): task descriptors carry absolute monotonic
deadlines (expired queued tasks are dropped with
:class:`~repro.errors.DeadlineExceededError` before they waste a worker);
snapshot payloads ship as ``(bytes, crc32)`` and a worker that receives a
corrupt payload answers ``need_snapshot``, folding transport corruption
into the existing re-ship handshake; a :class:`CircuitBreaker` watches the
worker failure rate so the serving layer can stop using a flapping tier;
and a seeded :class:`~repro.serving.faults.FaultInjector` can be plugged
in to make all of the above deterministically testable.

What may cross the boundary (see ``docs/SERVING.md``): pickled snapshots
(tables + fingerprint + catalog id — never the caches, never lock-bearing
objects), task descriptors built from query text / query logs / pipeline
configs, and columnar results.  What must not: live ``Catalog``
objects, sessions, futures, executors, or anything holding a lock.
"""

from __future__ import annotations

import pickle
import random
import threading
import time
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Sequence

import multiprocessing

from repro.difftree.signatures import SharedLruDict, StructureCaches
from repro.engine.catalog import CatalogSnapshot, ParseMemo
from repro.engine.options import DEFAULT_OPTIONS, ExecOptions
from repro.engine.query_cache import QueryCache
from repro import errors
from repro.errors import DeadlineExceededError, WorkerError
from repro.obs import percentile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.faults import FaultInjector
    from repro.serving.service import ServiceConfig

#: Snapshots each worker keeps alive, LRU-evicted ((catalog_id, fingerprint)
#: keyed).  Small on purpose: the common case is one live fingerprint per
#: catalog plus a short tail of recently superseded versions still pinned by
#: open sessions.
SNAPSHOT_CACHE_CAPACITY = 8

#: Pickled-snapshot payloads the frontend memoizes (one pickle per
#: fingerprint, shared by every worker it ships to).
PAYLOAD_MEMO_CAPACITY = 16

#: Bound on the queue-wait sample reservoir (newest samples win).
QUEUE_WAIT_SAMPLE_CAPACITY = 4096

#: Ceiling on the auto-sized worker count.  Every worker is a full
#: interpreter plus a snapshot LRU; past a handful of processes the ship
#: fan-out and memory cost dominate any extra parallelism for this
#: workload shape.
MAX_AUTO_WORKER_PROCESSES = 8


def default_worker_processes(configured: int | None = None) -> int:
    """Resolve a worker-process count from config or the machine.

    ``configured`` wins when given (explicit overrides must keep working);
    otherwise size to ``os.cpu_count()`` clamped to
    ``[1, MAX_AUTO_WORKER_PROCESSES]`` — a fixed default either oversizes
    small containers (spawn cost, memory) or undersizes big hosts (idle
    cores).
    """
    if configured is not None:
        return configured
    import os

    return max(1, min(os.cpu_count() or 1, MAX_AUTO_WORKER_PROCESSES))


# ---------------------------------------------------------------------- #
# Worker side (runs in the child process; must stay import-light and
# lock-free — the child is single-threaded by design)
# ---------------------------------------------------------------------- #


def _run_task(
    kind: str, snapshot: CatalogSnapshot, body: tuple, deadline: float | None = None
) -> Any:
    """Execute one task body against a (worker-cached) snapshot.

    Kept as a plain function so the in-process tests can drive the exact
    code the workers run without spawning a subprocess.  ``deadline`` is an
    absolute ``time.monotonic()`` instant (comparable across processes on
    the same host): execute arms the executor's cooperative cancellation
    checkpoints with it; generation — which has no internal checkpoints —
    refuses to start past it.
    """
    if kind == "execute":
        sql, options = body
        if options.deadline is None and deadline is not None:
            options = options.replace(deadline=deadline)
        return snapshot.execute(sql, options)
    if kind == "generate":
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceededError("Generation deadline elapsed before the task started")
        from repro.pipeline import generate_interface

        queries, config = body
        return generate_interface(list(queries), snapshot, config)
    raise WorkerError(f"Unknown worker task kind {kind!r}")


class _WorkerState:
    """Per-process snapshot cache + shared execution caches.

    Snapshots are cached by ``(catalog_id, fingerprint)``.  The parse memo
    and structure caches are shared across catalogs (parsing and coverage
    verdicts are version-independent, and the other structure caches key on
    the schemas).  Result caches are
    shared **per catalog id** — result keys embed the data version, which is
    local to one catalog lineage, so two catalogs at equal versions would
    otherwise read each other's results — and compiled-plan caches **per
    (catalog id, schema version)**: a plan bakes in table-set analysis, so it
    survives data-version bumps but not register/drop/replace.  Both are
    dropped with the last snapshot that uses them.
    """

    def __init__(self, capacity: int = SNAPSHOT_CACHE_CAPACITY) -> None:
        self.capacity = capacity
        self.snapshots: OrderedDict[tuple, CatalogSnapshot] = OrderedDict()
        self.query_caches: dict[int, QueryCache] = {}
        self.parse = ParseMemo()
        self.structure_caches = StructureCaches(SharedLruDict)
        self.plan_caches: dict[tuple, dict] = {}

    def lookup(self, key: tuple) -> CatalogSnapshot | None:
        snapshot = self.snapshots.get(key)
        if snapshot is not None:
            self.snapshots.move_to_end(key)
        return snapshot

    def admit(self, key: tuple, payload: bytes) -> CatalogSnapshot:
        snapshot: CatalogSnapshot = pickle.loads(payload)
        plan_key = (key[0], snapshot.schema_version())
        if key[0] not in self.query_caches:
            self.query_caches[key[0]] = QueryCache(capacity=512)
        snapshot.attach_caches(
            plan_cache=self.plan_caches.setdefault(plan_key, {}),
            query_cache=self.query_caches[key[0]],
            parse=self.parse,
            structure_caches=self.structure_caches,
        )
        self.snapshots[key] = snapshot
        self.snapshots.move_to_end(key)
        while len(self.snapshots) > self.capacity:
            self.snapshots.popitem(last=False)
            self._drop_unreferenced_caches()
        return snapshot

    def _drop_unreferenced_caches(self) -> None:
        live = {(key[0], snap.schema_version()) for key, snap in self.snapshots.items()}
        self.plan_caches = {k: v for k, v in self.plan_caches.items() if k in live}
        catalog_ids = {key[0] for key in self.snapshots}
        self.query_caches = {k: v for k, v in self.query_caches.items() if k in catalog_ids}

    def cached_keys(self) -> list[tuple]:
        return list(self.snapshots.keys())


def _worker_main(conn, snapshot_cache_capacity: int) -> None:
    """The worker process main loop: recv task, run, send result.

    Protocol (all messages are picklable tuples):

    * parent → worker:
      ``("task", task_id, kind, key, body, payload|None, deadline|None)``
      or ``("stop",)``, where ``payload`` is ``(pickled_bytes, crc32)``.
    * worker → parent: ``(task_id, "ok", result, snapshot_cache_hit)``,
      ``(task_id, "need_snapshot")`` when the parent's shipped-set mirror
      drifted **or** the payload failed its CRC check (parent re-sends
      with a fresh payload), or
      ``(task_id, "error", exc_type_name, message)``.
    """
    state = _WorkerState(capacity=snapshot_cache_capacity)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message[0] == "stop":
            return
        _, task_id, kind, key, body, payload, deadline = message
        try:
            if kind == "ping":
                conn.send((task_id, "ok", None, True))
                continue
            if kind == "cache_info":
                conn.send((task_id, "ok", state.cached_keys(), True))
                continue
            snapshot = state.lookup(key) if key is not None else None
            hit = snapshot is not None
            if snapshot is None:
                if payload is None:
                    conn.send((task_id, "need_snapshot"))
                    continue
                data, crc = payload
                if zlib.crc32(data) != crc:
                    # Corrupted in flight: recover through the same
                    # handshake as mirror drift — ask for a re-ship.
                    conn.send((task_id, "need_snapshot"))
                    continue
                snapshot = state.admit(key, data)
            result = _run_task(kind, snapshot, body, deadline)
            conn.send((task_id, "ok", result, hit))
        except Exception as exc:  # noqa: BLE001 - the loop must survive any task
            try:
                conn.send((task_id, "error", type(exc).__name__, str(exc)))
            except Exception:  # noqa: BLE001 - parent went away mid-send
                return


# ---------------------------------------------------------------------- #
# Frontend side
# ---------------------------------------------------------------------- #


class _Future:
    """A minimal thread-safe future (set once, many waiters)."""

    __slots__ = ("_event", "_result", "_exception")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._result: Any = None
        self._exception: BaseException | None = None

    def set_result(self, result: Any) -> None:
        self._result = result
        self._event.set()

    def set_exception(self, exception: BaseException) -> None:
        self._exception = exception
        self._event.set()

    def result(self, timeout: float | None = None) -> Any:
        if not self._event.wait(timeout):
            # A caller-side wait timeout says nothing about worker health:
            # the task may still complete behind the caller's back, and the
            # worker must not be treated as failed (no respawn, no breaker
            # strike, no placement poisoning) — hence a distinct type from
            # WorkerError.
            raise DeadlineExceededError(
                f"Timed out after {timeout}s waiting for a process-tier task"
            )
        if self._exception is not None:
            raise self._exception
        return self._result


@dataclass
class _Task:
    kind: str
    key: tuple | None
    body: tuple
    snapshot: CatalogSnapshot | None
    future: _Future
    submitted_at: float
    #: Absolute ``time.monotonic()`` instant past which the task must not
    #: start (queued tasks are dropped, executing tasks are cancelled at
    #: executor checkpoints).  ``None`` = no deadline.
    deadline: float | None = None
    #: Completed attempts that ended in a worker death (retry bookkeeping).
    attempts: int = 0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with jittered exponential backoff for dead workers.

    Applies only to transport-level failures (the worker process died
    mid-task) — every task kind runs read-only against an immutable
    snapshot, so re-running one on a respawned worker is safe by
    construction.  In-worker task errors (bad SQL, type errors, timeouts)
    are deterministic and never retried.
    """

    max_attempts: int = 3
    base_delay_ms: float = 5.0
    max_delay_ms: float = 100.0
    #: Fractional jitter: each backoff is scaled by ``1 + jitter * U(0, 1)``
    #: from the tier's seeded RNG, decorrelating retry storms.
    jitter: float = 0.5
    #: Seed for the tier's retry RNG (deterministic backoff sequences).
    seed: int = 0

    def backoff_seconds(self, attempt: int, rng: random.Random) -> float:
        """Backoff before retry number ``attempt`` (1-based), in seconds."""
        delay_ms = min(self.max_delay_ms, self.base_delay_ms * (2 ** (attempt - 1)))
        return delay_ms * (1.0 + self.jitter * rng.random()) / 1000.0


class CircuitBreaker:
    """A respawn-rate circuit breaker over a sliding window.

    States: ``closed`` (normal) → ``open`` (``failure_threshold`` worker
    failures inside ``window_seconds``; the serving layer stops sending
    work to the tier) → ``half_open`` (after ``cooldown_seconds`` one
    probe request is let through) → ``closed`` on probe success, back to
    ``open`` on probe failure.  ``clock`` is injectable so tests can walk
    the window and cooldown without sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 4,
        window_seconds: float = 30.0,
        cooldown_seconds: float = 5.0,
        clock=time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.window_seconds = window_seconds
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._failures: deque[float] = deque()
        self._state = "closed"
        self._opened_at = 0.0
        self._probe_inflight = False
        self.trips = 0

    def record_failure(self) -> bool:
        """Record one worker failure; returns True when this one trips open."""
        with self._lock:
            if self._state == "open":
                return False
            now = self._clock()
            if self._state == "half_open":
                # A non-probe failure while probing is still bad news.
                self._trip(now)
                return True
            self._failures.append(now)
            self._prune(now)
            if len(self._failures) >= self.failure_threshold:
                self._trip(now)
                return True
            return False

    def acquire(self) -> str:
        """Admission verdict for one request: ``closed``/``probe``/``rejected``.

        ``closed`` — use the tier normally.  ``probe`` — the breaker is
        half-open and this caller carries the recovery probe: it must report
        back via :meth:`record_success` or :meth:`record_probe_failure`.
        ``rejected`` — the tier is open (or a probe is already in flight);
        the caller must degrade.
        """
        with self._lock:
            if self._state == "closed":
                return "closed"
            now = self._clock()
            if self._state == "open":
                if now - self._opened_at < self.cooldown_seconds:
                    return "rejected"
                self._state = "half_open"
                self._probe_inflight = False
            if self._probe_inflight:
                return "rejected"
            self._probe_inflight = True
            return "probe"

    def record_success(self) -> None:
        """A probe came back healthy: close the breaker."""
        with self._lock:
            if self._state == "half_open":
                self._state = "closed"
                self._probe_inflight = False
                self._failures.clear()

    def record_probe_failure(self) -> None:
        """The probe failed: reopen and restart the cooldown."""
        with self._lock:
            if self._state == "half_open":
                self._trip(self._clock())

    def state(self) -> str:
        with self._lock:
            return self._state

    def _trip(self, now: float) -> None:
        """Transition to open (lock held)."""
        self._state = "open"
        self._opened_at = now
        self._probe_inflight = False
        self._failures.clear()
        self.trips += 1

    def _prune(self, now: float) -> None:
        while self._failures and self._failures[0] <= now - self.window_seconds:
            self._failures.popleft()


@dataclass
class TierStats:
    """Frontend-side counters of one :class:`ProcessExecutionTier`."""

    tasks_dispatched: int = 0
    tasks_failed: int = 0
    tasks_expired: int = 0
    tasks_retried: int = 0
    snapshot_ships: int = 0
    ship_integrity_retries: int = 0
    worker_snapshot_cache_hits: int = 0
    workers_respawned: int = 0
    respawn_escalations: int = 0
    queue_waits: deque = field(
        default_factory=lambda: deque(maxlen=QUEUE_WAIT_SAMPLE_CAPACITY)
    )


class _WorkerHandle:
    """One worker process, its pipe, and the parent's shipped-key mirror."""

    def __init__(self, index: int, process, conn, capacity: int) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        self.capacity = capacity
        #: Mirror of the worker's snapshot LRU (same capacity, same update
        #: rule), letting the parent predict whether a payload must ship.
        #: Best-effort: on drift the worker answers ``need_snapshot`` and the
        #: parent re-sends with the payload.
        self.shipped: OrderedDict[tuple, None] = OrderedDict()
        #: Serializes pipe use between the dispatcher thread and debug calls.
        self.io_lock = threading.Lock()
        #: This worker's private task queue plus an in-flight flag; both are
        #: guarded by the tier's dispatch condition, and together they give
        #: the placement policy its load signal (``pending``).
        self.queue: deque = deque()
        self.busy = False

    def pending(self) -> int:
        """Queued plus in-flight task count (dispatch condition held)."""
        return len(self.queue) + (1 if self.busy else 0)

    def note_shipped(self, key: tuple) -> None:
        self.shipped[key] = None
        self.shipped.move_to_end(key)
        while len(self.shipped) > self.capacity:
            self.shipped.popitem(last=False)

    def note_used(self, key: tuple) -> None:
        if key in self.shipped:
            self.shipped.move_to_end(key)


class ProcessExecutionTier:
    """A pool of worker processes executing read-only tasks over snapshots.

    Args:
        processes: Worker process count.  ``None`` (the default) sizes the
            pool from the machine via :func:`default_worker_processes`.
            Workers are started with the ``spawn`` method.
        snapshot_cache_capacity: Per-worker snapshot LRU size.
        retry_policy: Backoff policy for tasks whose worker died mid-flight
            (default :class:`RetryPolicy`); ``None`` disables retries.
        breaker: Optional :class:`CircuitBreaker` fed a failure per worker
            death.  The tier only *feeds* it; enforcement (degrading to
            in-frontend execution) is the serving layer's job.
        faults: Optional :class:`~repro.serving.faults.FaultInjector`
            whose hooks fire on dispatch and ship.  ``None`` (the default)
            keeps every fault site a no-op.
    """

    def __init__(
        self,
        processes: int | None = None,
        snapshot_cache_capacity: int = SNAPSHOT_CACHE_CAPACITY,
        retry_policy: RetryPolicy | None = RetryPolicy(),
        breaker: CircuitBreaker | None = None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        processes = default_worker_processes(processes)
        if processes <= 0:
            raise WorkerError("ProcessExecutionTier needs at least one worker process")
        self.processes = processes
        self.snapshot_cache_capacity = snapshot_cache_capacity
        self._context = multiprocessing.get_context("spawn")
        # Placement policy, decided at submit time (see ``_place``):
        #
        # * Two worker classes keep latency classes apart — "light" tasks
        #   (execute: ~1 ms) run on a small reserved set, "heavy"
        #   ones (generate: tens of ms) on the rest — so read p95 never
        #   inherits generation latency by queueing behind it.
        # * Within a class, placement is *sticky*: a task prefers a worker
        #   whose snapshot LRU already holds its (catalog, fingerprint) key,
        #   avoiding a re-ship and reusing that worker's warm result/plan
        #   caches.  An idle keyless worker beats a busy key-holding one —
        #   a ship costs ~2 ms while waiting behind a generation costs tens.
        self._dispatch_cond = threading.Condition()
        self._stop_dispatch = False
        self._light_reserved = max(1, processes // 4) if processes > 1 else 0
        self._task_ids = iter(range(1, 2**62))
        self._closed = False
        self._lock = threading.Lock()
        self._payloads: OrderedDict[tuple, tuple[bytes, int]] = OrderedDict()
        self.retry_policy = retry_policy
        self._retry_rng = random.Random(retry_policy.seed if retry_policy else 0)
        self.breaker = breaker
        self._faults = faults
        self.stats = TierStats()
        self._handles: list[_WorkerHandle] = [
            self._spawn_worker(index) for index in range(processes)
        ]
        self._warm_up()
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop,
                args=(index,),
                name=f"tier-dispatch-{index}",
                daemon=True,
            )
            for index in range(processes)
        ]
        for thread in self._threads:
            thread.start()

    @classmethod
    def from_config(
        cls, config: "ServiceConfig", faults: "FaultInjector | None" = None
    ) -> "ProcessExecutionTier":
        """The tier and circuit breaker a :class:`ServiceConfig` describes."""
        return cls(
            processes=config.worker_processes,
            retry_policy=config.retry_policy,
            breaker=CircuitBreaker(
                failure_threshold=config.breaker_failure_threshold,
                window_seconds=config.breaker_window_seconds,
                cooldown_seconds=config.breaker_cooldown_seconds,
            ),
            faults=faults,
        )

    # ------------------------------------------------------------------ #
    # Submission API
    # ------------------------------------------------------------------ #

    def submit_execute(
        self,
        snapshot: CatalogSnapshot,
        sql: str,
        options: ExecOptions = DEFAULT_OPTIONS,
    ) -> _Future:
        """Run one SQL query against the snapshot, on some worker process.

        The query text ships as given; the worker parses and canonicalizes
        it against its own caches.  ``options`` (an :class:`ExecOptions`)
        crosses the pipe with the task body.  The deadline additionally
        rides outside the body so the dispatch loop can drop queued tasks
        and cap retry backoff without unpickling the options.
        """
        resolved = options.pinned()
        return self._submit("execute", snapshot, (sql, resolved), resolved.deadline)

    def submit_generate(
        self,
        snapshot: CatalogSnapshot,
        queries: Sequence[str],
        config,
        deadline: float | None = None,
    ) -> _Future:
        """Run a whole interface generation against the snapshot on a worker.

        Generation is the coarsest candidate-evaluation grain: the full
        search (mapping, costing, layout, per-tree profiling) runs inside one
        worker process, so concurrent sessions' generations parallelize
        across cores instead of interleaving under the GIL.  Determinism is
        unaffected — the pipeline is a pure function of (snapshot, queries,
        config), proven by ``Interface.fingerprint()`` equality.
        """
        return self._submit("generate", snapshot, (list(queries), config), deadline)

    def execute(
        self,
        snapshot: CatalogSnapshot,
        sql: str,
        options: ExecOptions = DEFAULT_OPTIONS,
    ):
        return self.submit_execute(snapshot, sql, options).result()

    def _submit(
        self,
        kind: str,
        snapshot: CatalogSnapshot,
        body: tuple,
        deadline: float | None = None,
    ) -> _Future:
        with self._lock:
            if self._closed:
                raise WorkerError("ProcessExecutionTier is shut down")
        key = (snapshot.catalog_id, snapshot.data_version())
        task = _Task(
            kind=kind,
            key=key,
            body=body,
            snapshot=snapshot,
            future=_Future(),
            submitted_at=time.perf_counter(),
            deadline=deadline,
        )
        with self._dispatch_cond:
            self._place(task).queue.append(task)
            self._dispatch_cond.notify_all()
        return task.future

    def _place(self, task: _Task) -> _WorkerHandle:
        """Pick the worker for a task (dispatch condition held).

        Candidates are the task's worker class (reserved workers for light
        kinds, the rest for generations).  Within the class, the queue is
        cost-scored: a worker's load is its pending task count, plus a
        miss penalty when it does not hold the task's snapshot key.  The
        penalty encodes the real ratio of ship cost to task cost — a ship
        (~2 ms) is about one light task, so light work sticks to key
        holders unless they are a full task behind; it is negligible next
        to a generation (tens of ms), so heavy work balances by load and
        uses key holding only as a tiebreak.  The ``shipped`` mirrors
        consulted here are best-effort — a stale read only costs an extra
        ship or a ``need_snapshot`` round trip, never correctness.
        """
        if task.kind == "generate" and self._light_reserved < len(self._handles):
            candidates = self._handles[self._light_reserved :]
        elif task.kind != "generate" and self._light_reserved > 0:
            candidates = self._handles[: self._light_reserved]
        else:
            candidates = self._handles
        penalty = 0.05 if task.kind == "generate" else 1.0

        def score(handle: _WorkerHandle) -> float:
            miss = 0.0 if (task.key is not None and task.key in handle.shipped) else penalty
            return handle.pending() + miss

        return min(candidates, key=score)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _spawn_worker(self, index: int) -> _WorkerHandle:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(child_conn, self.snapshot_cache_capacity),
            name=f"repro-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _WorkerHandle(index, process, parent_conn, self.snapshot_cache_capacity)

    def _warm_up(self) -> None:
        """Block until every worker finished its interpreter bootstrap.

        A spawned worker only becomes useful after re-importing the engine;
        pinging all workers up front (sends first, then receives — the
        imports overlap) moves that one-time cost out of the first N tasks'
        latency.  Runs before the dispatcher threads start, so the pipes
        need no locking yet.
        """
        for handle in self._handles:
            handle.conn.send(("task", 0, "ping", None, (), None, None))
        for handle in self._handles:
            reply = handle.conn.recv()
            if reply[1] != "ok":  # pragma: no cover - defensive
                raise WorkerError(f"Worker {handle.index} failed its warm-up ping")

    def _payload_for(self, task: _Task) -> tuple[bytes, int]:
        """The ``(pickled_bytes, crc32)`` wire payload for a task's snapshot.

        The CRC is computed once at pickle time and memoized with the
        bytes, so ship-integrity checking adds nothing to the per-ship hot
        path beyond the worker-side verify.
        """
        with self._lock:
            payload = self._payloads.get(task.key)
            if payload is not None:
                self._payloads.move_to_end(task.key)
                return payload
        data = pickle.dumps(task.snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        payload = (data, zlib.crc32(data))
        with self._lock:
            self._payloads[task.key] = payload
            self._payloads.move_to_end(task.key)
            while len(self._payloads) > PAYLOAD_MEMO_CAPACITY:
                self._payloads.popitem(last=False)
        return payload

    def _next_task(self, index: int) -> _Task | None:
        """Pop the next task from worker ``index``'s queue (None = shut down)."""
        with self._dispatch_cond:
            self._handles[index].busy = False
            while True:
                # Re-read the handle every pass: a respawn initiated outside
                # this dispatcher (e.g. an operator escalation) swaps
                # ``self._handles[index]`` while this thread waits, and new
                # tasks land on the replacement's queue.
                handle = self._handles[index]
                if handle.queue:
                    handle.busy = True
                    return handle.queue.popleft()
                if self._stop_dispatch:
                    return None
                self._dispatch_cond.wait()

    def _dispatch_loop(self, index: int) -> None:
        while True:
            task = self._next_task(index)
            if task is None:
                return
            handle = self._handles[index]
            if task.deadline is not None and time.monotonic() >= task.deadline:
                # Past-deadline work is dropped before it wastes a worker:
                # the caller stopped waiting, so executing it helps no one.
                with self._lock:
                    self.stats.tasks_expired += 1
                task.future.set_exception(
                    DeadlineExceededError(
                        "Task deadline elapsed while queued; dropped before dispatch"
                    )
                )
                continue
            with self._lock:
                self.stats.queue_waits.append(time.perf_counter() - task.submitted_at)
            if self._faults is not None:
                self._faults.before_dispatch(handle.index, handle.process)
            try:
                result, hit = self._round_trip(handle, task)
            except _TaskError as exc:
                # The task failed *inside* a healthy worker with an error the
                # engine does not type: deterministic, so no respawn, no
                # retry, no breaker strike.
                with self._lock:
                    self.stats.tasks_failed += 1
                task.future.set_exception(exc)
                continue
            except WorkerError as exc:
                # Transport-level: the worker process died mid-task.
                with self._lock:
                    self.stats.tasks_failed += 1
                    closed = self._closed
                if not closed:
                    handle = self._respawn(index)
                    if self.breaker is not None:
                        self.breaker.record_failure()
                    if self._maybe_retry(task):
                        continue
                task.future.set_exception(self._final_failure(task, exc))
                continue
            except Exception as exc:  # noqa: BLE001 - never kill the dispatcher
                # Typed errors from inside the worker (bad SQL, a timeout)
                # land here too: like _TaskError, no respawn and no retry.
                with self._lock:
                    self.stats.tasks_failed += 1
                task.future.set_exception(exc)
                continue
            with self._lock:
                self.stats.tasks_dispatched += 1
                if hit:
                    self.stats.worker_snapshot_cache_hits += 1
            task.future.set_result(result)

    def _maybe_retry(self, task: _Task) -> bool:
        """Requeue a task whose worker died, if policy and deadline allow.

        Tasks are idempotent (read-only over immutable snapshots), so the
        only questions are attempt budget and whether the jittered backoff
        still fits inside the task's remaining deadline.  The backoff sleep
        runs on this dispatcher thread — its worker was just respawned and
        has no other task to run anyway.
        """
        policy = self.retry_policy
        if policy is None:
            return False
        task.attempts += 1
        if task.attempts >= policy.max_attempts:
            return False
        with self._lock:
            backoff = policy.backoff_seconds(task.attempts, self._retry_rng)
        if task.deadline is not None and time.monotonic() + backoff >= task.deadline:
            return False
        time.sleep(backoff)
        with self._lock:
            self.stats.tasks_retried += 1
        with self._dispatch_cond:
            if self._stop_dispatch:
                return False
            self._place(task).queue.append(task)
            self._dispatch_cond.notify_all()
        return True

    def _final_failure(self, task: _Task, exc: WorkerError) -> Exception:
        """The exception a task surfaces once its retries are exhausted."""
        if task.deadline is not None and time.monotonic() >= task.deadline:
            failure = DeadlineExceededError(
                f"Task deadline elapsed after {task.attempts} worker failure(s)"
            )
            failure.__cause__ = exc
            return failure
        return exc

    def _round_trip(self, handle: _WorkerHandle, task: _Task) -> tuple[Any, bool]:
        """One send/recv exchange, shipping the snapshot payload when needed."""
        task_id = next(self._task_ids)
        with handle.io_lock:
            payload = None
            if task.key is not None and task.key not in handle.shipped:
                payload = self._payload_for(task)
            reply = self._exchange(handle, (task_id, task, self._shipped_form(payload)))
            if reply[1] == "need_snapshot":
                # Either the shipped-set mirror drifted (e.g. across a
                # respawn the caller raced) or the payload failed its CRC
                # check in the worker; both recover by re-sending a fresh
                # payload.
                if payload is not None:
                    with self._lock:
                        self.stats.ship_integrity_retries += 1
                payload = self._payload_for(task)
                reply = self._exchange(handle, (task_id, task, self._shipped_form(payload)))
                if reply[1] == "need_snapshot":
                    raise _TaskError(
                        f"Worker {handle.index} rejected the snapshot payload twice "
                        "(persistent ship corruption)"
                    )
            if payload is not None and task.key is not None:
                with self._lock:
                    self.stats.snapshot_ships += 1
        if reply[1] == "error":
            _, _, exc_type, message = reply
            raise _map_worker_error(exc_type, message)
        shipped = payload is not None
        if task.key is not None:
            if shipped:
                handle.note_shipped(task.key)
            else:
                handle.note_used(task.key)
        return reply[2], reply[3] and not shipped

    def _shipped_form(self, payload: tuple[bytes, int] | None):
        """The payload as it goes on the wire (fault hook applied, if any)."""
        if payload is not None and self._faults is not None:
            return self._faults.on_ship(payload)
        return payload

    def _exchange(self, handle: _WorkerHandle, envelope: tuple) -> tuple:
        task_id, task, payload = envelope
        try:
            handle.conn.send(
                ("task", task_id, task.kind, task.key, task.body, payload, task.deadline)
            )
            while True:
                reply = handle.conn.recv()
                if reply[0] == task_id:
                    return reply
        except (EOFError, OSError, BrokenPipeError) as exc:
            raise WorkerError(
                f"Worker {handle.index} died mid-task ({type(exc).__name__}); "
                f"the task is lost and the worker will be respawned"
            ) from exc

    def _respawn(self, index: int) -> _WorkerHandle:
        old = self._handles[index]
        try:
            old.conn.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        if old.process.is_alive():
            old.process.terminate()
        old.process.join(timeout=5)
        if old.process.is_alive():
            # SIGTERM was ignored or the join timed out: escalate to
            # SIGKILL and re-join so the dead worker can never linger as a
            # zombie holding memory and a pipe end.
            old.process.kill()
            old.process.join(timeout=5)
            with self._lock:
                self.stats.respawn_escalations += 1
        handle = self._spawn_worker(index)
        with self._dispatch_cond:
            # Queued tasks survive the respawn; the shipped-key mirror does
            # not (the fresh worker's snapshot cache is empty).
            handle.queue.extend(old.queue)
            handle.busy = old.busy
            self._handles[index] = handle
        with self._lock:
            self.stats.workers_respawned += 1
        return handle

    # ------------------------------------------------------------------ #
    # Introspection / stats
    # ------------------------------------------------------------------ #

    def worker_cached_fingerprints(self, index: int) -> list[tuple]:
        """The (catalog_id, fingerprint) keys worker ``index`` currently caches.

        Debug/test API: exchanges a ``cache_info`` message directly with the
        worker (serialized against the dispatcher by the handle's pipe lock).
        """
        handle = self._handles[index]
        task = _Task(
            kind="cache_info",
            key=None,
            body=(),
            snapshot=None,
            future=_Future(),
            submitted_at=time.perf_counter(),
        )
        task_id = next(self._task_ids)
        with handle.io_lock:
            reply = self._exchange(handle, (task_id, task, None))
        if reply[1] == "error":
            raise WorkerError(f"cache_info failed: {reply[2]}: {reply[3]}")
        return reply[2]

    def stats_snapshot(self) -> dict[str, Any]:
        """The tier's counters, keyed as ``InterfaceService.stats_snapshot()`` reports them.

        ``worker_processes`` is the resolved pool size; the queue-wait
        percentiles are in milliseconds (``None`` while no task has waited).
        """
        with self._lock:
            data: dict[str, Any] = {
                f.name: getattr(self.stats, f.name)
                for f in fields(TierStats)
                if f.name != "queue_waits"
            }
            data["worker_processes"] = len(self._handles)
            samples = list(self.stats.queue_waits)
        if self.breaker is not None:
            data["breaker_state"] = self.breaker.state()
            data["breaker_trips"] = self.breaker.trips
        for name, fraction in (("p50", 0.50), ("p95", 0.95)):
            wait = percentile(samples, fraction)
            data[f"process_queue_wait_{name}_ms"] = None if wait is None else round(wait * 1000, 3)
        return data

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def shutdown(self, wait: bool = True) -> None:
        """Stop dispatchers and workers (idempotent).

        With ``wait=True`` queued tasks drain first (dispatchers only exit
        once both lanes are empty); with ``wait=False`` workers are
        terminated and any in-flight task fails with :class:`WorkerError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        with self._dispatch_cond:
            self._stop_dispatch = True
            self._dispatch_cond.notify_all()
        if not wait:
            for handle in self._handles:
                if handle.process.is_alive():
                    handle.process.terminate()
        for thread in self._threads:
            thread.join(timeout=30)
        for handle in self._handles:
            try:
                with handle.io_lock:
                    handle.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
            handle.process.join(timeout=5)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=5)
            try:
                handle.conn.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass

    def __enter__(self) -> "ProcessExecutionTier":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessExecutionTier(processes={self.processes})"


class _TaskError(WorkerError):
    """A task failed inside the worker (the original exception's text survives)."""


def _map_worker_error(exc_type: str, message: str) -> Exception:
    """Rehydrate a worker-side error reply into the type the thread tier raises.

    Errors from :mod:`repro.errors` come back as themselves, looked up by
    name, so a query means the same in both tiers: a bad query raises its
    engine error, a deadline outcome its deadline type, and only a real
    worker failure is a :class:`WorkerError` (which counts against a circuit
    breaker's recovery probe).  A type whose constructor takes more than the
    message (``SqlLexError``, ``SqlParseError``: their locations are already
    in the text) arrives as its nearest ancestor that takes just the
    message.  Anything else, a ``WorkerError`` raised inside a healthy
    worker included, stays a :class:`_TaskError` carrying the original type
    name and text.
    """
    error_type = getattr(errors, exc_type, None)
    if (
        not isinstance(error_type, type)
        or not issubclass(error_type, errors.ReproError)
        or issubclass(error_type, WorkerError)
    ):
        return _TaskError(f"{exc_type}: {message}")
    plain = next(base for base in error_type.__mro__ if base.__init__ is Exception.__init__)
    return plain(message)
