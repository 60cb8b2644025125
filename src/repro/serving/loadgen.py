"""Deterministic load generator for the serving layer.

Replays a mixed read / write / generate workload against an
:class:`~repro.serving.service.InterfaceService` from N simulated clients,
each running in its own thread behind a start barrier (so the storm begins
simultaneously), and reports per-operation latencies.

The generator is deterministic per ``(seed, client)``: each client draws its
operation sequence from its own ``random.Random``, so a run is reproducible
regardless of thread scheduling — only the *interleaving* varies, which is
exactly what the concurrency tests want to vary.

Used by ``benchmarks/bench_perf_serving.py`` (throughput / p50 / p95 for
``BENCH_serving.json``) and by the stress tests in
``tests/test_serving_concurrency.py``.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import AdmissionError
from repro.obs import percentile
from repro.pipeline import PipelineConfig
from repro.serving.service import InterfaceService


@dataclass(frozen=True)
class WorkloadMix:
    """Relative weights of the three operation classes."""

    read: float = 0.7
    write: float = 0.2
    generate: float = 0.1

    def pick(self, rng: random.Random) -> str:
        total = self.read + self.write + self.generate
        roll = rng.random() * total
        if roll < self.read:
            return "read"
        if roll < self.read + self.write:
            return "write"
        return "generate"


@dataclass
class OpResult:
    """Outcome of one client operation."""

    client: int
    kind: str  # "read" | "write" | "generate"
    seconds: float
    ok: bool
    error: str | None = None
    #: Exception class name behind ``error`` (``None`` on clean success) —
    #: the chaos suite asserts every caller-visible failure is *typed*
    #: (e.g. QueryTimeoutError / OverloadError / DeadlineExceededError),
    #: which a formatted message string cannot prove.
    error_type: str | None = None


@dataclass
class LoadReport:
    """Aggregated outcome of one load run."""

    clients: int
    ops: list[OpResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def of_kind(self, kind: str) -> list[OpResult]:
        return [op for op in self.ops if op.kind == kind]

    @property
    def failures(self) -> list[OpResult]:
        return [op for op in self.ops if not op.ok]

    @property
    def ops_per_sec(self) -> float:
        return len(self.ops) / self.elapsed_seconds if self.elapsed_seconds else 0.0

    def latency_percentile(self, kind: str | None, fraction: float) -> float | None:
        """Latency percentile (seconds) of one op class (or all ops).

        Returns ``None`` when the class has no samples — a mixed workload
        can legitimately roll zero ops of one class.
        """
        pool = self.ops if kind is None else self.of_kind(kind)
        return percentile((op.seconds for op in pool), fraction)

    def as_dict(self) -> dict:
        """Machine-readable summary (the shape ``BENCH_serving.json`` stores).

        Latency keys of an op class with zero samples are emitted as null
        (never 0.0): the perf gate treats null as "no measurement", while a
        literal 0.0 would silently pass any lower-is-better comparison.
        """
        summary: dict = {
            "clients": self.clients,
            "operations": len(self.ops),
            "failures": len(self.failures),
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "serving_ops_per_sec": round(self.ops_per_sec, 2),
        }
        for kind in ("read", "write", "generate"):
            pool = self.of_kind(kind)
            summary[f"{kind}_ops"] = len(pool)
            for label, fraction in (("p50", 0.50), ("p95", 0.95)):
                value = self.latency_percentile(kind, fraction)
                summary[f"{kind}_{label}_ms"] = (
                    None if value is None else round(value * 1000, 2)
                )
        return summary


class LoadGenerator:
    """Drives an :class:`InterfaceService` with a reproducible mixed workload.

    Args:
        service: The service under load.
        read_queries: SQL strings read ops sample from.
        generate_logs: Query-log variants generate ops sample from (kept
            small — generation is the heavyweight op class).
        write_table: Table name write ops append to.
        write_row: ``(client, sequence) -> row`` factory for appended rows.
        mix: Operation-class weights.
        generation_config: Pipeline configuration for generate ops (defaults
            to a CI-friendly greedy search).
        seed: Base seed; client ``i`` uses ``seed + i``.
    """

    def __init__(
        self,
        service: InterfaceService,
        read_queries: Sequence[str],
        generate_logs: Sequence[Sequence[str]],
        write_table: str,
        write_row: Callable[[int, int], Sequence[object]],
        mix: WorkloadMix | None = None,
        generation_config: PipelineConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.service = service
        self.read_queries = list(read_queries)
        self.generate_logs = [list(log) for log in generate_logs]
        self.write_table = write_table
        self.write_row = write_row
        self.mix = mix or WorkloadMix()
        self.generation_config = generation_config or PipelineConfig(
            method="greedy", greedy_max_steps=4
        )
        self.seed = seed

    def run(self, clients: int, ops_per_client: int) -> LoadReport:
        """Run the storm: one session per client, barrier-synchronized start."""
        report = LoadReport(clients=clients)
        results_lock = threading.Lock()
        barrier = threading.Barrier(clients)

        def client_loop(client: int) -> None:
            rng = random.Random(self.seed + client)
            local: list[OpResult] = []
            try:
                session = self.service.create_session(user=f"client-{client}")
            except Exception as exc:  # noqa: BLE001 - break the barrier, don't hang it
                barrier.abort()
                with results_lock:
                    report.ops.append(
                        OpResult(
                            client,
                            "session",
                            0.0,
                            ok=False,
                            error=str(exc),
                            error_type=type(exc).__name__,
                        )
                    )
                return
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                # Another client failed to open its session and aborted the
                # storm; release this client's slot and report cleanly
                # instead of dying with the barrier.
                self.service.close_session(session.session_id)
                with results_lock:
                    report.ops.append(
                        OpResult(client, "session", 0.0, ok=False, error="barrier broken")
                    )
                return
            try:
                for sequence in range(ops_per_client):
                    kind = self.mix.pick(rng)
                    started = time.perf_counter()
                    try:
                        self._one_op(kind, client, sequence, session, rng)
                        local.append(
                            OpResult(client, kind, time.perf_counter() - started, ok=True)
                        )
                    except AdmissionError as exc:
                        # Backpressure is an expected outcome under storm
                        # load, not a failure: record and keep going.
                        local.append(
                            OpResult(
                                client,
                                kind,
                                time.perf_counter() - started,
                                ok=True,
                                error=f"admission: {exc}",
                                error_type=type(exc).__name__,
                            )
                        )
                    except Exception as exc:  # noqa: BLE001 - report, don't die
                        local.append(
                            OpResult(
                                client,
                                kind,
                                time.perf_counter() - started,
                                ok=False,
                                error=f"{type(exc).__name__}: {exc}",
                                error_type=type(exc).__name__,
                            )
                        )
            finally:
                self.service.close_session(session.session_id)
            with results_lock:
                report.ops.extend(local)

        threads = [
            threading.Thread(target=client_loop, args=(client,), name=f"loadgen-{client}")
            for client in range(clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def _one_op(
        self, kind: str, client: int, sequence: int, session, rng: random.Random
    ) -> None:
        if kind == "read":
            self.service.execute(session.session_id, rng.choice(self.read_queries))
        elif kind == "write":
            rows = [self.write_row(client, sequence)]
            self.service.ingest(self.write_table, rows)
            session.refresh()
        else:
            log = rng.choice(self.generate_logs)
            self.service.generate(session.session_id, log, self.generation_config)


class AsyncLoadGenerator:
    """Drives an :class:`AsyncInterfaceService` with N simulated users.

    Where :class:`LoadGenerator` spends one OS thread per client (and tops
    out around the thread-spawn budget), this generator runs each user as an
    asyncio task on one event loop — hundreds to thousands of concurrent
    users cost hundreds of coroutines, not threads.  User ``i`` connects as
    tenant ``tenant-{i}`` (spreading users across the frontend's shards via
    its stable hash) and draws its operation sequence from ``seed + i``, so
    a run is reproducible the same way the threaded generator is.

    Failed session opens and backpressure (:class:`AdmissionError`) are
    recorded the same way as in :class:`LoadGenerator`: rejected sessions as
    failed ``"session"`` ops, backpressured ops as ok-with-error.
    """

    def __init__(
        self,
        frontend,
        read_queries: Sequence[str],
        generate_logs: Sequence[Sequence[str]],
        write_table: str,
        write_row: Callable[[int, int], Sequence[object]],
        mix: WorkloadMix | None = None,
        generation_config: PipelineConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.frontend = frontend
        self.read_queries = list(read_queries)
        self.generate_logs = [list(log) for log in generate_logs]
        self.write_table = write_table
        self.write_row = write_row
        self.mix = mix or WorkloadMix()
        self.generation_config = generation_config or PipelineConfig(
            method="greedy", greedy_max_steps=4
        )
        self.seed = seed

    async def run(self, users: int, ops_per_user: int) -> LoadReport:
        """Run the storm: sessions open first (a soft barrier), then all ops."""
        report = LoadReport(clients=users)
        handles: list = [None] * users

        async def open_one(user: int) -> None:
            try:
                handles[user] = await self.frontend.open_session(f"tenant-{user}")
            except Exception as exc:  # noqa: BLE001 - record, don't sink the storm
                report.ops.append(
                    OpResult(
                        user,
                        "session",
                        0.0,
                        ok=False,
                        error=str(exc),
                        error_type=type(exc).__name__,
                    )
                )

        started = time.perf_counter()
        await asyncio.gather(*(open_one(user) for user in range(users)))

        async def user_loop(user: int) -> None:
            handle = handles[user]
            if handle is None:
                return
            rng = random.Random(self.seed + user)
            local: list[OpResult] = []
            try:
                for sequence in range(ops_per_user):
                    kind = self.mix.pick(rng)
                    op_started = time.perf_counter()
                    try:
                        await self._one_op(kind, user, sequence, handle, rng)
                        local.append(
                            OpResult(user, kind, time.perf_counter() - op_started, ok=True)
                        )
                    except AdmissionError as exc:
                        local.append(
                            OpResult(
                                user,
                                kind,
                                time.perf_counter() - op_started,
                                ok=True,
                                error=f"admission: {exc}",
                                error_type=type(exc).__name__,
                            )
                        )
                    except Exception as exc:  # noqa: BLE001 - report, don't die
                        local.append(
                            OpResult(
                                user,
                                kind,
                                time.perf_counter() - op_started,
                                ok=False,
                                error=f"{type(exc).__name__}: {exc}",
                                error_type=type(exc).__name__,
                            )
                        )
            finally:
                try:
                    await self.frontend.close_session(handle)
                except Exception:  # noqa: BLE001 - best-effort cleanup
                    pass
            # The event loop is single-threaded; no lock needed to append.
            report.ops.extend(local)

        await asyncio.gather(*(user_loop(user) for user in range(users)))
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def run_sync(self, users: int, ops_per_user: int) -> LoadReport:
        """Convenience wrapper for benches/tests not already inside a loop."""
        return asyncio.run(self.run(users, ops_per_user))

    async def _one_op(self, kind: str, user: int, sequence: int, handle, rng) -> None:
        if kind == "read":
            await self.frontend.execute(handle, rng.choice(self.read_queries))
        elif kind == "write":
            rows = [self.write_row(user, sequence)]
            await self.frontend.ingest(handle, self.write_table, rows)
            await self.frontend.refresh(handle)
        else:
            log = rng.choice(self.generate_logs)
            await self.frontend.generate(handle, log, self.generation_config)
