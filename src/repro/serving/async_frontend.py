"""Asyncio session frontend over the thread/process serving stack.

:class:`AsyncInterfaceService` lets one event loop drive hundreds to
thousands of simulated users against :class:`InterfaceService` shards
without a thread per user:

* **Bridging** — the sync service already returns ``concurrent.futures``
  futures from its ``submit_*`` methods; the async frontend wraps them with
  :func:`asyncio.wrap_future`, so an awaiting coroutine costs no thread
  while the work runs on the service pool (thread tier) or in a worker
  process (process tier).  Blocking calls that have no future form (session
  open, snapshot refresh) hop through :func:`asyncio.to_thread`.
* **Per-tenant catalog sharding** — each shard is a full
  ``InterfaceService`` over its own :class:`Catalog`; a tenant is pinned to
  a shard by a *stable* hash (``zlib.crc32``, never the salted builtin
  ``hash``), so a tenant's sessions always see the same catalog.  All
  shards share one :class:`ProcessExecutionTier` — worker snapshot caches
  key by ``(catalog_id, fingerprint)``, so S shards cost S payload entries,
  not S worker pools.

Sessions, admission control and writes stay in the frontend process;
workers stay stateless and read-only (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import asyncio
import zlib
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.engine.catalog import Catalog
from repro.engine.options import DEFAULT_OPTIONS, ExecOptions
from repro.engine.table import QueryResult
from repro.errors import AdmissionError
from repro.pipeline import GenerationResult, PipelineConfig
from repro.serving.service import InterfaceService, ServiceConfig
from repro.serving.workers import CircuitBreaker, ProcessExecutionTier

__all__ = ["AsyncInterfaceService", "AsyncSession"]


@dataclass
class AsyncSession:
    """A tenant's live session handle: shard routing plus the sync session."""

    tenant: str
    shard: int
    session_id: str


class AsyncInterfaceService:
    """Asyncio facade over one or more :class:`InterfaceService` shards.

    Args:
        catalogs: One :class:`Catalog` per shard.  ``config.shards`` must
            match (a single catalog may be passed bare for one shard).
        config: Shared service configuration.  With
            ``execution_tier="process"`` the frontend creates **one**
            process tier and injects it into every shard.
    """

    def __init__(
        self,
        catalogs: Catalog | Sequence[Catalog],
        config: ServiceConfig | None = None,
    ) -> None:
        if isinstance(catalogs, Catalog):
            catalogs = [catalogs]
        catalogs = list(catalogs)
        self.config = config or ServiceConfig(shards=len(catalogs))
        if self.config.shards != len(catalogs):
            raise AdmissionError(
                f"ServiceConfig.shards={self.config.shards} but {len(catalogs)} "
                f"catalogs were provided (one catalog per shard)"
            )
        # One shared tier for every shard: must exist before any shard spawns
        # frontend threads (fork-safety), and shutdown stays with this owner.
        self._tier: ProcessExecutionTier | None = None
        plan = self.config.fault_plan
        faults = plan.injector() if plan is not None and plan.enabled() else None
        if self.config.execution_tier == "process":
            # The breaker is shared with the tier: every shard feeds and
            # consults the same one, so a flapping tier degrades all shards
            # together instead of each rediscovering the failure rate.
            self._tier = ProcessExecutionTier(
                processes=self.config.worker_processes,
                start_method=self.config.worker_start_method,
                retry_policy=self.config.retry_policy,
                breaker=CircuitBreaker(
                    failure_threshold=self.config.breaker_failure_threshold,
                    window_seconds=self.config.breaker_window_seconds,
                    cooldown_seconds=self.config.breaker_cooldown_seconds,
                ),
                faults=faults,
            )
        self._shards = [
            InterfaceService(catalog, self.config, process_tier=self._tier)
            for catalog in catalogs
        ]
        self._closed = False

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    @property
    def shards(self) -> int:
        return len(self._shards)

    def shard_for(self, tenant: str) -> int:
        """Stable tenant -> shard routing (crc32, identical across runs)."""
        return zlib.crc32(tenant.encode("utf-8")) % len(self._shards)

    def _service(self, handle: AsyncSession) -> InterfaceService:
        return self._shards[handle.shard]

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #

    async def open_session(self, tenant: str) -> AsyncSession:
        """Open a session on the tenant's shard (admission-checked there)."""
        shard = self.shard_for(tenant)
        session = await asyncio.to_thread(self._shards[shard].create_session, tenant)
        return AsyncSession(tenant=tenant, shard=shard, session_id=session.session_id)

    async def close_session(self, handle: AsyncSession) -> None:
        await asyncio.to_thread(self._service(handle).close_session, handle.session_id)

    async def refresh(self, handle: AsyncSession) -> None:
        """Re-pin the session at its shard catalog's current version."""
        service = self._service(handle)
        session = service.session(handle.session_id)
        await asyncio.to_thread(session.refresh)

    # ------------------------------------------------------------------ #
    # Operations (future-bridged: no thread is held while awaiting)
    # ------------------------------------------------------------------ #

    async def execute(
        self,
        handle: AsyncSession,
        query: str,
        options: ExecOptions = DEFAULT_OPTIONS,
    ) -> QueryResult:
        future = self._service(handle).submit_execute(handle.session_id, query, options)
        return await asyncio.wrap_future(future)

    async def generate(
        self,
        handle: AsyncSession,
        queries: Sequence[str],
        config: PipelineConfig | None = None,
        deadline_ms: float | None = None,
    ) -> GenerationResult:
        future = self._service(handle).submit_generate(
            handle.session_id, queries, config, deadline_ms=deadline_ms
        )
        return await asyncio.wrap_future(future)

    async def ingest(
        self, handle: AsyncSession, table_name: str, rows: Iterable[Sequence[Any]]
    ) -> int:
        future = self._service(handle).submit_ingest(table_name, rows)
        return await asyncio.wrap_future(future)

    # ------------------------------------------------------------------ #
    # Stats / lifecycle
    # ------------------------------------------------------------------ #

    def stats_snapshot(self) -> dict[str, Any]:
        """Aggregated counters over every shard (sums; percentiles per shard)."""
        per_shard = [service.stats_snapshot() for service in self._shards]
        totals: dict[str, Any] = {"shards": len(per_shard)}
        for key in (
            "submitted",
            "completed",
            "failed",
            "rejected",
            "shed",
            "degraded",
            "expired",
            "sessions_opened",
            "sessions_rejected",
        ):
            totals[key] = sum(snap.get(key, 0) for snap in per_shard)
        # The process tier is shared, so its counters are *global* — take
        # them once instead of summing the same numbers S times.
        tier_keys = (
            "snapshot_ships",
            "worker_snapshot_cache_hits",
            "workers_respawned",
            "respawn_escalations",
            "tasks_retried",
            "tasks_expired",
            "ship_integrity_retries",
            "breaker_state",
            "breaker_trips",
            "worker_processes",
            "process_queue_wait_p50_ms",
            "process_queue_wait_p95_ms",
        )
        for key in tier_keys:
            if key in per_shard[0]:
                totals[key] = per_shard[0][key]
        totals["per_shard"] = per_shard
        return totals

    async def close(self) -> None:
        await asyncio.to_thread(self.close_sync)

    def close_sync(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Reverse construction order: each shard restores the process-global
        # executor fault hook it found at construction, so the hooks must
        # unwind last-in, first-out.  Shards do not own the shared tier; it
        # shuts down once below.
        for service in reversed(self._shards):
            service.shutdown(wait=True)
        if self._tier is not None:
            self._tier.shutdown(wait=True)

    async def __aenter__(self) -> "AsyncInterfaceService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
