"""Per-user serving sessions: a pinned snapshot plus live interface state.

A :class:`Session` is the unit of isolation the serving layer hands each
user.  It pins a :class:`~repro.engine.catalog.CatalogSnapshot` at creation,
and every read the session performs — ad-hoc queries, interface generation,
widget/interaction events — runs against that pinned version, so a user's
view of the data is *repeatable* while writers keep ingesting into the live
catalog.  :meth:`Session.refresh` re-pins at the catalog's current version
(the serving equivalent of starting a new read transaction).

Sessions are thread-safe: one internal lock serializes state mutations
(binding updates, interface attachment, snapshot refresh) and the session's
own interface-event executions, while ad-hoc ``execute`` calls run against
the immutable snapshot without holding it.  The session lock sits *above*
the catalog locks in the serving hierarchy — holding it while pinning a
snapshot or executing a query is legal, and nothing in the engine ever
acquires a session lock (see ``docs/SERVING.md``).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.engine.catalog import Catalog, CatalogSnapshot
from repro.engine.options import DEFAULT_OPTIONS, ExecOptions
from repro.engine.table import QueryResult
from repro.errors import SessionError
from repro.interface.state import EventRecord, InterfaceState
from repro.pipeline import GenerationResult

#: Bound on the per-session latency sample reservoir (newest samples win).
LATENCY_SAMPLE_CAPACITY = 1024


@dataclass
class SessionStats:
    """Per-session operation counters (telemetry, not part of any result).

    ``latencies`` is a bounded reservoir of the most recent samples — a
    long-lived session must not grow memory per operation.
    """

    queries: int = 0
    events: int = 0
    generations: int = 0
    refreshes: int = 0
    failures: int = 0
    total_seconds: float = 0.0
    latencies: deque = field(default_factory=lambda: deque(maxlen=LATENCY_SAMPLE_CAPACITY))


class Session:
    """One user's isolated view of the serving catalog.

    Args:
        session_id: Unique id assigned by the service.
        user: Opaque user label (admission control groups by it in logs only).
        catalog: The live catalog the session pins snapshots of.
    """

    def __init__(self, session_id: str, user: str, catalog: Catalog) -> None:
        self.session_id = session_id
        self.user = user
        self._catalog = catalog
        self._lock = threading.RLock()
        self._snapshot: CatalogSnapshot = catalog.snapshot()
        self._state: InterfaceState | None = None
        self._generation: GenerationResult | None = None
        self._closed = False
        self.stats = SessionStats()

    # ------------------------------------------------------------------ #
    # Snapshot lifecycle
    # ------------------------------------------------------------------ #

    @property
    def snapshot(self) -> CatalogSnapshot:
        """The currently pinned snapshot (immutable; safe to read lock-free)."""
        with self._lock:
            self._ensure_open()
            return self._snapshot

    def refresh(self) -> CatalogSnapshot:
        """Re-pin at the catalog's current version and rebind interface state.

        An attached interface survives a refresh: its Difftree bindings are
        carried over onto a fresh :class:`InterfaceState` against the new
        snapshot, so widgets keep their positions while the charts see the
        newly ingested data.

        Refreshing is what makes the incremental-maintenance plane pay off:
        the re-pinned snapshot's first read of a maintainable query folds the
        rows appended since the previous pin forward (see ``engine/ivm.py``)
        instead of recomputing, so the post-refresh re-render costs O(delta).
        """
        with self._lock:
            self._ensure_open()
            self._snapshot = self._catalog.snapshot()
            self.stats.refreshes += 1
            if self._state is not None:
                rebound = InterfaceState(self._state.interface, self._snapshot)
                for tree_index, bindings in self._state.bindings.items():
                    rebound.bindings[tree_index] = dict(bindings)
                self._state = rebound
            return self._snapshot

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def execute(
        self,
        query: str,
        options: ExecOptions = DEFAULT_OPTIONS,
        run=None,
    ) -> QueryResult:
        """Run one SQL query against the pinned snapshot.

        ``options`` carries the execution knobs (:class:`ExecOptions`).
        ``run`` is handed to :meth:`CatalogSnapshot.execute`: it decides
        where a cache miss is computed (the service passes one that may ship
        it to a worker process) without changing what the query reads or
        how the result cache is probed and filled.
        """
        resolved = options.pinned()
        snapshot = self.snapshot
        started = time.perf_counter()
        try:
            result = snapshot.execute(query, resolved, run=run)
        except Exception:
            self._note(started, "failures")
            raise
        self._note(started, "queries")
        return result

    # ------------------------------------------------------------------ #
    # Interface lifecycle
    # ------------------------------------------------------------------ #

    def attach(self, result: GenerationResult) -> InterfaceState:
        """Attach a generated interface, making the session live."""
        with self._lock:
            self._ensure_open()
            self._generation = result
            self._state = InterfaceState(result.interface, self._snapshot)
            self.stats.generations += 1
            return self._state

    @property
    def generation(self) -> GenerationResult | None:
        with self._lock:
            return self._generation

    @property
    def state(self) -> InterfaceState:
        with self._lock:
            self._ensure_open()
            if self._state is None:
                raise SessionError(
                    f"Session {self.session_id} has no attached interface; generate one first"
                )
            return self._state

    def set_widget(self, widget_id: str, value: Any) -> EventRecord:
        """Apply a widget event to the attached interface (serialized)."""
        with self._lock:
            record = self.state.set_widget(widget_id, value)
            self.stats.events += 1
            return record

    def data_for(self, vis_id: str) -> QueryResult:
        """Execute (with memoization) the query feeding one visualization."""
        started = time.perf_counter()
        with self._lock:
            result = self.state.data_for(vis_id)
        self._note(started, "queries")
        return result

    def refresh_all(self) -> dict[str, QueryResult]:
        """Execute every visualization's current query."""
        started = time.perf_counter()
        with self._lock:
            results = self.state.refresh_all()
        self._note(started, "queries")
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._state = None

    def _ensure_open(self) -> None:
        if self._closed:
            raise SessionError(f"Session {self.session_id} is closed")

    def _note(self, started: float, counter: str) -> None:
        elapsed = time.perf_counter() - started
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            self.stats.total_seconds += elapsed
            self.stats.latencies.append(elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Session({self.session_id!r}, user={self.user!r}, closed={self.closed})"
