"""Result cache keyed by canonical SQL form plus catalog data version.

The PI2 loop re-executes near-identical query variants constantly: every
widget event re-instantiates a Difftree binding, and sibling interface
candidates explored by the search share most of their concrete queries.  The
cache makes those repeats free:

* queries are keyed by their *canonical* SQL (redundant table qualifiers
  stripped, AND chains normalized — see ``difftree.canonical``), so
  superficially different variants share one entry;
* the key includes the catalog's data version, so any table registration,
  drop, replacement or row append invalidates stale entries implicitly;
* entries are kept LRU-bounded, and results are defensively copied on both
  store and hit so callers can never corrupt a cached row list.

Queries containing named parameters are never cached (their results depend
on values outside the SQL text).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

from repro.engine.table import QueryResult
from repro.sql.ast_nodes import Parameter, SqlNode
from repro.sql.printer import to_sql


@dataclass
class QueryCacheStats:
    """Counters exposed through ``Catalog.cache_stats``.

    ``ivm_folds`` / ``ivm_fallbacks`` come from the incremental-maintenance
    plane (``engine/ivm.py``): a *fold* answered a probe by applying appended
    deltas to a maintained entry (the probe itself still counts as a miss —
    the entry at the new version did not exist), a *fallback* is a fold
    attempt that had to give up (version log truncated, table replaced, torn
    chain) and recompute cold.  ``effective_hit_rate`` therefore counts folds
    as hits: ``(hits + ivm_folds) / (hits + misses)``.

    ``cleared`` counts :meth:`QueryCache.clear` calls and survives them;
    every other counter resets on clear so ``hit_rate`` always describes the
    cache's current population.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    bypassed: int = 0
    ivm_folds: int = 0
    ivm_fallbacks: int = 0
    cleared: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def effective_hit_rate(self) -> float:
        """Hit rate counting delta folds as hits (what serving sessions see)."""
        total = self.hits + self.misses
        return (self.hits + self.ivm_folds) / total if total else 0.0

    def reset_counters(self) -> None:
        """Zero every per-population counter (``cleared`` is cumulative)."""
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.bypassed = 0
        self.ivm_folds = 0
        self.ivm_fallbacks = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "bypassed": self.bypassed,
            "ivm_folds": self.ivm_folds,
            "ivm_fallbacks": self.ivm_fallbacks,
            "cleared": self.cleared,
            "hit_rate": round(self.hit_rate, 4),
            "effective_hit_rate": round(self.effective_hit_rate, 4),
        }


def cache_key(node: SqlNode, data_version: Hashable) -> str | None:
    """The cache key for a query AST, or None when the query is uncacheable.

    The key is the canonical SQL text (AND chains normalized; redundant table
    qualifiers stripped when provably safe) suffixed with the catalog data
    version, so equivalent query variants share an entry and any catalog
    mutation implicitly invalidates it.
    """
    return cache_identity(node, data_version)[0]


def cache_identity(
    node: SqlNode, data_version: Hashable
) -> tuple[str | None, str | None]:
    """``(cache key, canonical SQL)`` for a query AST — ``(None, None)`` when
    uncacheable.

    The canonical text is the version-independent half of the key; the
    incremental-maintenance plane addresses delta folders by it (a folder
    outlives version bumps, unlike a cache entry).  The parameter check and
    the canonical text are memoized on the immutable node (None when it
    holds a parameter), so a repeated read of one parsed query — the
    catalog's AST memo hands every read of one SQL text the same node —
    skips the walk, the canonicalization and the print.
    """
    try:
        canonical = node._repro_cache_canonical  # type: ignore[attr-defined]
    except AttributeError:
        canonical = None
        if not any(isinstance(descendant, Parameter) for descendant in node.walk()):
            canonical = canonical_text(node)
        object.__setattr__(node, "_repro_cache_canonical", canonical)
    if canonical is None:
        return None, None
    return f"{canonical}@@{data_version!r}", canonical


def canonical_text(node: SqlNode) -> str:
    """The canonical SQL text used as the version-independent cache identity."""
    try:
        return to_sql(_canonical_for_cache(node))
    except Exception:  # noqa: BLE001 - canonicalization is best effort
        return to_sql(node)


def _canonical_for_cache(node: SqlNode) -> SqlNode:
    """Canonicalization that never merges semantically different queries.

    Qualifier stripping is only equivalence-preserving when the query has a
    single name-resolution scope: inside a nested SELECT, a stripped outer
    reference (``c.k`` → ``k``) could resolve to the *inner* scope instead.
    Multi-scope queries therefore only get AND-chain normalization, which is
    scope-agnostic.
    """
    from repro.difftree.canonical import canonicalize, normalize_and_chains
    from repro.sql.ast_nodes import Select

    if isinstance(node, Select) and not any(
        isinstance(descendant, Select) and descendant is not node
        for descendant in node.walk()
    ):
        return canonicalize(node)
    return normalize_and_chains(node)


class QueryCache:
    """A bounded, thread-safe LRU cache of materialized query results.

    One internal lock serializes every probe/store/stat mutation so the cache
    can be shared by the serving layer's worker pool: concurrent readers at
    different catalog snapshots hit disjoint keys (the key embeds the data
    version), and the lock only guards the OrderedDict bookkeeping — the
    defensive result copies happen outside it.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("QueryCache capacity must be positive")
        self.capacity = capacity
        self.stats = QueryCacheStats()
        self._entries: OrderedDict[str, QueryResult] = OrderedDict()
        # Delta folders for maintainable queries, keyed by *canonical SQL*
        # (no data version — a folder survives version bumps; that is its
        # whole point).  A separate LRU map, same capacity: evicting a result
        # entry must not destroy the folder state that can rebuild it.
        self._folders: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def _copy(result: QueryResult) -> QueryResult:
        # Values are shared (immutable), containers are not: a copy can never
        # alias the cached entry's lists.  The copy preserves laziness — a
        # column-backed result is cached column-backed, so the row pivot is
        # still deferred until some consumer actually reads ``.rows``.
        return result.copy()

    def lookup(self, key: str) -> QueryResult | None:
        """Return a copy of the cached result for ``key``, or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
        return self._copy(entry)

    def store(self, key: str, result: QueryResult) -> None:
        """Cache a result under ``key``, evicting the LRU entry when full."""
        copied = self._copy(result)
        with self._lock:
            self._entries[key] = copied
            self._entries.move_to_end(key)
            self.stats.stores += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def note_bypass(self) -> None:
        """Record an execution that skipped the cache (uncacheable query)."""
        with self._lock:
            self.stats.bypassed += 1

    # ------------------------------------------------------------------ #
    # Delta folders (incremental view maintenance — see engine/ivm.py)
    # ------------------------------------------------------------------ #

    def folder(self, canonical: str) -> Any | None:
        """The delta folder registered for a canonical query, or None."""
        with self._lock:
            entry = self._folders.get(canonical)
            if entry is not None:
                self._folders.move_to_end(canonical)
            return entry

    def store_folder(self, canonical: str, folder: Any) -> None:
        """Register (or replace) the delta folder for a canonical query."""
        with self._lock:
            self._folders[canonical] = folder
            self._folders.move_to_end(canonical)
            while len(self._folders) > self.capacity:
                self._folders.popitem(last=False)

    def drop_folder(self, canonical: str, folder: Any) -> None:
        """Remove a folder, but only if it is still the registered one."""
        with self._lock:
            if self._folders.get(canonical) is folder:
                del self._folders[canonical]

    def note_fold(self) -> None:
        """Record a probe answered by folding appended deltas forward."""
        with self._lock:
            self.stats.ivm_folds += 1

    def note_fallback(self) -> None:
        """Record a fold attempt that fell back to a full recompute."""
        with self._lock:
            self.stats.ivm_fallbacks += 1

    def clear(self) -> None:
        """Drop every entry and folder; reset counters, bump ``cleared``.

        The counters describe the cache's current population, so they reset
        with it — a ``hit_rate`` carried across a clear would mislead (the
        hits it counts came from entries that no longer exist).  ``cleared``
        is the cumulative record that clears happened.
        """
        with self._lock:
            self._entries.clear()
            self._folders.clear()
            self.stats.reset_counters()
            self.stats.cleared += 1

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            data = self.stats.as_dict()
            data["entries"] = len(self._entries)
            data["folders"] = len(self._folders)
        data["capacity"] = self.capacity
        return data
