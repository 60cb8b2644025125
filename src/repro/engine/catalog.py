"""The catalog: a named collection of in-memory tables.

The catalog is the engine's entry point — it owns the tables, exposes their
schemas to the analyzer, and provides :meth:`Catalog.execute` to run SQL text
or ASTs through the planner/executor.  It also owns the two execution caches:

* a **plan cache** of compiled physical plans keyed by SQL text (cleared when
  the set of tables changes), so repeated query shapes skip planning;
* a **result cache** (:class:`~repro.engine.query_cache.QueryCache`) keyed by
  canonical SQL plus the catalog data version, so repeated equivalent queries
  — the dominant pattern in interface instantiation and search — skip
  execution entirely.

Beside them it owns the **structure caches** interface generation keeps its
per-structure facts in — coverage verdicts, tree profiles, chart templates,
filter-attribute sets, forest costs and the search's merged and factored
trees with their transformation lists (bounded, thread-safe, shared by
every snapshot) — and a bounded memo of parsed ASTs that
generation reads its query log through, so repeated generations on one
catalog reuse both.

Concurrency model (the serving layer's contract — see ``docs/SERVING.md``):

* **Readers pin snapshots.**  Every ``execute`` atomically pins a
  :class:`CatalogSnapshot` — the table map plus its data-version fingerprint,
  captured under the catalog lock — and runs against it, so the version the
  cache key embeds, the data the executor scans and the version the result is
  stored under are always the same, even while writers swap tables.
* **Writers copy-on-write.**  Concurrent mutation goes through
  :meth:`Catalog.append_rows` / :meth:`Catalog.register` ``(replace=True)`` /
  :meth:`Catalog.drop`: the new table version is built off to the side (a
  clone carrying the incremental statistics forward) and swapped into the
  table map atomically under the catalog lock.  In-place ``Table.append`` is
  still supported for single-threaded use, but raises once the table has been
  frozen by an explicit snapshot.
* **Lock hierarchy.**  ``_write_lock`` (serializes writers, held across the
  clone+extend) → ``_lock`` (guards the table map, version reads and snapshot
  pinning, held only for pointer swaps).  Cache objects have their own
  internal locks and are never touched while holding ``_lock``.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Iterable, Sequence

from repro.errors import CatalogError
from repro.difftree.signatures import SharedLruDict, StructureCaches
from repro.engine.explain import ExplainReport
from repro.engine.ivm import AppendDelta, VersionLog
from repro.engine.options import DEFAULT_OPTIONS, ExecOptions
from repro.engine.query_cache import QueryCache, cache_identity
from repro.engine.table import QueryResult, Table
from repro.sql.ast_nodes import Select, SetOperation, SqlNode
from repro.sql.parser import parse
from repro.sql.schema import TableSchema


#: FIFO capacity of the parsed-AST cache.  Query texts repeat heavily in the
#: interface/search workloads, and parsing is a measurable slice of warm
#: execution; parsed ASTs are immutable by engine convention, so sharing one
#: node tree across executions — and across generations, which then reuse
#: every memo on the nodes — is safe (and lets the executor's identity-keyed
#: memos hit too).
AST_CACHE_CAPACITY = 512

#: Process-wide catalog identity counter.  Data-version fingerprints are only
#: comparable *within* one catalog lineage (two independent catalogs both
#: start at schema version 1), so anything that caches state across catalogs
#: — the process-pool execution tier's per-worker snapshot caches — keys by
#: ``(catalog_id, fingerprint)``, never by the fingerprint alone.
_CATALOG_IDS = itertools.count(1)


class ParseMemo:
    """A bounded FIFO memo of parsed ASTs, keyed by SQL text.

    The catalog owns one, and so does every unpickled snapshot and every
    worker process, since a memo holds a lock and never crosses the process
    boundary.  Callers share the returned node and must not mutate it.  The
    store and the trim run under a leaf lock that is never held while
    parsing.
    """

    __slots__ = ("_memo", "_lock")

    def __init__(self) -> None:
        self._memo: dict[str, SqlNode] = {}
        self._lock = threading.Lock()

    def __call__(self, text: str) -> SqlNode:
        node = self._memo.get(text)
        if node is None:
            node = parse(text)
            with self._lock:
                self._memo[text] = node
                while len(self._memo) > AST_CACHE_CAPACITY:
                    self._memo.pop(next(iter(self._memo)), None)
        return node

    def clear(self) -> None:
        with self._lock:
            self._memo.clear()


class Catalog:
    """A named collection of tables plus query execution facilities."""

    def __init__(self, query_cache_capacity: int = 256) -> None:
        self._tables: dict[str, Table] = {}
        #: Identity token distinguishing this catalog from every other catalog
        #: in the process (fingerprints alone are lineage-local; see
        #: ``_CATALOG_IDS``).
        self.catalog_id = next(_CATALOG_IDS)
        self._schema_version = 0
        self._plan_cache: dict = {}
        self._parse_memo = ParseMemo()
        self._query_cache = QueryCache(capacity=query_cache_capacity)
        #: Per-structure facts of interface generation (see
        #: ``StructureCaches``).  Each key carries whatever the fact depends
        #: on besides the tree — the schemas — so writers leave the
        #: caches alone and they live as long as the catalog lineage: every
        #: snapshot shares them, and each generation on this catalog starts
        #: warm.
        self._structure_caches = StructureCaches(SharedLruDict)
        #: Guards the table map, version reads and snapshot pinning.  Held
        #: only for pointer swaps and O(tables) bookkeeping — never across
        #: execution, parsing or table cloning.
        self._lock = threading.RLock()
        #: Serializes copy-on-write writers (held across the off-to-the-side
        #: clone+extend so concurrent writers cannot lose each other's rows).
        #: Always acquired *before* ``_lock`` — see the module docstring.
        self._write_lock = threading.RLock()
        self._snapshot_memo: CatalogSnapshot | None = None
        #: Bounded log of per-table append ranges (the incremental-maintenance
        #: plane's fold input).  Leaf-locked like the caches: recorded under
        #: ``_write_lock`` but never under ``_lock``.
        self._version_log = VersionLog()
        #: Called with no arguments before every top-level execution on this
        #: catalog's snapshots (not on cache hits, folds or nested
        #: subqueries).  ``None`` except under the serving layer's fault
        #: plane, which raises from it at planned ordinals.  Snapshots carry
        #: the hook but never pickle it, so worker processes never run it.
        self.fault_hook: Callable[[], None] | None = None

    def parse(self, text: str) -> SqlNode:
        """Parse SQL text through the catalog's :class:`ParseMemo`.

        Callers share the returned node and must not mutate it.
        """
        return self._parse_memo(text)

    # ------------------------------------------------------------------ #
    # Table management
    # ------------------------------------------------------------------ #

    def _bump_schema_version_locked(self) -> None:
        self._schema_version += 1
        self._snapshot_memo = None
        # Compiled plans may have baked in join-key side analysis against the
        # old table set; recompile rather than risk a stale classification.
        self._plan_cache.clear()

    def register(self, table: Table, replace: bool = False) -> None:
        """Register a table under its own name (an atomic swap when replacing)."""
        key = table.name.lower()
        with self._write_lock:
            with self._lock:
                if key in self._tables and not replace:
                    raise CatalogError(
                        f"Table {table.name!r} already exists in the catalog"
                    )
                self._tables[key] = table
                self._bump_schema_version_locked()
            # Registration/replacement breaks the append-only premise for this
            # table: truncate every fold chain (full invalidation).  Cleared
            # outside ``_lock`` per the lock hierarchy.
            self._version_log.clear()

    def create_table(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]] = (),
        replace: bool = False,
    ) -> Table:
        """Create and register a table from rows."""
        table = Table(name=name, columns=columns, rows=rows)
        self.register(table, replace=replace)
        return table

    def drop(self, name: str) -> None:
        key = name.lower()
        with self._write_lock:
            with self._lock:
                if key not in self._tables:
                    raise CatalogError(f"Cannot drop unknown table {name!r}")
                del self._tables[key]
                self._bump_schema_version_locked()
            self._version_log.clear()

    def append_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Append rows to a table via copy-on-write (the concurrent write path).

        The current table is cloned off to the side (statistics carried
        forward), the clone is extended, and the new version is swapped into
        the table map atomically — readers that pinned a snapshot keep seeing
        the old table object untouched.  Only the pointer swap happens under
        the catalog lock; concurrent writers serialize on the write lock.

        The clone makes every call **O(existing table size)** regardless of
        batch size, so writers should batch rows rather than append one at a
        time; single-row trickle ingest into a large table is quadratic in
        total rows (see ``docs/SERVING.md``).

        Returns the number of rows appended.
        """
        with self._write_lock:
            with self._lock:
                key = name.lower()
                current = self._tables.get(key)
                if current is None:
                    raise CatalogError(f"Cannot append to unknown table {name!r}")
                before = self._fingerprint_locked()
            clone = current.clone()
            clone.extend(rows)
            appended = clone.row_count - current.row_count
            with self._lock:
                self._tables[key] = clone
                self._snapshot_memo = None
                after = self._fingerprint_locked()
            if appended:
                # Writers serialize on ``_write_lock``, so ``before`` is the
                # fingerprint this append started from and the log forms an
                # unbroken chain until the next schema change truncates it.
                self._version_log.record(
                    AppendDelta(
                        table=key,
                        start_row=current.row_count,
                        end_row=clone.row_count,
                        from_version=before,
                        to_version=after,
                    )
                )
        return appended

    def create_index(self, name: str, column: str, kind: str = "hash") -> None:
        """Build a secondary index (``"hash"`` or ``"ordered"``) on a column.

        Indexing is a *derived-state* operation: the table's rows and data
        version are untouched, so cached results stay valid.  The index is
        built off to the side and published atomically onto the live column
        (snapshot readers either see no index and scan, or a complete one),
        and every later copy-on-write clone inherits it by sharing the sealed
        segments.  Compiled plans are cleared so the optimizer re-runs
        access-path selection with the new index visible.
        """
        with self._write_lock:
            with self._lock:
                table = self._tables.get(name.lower())
            if table is None:
                raise CatalogError(f"Cannot index unknown table {name!r}")
            table.create_index(column, kind)
            with self._lock:
                self._plan_cache.clear()

    def table(self, name: str) -> Table:
        key = name.lower()
        with self._lock:
            if key not in self._tables:
                raise CatalogError(f"Unknown table {name!r}")
            return self._tables[key]

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._tables

    def table_names(self) -> list[str]:
        with self._lock:
            return sorted(table.name for table in self._tables.values())

    def schemas(self) -> dict[str, TableSchema]:
        """Schemas of every registered table, keyed by table name."""
        with self._lock:
            tables = list(self._tables.values())
        return {table.name: table.schema() for table in tables}

    def data_version(self) -> tuple:
        """A hashable fingerprint of the current table set and their data.

        Changes whenever a table is registered, dropped or replaced, or any
        table's rows are mutated — used to key (and thereby invalidate)
        cached query results.
        """
        with self._lock:
            return self._fingerprint_locked()

    def _fingerprint_locked(self) -> tuple:
        return (
            self._schema_version,
            tuple(sorted((name, table.data_version) for name, table in self._tables.items())),
        )

    def schema_version(self) -> int:
        """Counter bumped by register/drop/replace (keys verbatim plan-cache entries)."""
        with self._lock:
            return self._schema_version

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #

    def snapshot(self, freeze: bool = True) -> "CatalogSnapshot":
        """Pin an immutable view of the catalog at its current data version.

        Snapshots are cheap — a copy of the table map plus the version
        fingerprint, memoized per version — and share the catalog's
        (thread-safe) result cache and plan cache; cache keys embed the
        pinned version, so entries from different versions never collide.

        ``freeze=True`` (the default, and what serving sessions use) also
        freezes the pinned tables so a stray in-place ``Table.append`` raises
        instead of tearing concurrent readers.  The internal pin every
        ``execute`` performs uses ``freeze=False`` to keep single-threaded
        callers free to mutate tables directly between queries.
        """
        with self._lock:
            fingerprint = self._fingerprint_locked()
            snapshot = self._snapshot_memo
            if (
                snapshot is None
                or snapshot.data_version() != fingerprint
                or snapshot.fault_hook is not self.fault_hook
            ):
                snapshot = CatalogSnapshot(
                    tables=dict(self._tables),
                    version=fingerprint,
                    plan_cache=self._plan_cache,
                    query_cache=self._query_cache,
                    parse=self._parse_memo,
                    catalog_id=self.catalog_id,
                    version_log=self._version_log,
                    structure_caches=self._structure_caches,
                    fault_hook=self.fault_hook,
                )
                self._snapshot_memo = snapshot
        if freeze:
            snapshot.freeze_tables()
        return snapshot

    # ------------------------------------------------------------------ #
    # Query execution
    # ------------------------------------------------------------------ #

    def execute(
        self, query: str | SqlNode, options: ExecOptions = DEFAULT_OPTIONS
    ) -> QueryResult:
        """Execute a SQL string or parsed AST and return its result.

        ``options`` carries every execution knob (see :class:`ExecOptions`):
        result-cache participation, the optimizer on/off escape hatch, and
        the cooperative-cancellation deadline.

        Results are served from the canonical-query cache when an equivalent
        query (same canonical SQL) has already run against the current data
        version.  ``ExecOptions(optimize=False)`` lowers the logical plan
        verbatim (no rewrite rules) — the escape hatch the differential test
        harness uses to compare optimized against unoptimized execution;
        unoptimized runs never consult or populate the result cache.

        Execution runs against an atomically pinned snapshot: the data
        version the cache key embeds, the tables the executor scans and the
        version the result is stored under all come from one consistent pin,
        so a concurrent writer swap can neither serve a stale hit nor poison
        the cache with a result computed from newer data.
        """
        return self.snapshot(freeze=False).execute(query, options)

    def explain(
        self,
        query: str | SqlNode,
        physical: bool = False,
        options: ExecOptions = DEFAULT_OPTIONS,
    ) -> "ExplainReport":
        """Return the query's plan as an :class:`ExplainReport`.

        The report is a ``str`` subclass rendering exactly the classic text,
        with the individual sections (``logical``, ``trace``, ``optimized``,
        ``physical``) and the optimizer's ``access_paths`` decisions attached
        as data.

        ``physical=False`` renders the logical plan the planner produces.
        ``physical=True`` renders the full compile pipeline: the pre-rewrite
        logical plan, the optimizer's per-rule trace, the optimized logical
        plan and the executable physical plan.  With optimization disabled
        (``options=ExecOptions(optimize=False)``) only the verbatim physical
        lowering is rendered (the pre-optimizer behaviour, still used by
        lowering-specific tests).
        """
        from repro.engine.executor import lower_plan
        from repro.engine.optimizer import optimize_plan
        from repro.engine.planner import Planner

        node = self.parse(query) if isinstance(query, str) else query
        if not isinstance(node, (Select, SetOperation)):
            raise CatalogError(f"Only SELECT queries can be planned, got {type(node).__name__}")
        if not physical:
            text = Planner(self.schemas()).plan(node).pretty()
            return ExplainReport(text, logical=text)
        logical = Planner().plan(node)
        if not options.optimize:
            text = lower_plan(logical, self, {}).pretty()
            return ExplainReport(text, logical=logical.pretty(), physical=text)
        optimized, trace = optimize_plan(logical, self)
        physical_plan = lower_plan(optimized, self, {})
        trace_lines = trace.lines()
        # The ivm maintainability analysis always records one line; the "no
        # rewrites" marker keys off actual rewrite rules only.
        if not any(rule != "ivm" for rule, _ in trace.events):
            trace_lines.append("(no rewrites applied)")
        if not trace_lines:
            trace_lines = ["(no rewrites applied)"]
        sections = [
            "== Logical plan ==",
            logical.pretty(),
            "== Optimizer trace ==",
            *trace_lines,
            "== Optimized logical plan ==",
            optimized.pretty(),
            "== Physical plan ==",
            physical_plan.pretty(),
        ]
        return ExplainReport(
            "\n".join(sections),
            logical=logical.pretty(),
            trace=tuple(trace.events),
            optimized=optimized.pretty(),
            physical=physical_plan.pretty(),
            access_paths=tuple(trace.access_decisions),
        )

    # ------------------------------------------------------------------ #
    # Caches
    # ------------------------------------------------------------------ #

    @property
    def query_cache(self) -> QueryCache:
        return self._query_cache

    @property
    def structure_caches(self) -> StructureCaches:
        return self._structure_caches

    @property
    def coverage_memo(self) -> SharedLruDict:
        return self._structure_caches.coverage

    def cache_stats(self) -> dict[str, Any]:
        """Result- and plan-cache counters (hits, misses, hit rate, sizes)."""
        stats = self._query_cache.snapshot()
        stats["plan_cache_entries"] = len(self._plan_cache)
        return stats

    def clear_caches(self) -> None:
        """Drop all cached results, compiled plans, parsed ASTs and structure caches."""
        # The result cache, the structure caches and the parse memo have their
        # own locks and are cleared outside _lock, keeping the invariant that
        # cache-internal locks are never acquired while a catalog lock is held.
        self._query_cache.clear()
        self._structure_caches.clear()
        self._parse_memo.clear()
        with self._lock:
            self._plan_cache.clear()

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Catalog(tables={self.table_names()})"


class CatalogSnapshot:
    """An immutable view of a catalog pinned at one data version.

    A snapshot exposes the read-side catalog interface the executor, planner
    and optimizer consume — :meth:`table`, :meth:`has_table`, :meth:`schemas`,
    :meth:`data_version`, :meth:`execute` — over a private copy of the table
    *map*.  The table objects themselves are shared (column stores are
    immutable on read; concurrent writers swap new table objects into the live
    catalog rather than mutating pinned ones), which is what makes pinning
    O(tables), not O(data).

    Snapshots share the owning catalog's thread-safe result cache and its
    compiled-plan cache: both key entries by the *pinned* data version, so
    readers at different versions populate disjoint entries and a snapshot can
    never be served a result or an optimized plan computed from data it cannot
    see.  They also share its structure caches, whose keys carry everything
    their facts depend on besides the tree.
    """

    def __init__(
        self,
        tables: dict[str, Table],
        version: tuple,
        plan_cache: dict,
        query_cache: QueryCache,
        parse,
        catalog_id: int = 0,
        version_log: VersionLog | None = None,
        *,
        structure_caches: StructureCaches,
        fault_hook: Callable[[], None] | None = None,
    ) -> None:
        self._tables = tables
        self._version = version
        self._plan_cache = plan_cache
        self._query_cache = query_cache
        self._parse = parse
        self.catalog_id = catalog_id
        self._version_log = version_log
        self._structure_caches = structure_caches
        self.fault_hook = fault_hook
        self._schemas_memo: dict[str, TableSchema] | None = None

    # ------------------------------------------------------------------ #
    # Pickling contract (the process-tier snapshot transport)
    # ------------------------------------------------------------------ #
    #
    # What crosses the process boundary: the pinned table map (immutable
    # data + incrementally maintained column statistics), the version
    # fingerprint and the catalog identity token.  What never crosses:
    # the caches, the structure caches included (they hold locks, and a
    # worker's caches must key off the worker's own state), the owning
    # catalog's parse memo and its fault hook.  An unpickled snapshot is
    # self-sufficient — fresh empty caches, a parse memo of its own, no hook —
    # and a worker that wants cross-fingerprint cache reuse attaches shared
    # caches afterwards via ``attach_caches``.

    def __getstate__(self) -> dict:
        # Ship *warm* tables: column statistics, null counts, and sealed
        # secondary-index segments are part of the payload (they are
        # incrementally maintained state, not caches), so a worker can
        # execute immediately instead of each worker paying an O(data)
        # statistics/index rebuild per shipped version.  warm_stats() also
        # folds index tails into immutable segments so the pickled bytes
        # carry only shared, sealed structures.
        for table in self._tables.values():
            table.warm_stats()
        return {
            "tables": self._tables,
            "version": self._version,
            "catalog_id": self.catalog_id,
        }

    def __setstate__(self, state: dict) -> None:
        self._tables = state["tables"]
        self._version = state["version"]
        self.catalog_id = state["catalog_id"]
        self._plan_cache = {}
        self._query_cache = QueryCache()
        self._parse = ParseMemo()
        # No version log across the process boundary: a worker's first read
        # at a version is a cold recompute, exactly matching what the fold
        # path must be equivalent to.
        self._version_log = None
        self._structure_caches = StructureCaches(SharedLruDict)
        self.fault_hook = None
        self._schemas_memo = None

    def attach_caches(
        self,
        plan_cache: dict | None = None,
        query_cache: QueryCache | None = None,
        parse=None,
        structure_caches: StructureCaches | None = None,
    ) -> None:
        """Attach shared caches to a detached (unpickled) snapshot.

        The worker handshake: a worker process shares one parse memo and one
        set of structure caches (keys carry the schemas, catalog id and data
        version wherever a fact depends on them) across every snapshot it
        holds, one result cache across the snapshots of one catalog (keys
        embed the pinned data version, which only orders versions within one
        catalog lineage: two catalogs can report equal versions), and one
        compiled-plan cache **per catalog and schema version** (plans bake in
        table-set analysis, so they are only reusable while the schema
        component of the fingerprint is unchanged).
        """
        if plan_cache is not None:
            self._plan_cache = plan_cache
        if query_cache is not None:
            self._query_cache = query_cache
        if parse is not None:
            self._parse = parse
        if structure_caches is not None:
            self._structure_caches = structure_caches

    def freeze_tables(self) -> None:
        """Freeze every pinned table (idempotent) — see :meth:`Table.freeze`."""
        for table in self._tables.values():
            table.freeze()

    # ------------------------------------------------------------------ #
    # Read-side catalog interface
    # ------------------------------------------------------------------ #

    def table(self, name: str) -> Table:
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"Unknown table {name!r}")
        return self._tables[key]

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> list[str]:
        return sorted(table.name for table in self._tables.values())

    def schemas(self) -> dict[str, TableSchema]:
        """Schemas of every pinned table (memoized — the snapshot is immutable)."""
        if self._schemas_memo is None:
            self._schemas_memo = {table.name: table.schema() for table in self._tables.values()}
        return self._schemas_memo

    def data_version(self) -> tuple:
        """The pinned fingerprint (constant for the snapshot's lifetime)."""
        return self._version

    def schema_version(self) -> int:
        """The pinned schema-version component of the fingerprint."""
        return self._version[0]

    @property
    def query_cache(self) -> QueryCache:
        return self._query_cache

    @property
    def structure_caches(self) -> StructureCaches:
        return self._structure_caches

    @property
    def coverage_memo(self) -> SharedLruDict:
        return self._structure_caches.coverage

    def parse(self, text: str) -> SqlNode:
        """Parse SQL text through the owning catalog's (or the worker's) AST memo."""
        return self._parse(text)

    def __contains__(self, name: str) -> bool:
        return self.has_table(name)

    def execute(
        self,
        query: str | SqlNode,
        options: ExecOptions = DEFAULT_OPTIONS,
        run: Callable[["CatalogSnapshot", Callable[[], QueryResult]], QueryResult] | None = None,
    ) -> QueryResult:
        """Execute a query against the pinned table versions.

        Semantics match :meth:`Catalog.execute`, with every read — cache key,
        scans, optimizer statistics — anchored to the snapshot's version.  A
        timed-out execution (deadline elapsed mid-run) raises before the
        store, so partial work can never poison the result cache.

        Every read is probe → fold → compute → store.  ``run``, when given,
        decides only where the compute step happens: it is called as
        ``run(snapshot, compute)`` for a cache miss or an uncacheable read
        and returns the result, e.g. by shipping the query to a worker
        process or by calling ``compute()`` here.  It is called with no lock
        held; this is the only place the engine calls into the serving layer.
        """
        # Imported here to avoid a circular import: the executor needs the
        # catalog types for scans.
        from repro.engine.executor import Executor

        run_deadline = options.resolved_deadline()

        node = self._parse(query) if isinstance(query, str) else query
        if not isinstance(node, (Select, SetOperation)):
            raise CatalogError(f"Only SELECT queries can be executed, got {type(node).__name__}")

        def compute() -> QueryResult:
            if self.fault_hook is not None:
                self.fault_hook()
            return Executor(
                self, plan_cache=self._plan_cache, optimize=options.optimize, deadline=run_deadline
            ).execute(node)

        # Unoptimized runs never touch the result cache (see ExecOptions).
        key = canonical = None
        if options.use_cache and options.optimize:
            key, canonical = cache_identity(node, self._version)
        if key is None:
            if options.use_cache:
                self._query_cache.note_bypass()
            return compute() if run is None else run(self, compute)
        cached = self._query_cache.lookup(key)
        if cached is not None:
            return cached
        folded = self._fold_probe(key, canonical)
        if folded is not None:
            return folded
        result = compute() if run is None else run(self, compute)
        self._query_cache.store(key, result)
        self._maybe_register_folder(node, canonical, result)
        return result

    # ------------------------------------------------------------------ #
    # Incremental maintenance (see engine/ivm.py)
    # ------------------------------------------------------------------ #

    def _fold_probe(self, key: str, canonical: str) -> QueryResult | None:
        """Answer a cache miss by folding appended deltas, when possible.

        A successful fold stores the result under this version's key, so
        every later probe at the same version is a plain cache hit.  A failed
        fold counts a fallback; when the folder is off the append chain
        entirely (truncated log, table replaced, in-place mutation) it is
        also dropped, and the cold recompute that follows registers a fresh
        one at the current version.
        """
        if self._version_log is None:
            return None
        folder = self._query_cache.folder(canonical)
        if folder is None:
            return None
        result = folder.fold_to(self, self._version_log)
        if result is None:
            self._query_cache.note_fallback()
            # A probe from *behind* the folder (a session pinned at an older
            # version whose entry was evicted) cannot fold backward, but the
            # folder's advanced state is still the one serving live sessions
            # — only drop it when it is off the chain entirely.
            if not folder.connected(self._version, self._version_log):
                self._query_cache.drop_folder(canonical, folder)
            return None
        self._query_cache.note_fold()
        self._query_cache.store(key, result)
        return result

    def _maybe_register_folder(
        self, node: SqlNode, canonical: str, result: QueryResult
    ) -> None:
        """Register a delta folder for a freshly computed maintainable result.

        An existing folder on a live chain to (or from) this version is kept
        — it already carries state that can fold forward; replacing it with a
        colder one would only discard work.
        """
        if self._version_log is None:
            return
        from repro.engine import ivm

        shape = ivm.analyze(node, canonical)
        if shape is None:
            return
        existing = self._query_cache.folder(canonical)
        if existing is not None and existing.connected(self._version, self._version_log):
            return
        try:
            folder = ivm.make_folder(shape, node, self, result)
        except Exception:  # noqa: BLE001 - registration must never break reads
            return
        self._query_cache.store_folder(canonical, folder)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CatalogSnapshot(tables={self.table_names()})"
