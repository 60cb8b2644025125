"""Incremental view maintenance (IVM) for the version-keyed result cache.

Every ``Catalog.append_rows`` bumps the catalog data version, which silently
invalidates the whole result cache — dashboard-style sessions then pay a full
rescan per refresh.  This module folds appends forward instead (the classic
"answering queries under updates" move, PAPERS.md arXiv:1702.08764):

* :class:`VersionLog` — a bounded log of per-table append ranges keyed by the
  data-version fingerprint each append started from.  Walking the log from a
  folder's base version to a probe version yields exactly the rows appended
  in between; any gap (log truncated, table replaced or dropped, in-place
  mutation) breaks the chain and the probe falls back to a full recompute.
* :class:`SpliceFolder` — for ``Project(Filter?(Scan))`` shapes: appended
  rows are filtered with the fused ``eval_predicate``, projected, and spliced
  onto the cached columns.
* :class:`AggregateFolder` — for ``Project(Aggregate(Filter?(Scan)))``
  shapes: appended rows fold into per-group accumulator state via
  ``aggregates.add_many``.  State is primed lazily from the table prefix on
  the first fold (append-only tables guarantee rows ``[0, base_rows)`` are
  the base-version rows), so a never-folded entry costs nothing extra.

Either shape may sit under an ORDER BY whose keys are output columns.  Both
folders keep their state unsorted, in table order, and stably sort every
emitted result (intermediate versions included) with the engine's own
``SortExec`` — the same operator over the same input order a cold recompute
runs.  A sorted splice cannot recover table order from its sorted cold
result, so it primes its rows lazily from the table prefix, like the
aggregate folder.

Maintainability is decided by :func:`repro.engine.optimizer.maintainable_shape`
over the *pre-rewrite* logical plan and memoized here by canonical SQL.
Folders live in the :class:`~repro.engine.query_cache.QueryCache` keyed by
canonical SQL (no data version — outliving version bumps is their purpose)
and hold their own result state, so LRU eviction of a cache *entry* never
destroys the fold state that can rebuild it.

Correctness bar: a folded result must be row-order-identical to an
``ExecOptions(use_cache=False)`` recompute — folds feed rows in table order,
exactly like a cold scan, and sort them with the cold plan's operator.  Any
doubt inside a folder resolves to ``None`` → the caller counts a fallback
and recomputes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from repro.engine.aggregates import make_accumulator
from repro.engine.expressions import Batch, VectorEvaluator
from repro.engine.optimizer import MaintainableShape, maintainable_shape
from repro.engine.plan_nodes import ProjectExec, SortExec, aggregate_call_specs, hashable
from repro.engine.planner import Planner
from repro.engine.table import QueryResult
from repro.sql.ast_nodes import Select, SqlNode, Star
from repro.sql.printer import to_sql

#: Bound on the append-range log.  At the default serving cadence each entry
#: is one writer batch; 256 gives sessions minutes of refresh slack before a
#: cold folder's chain truncates and it falls back to one recompute.
VERSION_LOG_CAPACITY = 256

#: Bound on the canonical-SQL -> shape memo (process-wide; shapes are a pure
#: function of the query text).
SHAPE_MEMO_CAPACITY = 512


@dataclass(frozen=True)
class AppendDelta:
    """One recorded append: table rows ``[start_row, end_row)`` took the
    catalog from fingerprint ``from_version`` to ``to_version``."""

    table: str  # lower-cased catalog key
    start_row: int
    end_row: int
    from_version: tuple
    to_version: tuple


class VersionLog:
    """A bounded, thread-safe log of append deltas keyed by starting version.

    Writers serialize under the catalog write lock, so fingerprints form a
    chain: each append's ``from_version`` is the previous append's
    ``to_version`` (until a schema change clears the log).  ``chain`` walks
    that sequence; any missing link — truncation, a cleared log after
    register/drop/replace, or an unlogged in-place mutation — yields None,
    which callers treat as "fall back to full recompute".
    """

    def __init__(self, capacity: int = VERSION_LOG_CAPACITY) -> None:
        self._capacity = capacity
        self._records: OrderedDict[tuple, AppendDelta] = OrderedDict()
        self._lock = threading.Lock()

    def record(self, delta: AppendDelta) -> None:
        if delta.from_version == delta.to_version:
            return  # empty append: never record a self-loop
        with self._lock:
            self._records[delta.from_version] = delta
            while len(self._records) > self._capacity:
                self._records.popitem(last=False)

    def chain(self, base: tuple, target: tuple) -> list[AppendDelta] | None:
        """The append deltas leading from ``base`` to ``target``, or None."""
        if base == target:
            return []
        with self._lock:
            records: list[AppendDelta] = []
            version = base
            for _ in range(len(self._records)):
                record = self._records.get(version)
                if record is None:
                    return None
                records.append(record)
                version = record.to_version
                if version == target:
                    return records
            return None

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


# --------------------------------------------------------------------------- #
# Shape analysis (memoized by canonical SQL)
# --------------------------------------------------------------------------- #

_shape_memo: OrderedDict[str, MaintainableShape | None] = OrderedDict()
_shape_lock = threading.Lock()


def analyze(node: SqlNode, canonical: str) -> MaintainableShape | None:
    """The maintainable shape of a query, or None — memoized by canonical SQL."""
    with _shape_lock:
        if canonical in _shape_memo:
            _shape_memo.move_to_end(canonical)
            return _shape_memo[canonical]
    shape: MaintainableShape | None = None
    if isinstance(node, Select):
        try:
            shape, _ = maintainable_shape(Planner().plan(node))
        except Exception:  # noqa: BLE001 - unplannable means unmaintainable
            shape = None
    with _shape_lock:
        _shape_memo[canonical] = shape
        _shape_memo.move_to_end(canonical)
        while len(_shape_memo) > SHAPE_MEMO_CAPACITY:
            _shape_memo.popitem(last=False)
    return shape


class _PrebuiltBatch:
    """A leaf physical node yielding an already-materialized batch."""

    __slots__ = ("batch",)

    def __init__(self, batch: Batch) -> None:
        self.batch = batch

    def execute(self, ctx) -> Batch:
        return self.batch


# --------------------------------------------------------------------------- #
# Delta folders
# --------------------------------------------------------------------------- #


class DeltaFolder:
    """Base: per-query fold state advancing from one pinned version forward.

    One lock serializes folds; the folder never touches catalog or cache
    locks (it reads only the immutable snapshot handed in), so it sits at the
    leaf of the locking hierarchy next to the cache's own lock.
    """

    def __init__(
        self,
        shape: MaintainableShape,
        node: SqlNode,
        base_version: tuple,
        base_rows: int,
        column_names: list[str],
    ) -> None:
        self._shape = shape
        self._node = node
        self._table_key = shape.table_name.lower()
        self._version = base_version
        self._rows_seen = base_rows
        self._column_names = column_names
        self._slots = [(shape.binding, name) for name in column_names]
        self._lock = threading.Lock()

    @property
    def base_version(self) -> tuple:
        with self._lock:
            return self._version

    def connected(self, version: tuple, version_log: VersionLog | None) -> bool:
        """True when this folder and ``version`` sit on one live append chain."""
        with self._lock:
            if self._version == version:
                return True
            if version_log is None:
                return False
            return (
                version_log.chain(self._version, version) is not None
                or version_log.chain(version, self._version) is not None
            )

    def fold_to(self, snapshot, version_log: VersionLog | None) -> QueryResult | None:
        """The query's result at the snapshot's version, by folding appends.

        Returns None when the fold cannot be performed (broken/truncated
        chain, schema drift, any evaluation surprise) — the caller recomputes
        cold and should drop this folder.  On success the returned result is
        private to the caller (folder state never aliases it).  A walk over
        several appends emits only at its target: the versions it passes
        through are never materialized.
        """
        target = snapshot.data_version()
        with self._lock:
            try:
                if self._version == target:
                    return self._current_result(snapshot)
                if version_log is None:
                    return None
                records = version_log.chain(self._version, target)
                if records is None:
                    return None
                table = snapshot.table(self._shape.table_name)
                if list(table.column_names) != self._column_names:
                    return None
                if not self._ensure_primed(table):
                    return None
                for record in records:
                    if record.table == self._table_key:
                        if record.start_row != self._rows_seen:
                            return None
                        self._apply(table, record.start_row, record.end_row)
                        self._rows_seen = record.end_row
                    self._version = record.to_version
                if table.row_count != self._rows_seen:
                    return None
                return self._emit(snapshot)
            except Exception:  # noqa: BLE001 - any surprise → full recompute
                return None

    # -- template methods ------------------------------------------------ #

    def _ensure_primed(self, table) -> bool:
        return True

    def _apply(self, table, start: int, end: int) -> None:
        raise NotImplementedError

    def _emit(self, snapshot) -> QueryResult:
        raise NotImplementedError

    def _current_result(self, snapshot) -> QueryResult:
        """The result at the folder's own version, after its entry was evicted."""
        self._ensure_primed(snapshot.table(self._shape.table_name))
        return self._emit(snapshot)

    # -- shared plumbing ------------------------------------------------- #

    def _slice_batch(self, table, start: int, end: int) -> Batch:
        columns = [table.column_data(name)[start:end] for name in self._column_names]
        return Batch(slots=list(self._slots), columns=columns, length=end - start)

    def _filtered(self, batch: Batch) -> Batch:
        predicate = self._shape.predicate
        if predicate is None or batch.length == 0:
            return batch
        keep = VectorEvaluator(None).eval_predicate(predicate, batch)
        count = keep.count(True)
        if count == batch.length:
            return batch
        return batch.filter(keep, count)

    def _project(self, batch: Batch, allow_star: bool) -> Batch:
        return ProjectExec(
            items=list(self._shape.items), input=_PrebuiltBatch(batch), allow_star=allow_star
        ).execute(None)

    def _ordered(
        self, snapshot, names: list[str], columns: list[list[Any]], length: int
    ) -> list[list[Any]]:
        """Fresh copies of the output columns, in ORDER BY order when the query sorts.

        The shape analysis guarantees every key is an output column, so
        ``SortExec`` only reads key vectors off ``columns``; stable sorting
        of table-ordered rows reproduces the cold plan's order exactly.
        """
        if not self._shape.order_by or length == 0:
            return [list(column) for column in columns]
        # Imported lazily: the executor module is heavyweight and ivm is
        # imported by the catalog at startup.
        from repro.engine.executor import ExecutionContext

        batch = Batch(slots=[("", name) for name in names], columns=columns, length=length)
        sort = SortExec(order_by=list(self._shape.order_by), input=_PrebuiltBatch(batch))
        return sort.execute(ExecutionContext(None, snapshot, {}, None, {})).columns

    def _infer_schema(self, snapshot, columns: list[str], column_vectors: list[list[Any]]):
        from repro.engine.executor import infer_result_schema

        return infer_result_schema(snapshot, self._node, columns, column_vectors)


class SpliceFolder(DeltaFolder):
    """Fold for scan/filter/project shapes: append projected delta rows.

    An unsorted cold result is the table-ordered state itself; a sorted one
    is not, so a sorted splice primes its rows from the table prefix on the
    first fold instead.
    """

    def __init__(
        self,
        shape: MaintainableShape,
        node: SqlNode,
        base_version: tuple,
        base_rows: int,
        column_names: list[str],
        result: QueryResult,
    ) -> None:
        super().__init__(shape, node, base_version, base_rows, column_names)
        if len(set(result.columns)) != len(result.columns):
            raise ValueError("duplicate output columns are not splice-maintainable")
        self._result_columns = list(result.columns)
        self._column_data: list[list[Any]] | None = None
        self._row_count = 0
        self._schema = None
        if not shape.order_by:
            self._column_data = [result.column_values(name) for name in result.columns]
            self._row_count = result.row_count
            self._schema = result.schema

    def _ensure_primed(self, table) -> bool:
        if self._column_data is None:
            self._column_data = [[] for _ in self._result_columns]
            self._splice(table, 0, self._rows_seen)
        return True

    def _apply(self, table, start: int, end: int) -> None:
        self._splice(table, start, end)
        self._schema = None  # recompute lazily: new values may widen types

    def _splice(self, table, start: int, end: int) -> None:
        batch = self._filtered(self._slice_batch(table, start, end))
        if batch.length == 0:
            return
        projected = self._project(batch, allow_star=True)
        names = [name for _, name in projected.slots]
        if names != self._result_columns:
            raise ValueError("projected delta columns diverged from the cached result")
        for column_data, delta in zip(self._column_data, projected.columns):
            column_data.extend(delta)
        self._row_count += projected.length

    def _emit(self, snapshot) -> QueryResult:
        columns = self._ordered(
            snapshot, self._result_columns, self._column_data, self._row_count
        )
        if self._schema is None:
            self._schema = self._infer_schema(snapshot, self._result_columns, columns)
        return QueryResult(
            columns=list(self._result_columns),
            schema=self._schema,
            column_data=columns,
            row_count=self._row_count,
        )


class AggregateFolder(DeltaFolder):
    """Fold for group-by aggregate shapes: feed deltas into accumulators.

    Group keys always go through :func:`hashable` so identity stays stable
    across batches (the hash-aggregate operator's raw-key fast path is only
    safe within one batch).  First-seen group order — prefix rows first, then
    deltas in append order — reproduces the cold recompute's output order,
    and per-group rows are fed in table order, so even order-sensitive
    accumulators (Welford variance, non-numeric sums, DISTINCT first-seen)
    match a recompute bit-for-bit.
    """

    def __init__(
        self,
        shape: MaintainableShape,
        node: SqlNode,
        base_version: tuple,
        base_rows: int,
        column_names: list[str],
    ) -> None:
        super().__init__(shape, node, base_version, base_rows, column_names)
        self._calls = list(shape.aggregates)
        self._call_keys = [to_sql(call) for call in self._calls]
        self._star_flags = [
            (bool(call.args) and isinstance(call.args[0], Star)) or not call.args
            for call in self._calls
        ]
        self._primed = False
        self._group_index: dict[Any, int] = {}
        self._rep_columns: list[list[Any]] = [[] for _ in column_names]
        self._rep_row: list[Any] | None = None
        self._fed_rows = 0
        if shape.group_by:
            self._accumulators: list[list[Any]] = [[] for _ in self._calls]
        else:
            # The global group exists even over zero rows.
            self._accumulators = [
                [make_accumulator(call.name, is_star=flag, distinct=call.distinct)]
                for call, flag in zip(self._calls, self._star_flags)
            ]

    def _ensure_primed(self, table) -> bool:
        if self._primed:
            return True
        # Append-only prefix property: rows [0, base_rows) of the *current*
        # table object are exactly the base-version rows (any non-append
        # mutation changed the fingerprint without a log record, so the
        # chain walk already failed before priming).
        if self._rows_seen:
            self._feed(self._filtered(self._slice_batch(table, 0, self._rows_seen)))
        self._primed = True
        return True

    def _apply(self, table, start: int, end: int) -> None:
        self._feed(self._filtered(self._slice_batch(table, start, end)))

    def _feed(self, batch: Batch) -> None:
        if batch.length == 0:
            return
        evaluator = VectorEvaluator(None)
        specs = aggregate_call_specs(self._calls, evaluator, batch)
        length = batch.length

        if not self._shape.group_by:
            if self._rep_row is None:
                self._rep_row = [column[0] for column in batch.columns]
            for accumulators, (_, _, argument) in zip(self._accumulators, specs):
                accumulator = accumulators[0]
                if accumulator.counts_rows:
                    accumulator.add_many(range(length))
                elif argument is not None:
                    accumulator.add_many(argument)
            self._fed_rows += length
            return

        key_columns = [evaluator.eval(expr, batch) for expr in self._shape.group_by]
        if len(key_columns) == 1:
            keys = [hashable(value) for value in key_columns[0]]
        else:
            keys = [
                tuple(hashable(column[index]) for column in key_columns)
                for index in range(length)
            ]
        group_index = self._group_index
        members_by_slot: dict[int, list[int]] = {}
        for index, key in enumerate(keys):
            slot = group_index.get(key)
            if slot is None:
                slot = len(group_index)
                group_index[key] = slot
                for rep_column, column in zip(self._rep_columns, batch.columns):
                    rep_column.append(column[index])
                for accumulators, call, flag in zip(
                    self._accumulators, self._calls, self._star_flags
                ):
                    accumulators.append(
                        make_accumulator(call.name, is_star=flag, distinct=call.distinct)
                    )
            members_by_slot.setdefault(slot, []).append(index)
        for slot, members in members_by_slot.items():
            for accumulators, (_, _, argument) in zip(self._accumulators, specs):
                accumulator = accumulators[slot]
                if accumulator.counts_rows:
                    accumulator.add_many(members)
                elif argument is not None:
                    if len(members) == length:
                        accumulator.add_many(argument)
                    else:
                        accumulator.add_many([argument[index] for index in members])
        self._fed_rows += length

    def _emit(self, snapshot) -> QueryResult:
        aggregate_columns = {
            key: [accumulator.result() for accumulator in accumulators]
            for key, accumulators in zip(self._call_keys, self._accumulators)
        }
        if not self._shape.group_by:
            if self._rep_row is None:
                # Global aggregate over zero (post-filter) rows: one output
                # row with no resolvable scan columns, matching the cold
                # hash-aggregate's empty-input emission.
                batch = Batch(slots=[], columns=[], length=1, aggregates=aggregate_columns)
            else:
                batch = Batch(
                    slots=list(self._slots),
                    columns=[[value] for value in self._rep_row],
                    length=1,
                    aggregates=aggregate_columns,
                )
        else:
            batch = Batch(
                slots=list(self._slots),
                columns=[list(column) for column in self._rep_columns],
                length=len(self._group_index),
                aggregates=aggregate_columns,
            )
        projected = self._project(batch, allow_star=False)
        columns = [name for _, name in projected.slots]
        column_data = self._ordered(snapshot, columns, projected.columns, projected.length)
        return QueryResult(
            columns=columns,
            schema=self._infer_schema(snapshot, columns, column_data),
            column_data=column_data,
            row_count=projected.length,
        )


def make_folder(
    shape: MaintainableShape, node: SqlNode, snapshot, result: QueryResult
) -> DeltaFolder:
    """Build the delta folder for a freshly computed maintainable result.

    ``snapshot`` must be the pin the result was computed against; the folder
    captures its version, the base table's row count and column layout.
    Raises when the shape cannot actually be maintained (unknown table,
    duplicate output columns) — callers treat that as "no folder".
    """
    table = snapshot.table(shape.table_name)
    base_version = snapshot.data_version()
    column_names = list(table.column_names)
    if shape.kind == "splice":
        return SpliceFolder(
            shape, node, base_version, table.row_count, column_names, result
        )
    return AggregateFolder(shape, node, base_version, table.row_count, column_names)
