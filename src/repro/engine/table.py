"""Column-oriented in-memory table and query-result containers.

The engine stores each table column-major: one :class:`~repro.engine.column.Column`
per attribute, each owning its value vector, null mask and incrementally
maintained statistics (dtype tag, comparison-safe value type, min/max range,
distinct set).  Scans hand the raw value vectors to the vectorized executor
zero-copy; ``rows()``/``to_dicts()`` are derived views materialized on demand.
Query results reuse the same representation plus the inferred
:class:`~repro.sql.schema.ResultSchema`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.engine.column import Column
from repro.errors import CatalogError, EngineError
from repro.sql.schema import AttributeRole, ColumnSchema, DataType, ResultSchema, TableSchema


def infer_column_type(values: Iterable[Any]) -> DataType:
    """Infer the least-upper-bound storage type of a column's values."""
    inferred = DataType.NULL
    for value in values:
        inferred = DataType.unify(inferred, DataType.of_value(value))
    return inferred


class Table:
    """An in-memory, column-oriented relational table.

    Storage is column-major: one :class:`Column` per attribute.  Mutations go
    through :meth:`append`/:meth:`extend`, which keep each column's null mask
    and statistics in step and bump the data-version counter consulted by the
    plan/result caches.

    Args:
        name: Table name used in the catalog and in FROM clauses.
        columns: Ordered column names.
        rows: Row tuples/lists; every row must have ``len(columns)`` values.
        schema: Optional explicit schema; inferred from the data otherwise.
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]] = (),
        schema: TableSchema | None = None,
    ) -> None:
        self.name = name
        self.column_names = list(columns)
        if len(set(self.column_names)) != len(self.column_names):
            raise CatalogError(f"Duplicate column names in table {name!r}")
        self._columns: dict[str, Column] = {column: Column() for column in self.column_names}
        self._data_version = 0
        # Sorted distinct lists are not incrementally maintainable (an append
        # can land anywhere), so they stay version-memoized; the underlying
        # distinct *set* lives in the column statistics and is incremental.
        self._distinct_memo: dict[str, tuple[int, list[Any]]] = {}
        self._schema_memo: tuple[int, TableSchema] | None = None
        self._explicit_schema = schema
        self._frozen = False
        self.extend(rows)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_dicts(cls, name: str, records: Sequence[dict[str, Any]]) -> "Table":
        """Build a table from a list of records (dicts sharing the same keys)."""
        if not records:
            raise EngineError("from_dicts requires at least one record to infer columns")
        columns = list(records[0].keys())
        rows = [[record.get(column) for column in columns] for record in records]
        return cls(name=name, columns=columns, rows=rows)

    @classmethod
    def from_columns(
        cls, name: str, columns: dict[str, Sequence[Any]], adopt: bool = False
    ) -> "Table":
        """Build a table directly from named column sequences (column-major).

        With ``adopt=True`` the provided lists become the table's backing
        storage without a copy; callers hand over ownership and must not
        mutate them afterwards.  The engine's ingest paths (CSV, dataset
        generators, CTE materialization) use adoption to make loading a
        pure column hand-off.
        """
        names = list(columns.keys())
        lengths = {len(values) for values in columns.values()}
        if len(lengths) > 1:
            raise EngineError(f"Column lengths differ in table {name!r}: {sorted(lengths)}")
        table = cls(name=name, columns=names)
        table._columns = {
            column: Column(values, adopt=adopt) for column, values in columns.items()
        }
        table._data_version += 1
        return table

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def append(self, row: Sequence[Any]) -> None:
        """Append one row, updating null masks and statistics incrementally."""
        if self._frozen:
            raise EngineError(
                f"Table {self.name!r} is frozen (pinned by a catalog snapshot); "
                f"write through Catalog.append_rows / register(replace=True) instead"
            )
        if len(row) != len(self.column_names):
            raise EngineError(
                f"Row width {len(row)} does not match table {self.name!r} "
                f"width {len(self.column_names)}"
            )
        for column, value in zip(self.column_names, row):
            self._columns[column].append(value)
        self._data_version += 1

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many rows."""
        for row in rows:
            self.append(row)

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped by every mutation (used for cache keys)."""
        return self._data_version

    # ------------------------------------------------------------------ #
    # Snapshot support
    # ------------------------------------------------------------------ #

    @property
    def frozen(self) -> bool:
        """True once the table was pinned by a catalog snapshot."""
        return self._frozen

    def freeze(self) -> None:
        """Make the table immutable (idempotent).

        Pinning a :class:`~repro.engine.catalog.CatalogSnapshot` freezes the
        pinned tables so that an in-place ``append`` *starting after the pin*
        raises instead of corrupting the snapshot.  This is a tripwire for
        misuse, not a synchronization primitive: the flag is read without a
        lock, so an append already past the check when ``freeze`` runs still
        completes — in-place mutation concurrent with readers is unsupported
        full stop.  Concurrent writers must use the catalog's copy-on-write
        path (:meth:`~repro.engine.catalog.Catalog.append_rows`), which
        clones the frozen table, extends the clone and swaps it in
        atomically.
        """
        self._frozen = True

    def clone(self, name: str | None = None) -> "Table":
        """A deep, *unfrozen* copy sharing immutable values but no containers.

        Column clones carry the incremental null masks and statistics forward,
        so a copy-on-write swap does not degrade a hot table to the lazy
        rebuild path.
        """
        clone = Table(name=name or self.name, columns=self.column_names, schema=self._explicit_schema)
        clone._columns = {column: store.clone() for column, store in self._columns.items()}
        clone._data_version = self._data_version
        return clone

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #

    @property
    def row_count(self) -> int:
        if not self.column_names:
            return 0
        return len(self._columns[self.column_names[0]])

    def column(self, name: str) -> list[Any]:
        """Return a copy of the values of one column.

        The copy keeps callers from mutating table storage behind the back of
        the data-version counter (which would leave stale statistics and stale
        query-cache entries).
        """
        return list(self.column_data(name))

    def column_data(self, name: str) -> list[Any]:
        """The live internal value vector of one column — read-only by contract.

        Used by the scan operator for zero-copy batches; callers must never
        mutate the returned list (use :meth:`append`/:meth:`extend`).
        """
        return self.column_store(name).values

    def column_store(self, name: str) -> Column:
        """The full :class:`Column` (values + null mask + statistics)."""
        store = self._columns.get(name)
        if store is None:
            raise CatalogError(f"Table {self.name!r} has no column {name!r}")
        return store

    def null_count(self, name: str) -> int:
        """Number of NULLs in one column (maintained eagerly)."""
        return self.column_store(name).null_count

    def null_mask(self, name: str) -> list[bool]:
        """True-where-NULL mask of one column — read-only by contract."""
        return self.column_store(name).null_mask()

    def has_column(self, name: str) -> bool:
        return name in self._columns

    def warm_stats(self) -> None:
        """Force every column's statistics block and null count into cache.

        One O(data) pass the *first* time; afterwards the incremental
        maintenance (``append`` observes, ``clone`` carries forward) keeps
        the blocks warm, so repeat calls are O(columns).  The snapshot
        shipping path calls this before pickling so worker processes receive
        ready-to-use statistics instead of each recomputing them.

        Secondary index tails are sealed here too, so the pickled bytes ship
        warm immutable index segments (which every downstream clone shares)
        the same way they ship warm statistics.
        """
        for store in self._columns.values():
            store.stats()
            _ = store.null_count
            store.seal_indexes()

    # ------------------------------------------------------------------ #
    # Secondary indexes
    # ------------------------------------------------------------------ #

    def create_index(self, column: str, kind: str) -> None:
        """Build a secondary index (``"hash"`` or ``"ordered"``) on a column.

        Safe on frozen/snapshot-pinned tables: an index is derived state,
        built fully and published atomically, and clones inherit it (sharing
        the sealed segments) through :meth:`Column.clone`.
        """
        self.column_store(column).create_index(kind)

    def column_index(self, column: str, kind: str):
        """The column's index of ``kind``, or None (unknown columns included)."""
        store = self._columns.get(column)
        return store.index(kind) if store is not None else None

    def indexed_columns(self) -> dict[str, tuple[str, ...]]:
        """Map of column name -> index kinds present (diagnostics/tests)."""
        return {
            name: store.index_kinds()
            for name, store in self._columns.items()
            if store.index_kinds()
        }

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate over rows as tuples (a derived view of the column vectors)."""
        columns = [self._columns[name].values for name in self.column_names]
        for values in zip(*columns) if columns else iter(()):
            yield values

    def row(self, index: int) -> tuple[Any, ...]:
        """Return one row by position."""
        if index < 0 or index >= self.row_count:
            raise EngineError(f"Row index {index} out of range for table {self.name!r}")
        return tuple(self._columns[name].values[index] for name in self.column_names)

    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialize rows as dictionaries."""
        return [dict(zip(self.column_names, row)) for row in self.rows()]

    def schema(self) -> TableSchema:
        """Return the (explicit or inferred) table schema (memoized).

        Inference reads each column's maintained dtype tag and distinct count,
        so rebuilding the schema after a mutation is O(columns), not O(data).
        """
        if self._explicit_schema is not None:
            return self._explicit_schema
        if self._schema_memo is not None and self._schema_memo[0] == self._data_version:
            return self._schema_memo[1]
        columns = []
        for name in self.column_names:
            store = self._columns[name]
            data_type = store.dtype()
            role = AttributeRole.from_data_type(data_type, store.distinct_count())
            columns.append(ColumnSchema(name=name, data_type=data_type, role=role))
        schema = TableSchema(name=self.name, columns=tuple(columns))
        self._schema_memo = (self._data_version, schema)
        return schema

    def _distinct_sorted(self, column: str) -> list[Any]:
        memo = self._distinct_memo.get(column)
        if memo is not None and memo[0] == self._data_version:
            return memo[1]
        values = self.column_store(column).distinct_set()
        try:
            ordered = sorted(values)
        except TypeError:
            ordered = sorted(values, key=repr)
        self._distinct_memo[column] = (self._data_version, ordered)
        return ordered

    def distinct_values(self, column: str) -> list[Any]:
        """Distinct non-null values of a column, sorted when orderable."""
        return list(self._distinct_sorted(column))

    def distinct_count(self, column: str) -> int:
        """Number of distinct non-null values of a column (maintained)."""
        return self.column_store(column).distinct_count()

    def value_type(self, column: str) -> DataType | None:
        """The comparison-safe storage type of a column's values, or None.

        Unlike :func:`infer_column_type`, which unifies mixed columns into
        ``TEXT``, this statistic answers the question the logical optimizer
        asks: *can every non-null value of this column be compared against a
        value of the reported type without a runtime type error?*  Columns
        mixing comparison groups (numbers alongside strings) report ``None``
        so the optimizer refuses to move predicates over them.
        """
        return self.column_store(column).value_type()

    def value_range(self, column: str) -> tuple[Any, Any] | None:
        """(min, max) of a column's non-null values, or None when empty."""
        return self.column_store(column).value_range()

    def memory_footprint(self) -> int:
        """Approximate bytes held by the column storage (vectors + containers)."""
        import sys

        total = 0
        for store in self._columns.values():
            total += sys.getsizeof(store.values)
            seen: set[int] = set()
            for value in store.values:
                identity = id(value)
                if identity not in seen:
                    seen.add(identity)
                    total += sys.getsizeof(value)
        return total

    def __len__(self) -> int:
        return self.row_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, columns={self.column_names}, rows={self.row_count})"


class QueryResult:
    """The result of executing a query, stored column-major.

    The executor hands results over as column vectors; the row-tuple view is
    **derived lazily** the first time ``rows`` is read (and memoized), so
    consumers that read columns — chart data binding, domain construction —
    never pay for a row pivot.  Results built from rows (tests, cache copies)
    behave exactly as before.

    Attributes:
        columns: Output column names, in SELECT order.
        rows: Result rows as tuples (lazily derived from the column vectors).
        schema: The inferred result schema (types and visualization roles).
    """

    __slots__ = ("columns", "schema", "_rows", "_column_data", "_row_count")

    def __init__(
        self,
        columns: list[str],
        rows: list[tuple[Any, ...]] | None = None,
        schema: ResultSchema | None = None,
        column_data: list[list[Any]] | None = None,
        row_count: int | None = None,
    ) -> None:
        self.columns = columns
        self.schema = schema
        if rows is not None:
            self._rows: list[tuple[Any, ...]] | None = (
                rows if type(rows) is list else list(rows)
            )
            self._column_data: list[list[Any]] | None = None
            self._row_count = len(self._rows)
        elif column_data is not None:
            self._rows = None
            self._column_data = column_data
            if row_count is not None:
                self._row_count = row_count
            else:
                self._row_count = len(column_data[0]) if column_data else 0
        else:
            raise EngineError("QueryResult requires either rows or column_data")

    @property
    def rows(self) -> list[tuple[Any, ...]]:
        """Row tuples, pivoted from the column vectors on first access."""
        if self._rows is None:
            columns = self._column_data or []
            if columns:
                self._rows = list(zip(*columns))
            else:
                self._rows = [() for _ in range(self._row_count)]
        return self._rows

    @property
    def row_count(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return self._row_count

    def column_values(self, name: str) -> list[Any]:
        """All values of one output column."""
        if name not in self.columns:
            raise EngineError(f"Result has no column {name!r}")
        index = self.columns.index(name)
        if self._rows is None and self._column_data is not None:
            return list(self._column_data[index])
        return [row[index] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_table(self, name: str = "result") -> Table:
        """Convert the result into a Table (used for chart data binding)."""
        if self._rows is None and self._column_data is not None:
            if len(set(self.columns)) == len(self.columns):
                return Table.from_columns(name, dict(zip(self.columns, self._column_data)))
        return Table(name=name, columns=self.columns, rows=self.rows, schema=None)

    def copy(self) -> "QueryResult":
        """An independent copy sharing immutable values but no containers.

        A still-lazy result stays lazy: the column vectors are copied
        shallowly and the row pivot remains deferred, so caching a result
        (the query cache copies on store and on hit) does not force the
        pivot or downgrade the copy to row-backed storage.
        """
        if self._rows is None and self._column_data is not None:
            return QueryResult(
                columns=list(self.columns),
                schema=self.schema,
                column_data=[list(column) for column in self._column_data],
                row_count=self._row_count,
            )
        return QueryResult(columns=list(self.columns), rows=list(self.rows), schema=self.schema)

    def first(self) -> tuple[Any, ...] | None:
        return self.rows[0] if self.rows else None

    def __len__(self) -> int:
        return self.row_count

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryResult(columns={self.columns}, rows={self.row_count})"


def result_from_table(table: Table) -> QueryResult:
    """Wrap a full table scan as a QueryResult (column hand-off, no pivot)."""
    schema = table.schema()
    return QueryResult(
        columns=list(table.column_names),
        schema=ResultSchema(columns=schema.columns),
        column_data=[list(table.column_data(name)) for name in table.column_names],
        row_count=table.row_count,
    )
