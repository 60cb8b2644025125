"""Logical and physical plan nodes.

The planner lowers a SELECT AST to a tree of *logical* nodes mirroring the
standard execution order (FROM → WHERE → GROUP BY/HAVING → SELECT → DISTINCT
→ ORDER BY → LIMIT).  The executor then lowers the logical plan to a tree of
*physical* operators — the second half of this module — which pull columnar
:class:`~repro.engine.expressions.Batch`es from their inputs and evaluate
expressions column-at-a-time.  The physical plan IS the execution path: the
executor's job is reduced to compile-then-run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress
from typing import Any, Iterator

from repro.errors import ExecutionError
from repro.engine.aggregates import make_accumulator
from repro.engine.expressions import Batch, VectorEvaluator
from repro.sql.ast_nodes import (
    ColumnRef,
    FunctionCall,
    Literal,
    OrderItem,
    SelectItem,
    SqlNode,
    Star,
)
from repro.sql.printer import to_sql


@dataclass
class PlanNode:
    """Base class of logical plan operators."""

    def children(self) -> list["PlanNode"]:
        return []

    def description(self) -> str:
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        """Render the plan subtree as an indented text block."""
        lines = ["  " * indent + self.description()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def walk(self) -> Iterator["PlanNode"]:
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class ScanNode(PlanNode):
    """Scan of a base table (or CTE materialization).

    ``columns`` is None for a full-width scan; the optimizer's projection
    pruning rule narrows it to the columns the rest of the plan references.
    """

    table_name: str
    binding_name: str
    columns: list[str] | None = None

    def description(self) -> str:
        alias = f" AS {self.binding_name}" if self.binding_name != self.table_name else ""
        cols = f", cols=[{', '.join(self.columns)}]" if self.columns is not None else ""
        return f"Scan({self.table_name}{alias}{cols})"


@dataclass(frozen=True)
class IndexAccessPath:
    """One index-served conjunct: which index answers which predicate.

    ``op`` is one of ``=``, ``<``, ``<=``, ``>``, ``>=``, ``between``, ``in``;
    ``values`` holds the literal operands (one for comparisons, two for
    BETWEEN, all members for IN).  The operands are plan-time constants —
    parameters never become access paths, so cached plans stay valid across
    parameter sets.
    """

    column: str
    kind: str
    op: str
    values: tuple

    def describe(self) -> str:
        if self.op == "between":
            return f"{self.column} BETWEEN {self.values[0]!r} AND {self.values[1]!r}"
        if self.op == "in":
            return f"{self.column} IN ({', '.join(repr(v) for v in self.values)})"
        return f"{self.column} {self.op} {self.values[0]!r}"


@dataclass
class IndexScanNode(PlanNode):
    """Index-served scan of a base table (chosen by the optimizer).

    Replaces a ``Filter(Scan)`` pair when one conjunct of the filter can be
    answered by a secondary index on the table; remaining conjuncts stay in
    a residual Filter above.  ``estimated_selectivity`` is the optimizer's
    estimate for the served conjunct (used for row estimates and EXPLAIN).
    """

    table_name: str
    binding_name: str
    access: IndexAccessPath = field(default=None)  # type: ignore[assignment]
    columns: list[str] | None = None
    estimated_selectivity: float = 1.0

    def description(self) -> str:
        alias = f" AS {self.binding_name}" if self.binding_name != self.table_name else ""
        cols = f", cols=[{', '.join(self.columns)}]" if self.columns is not None else ""
        return (
            f"IndexScan({self.table_name}{alias}, "
            f"{self.access.kind}[{self.access.describe()}]{cols})"
        )


@dataclass
class DerivedScanNode(PlanNode):
    """Scan of a derived table ``(SELECT ...) AS alias``."""

    alias: str
    input: PlanNode = field(default=None)  # type: ignore[assignment]

    def children(self) -> list[PlanNode]:
        return [self.input] if self.input is not None else []

    def description(self) -> str:
        return f"DerivedScan({self.alias})"


@dataclass
class JoinNode(PlanNode):
    """Join of two plan subtrees."""

    left: PlanNode
    right: PlanNode
    join_type: str = "INNER"
    condition: SqlNode | None = None
    using: list[str] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def description(self) -> str:
        if self.condition is not None:
            return f"Join({self.join_type}, on={to_sql(self.condition)})"
        if self.using:
            return f"Join({self.join_type}, using={self.using})"
        return f"Join({self.join_type})"


@dataclass
class FilterNode(PlanNode):
    """WHERE or HAVING filter."""

    input: PlanNode
    predicate: SqlNode
    phase: str = "where"

    def children(self) -> list[PlanNode]:
        return [self.input]

    def description(self) -> str:
        return f"Filter[{self.phase}]({to_sql(self.predicate)})"


@dataclass
class AggregateNode(PlanNode):
    """GROUP BY aggregation (or a single implicit group)."""

    input: PlanNode
    group_by: list[SqlNode] = field(default_factory=list)
    aggregates: list[SqlNode] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.input]

    def description(self) -> str:
        groups = ", ".join(to_sql(expr) for expr in self.group_by) or "<all rows>"
        aggs = ", ".join(to_sql(expr) for expr in self.aggregates)
        return f"Aggregate(group_by=[{groups}], aggregates=[{aggs}])"


def window_sort_key(spec) -> tuple:
    """Hashable identity of a window spec's partition/order requirements.

    Two specs with the same key can share one partition pass and one sort —
    frames may still differ per call.  Canonical SQL text is the same dedup
    currency the aggregate and cache layers use.
    """
    return (
        tuple(to_sql(expr) for expr in spec.partition_by),
        tuple(
            (to_sql(item.expr), item.descending, item.nulls_last)
            for item in spec.order_by
        ),
    )


@dataclass
class WindowNode(PlanNode):
    """Window computation, sitting between HAVING and the SELECT projection.

    ``windows`` holds the scope's distinct :class:`WindowCall` ASTs; the
    physical operator publishes one result vector per call into the batch's
    aggregate-substitution map keyed by canonical SQL (the same mechanism
    GROUP BY results ride).
    """

    input: PlanNode
    windows: list[SqlNode] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.input]

    def description(self) -> str:
        calls = ", ".join(to_sql(window) for window in self.windows)
        return f"Window({calls})"


@dataclass
class ProjectNode(PlanNode):
    """SELECT-list projection."""

    input: PlanNode
    items: list[SelectItem] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.input]

    def description(self) -> str:
        rendered = ", ".join(
            to_sql(item.expr) + (f" AS {item.alias}" if item.alias else "") for item in self.items
        )
        return f"Project({rendered})"


@dataclass
class DistinctNode(PlanNode):
    """SELECT DISTINCT de-duplication."""

    input: PlanNode

    def children(self) -> list[PlanNode]:
        return [self.input]


@dataclass
class SortNode(PlanNode):
    """ORDER BY."""

    input: PlanNode
    order_by: list[OrderItem] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        return [self.input]

    def description(self) -> str:
        keys = ", ".join(
            to_sql(item.expr) + (" DESC" if item.descending else "") for item in self.order_by
        )
        return f"Sort({keys})"


@dataclass
class LimitNode(PlanNode):
    """LIMIT / OFFSET."""

    input: PlanNode
    limit: int | None = None
    offset: int | None = None

    def children(self) -> list[PlanNode]:
        return [self.input]

    def description(self) -> str:
        return f"Limit(limit={self.limit}, offset={self.offset})"


@dataclass
class SetOpNode(PlanNode):
    """UNION / INTERSECT / EXCEPT."""

    op: str
    left: PlanNode
    right: PlanNode
    all: bool = False

    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    def description(self) -> str:
        return f"SetOp({self.op}{' ALL' if self.all else ''})"


@dataclass
class CteDefinition:
    """One WITH-clause entry: name, declared columns, planned query."""

    name: str
    columns: list[str]
    plan: PlanNode


@dataclass
class CteNode(PlanNode):
    """WITH-clause materialization wrapping the main query plan."""

    definitions: list[CteDefinition]
    input: PlanNode

    def children(self) -> list[PlanNode]:
        return [definition.plan for definition in self.definitions] + [self.input]

    def description(self) -> str:
        names = ", ".join(definition.name for definition in self.definitions)
        return f"With({names})"


# =========================================================================== #
# Physical operators
# =========================================================================== #
#
# Physical operators are executable: ``execute(ctx)`` pulls a columnar
# ``Batch`` from the children and returns one.  ``ctx`` is the executor's
# ``ExecutionContext`` (catalog, CTE tables, outer-row correlation context,
# parameters, and the subquery runner used by the vectorized evaluator).
#
# Operator contracts (see docs/ENGINE.md):
#   * every operator is stateless — all run state lives in the context and in
#     the batches, so compiled plans are reusable across executions;
#   * batches own ``slots`` (binding, column) for scan-level columns, plus
#     ``aliases`` (SELECT output names) and ``aggregates`` (per-group results
#     keyed by the canonical SQL of the aggregate call);
#   * row order is deterministic and matches the row-at-a-time semantics the
#     engine previously implemented (left-major joins, first-appearance group
#     order, stable multi-key sorts).


def hashable(value: Any) -> Any:
    """A hashable stand-in for a value (lists/dicts/sets degrade to repr)."""
    if isinstance(value, (list, dict, set)):
        return repr(value)
    return value


def aggregate_call_specs(
    calls: list, evaluator, batch: "Batch"
) -> list[tuple[str, bool, list[Any] | None]]:
    """Per-call ``(canonical key, star-ness, argument vector)`` triples.

    Shared by the hash-aggregate operator and the incremental-maintenance
    fold path (``engine/ivm.py``) so both feed accumulators from identical
    argument vectors — any divergence here would show up as fold-vs-recompute
    differential failures.
    """
    specs: list[tuple[str, bool, list[Any] | None]] = []
    for call in calls:
        key = to_sql(call)
        is_star = (bool(call.args) and isinstance(call.args[0], Star)) or not call.args
        argument = None if is_star else evaluator.eval(call.args[0], batch)
        specs.append((key, is_star, argument))
    return specs


def dedupe_names(names: list[str]) -> list[str]:
    """Disambiguate duplicate output names (``col``, ``col_1``, ...)."""
    seen: dict[str, int] = {}
    unique: list[str] = []
    for name in names:
        if name in seen:
            seen[name] += 1
            unique.append(f"{name}_{seen[name]}")
        else:
            seen[name] = 0
            unique.append(name)
    return unique


def dedupe_rows(rows: list[tuple[Any, ...]]) -> list[tuple[Any, ...]]:
    """Remove duplicate rows, keeping first occurrences in order."""
    seen: set[tuple[Any, ...]] = set()
    result = []
    for row in rows:
        key = tuple(hashable(value) for value in row)
        if key not in seen:
            seen.add(key)
            result.append(row)
    return result


class Orderable:
    """Total-order wrapper so heterogeneous columns can still be sorted."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __lt__(self, other: "Orderable") -> bool:
        try:
            return self.value < other.value
        except TypeError:
            return str(self.value) < str(other.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Orderable) and self.value == other.value


class PhysicalNode:
    """Base class of executable physical operators."""

    def children(self) -> list["PhysicalNode"]:
        return []

    def description(self) -> str:
        return type(self).__name__

    def pretty(self, indent: int = 0) -> str:
        lines = ["  " * indent + self.description()]
        for child in self.children():
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def walk(self) -> Iterator["PhysicalNode"]:
        yield self
        for child in self.children():
            yield from child.walk()

    def execute(self, ctx) -> Batch:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass
class ScanExec(PhysicalNode):
    """Columnar scan of a base table or CTE (zero-copy over column lists).

    With ``columns`` set (projection pruning), only those columns are exposed
    as batch slots; downstream gathers then never materialize dead columns.
    """

    table_name: str
    binding_name: str
    columns: list[str] | None = None

    def description(self) -> str:
        alias = f" AS {self.binding_name}" if self.binding_name != self.table_name else ""
        cols = f", cols=[{', '.join(self.columns)}]" if self.columns is not None else ""
        return f"SeqScan({self.table_name}{alias}{cols})"

    def execute(self, ctx) -> Batch:
        ctx.checkpoint()
        if self.table_name == "<dual>":
            return Batch(slots=[], columns=[], length=1)
        table = ctx.ctes.get(self.table_name.lower())
        if table is None:
            table = ctx.catalog.table(self.table_name)
        if self.columns is None:
            return Batch.from_table(table, self.binding_name)
        return Batch(
            slots=[(self.binding_name, name) for name in self.columns],
            columns=[table.column_data(name) for name in self.columns],
            length=table.row_count,
        )


@dataclass
class IndexScanExec(PhysicalNode):
    """Index-served scan: probe a secondary index, gather matching rows.

    The index returns matching row positions in ascending order — the same
    selection-vector currency the fused-predicate path produces — so the
    output batch is row-order-identical to ``SeqScan`` + ``Filter`` over the
    served conjunct.  If the index is missing, poisoned, or does not cover
    the whole column (it cannot fall behind under normal operation, but the
    check is cheap), the operator evaluates the conjunct with a direct
    linear pass instead, preserving answers under every degradation.
    """

    table_name: str
    binding_name: str
    access: IndexAccessPath
    columns: list[str] | None = None

    def description(self) -> str:
        alias = f" AS {self.binding_name}" if self.binding_name != self.table_name else ""
        cols = f", cols=[{', '.join(self.columns)}]" if self.columns is not None else ""
        return (
            f"IndexScan({self.table_name}{alias}, "
            f"{self.access.kind}[{self.access.describe()}]{cols})"
        )

    def execute(self, ctx) -> Batch:
        ctx.checkpoint()
        table = ctx.ctes.get(self.table_name.lower())
        if table is None:
            table = ctx.catalog.table(self.table_name)
        positions = self._matching_positions(table)
        names = self.columns if self.columns is not None else list(table.column_names)
        columns = []
        for name in names:
            data = table.column_data(name)
            columns.append([data[position] for position in positions])
        return Batch(
            slots=[(self.binding_name, name) for name in names],
            columns=columns,
            length=len(positions),
        )

    def _matching_positions(self, table) -> list[int]:
        store = table.column_store(self.access.column)
        index = store.index(self.access.kind)
        positions: list[int] | None = None
        if index is not None and index.covered == len(store.values):
            positions = self._probe(index)
        if positions is None:
            positions = self._scan_positions(store.values)
        return positions

    def _probe(self, index) -> list[int] | None:
        from repro.engine.indexes import UNBOUNDED

        op = self.access.op
        values = self.access.values
        if op == "=":
            return index.lookup_eq(values[0])
        if op == "in":
            return index.lookup_in(values)
        if op == "between":
            return index.lookup_range(values[0], values[1], True, True)
        if op == "<":
            return index.lookup_range(UNBOUNDED, values[0], True, False)
        if op == "<=":
            return index.lookup_range(UNBOUNDED, values[0], True, True)
        if op == ">":
            return index.lookup_range(values[0], UNBOUNDED, False, True)
        if op == ">=":
            return index.lookup_range(values[0], UNBOUNDED, True, True)
        return None

    def _scan_positions(self, values: list[Any]) -> list[int]:
        """Linear fallback with the exact semantics of the fused conjunct."""
        op = self.access.op
        operands = self.access.values
        if op == "=":
            target = operands[0]
            return [
                position
                for position, value in enumerate(values)
                if value is not None and value == target
            ]
        if op == "in":
            return [
                position
                for position, value in enumerate(values)
                if value is not None and any(value == member for member in operands)
            ]
        if op == "between":
            low, high = operands
            return [
                position
                for position, value in enumerate(values)
                if value is not None and low <= value <= high
            ]
        target = operands[0]
        if op == "<":
            test = lambda value: value < target  # noqa: E731
        elif op == "<=":
            test = lambda value: value <= target  # noqa: E731
        elif op == ">":
            test = lambda value: value > target  # noqa: E731
        elif op == ">=":
            test = lambda value: value >= target  # noqa: E731
        else:  # pragma: no cover - the optimizer only emits the ops above
            raise ExecutionError(f"Unsupported index access op {op!r}")
        return [
            position
            for position, value in enumerate(values)
            if value is not None and test(value)
        ]


@dataclass
class DerivedScanExec(PhysicalNode):
    """Derived table ``(SELECT ...) AS alias``: run subplan, rebind columns."""

    alias: str
    plan: PhysicalNode

    def children(self) -> list[PhysicalNode]:
        return [self.plan]

    def description(self) -> str:
        return f"DerivedScan({self.alias})"

    def execute(self, ctx) -> Batch:
        sub = self.plan.execute(ctx.fresh())
        return Batch(
            slots=[(self.alias, name) for _, name in sub.slots],
            columns=sub.columns,
            length=sub.length,
        )


@dataclass
class CteExec(PhysicalNode):
    """Materializes WITH-clause tables, then runs the main plan against them."""

    definitions: list[tuple[str, list[str], PhysicalNode]]
    input: PhysicalNode

    def children(self) -> list[PhysicalNode]:
        return [plan for _, _, plan in self.definitions] + [self.input]

    def description(self) -> str:
        names = ", ".join(name for name, _, _ in self.definitions)
        return f"MaterializeCtes({names})"

    def execute(self, ctx) -> Batch:
        from repro.engine.table import Table

        ctes = dict(ctx.ctes)
        scoped = ctx.with_ctes(ctes)
        for name, declared, plan in self.definitions:
            # Each CTE query is its own SELECT scope (fresh subquery memo); it
            # sees the CTEs defined before it through the shared, growing map.
            batch = plan.execute(scoped.fresh())
            produced = [column for _, column in batch.slots]
            columns = declared or produced
            if len(columns) != len(produced):
                raise ExecutionError(
                    f"CTE {name!r} declares {len(columns)} columns but its query "
                    f"produces {len(produced)}"
                )
            if len(set(columns)) == len(columns):
                # Column-major hand-off: the batch's value vectors become the
                # CTE table's storage without a row round-trip.  Vectors that
                # alias base-table storage are safe to share — the CTE table
                # is read-only for the rest of this execution.
                ctes[name.lower()] = Table.from_columns(
                    name, dict(zip(columns, batch.columns)), adopt=True
                )
            else:
                # Duplicate output names: fall through to the row constructor,
                # which reports the same CatalogError it always has.
                ctes[name.lower()] = Table(name=name, columns=columns, rows=batch.rows())
        return self.input.execute(scoped)


@dataclass
class FilterExec(PhysicalNode):
    """Vectorized WHERE / HAVING / join-residual filter."""

    input: PhysicalNode
    predicate: SqlNode
    phase: str = "where"

    def children(self) -> list[PhysicalNode]:
        return [self.input]

    def description(self) -> str:
        return f"Filter[{self.phase}]({to_sql(self.predicate)})"

    def execute(self, ctx) -> Batch:
        batch = self.input.execute(ctx)
        ctx.checkpoint()
        if batch.length == 0:
            return batch
        keep = VectorEvaluator(ctx).eval_predicate(self.predicate, batch)
        # The boolean keep-mask IS the selection vector; applying it is the
        # only materialization a filter performs (one compress pass per
        # column, no row rebuilds).  An all-true mask passes the input batch
        # through untouched.
        count = keep.count(True)
        if count == batch.length:
            return batch
        return batch.filter(keep, count)


@dataclass
class ProjectExec(PhysicalNode):
    """Vectorized SELECT-list projection (with Star expansion)."""

    items: list[SelectItem]
    input: PhysicalNode
    allow_star: bool = True

    def children(self) -> list[PhysicalNode]:
        return [self.input]

    def description(self) -> str:
        rendered = ", ".join(
            to_sql(item.expr) + (f" AS {item.alias}" if item.alias else "")
            for item in self.items
        )
        return f"Project({rendered})"

    def execute(self, ctx) -> Batch:
        batch = self.input.execute(ctx)
        evaluator = VectorEvaluator(ctx)
        # Later SELECT items may reference earlier items' aliases, so evaluate
        # against a working batch whose alias map grows as items are computed.
        working = Batch(
            slots=batch.slots,
            columns=batch.columns,
            length=batch.length,
            aliases=dict(batch.aliases),
            aggregates=batch.aggregates,
        )
        names: list[str] = []
        columns: list[list[Any]] = []
        for item in self.items:
            if isinstance(item.expr, Star):
                if not self.allow_star:
                    raise ExecutionError("SELECT * cannot be combined with GROUP BY")
                star = item.expr
                matched = [
                    index
                    for index, (binding, _column) in enumerate(batch.slots)
                    if not star.table or star.table == binding
                ]
                if matched:
                    for index in matched:
                        names.append(batch.slots[index][1])
                        columns.append(batch.columns[index])
                else:
                    # SELECT * over an empty FROM scope: a degenerate all-NULL
                    # column keeps the slot/column invariant intact.
                    names.append("*")
                    columns.append([None] * batch.length)
                continue
            column = evaluator.eval(item.expr, working)
            names.append(item.output_name())
            columns.append(column)
            if item.alias:
                working.aliases[item.alias] = column
        unique = dedupe_names(names)
        return Batch(
            slots=[("", name) for name in unique],
            columns=columns,
            length=batch.length,
            aliases=dict(zip(unique, columns)),
            aggregates=batch.aggregates,
        )


@dataclass
class HashAggregateExec(PhysicalNode):
    """GROUP BY via hash partitioning with vectorized accumulation.

    The output batch has one row per group: every input slot holds the
    group's representative (first) row value, and ``aggregates`` carries each
    aggregate call's per-group result keyed by its canonical SQL, which is how
    downstream HAVING / projection / ORDER BY operators substitute aggregate
    values during expression evaluation.
    """

    group_by: list[SqlNode]
    aggregates: list[FunctionCall]
    input: PhysicalNode

    def children(self) -> list[PhysicalNode]:
        return [self.input]

    def description(self) -> str:
        groups = ", ".join(to_sql(expr) for expr in self.group_by) or "<all rows>"
        aggs = ", ".join(to_sql(call) for call in self.aggregates)
        return f"HashAggregate(group_by=[{groups}], aggregates=[{aggs}])"

    @staticmethod
    def _partition(key_columns: list[list[Any]], length: int) -> tuple[dict, list]:
        """Group row indices by key, preserving first-appearance order.

        Keys are raw column values (single key) or C-built value tuples
        (multi key); the per-value ``hashable()`` shim only runs on the
        fallback path after an unhashable value is actually seen.
        """
        grouped: defaultdict[Any, list[int]] = defaultdict(list)
        try:
            if len(key_columns) == 1:
                for index, key in enumerate(key_columns[0]):
                    grouped[key].append(index)
            else:
                for index, key in enumerate(zip(*key_columns)):
                    grouped[key].append(index)
        except TypeError:
            grouped.clear()
            for index in range(length):
                key = tuple(hashable(column[index]) for column in key_columns)
                grouped[key].append(index)
        groups = dict(grouped)
        # Dict insertion order IS first-appearance order.
        return groups, list(groups)

    def execute(self, ctx) -> Batch:
        batch = self.input.execute(ctx)
        ctx.checkpoint()
        evaluator = VectorEvaluator(ctx)

        key_columns = [evaluator.eval(expr, batch) for expr in self.group_by]
        if key_columns:
            groups, order = self._partition(key_columns, batch.length)
        elif batch.length:
            # No GROUP BY: every row lands in the single global group (a
            # range stands in for the member list — len() and indexing are
            # all the accumulation path needs).
            groups, order = {(): range(batch.length)}, [()]
        else:
            groups, order = {}, []

        # A query with aggregates but no GROUP BY forms one global group, even
        # over zero input rows.
        if not self.group_by and not groups:
            groups[()] = []
            order.append(())

        # Per-call specs (canonical key, star-ness, argument vector) computed
        # once; the group loop below must stay free of AST rendering.
        specs = aggregate_call_specs(self.aggregates, evaluator, batch)
        aggregate_columns: dict[str, list[Any]] = {key: [] for key, _, _ in specs}

        for group_key in order:
            members = groups[group_key]
            for call, (key, is_star, argument) in zip(self.aggregates, specs):
                accumulator = make_accumulator(
                    call.name, is_star=is_star, distinct=call.distinct
                )
                if accumulator.counts_rows:
                    accumulator.add_many(members)
                elif argument is not None:
                    if len(members) == batch.length:
                        # The group covers the whole batch: feed the argument
                        # vector directly instead of gathering a copy.
                        accumulator.add_many(argument)
                    else:
                        accumulator.add_many([argument[index] for index in members])
                aggregate_columns[key].append(accumulator.result())

        if order and not groups[order[0]]:
            # Global aggregate over an empty input: one output row with no
            # resolvable scan columns (matching row-at-a-time semantics where
            # the representative environment was empty).
            return Batch(
                slots=[], columns=[], length=len(order), aggregates=aggregate_columns
            )
        representatives = [groups[group_key][0] for group_key in order]
        columns = [
            [column[index] for index in representatives] for column in batch.columns
        ]
        return Batch(
            slots=batch.slots,
            columns=columns,
            length=len(order),
            aggregates=aggregate_columns,
        )


@dataclass
class DistinctExec(PhysicalNode):
    """SELECT DISTINCT de-duplication over projected rows."""

    input: PhysicalNode

    def children(self) -> list[PhysicalNode]:
        return [self.input]

    def description(self) -> str:
        return "Distinct"

    def execute(self, ctx) -> Batch:
        batch = self.input.execute(ctx)
        ctx.checkpoint()
        seen: set[tuple] = set()
        indices: list[int] = []
        for index in range(batch.length):
            key = tuple(hashable(column[index]) for column in batch.columns)
            if key not in seen:
                seen.add(key)
                indices.append(index)
        if len(indices) == batch.length:
            return batch
        return batch.take(indices)


def stable_sort_indices(
    indices: list[int],
    keyed_orders: list[tuple[list[Any], bool, bool]],
) -> list[int]:
    """Stable multi-key index sort with the engine's ORDER BY semantics.

    ``keyed_orders`` is ``[(key_vector, descending, nulls_last), ...]`` in
    clause order; keys are applied last-first so earlier keys dominate.
    ``indices`` selects the rows to permute — the key vectors are full-length
    and indexed by row position, so the same vectors serve every partition of
    a window sort.  Null-free keys sort un-wrapped at C speed (a scratch list
    protects against mixed-type TypeError); the fallback provides the total
    order via :class:`Orderable` with explicit NULL placement.
    """
    for keys, descending, nulls_last in reversed(keyed_orders):
        if None not in keys:
            trial = indices[:]
            try:
                trial.sort(key=keys.__getitem__, reverse=descending)
            except TypeError:
                pass
            else:
                indices = trial
                continue

        def sort_key(index: int, keys=keys, nulls_last=nulls_last):
            value = keys[index]
            is_null = value is None
            return (is_null if nulls_last else not is_null, Orderable(value))

        indices.sort(key=sort_key, reverse=descending)
        # Re-sort so NULL placement is unaffected by reverse.
        if descending:
            nulls = [index for index in indices if keys[index] is None]
            non_nulls = [index for index in indices if keys[index] is not None]
            indices = non_nulls + nulls if nulls_last else nulls + non_nulls
    return indices


@dataclass
class SortExec(PhysicalNode):
    """ORDER BY with vectorized key computation and stable index sorting.

    Keys resolve like the row-at-a-time engine did: 1-based positions, output
    column names, expression output names, then expression evaluation against
    the projected columns (outer correlation is not visible to ORDER BY).
    """

    order_by: list[OrderItem]
    input: PhysicalNode

    def children(self) -> list[PhysicalNode]:
        return [self.input]

    def description(self) -> str:
        keys = ", ".join(
            to_sql(item.expr) + (" DESC" if item.descending else "")
            for item in self.order_by
        )
        return f"Sort({keys})"

    def _key_vector(self, ctx, batch: Batch, expr: SqlNode) -> list[Any]:
        columns = [name for _, name in batch.slots]
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if index < 0 or index >= len(columns):
                raise ExecutionError(f"ORDER BY position {expr.value} out of range")
            return batch.columns[index]
        if isinstance(expr, ColumnRef) and expr.name in columns:
            return batch.columns[columns.index(expr.name)]
        name = SelectItem(expr=expr).output_name()
        if name in columns:
            return batch.columns[columns.index(name)]
        # Fall back to evaluating the expression against the output columns
        # (exposed as aliases), without outer correlation.
        eval_batch = Batch(
            slots=[],
            columns=[],
            length=batch.length,
            aliases=dict(zip(columns, batch.columns)),
            aggregates=batch.aggregates,
        )
        return VectorEvaluator(ctx.without_outer()).eval(expr, eval_batch)

    def execute(self, ctx) -> Batch:
        batch = self.input.execute(ctx)
        ctx.checkpoint()
        if batch.length == 0:
            return batch
        keyed = [
            (self._key_vector(ctx, batch, item.expr), item.descending, item.nulls_last)
            for item in self.order_by
        ]
        indices = stable_sort_indices(list(range(batch.length)), keyed)
        return batch.take(indices)


@dataclass
class WindowExec(PhysicalNode):
    """Vectorized window computation over the post-HAVING batch.

    Windows are grouped by :func:`window_sort_key`, so every call sharing a
    partition/order clause rides **one** partition pass and **one** sort; only
    the per-call frame walk differs.  Result vectors land in the batch's
    ``aggregates`` substitution map keyed by the call's canonical SQL — the
    projection, ORDER BY and later operators then resolve window references
    through the exact mechanism GROUP BY results already use, and
    ``Batch.take``/``filter``/``slice`` keep the vectors row-aligned.

    Frame semantics match sqlite3 (the differential oracle):

    * ``ORDER BY`` without an explicit frame: the default RANGE frame — a
      running value extended to *peers* (rows tying on all order keys share
      the value of their last peer);
    * no ``ORDER BY``: the whole partition;
    * explicit ``ROWS`` frames: physical row offsets, with an incremental
      accumulator fast path for frames growing from the partition start.
    """

    windows: list[SqlNode]
    input: PhysicalNode

    def children(self) -> list[PhysicalNode]:
        return [self.input]

    def description(self) -> str:
        calls = ", ".join(to_sql(window) for window in self.windows)
        return f"Window({calls})"

    def execute(self, ctx) -> Batch:
        batch = self.input.execute(ctx)
        ctx.checkpoint()
        evaluator = VectorEvaluator(ctx)

        spec_groups: dict[tuple, list[Any]] = {}
        for window in self.windows:
            spec_groups.setdefault(window_sort_key(window.spec), []).append(window)

        results: dict[str, list[Any]] = {}
        for calls in spec_groups.values():
            ctx.checkpoint()
            if batch.length == 0:
                for window in calls:
                    results[to_sql(window)] = []
                continue
            spec = calls[0].spec
            order_vectors = [evaluator.eval(item.expr, batch) for item in spec.order_by]
            partitions = self._partitions(evaluator, batch, spec)
            ordered = self._order_partitions(spec, partitions, order_vectors)
            for window in calls:
                out: list[Any] = [None] * batch.length
                self._compute(ctx, evaluator, batch, window, ordered, order_vectors, out)
                results[to_sql(window)] = out

        merged = dict(batch.aggregates)
        merged.update(results)
        return Batch(
            slots=batch.slots,
            columns=batch.columns,
            length=batch.length,
            aliases=batch.aliases,
            aggregates=merged,
        )

    # -- partitioning and ordering ---------------------------------------- #

    def _partitions(self, evaluator, batch: Batch, spec) -> list[list[int]]:
        if not spec.partition_by:
            return [list(range(batch.length))]
        key_columns = [evaluator.eval(expr, batch) for expr in spec.partition_by]
        grouped, order = HashAggregateExec._partition(key_columns, batch.length)
        # Members are appended in row order, so each partition list is already
        # ascending — the unsorted (no ORDER BY) case needs no further work.
        return [grouped[key] for key in order]

    def _order_partitions(
        self, spec, partitions: list[list[int]], order_vectors: list[list[Any]]
    ) -> list[list[int]]:
        if not spec.order_by:
            return partitions
        keyed = [
            (vector, item.descending, item.nulls_last)
            for vector, item in zip(order_vectors, spec.order_by)
        ]
        return [
            stable_sort_indices(list(members), keyed) if len(members) > 1 else list(members)
            for members in partitions
        ]

    # -- per-call computation ---------------------------------------------- #

    def _compute(
        self,
        ctx,
        evaluator,
        batch: Batch,
        window,
        partitions: list[list[int]],
        order_vectors: list[list[Any]],
        out: list[Any],
    ) -> None:
        call = window.call
        name = call.lower_name

        if name == "row_number":
            for members in partitions:
                for position, row in enumerate(members):
                    out[row] = position + 1
            return

        if name in ("rank", "dense_rank"):
            dense = name == "dense_rank"
            for members in partitions:
                previous: Any = None
                rank = dense_rank = 0
                for position, row in enumerate(members):
                    key = tuple(vector[row] for vector in order_vectors)
                    if position == 0 or key != previous:
                        rank = position + 1
                        dense_rank += 1
                        previous = key
                    out[row] = dense_rank if dense else rank
            return

        if name in ("lag", "lead"):
            argument = evaluator.eval(call.args[0], batch)
            offset = call.args[1].value if len(call.args) >= 2 else 1
            default = (
                evaluator.eval(call.args[2], batch) if len(call.args) >= 3 else None
            )
            step = -offset if name == "lag" else offset
            for members in partitions:
                count = len(members)
                for position, row in enumerate(members):
                    source = position + step
                    if 0 <= source < count:
                        out[row] = argument[members[source]]
                    elif default is not None:
                        out[row] = default[row]
            return

        # Windowed aggregate: running (peer-extended), whole-partition, or an
        # explicit ROWS frame.
        is_star = (bool(call.args) and isinstance(call.args[0], Star)) or not call.args
        argument = None if is_star else evaluator.eval(call.args[0], batch)
        spec = window.spec
        frame = spec.frame

        def fresh():
            return make_accumulator(call.name, is_star=is_star, distinct=False)

        def feed(accumulator, rows) -> None:
            if accumulator.counts_rows:
                accumulator.add_many(rows)
            else:
                accumulator.add_many([argument[row] for row in rows])

        if frame is None and not spec.order_by:
            for members in partitions:
                ctx.checkpoint()
                accumulator = fresh()
                feed(accumulator, members)
                value = accumulator.result()
                for row in members:
                    out[row] = value
            return

        if frame is None:
            # Default frame with ORDER BY: RANGE BETWEEN UNBOUNDED PRECEDING
            # AND CURRENT ROW — peers (order-key ties) share the running value
            # of their last member, matching sqlite.
            for members in partitions:
                ctx.checkpoint()
                accumulator = fresh()
                count = len(members)
                position = 0
                while position < count:
                    end = position + 1
                    key = tuple(vector[members[position]] for vector in order_vectors)
                    while end < count and (
                        tuple(vector[members[end]] for vector in order_vectors) == key
                    ):
                        end += 1
                    peers = members[position:end]
                    feed(accumulator, peers)
                    value = accumulator.result()
                    for row in peers:
                        out[row] = value
                    position = end
            return

        grows_from_start = frame.start_kind == "UNBOUNDED_PRECEDING" and frame.end_kind in (
            "CURRENT_ROW",
            "FOLLOWING",
        )
        for members in partitions:
            ctx.checkpoint()
            count = len(members)
            if grows_from_start:
                # The frame end only moves forward: one accumulator per
                # partition, fed incrementally (result() is non-destructive
                # for every engine accumulator).
                accumulator = fresh()
                fed = 0
                extra = frame.end_offset or 0 if frame.end_kind == "FOLLOWING" else 0
                for position in range(count):
                    high = min(position + extra, count - 1)
                    while fed <= high:
                        feed(accumulator, members[fed : fed + 1])
                        fed += 1
                    out[members[position]] = accumulator.result()
                continue
            for position in range(count):
                low, high = _frame_bounds(frame, position, count)
                accumulator = fresh()
                if low <= high:
                    feed(accumulator, members[low : high + 1])
                out[members[position]] = accumulator.result()


def _frame_bounds(frame, position: int, count: int) -> tuple[int, int]:
    """Clamped [low, high] member offsets of one ROWS frame at ``position``."""
    if frame.start_kind == "UNBOUNDED_PRECEDING":
        low = 0
    elif frame.start_kind == "PRECEDING":
        low = position - (frame.start_offset or 0)
    elif frame.start_kind == "CURRENT_ROW":
        low = position
    elif frame.start_kind == "FOLLOWING":
        low = position + (frame.start_offset or 0)
    else:  # UNBOUNDED_FOLLOWING start: degenerate single-row-at-end frame
        low = count - 1
    if frame.end_kind == "UNBOUNDED_FOLLOWING":
        high = count - 1
    elif frame.end_kind == "FOLLOWING":
        high = position + (frame.end_offset or 0)
    elif frame.end_kind == "CURRENT_ROW":
        high = position
    elif frame.end_kind == "PRECEDING":
        high = position - (frame.end_offset or 0)
    else:  # UNBOUNDED_PRECEDING end: degenerate single-row-at-start frame
        high = 0
    return max(low, 0), min(high, count - 1)


@dataclass
class LimitExec(PhysicalNode):
    """LIMIT / OFFSET."""

    input: PhysicalNode
    limit: int | None = None
    offset: int | None = None

    def children(self) -> list[PhysicalNode]:
        return [self.input]

    def description(self) -> str:
        return f"Limit(limit={self.limit}, offset={self.offset})"

    def execute(self, ctx) -> Batch:
        batch = self.input.execute(ctx)
        start = self.offset or 0
        stop = None if self.limit is None else start + self.limit
        if start == 0 and stop is None:
            return batch
        return batch.slice(start, stop)


@dataclass
class JoinExec(PhysicalNode):
    """Join of two physical subtrees.

    The lowering step extracts equi-key expression pairs from the ON
    condition when each side of an equality resolves entirely to one input
    (``left_keys[i] = right_keys[i]``); the remaining conjuncts stay in
    ``residual``.  With keys present the join buckets the inner side and
    probes it with the outer one (``_hash_matches``); otherwise, or when a
    key value is unhashable, it falls back to a vectorized nested loop
    (cross gather + one evaluation of the full condition).  Row order matches
    the interpreted engine: left-major for INNER/LEFT/FULL, right-major for
    RIGHT, with outer padding interleaved at the unmatched row's position.
    """

    left: PhysicalNode
    right: PhysicalNode
    join_type: str = "INNER"
    condition: SqlNode | None = None
    using: list[str] = field(default_factory=list)
    left_keys: list[SqlNode] = field(default_factory=list)
    right_keys: list[SqlNode] = field(default_factory=list)
    residual: SqlNode | None = None

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def description(self) -> str:
        if self.left_keys:
            keys = ", ".join(
                f"{to_sql(left)} = {to_sql(right)}"
                for left, right in zip(self.left_keys, self.right_keys)
            )
            extra = f", residual={to_sql(self.residual)}" if self.residual is not None else ""
            return f"HashJoin({self.join_type}, keys=[{keys}]{extra})"
        if self.using:
            return f"HashJoin({self.join_type}, using={self.using})"
        if self.condition is not None:
            return f"NestedLoopJoin({self.join_type}, on={to_sql(self.condition)})"
        return f"NestedLoopJoin({self.join_type})"

    # -- matching -------------------------------------------------------- #

    @staticmethod
    def _gather(left: Batch, right: Batch, left_idx, right_idx) -> Batch:
        columns: list[list[Any]] = []
        # Outer joins pad unmatched rows with None indices; inner/cross index
        # vectors are padding-free and gather without the per-element test.
        left_padded = None in left_idx
        right_padded = None in right_idx
        for column in left.columns:
            if left_padded:
                columns.append([column[i] if i is not None else None for i in left_idx])
            else:
                columns.append([column[i] for i in left_idx])
        for column in right.columns:
            if right_padded:
                columns.append([column[i] if i is not None else None for i in right_idx])
            else:
                columns.append([column[i] for i in right_idx])
        return Batch(
            slots=left.slots + right.slots, columns=columns, length=len(left_idx)
        )

    def _runtime_keys(
        self, left: Batch, right: Batch
    ) -> tuple[SqlNode | None, list[SqlNode], list[SqlNode], SqlNode | None]:
        """The (condition, left keys, right keys, residual) for this execution.

        USING (a, b) resolves against the actual first bindings of each input
        at run time; ON conditions use what the lowering step extracted.
        """
        if self.using:
            if not left.slots or not right.slots:
                return None, [], [], None
            left_binding = left.slots[0][0]
            right_binding = right.slots[0][0]
            left_keys = [ColumnRef(name=column, table=left_binding) for column in self.using]
            right_keys = [ColumnRef(name=column, table=right_binding) for column in self.using]
            from repro.sql.ast_nodes import BinaryOp

            condition: SqlNode | None = None
            for left_key, right_key in zip(left_keys, right_keys):
                equality = BinaryOp(op="=", left=left_key, right=right_key)
                condition = (
                    equality
                    if condition is None
                    else BinaryOp(op="AND", left=condition, right=equality)
                )
            return condition, left_keys, right_keys, None
        return self.condition, self.left_keys, self.right_keys, self.residual

    @staticmethod
    def _hash_matches(
        evaluator: VectorEvaluator,
        left: Batch,
        right: Batch,
        left_keys: list[SqlNode],
        right_keys: list[SqlNode],
        right_major: bool,
    ) -> tuple[list[int], list[int]] | None:
        """Left and right index vectors of the row pairs with equal keys.

        Keys are built the way ``HashAggregateExec._partition`` groups rows:
        the raw value for one equi-key, ``zip`` tuples for several.  The inner
        side is bucketed in row order, then the outer (major) side probes it
        in row order through a bound ``dict.get``, so the pairs come out
        major-ordered with the inner matches in their own row order.  A NULL
        key, or a composite key with a NULL component, never matches.
        Returns None when a key value is unhashable.
        """
        try:
            left_vectors = [evaluator.eval(key, left) for key in left_keys]
            right_vectors = [evaluator.eval(key, right) for key in right_keys]
            if right_major:
                outer_vectors, inner_vectors = right_vectors, left_vectors
            else:
                outer_vectors, inner_vectors = left_vectors, right_vectors
            buckets: defaultdict[Any, list[int]] = defaultdict(list)
            if len(inner_vectors) == 1:
                for index, key in enumerate(inner_vectors[0]):
                    buckets[key].append(index)
                buckets.pop(None, None)
                found = list(map(buckets.get, outer_vectors[0]))
            else:
                for index, key in enumerate(zip(*inner_vectors)):
                    buckets[key].append(index)
                for key in [key for key in buckets if any(v is None for v in key)]:
                    del buckets[key]
                found = list(map(buckets.get, zip(*outer_vectors)))
        except TypeError:
            return None
        outer_idx: list[int] = []
        inner_idx: list[int] = []
        add_outer = outer_idx.append
        add_inner = inner_idx.append
        for index, matches in enumerate(found):
            if matches is not None:
                for match in matches:
                    add_outer(index)
                    add_inner(match)
        return (inner_idx, outer_idx) if right_major else (outer_idx, inner_idx)

    def _matches(
        self,
        ctx,
        left: Batch,
        right: Batch,
        condition: SqlNode | None,
        left_keys: list[SqlNode],
        right_keys: list[SqlNode],
        residual: SqlNode | None,
        right_major: bool,
    ) -> tuple[list[int], list[int]]:
        """Left and right index vectors of the pairs that pass the join condition.

        Equi-keys take the hash path and leave only ``residual`` to evaluate;
        without keys, or on an unhashable key value, the nested loop
        evaluates the full ``condition`` over the cross product.
        """
        evaluator = VectorEvaluator(ctx)
        matched = None
        if left_keys:
            matched = self._hash_matches(
                evaluator, left, right, left_keys, right_keys, right_major
            )
        if matched is None:
            predicate = condition
            if right_major:
                left_idx = list(range(left.length)) * right.length
                right_idx = [ri for ri in range(right.length) for _ in range(left.length)]
            else:
                left_idx = [li for li in range(left.length) for _ in range(right.length)]
                right_idx = list(range(right.length)) * left.length
        else:
            predicate = residual
            left_idx, right_idx = matched
        if predicate is not None and left_idx:
            candidate = self._gather(left, right, left_idx, right_idx)
            keep = evaluator.eval_predicate(predicate, candidate)
            left_idx = list(compress(left_idx, keep))
            right_idx = list(compress(right_idx, keep))
        return left_idx, right_idx

    # -- execution ------------------------------------------------------- #

    def execute(self, ctx) -> Batch:
        left = self.left.execute(ctx)
        right = self.right.execute(ctx)
        ctx.checkpoint()
        join_type = self.join_type

        if join_type == "CROSS":
            left_idx = [li for li in range(left.length) for _ in range(right.length)]
            right_idx = list(range(right.length)) * left.length
            return self._gather(left, right, left_idx, right_idx)

        condition, left_keys, right_keys, residual = self._runtime_keys(left, right)
        left_idx, right_idx = self._matches(
            ctx, left, right, condition, left_keys, right_keys, residual, join_type == "RIGHT"
        )
        if join_type == "INNER":
            return self._gather(left, right, left_idx, right_idx)
        if join_type == "RIGHT":
            right_idx, left_idx = self._pad_outer(right_idx, left_idx, right.length)
            return self._gather(left, right, left_idx, right_idx)
        if join_type in ("LEFT", "FULL"):
            left_idx, right_idx = self._pad_outer(left_idx, right_idx, left.length)
            if join_type == "FULL":
                matched_right = set(right_idx)
                unmatched = [ri for ri in range(right.length) if ri not in matched_right]
                left_idx += [None] * len(unmatched)
                right_idx += unmatched
            return self._gather(left, right, left_idx, right_idx)

        raise ExecutionError(f"Unsupported join type {join_type!r}")

    @staticmethod
    def _pad_outer(
        outer_idx: list[int], inner_idx: list[int], outer_length: int
    ) -> tuple[list[int | None], list[int | None]]:
        """Expand outer-major matches, inserting a NULL-padded row for every
        unmatched outer row at its position."""
        padded_outer: list[int | None] = []
        padded_inner: list[int | None] = []
        pointer = 0
        total = len(outer_idx)
        for outer in range(outer_length):
            start = pointer
            while pointer < total and outer_idx[pointer] == outer:
                pointer += 1
            if pointer == start:
                padded_outer.append(outer)
                padded_inner.append(None)
            else:
                padded_outer += outer_idx[start:pointer]
                padded_inner += inner_idx[start:pointer]
        return padded_outer, padded_inner


@dataclass
class SetOpExec(PhysicalNode):
    """UNION / INTERSECT / EXCEPT over two query subplans."""

    op: str
    left: PhysicalNode
    right: PhysicalNode
    all: bool = False

    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def description(self) -> str:
        return f"SetOp({self.op}{' ALL' if self.all else ''})"

    def execute(self, ctx) -> Batch:
        left = self.left.execute(ctx.fresh())
        right = self.right.execute(ctx.fresh())
        ctx.checkpoint()
        if len(left.slots) != len(right.slots):
            raise ExecutionError(
                f"Set operation requires matching column counts "
                f"({len(left.slots)} vs {len(right.slots)})"
            )
        left_rows = left.rows()
        right_rows = right.rows()
        if self.op == "UNION":
            rows = left_rows + right_rows
            if not self.all:
                rows = dedupe_rows(rows)
        elif self.op == "INTERSECT":
            right_set = set(right_rows)
            rows = [row for row in left_rows if row in right_set]
            if not self.all:
                rows = dedupe_rows(rows)
        elif self.op == "EXCEPT":
            right_set = set(right_rows)
            rows = [row for row in left_rows if row not in right_set]
            if not self.all:
                rows = dedupe_rows(rows)
        else:
            raise ExecutionError(f"Unknown set operation {self.op!r}")
        if left.slots:
            columns = [list(column) for column in zip(*rows)] if rows else [
                [] for _ in left.slots
            ]
        else:
            columns = []
        return Batch(slots=left.slots, columns=columns, length=len(rows))
