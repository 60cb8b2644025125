"""Query executor: compiles SELECT ASTs to physical plans and runs them.

Execution is compile-then-run:

1. the :class:`~repro.engine.planner.Planner` lowers the AST to a logical
   plan (FROM → WHERE → GROUP BY/HAVING → SELECT → DISTINCT → ORDER BY →
   LIMIT, plus CTE materialization and set operations);
2. :func:`lower_plan` lowers the logical plan to executable physical
   operators (``plan_nodes``), choosing hash joins when equi-join keys can be
   extracted from the ON condition and vectorized nested loops otherwise;
3. the physical plan pulls columnar batches from the tables and evaluates
   expressions column-at-a-time via the vectorized evaluator.

Correlated subqueries in WHERE/HAVING/SELECT run per outer row with the outer
row's batch view as their correlation context; uncorrelated subqueries are
executed once per enclosing SELECT execution and memoized.  Compiled plans
are stateless and reusable — the catalog keeps a plan cache keyed by SQL
text so repeated query shapes skip planning entirely.
"""

from __future__ import annotations

import time
from typing import Any

from repro.errors import ExecutionError, QueryTimeoutError
from repro.engine.expressions import CorrelationProbe, Environment
from repro.engine.plan_nodes import (
    AggregateNode,
    CteExec,
    CteNode,
    DerivedScanExec,
    DerivedScanNode,
    DistinctExec,
    DistinctNode,
    FilterExec,
    FilterNode,
    HashAggregateExec,
    IndexScanExec,
    IndexScanNode,
    JoinExec,
    JoinNode,
    LimitExec,
    LimitNode,
    PhysicalNode,
    PlanNode,
    ProjectExec,
    ProjectNode,
    ScanExec,
    ScanNode,
    SetOpExec,
    SetOpNode,
    SortExec,
    SortNode,
    WindowExec,
    WindowNode,
    hashable,
)
from repro.engine.optimizer import optimize_plan, plan_binding_infos, plan_output_names
from repro.engine.planner import Planner
from repro.engine.table import QueryResult, Table
from repro.sql.analyzer import Analyzer, references_outer_names
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Select,
    SetOperation,
    SqlNode,
)
from repro.sql.printer import to_sql
from repro.sql.schema import AttributeRole, ColumnSchema, DataType, ResultSchema


class PlanResult:
    """Lightweight internal result of running a nested plan (no schema)."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: list[str], rows: list[tuple[Any, ...]]) -> None:
        self.columns = columns
        self.rows = rows

    @property
    def row_count(self) -> int:
        return len(self.rows)


class ExecutionContext:
    """Runtime state threaded through physical operator execution.

    One context exists per executing SELECT: it carries the catalog, the CTE
    tables visible in scope, the enclosing query's row environment (for
    correlated references), query parameters and the per-SELECT memo of
    uncorrelated subquery results.  Nested SELECTs (CTE definitions, derived
    tables, set-operation legs, subqueries) run under child contexts with
    fresh memos, mirroring lexical scoping.
    """

    __slots__ = (
        "executor",
        "catalog",
        "ctes",
        "outer",
        "parameters",
        "subquery_cache",
        "deadline",
    )

    def __init__(
        self,
        executor: "Executor",
        catalog,
        ctes: dict[str, Table],
        outer: Environment | None,
        parameters: dict[str, Any],
        subquery_cache: dict[str, PlanResult] | None = None,
        deadline: float | None = None,
    ) -> None:
        self.executor = executor
        self.catalog = catalog
        self.ctes = ctes
        self.outer = outer
        self.parameters = parameters
        self.subquery_cache = {} if subquery_cache is None else subquery_cache
        self.deadline = deadline

    def with_ctes(self, ctes: dict[str, Table]) -> "ExecutionContext":
        """Same scope with an extended CTE map (WITH materialization)."""
        return ExecutionContext(
            self.executor,
            self.catalog,
            ctes,
            self.outer,
            self.parameters,
            self.subquery_cache,
            self.deadline,
        )

    def without_outer(self) -> "ExecutionContext":
        """Same scope with outer correlation hidden (ORDER BY evaluation)."""
        return ExecutionContext(
            self.executor,
            self.catalog,
            self.ctes,
            None,
            self.parameters,
            self.subquery_cache,
            self.deadline,
        )

    def fresh(self) -> "ExecutionContext":
        """A child SELECT scope: same ctes/outer, fresh subquery memo."""
        return ExecutionContext(
            self.executor,
            self.catalog,
            self.ctes,
            self.outer,
            self.parameters,
            None,
            self.deadline,
        )

    def checkpoint(self) -> None:
        """Cooperative cancellation point (called between operators/batches).

        Free when no deadline is set (one attribute test); past the deadline
        it raises :class:`~repro.errors.QueryTimeoutError`, unwinding the
        whole execution so a runaway query releases its worker instead of
        holding it hostage.
        """
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise QueryTimeoutError(
                "Query exceeded its deadline and was cancelled at an executor checkpoint"
            )

    def run_subquery(self, query: Select, row_env: Environment) -> PlanResult:
        """Execute a nested subquery with ``row_env`` as correlation context."""
        return self.executor.run_subquery(self, query, row_env)

    def is_cached(self, result: PlanResult) -> bool:
        """True when ``result`` is an uncorrelated subquery's, cached in this scope."""
        return any(cached is result for cached in self.subquery_cache.values())


# --------------------------------------------------------------------------- #
# Logical → physical lowering
# --------------------------------------------------------------------------- #


def lower_plan(
    plan: PlanNode, catalog, cte_columns: dict[str, list[str] | None] | None = None
) -> PhysicalNode:
    """Lower a logical plan to a tree of executable physical operators.

    ``cte_columns`` maps lexically visible CTE names (lowercase) to their
    output column names (or None when unknown); it drives join-key side
    analysis, which must mirror what name resolution will do at run time.
    """
    return _Lowerer(catalog, dict(cte_columns or {})).lower(plan)


class _Lowerer:
    def __init__(self, catalog, cte_columns: dict[str, list[str] | None]) -> None:
        self._catalog = catalog
        self._cte_columns = cte_columns

    def lower(self, plan: PlanNode) -> PhysicalNode:
        if isinstance(plan, CteNode):
            return self._lower_ctes(plan)
        if isinstance(plan, ScanNode):
            return ScanExec(
                table_name=plan.table_name,
                binding_name=plan.binding_name,
                columns=list(plan.columns) if plan.columns is not None else None,
            )
        if isinstance(plan, IndexScanNode):
            return IndexScanExec(
                table_name=plan.table_name,
                binding_name=plan.binding_name,
                access=plan.access,
                columns=list(plan.columns) if plan.columns is not None else None,
            )
        if isinstance(plan, DerivedScanNode):
            return DerivedScanExec(alias=plan.alias, plan=self.lower(plan.input))
        if isinstance(plan, JoinNode):
            return self._lower_join(plan)
        if isinstance(plan, FilterNode):
            return FilterExec(
                input=self.lower(plan.input), predicate=plan.predicate, phase=plan.phase
            )
        if isinstance(plan, AggregateNode):
            return HashAggregateExec(
                group_by=list(plan.group_by),
                aggregates=list(plan.aggregates),  # type: ignore[arg-type]
                input=self.lower(plan.input),
            )
        if isinstance(plan, WindowNode):
            return WindowExec(windows=list(plan.windows), input=self.lower(plan.input))
        if isinstance(plan, ProjectNode):
            below = plan.input
            while isinstance(below, (FilterNode, WindowNode)):
                below = below.input
            return ProjectExec(
                items=list(plan.items),
                input=self.lower(plan.input),
                allow_star=not isinstance(below, AggregateNode),
            )
        if isinstance(plan, DistinctNode):
            return DistinctExec(input=self.lower(plan.input))
        if isinstance(plan, SortNode):
            return SortExec(order_by=list(plan.order_by), input=self.lower(plan.input))
        if isinstance(plan, LimitNode):
            return LimitExec(
                input=self.lower(plan.input), limit=plan.limit, offset=plan.offset
            )
        if isinstance(plan, SetOpNode):
            return SetOpExec(
                op=plan.op, left=self.lower(plan.left), right=self.lower(plan.right), all=plan.all
            )
        raise ExecutionError(f"Cannot lower plan node {type(plan).__name__}")

    def _lower_ctes(self, plan: CteNode) -> CteExec:
        saved = dict(self._cte_columns)
        try:
            definitions: list[tuple[str, list[str], PhysicalNode]] = []
            for definition in plan.definitions:
                lowered = self.lower(definition.plan)
                names = definition.columns or self._output_names(definition.plan)
                self._cte_columns[definition.name.lower()] = names
                definitions.append((definition.name, list(definition.columns), lowered))
            return CteExec(definitions=definitions, input=self.lower(plan.input))
        finally:
            self._cte_columns = saved

    # -- join-key side analysis ---------------------------------------- #

    def _lower_join(self, plan: JoinNode) -> JoinExec:
        left = self.lower(plan.left)
        right = self.lower(plan.right)
        left_keys: list[SqlNode] = []
        right_keys: list[SqlNode] = []
        residual: SqlNode | None = None
        if plan.condition is not None and plan.join_type in ("INNER", "LEFT", "RIGHT", "FULL"):
            left_map = self._side_columns(plan.left)
            right_map = self._side_columns(plan.right)
            if left_map is not None and right_map is not None:
                left_keys, right_keys, residual = self._classify_condition(
                    plan.condition, left_map, right_map
                )
        return JoinExec(
            left=left,
            right=right,
            join_type=plan.join_type,
            condition=plan.condition,
            using=list(plan.using),
            left_keys=left_keys,
            right_keys=right_keys,
            residual=residual,
        )

    def _side_columns(self, plan: PlanNode) -> dict[str, list[str]] | None:
        """binding -> column names for one join input, or None when unknown.

        Delegates to the optimizer's shared scope analysis so the lowerer and
        the rewrite rules can never disagree about name resolution.
        """
        cte_types = {
            name: ({column: None for column in columns} if columns is not None else None)
            for name, columns in self._cte_columns.items()
        }
        scope = plan_binding_infos(plan, self._catalog, cte_types)
        if scope is None:
            return None
        return {binding: list(info.columns) for binding, info in scope.items()}

    def _output_names(self, plan: PlanNode) -> list[str] | None:
        """Best-effort output column names of a planned query subtree."""
        return plan_output_names(plan)

    def _classify_condition(
        self,
        condition: SqlNode,
        left_map: dict[str, list[str]],
        right_map: dict[str, list[str]],
    ) -> tuple[list[SqlNode], list[SqlNode], SqlNode | None]:
        """Split an ON condition into hash-join key pairs plus a residual."""
        left_keys: list[SqlNode] = []
        right_keys: list[SqlNode] = []
        residual: list[SqlNode] = []
        from repro.difftree.canonical import split_conjuncts

        for conjunct in split_conjuncts(condition):
            classified = False
            if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
                side_a = self._side_of(conjunct.left, left_map, right_map)
                side_b = self._side_of(conjunct.right, left_map, right_map)
                if side_a == "L" and side_b == "R":
                    left_keys.append(conjunct.left)
                    right_keys.append(conjunct.right)
                    classified = True
                elif side_a == "R" and side_b == "L":
                    left_keys.append(conjunct.right)
                    right_keys.append(conjunct.left)
                    classified = True
            if not classified:
                residual.append(conjunct)
        from repro.difftree.canonical import join_conjuncts

        return left_keys, right_keys, join_conjuncts(residual)

    def _side_of(
        self,
        expr: SqlNode,
        left_map: dict[str, list[str]],
        right_map: dict[str, list[str]],
    ) -> str | None:
        refs: list[ColumnRef] = []
        for node in expr.walk():
            if isinstance(node, Select):
                return None
            if isinstance(node, ColumnRef):
                refs.append(node)
        if not refs:
            return None
        side: str | None = None
        for ref in refs:
            in_left = _ref_in_map(ref, left_map)
            in_right = _ref_in_map(ref, right_map)
            if in_left == in_right:  # both (ambiguous) or neither (outer/unknown)
                return None
            ref_side = "L" if in_left else "R"
            if side is None:
                side = ref_side
            elif side != ref_side:
                return None
        return side


def _ref_in_map(ref: ColumnRef, columns: dict[str, list[str]]) -> bool:
    if ref.table:
        return ref.table in columns and ref.name in columns[ref.table]
    return any(ref.name in names for names in columns.values())


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #


#: FIFO capacity of the catalog's shared compiled-plan cache.  Interface
#: sessions bake literal values into instantiated SQL, so distinct query
#: texts grow without bound over a long session; plans are cheap to
#: recompile, so a simple bounded cache suffices.
PLAN_CACHE_CAPACITY = 512


class Executor:
    """Compiles SELECT statements to physical plans and runs them.

    Args:
        catalog: the catalog queries run against.
        parameters: values for named query parameters.
        plan_cache: optional shared compiled-plan cache (owned by the
            catalog), keyed by (SQL text, visible CTE signature, optimize).
        optimize: run the logical optimizer between planning and lowering.
            ``False`` is the debugging/differential-testing escape hatch: the
            logical plan is lowered verbatim.
        deadline: absolute ``time.monotonic()`` instant past which execution
            is cooperatively cancelled with :class:`QueryTimeoutError`
            (``None`` — the default — disables all deadline checks).
    """

    def __init__(
        self,
        catalog,
        parameters: dict[str, Any] | None = None,
        plan_cache: dict | None = None,
        optimize: bool = True,
        deadline: float | None = None,
    ) -> None:
        self._catalog = catalog
        self._parameters = parameters or {}
        self._shared_plan_cache = plan_cache
        self._optimize = optimize
        self._deadline = deadline
        # Per-execution memos keyed by AST node identity; the node reference
        # is retained so id() reuse cannot alias entries.
        self._plan_memo: dict[int, tuple[SqlNode, PhysicalNode]] = {}
        self._sql_memo: dict[int, tuple[SqlNode, str]] = {}
        self._correlated_memo: dict[int, tuple[SqlNode, bool]] = {}

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def execute(self, node: SqlNode) -> QueryResult:
        """Execute a SELECT or set operation and return its materialized result."""
        if not isinstance(node, (Select, SetOperation)):
            raise ExecutionError(f"Cannot execute node of type {type(node).__name__}")
        plan = self.compile(node)
        ctx = ExecutionContext(
            executor=self,
            catalog=self._catalog,
            ctes={},
            outer=None,
            parameters=self._parameters,
            deadline=self._deadline,
        )
        batch = plan.execute(ctx)
        columns = [name for _, name in batch.slots]
        schema = self._result_schema(_leftmost_select(node), columns, batch.columns)
        # Column hand-off: the result keeps the vectors and derives the row
        # view lazily.  The copy detaches the result from any vector that
        # aliases live table storage (pass-through scans), so later table
        # mutations cannot bleed into a held result.
        return QueryResult(
            columns=columns,
            schema=schema,
            column_data=[list(column) for column in batch.columns],
            row_count=batch.length,
        )

    def compile(self, node: SqlNode) -> PhysicalNode:
        """Compile a query AST to its physical plan (no execution)."""
        return self.plan_for(node, cte_tables={})

    def plan_for(self, node: SqlNode, cte_tables: dict[str, Table]) -> PhysicalNode:
        """The compiled physical plan for ``node`` under the given CTE scope."""
        memo = self._plan_memo.get(id(node))
        if memo is not None and memo[0] is node:
            return memo[1]
        cte_columns: dict[str, list[str] | None] = {
            name: list(table.column_names) for name, table in cte_tables.items()
        }
        plan = self._compile(node, cte_columns)
        self._plan_memo[id(node)] = (node, plan)
        return plan

    def _compile(
        self, node: SqlNode, cte_columns: dict[str, list[str] | None]
    ) -> PhysicalNode:
        shared = self._shared_plan_cache
        key = None
        if shared is not None:
            signature = tuple(
                sorted(
                    (name, tuple(columns) if columns is not None else None)
                    for name, columns in cte_columns.items()
                )
            )
            # The optimize flag is part of the key: an optimized plan must
            # never be served to an executor that asked for the verbatim
            # lowering (and vice versa).  Optimized plans additionally bake
            # in *data-dependent* facts (totality proofs from
            # Table.value_type, join-order estimates), so their entries are
            # keyed by the catalog data version: row mutations bump it
            # without clearing the plan cache, and a stale rewritten plan
            # could otherwise crash or mis-order where a fresh compile would
            # not.  Verbatim lowering depends only on column names, so its
            # entries are keyed by the schema version alone (appends reuse
            # them); clear-on-schema-bump is not enough on its own now that
            # pinned snapshots can outlive the clear and repopulate the
            # shared cache with old-schema plans.
            if self._optimize and hasattr(self._catalog, "data_version"):
                version = self._catalog.data_version()
            elif not self._optimize and hasattr(self._catalog, "schema_version"):
                version = ("schema", self._catalog.schema_version())
            else:
                version = None
            key = (self._sql_key(node), signature, self._optimize, version)
            cached = shared.get(key)
            if cached is not None:
                return cached
        logical = Planner().plan(node)
        if self._optimize:
            logical, _ = optimize_plan(logical, self._catalog, cte_columns)
        physical = lower_plan(logical, self._catalog, cte_columns)
        if shared is not None and key is not None:
            shared[key] = physical
            # Concurrent executors trim the shared cache cooperatively; a key
            # another thread already evicted (or a clear racing the iterator)
            # must not abort this thread's store.
            while len(shared) > PLAN_CACHE_CAPACITY:
                try:
                    shared.pop(next(iter(shared)), None)
                except (StopIteration, RuntimeError):
                    break
        return physical

    # ------------------------------------------------------------------ #
    # Subquery execution (invoked by the vectorized evaluator)
    # ------------------------------------------------------------------ #

    def run_subquery(
        self, ctx: ExecutionContext, query: Select, row_env: Environment
    ) -> PlanResult:
        key = self._sql_key(query)
        cached = ctx.subquery_cache.get(key)
        if cached is not None:
            return cached
        # Correlated subqueries run once per outer row — the checkpoint here
        # is what bounds per-row execution loops that never re-enter an
        # operator's own checkpoint.
        ctx.checkpoint()
        cacheable = not self._is_correlated(query)
        probe = CorrelationProbe(row_env)
        child = ExecutionContext(
            executor=self,
            catalog=self._catalog,
            ctes=ctx.ctes,
            outer=probe,
            parameters=self._parameters,
            deadline=ctx.deadline,
        )
        plan = self.plan_for(query, ctx.ctes)
        batch = plan.execute(child)
        result = PlanResult(
            columns=[name for _, name in batch.slots], rows=batch.rows()
        )
        if cacheable and not probe.correlated:
            ctx.subquery_cache[key] = result
        return result

    def _is_correlated(self, query: Select) -> bool:
        memo = self._correlated_memo.get(id(query))
        if memo is not None and memo[0] is query:
            return memo[1]

        def table_columns(name: str) -> list[str] | None:
            if self._catalog.has_table(name):
                return self._catalog.table(name).column_names
            return None

        correlated = references_outer_names(query, table_columns)
        self._correlated_memo[id(query)] = (query, correlated)
        return correlated

    def _sql_key(self, node: SqlNode) -> str:
        memo = self._sql_memo.get(id(node))
        if memo is not None and memo[0] is node:
            return memo[1]
        text = to_sql(node)
        self._sql_memo[id(node)] = (node, text)
        return text

    # ------------------------------------------------------------------ #
    # Output schema
    # ------------------------------------------------------------------ #

    def _result_schema(
        self, query: Select, columns: list[str], column_vectors: list[list[Any]]
    ) -> ResultSchema:
        return infer_result_schema(self._catalog, query, columns, column_vectors)


def infer_result_schema(
    catalog, query: Select, columns: list[str], column_vectors: list[list[Any]]
) -> ResultSchema:
    """The output schema for one query's materialized columns.

    Prefers the analyzer's static inference (renamed to the actual output
    column names); falls back to value-based type/role inference from the
    materialized vectors.  Shared by the executor and the incremental-
    maintenance fold path (``engine/ivm.py``) so a folded result carries
    exactly the schema a cold recompute would.
    """
    try:
        analyzer = Analyzer(catalog.schemas())
        inferred = analyzer.result_schema(query)
        if len(inferred.columns) == len(columns):
            renamed = tuple(
                ColumnSchema(name=name, data_type=column.data_type, role=column.role)
                for name, column in zip(columns, inferred.columns)
            )
            return ResultSchema(columns=renamed)
    except Exception:  # noqa: BLE001 - schema inference is best effort
        pass
    # Fall back to inferring types from the materialized column vectors.
    schemas = []
    for index, name in enumerate(columns):
        values = column_vectors[index] if index < len(column_vectors) else []
        data_type = DataType.NULL
        for value in values:
            data_type = DataType.unify(data_type, DataType.of_value(value))
        non_null = [value for value in values if value is not None]
        role = AttributeRole.from_data_type(data_type, len(set(map(hashable, non_null))))
        schemas.append(ColumnSchema(name=name, data_type=data_type, role=role))
    return ResultSchema(columns=tuple(schemas))


def _leftmost_select(node: SqlNode) -> Select:
    while isinstance(node, SetOperation):
        node = node.left
    return node  # type: ignore[return-value]
