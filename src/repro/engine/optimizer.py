"""Rule-based logical-plan optimizer.

Runs between ``Planner.plan()`` and ``lower_plan()`` and rewrites the logical
plan into an equivalent, cheaper one.  Rules, in application order:

1. **constant_folding** — evaluates constant subexpressions of WHERE / HAVING
   / ON predicates through the :class:`VectorEvaluator` (so folding and
   execution can never disagree), absorbs ``TRUE``/``FALSE`` operands of
   AND/OR chains, and drops filters whose predicate folded to ``TRUE``.
2. **predicate_pushdown** — splits AND chains into conjuncts and pushes each
   conjunct to its deepest legal scope: below inner joins onto the side it
   references, into the preserved side of outer joins, from WHERE into an
   INNER/CROSS join condition when it references both sides (turning comma
   joins into equi-joins the lowerer can hash), from HAVING below the
   aggregation when it only references group keys, and through derived-table
   projections by substituting the projected expressions.
3. **join_reorder** — greedily reorders maximal INNER/CROSS join regions of
   three or more inputs, driven by the memoized ``Table`` statistics
   (row counts, per-column distinct counts, value ranges): start from the
   smallest input, then repeatedly attach the input with the smallest
   estimated join cardinality.
4. **access_path** — replaces a ``Filter`` directly over a base-table scan
   with an :class:`IndexScanNode` when one of its conjuncts (column-vs-literal
   equality, range, BETWEEN or IN) can be answered by a secondary index on
   the table and the distinct/range statistics estimate the conjunct
   selective enough to beat the fused sequential scan; remaining conjuncts
   stay in a residual filter above.  The decision is recorded in the trace
   (EXPLAIN-visible).  ``ExecOptions(optimize=False)`` bypasses this (and
   every) rule, and a catalog without indexes never takes the path — both
   serve as escape hatches.
5. **projection_pruning** — narrows every base-table scan (including index
   scans) to the columns the rest of the plan (including correlated
   subqueries) references, so joins and filters never gather dead columns.

Legality is enforced by two analyses shared with the lowerer:

* **side classification** (:func:`plan_binding_infos`) resolves which join
  input binds each column reference — mirroring run-time name resolution;
* **totality** (:func:`expression_type_and_totality`) proves that a predicate
  cannot raise at run time (type-compatible comparisons, error-free
  functions, no subqueries).  Only *total* conjuncts may move: a non-total
  conjunct could rely on sibling conjuncts or row-wise short-circuiting
  (AND/OR and CASE fallback paths) to hide rows that would error, so it is
  never separated from its original scope.

Every rewrite is recorded in an :class:`OptimizerTrace`, which
``Catalog.explain(physical=True)`` renders alongside the pre- and
post-rewrite plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.difftree.canonical import join_conjuncts, split_conjuncts
from repro.engine.aggregates import is_aggregate_function
from repro.engine.expressions import Batch, VectorEvaluator
from repro.engine.functions import is_scalar_function
from repro.engine.plan_nodes import (
    AggregateNode,
    CteDefinition,
    CteNode,
    DerivedScanNode,
    DistinctNode,
    FilterNode,
    IndexAccessPath,
    IndexScanNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    ScanNode,
    SetOpNode,
    SortNode,
    WindowNode,
    dedupe_names,
)
from repro.sql.ast_nodes import (
    BetweenOp,
    BinaryOp,
    Case,
    Cast,
    ColumnRef,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Parameter,
    Select,
    SqlNode,
    Star,
    UnaryOp,
    WindowCall,
)
from repro.sql.printer import to_sql
from repro.sql.schema import DataType
from repro.sql.visitor import transform

#: Comparison groups: values within one group order against each other
#: without raising; values across groups do not.
_NUMERIC_TYPES = frozenset({DataType.INTEGER, DataType.FLOAT, DataType.BOOLEAN})
_TEXTUAL_TYPES = frozenset({DataType.TEXT, DataType.DATE})

#: Default cardinality assumed for inputs without statistics (CTE scans,
#: unknown tables) during join reordering.
_DEFAULT_ROWS = 1000.0

#: Tables below this row count never take an index path: a fused sequential
#: scan over a handful of rows beats any probe-plus-gather.
_INDEX_SCAN_MIN_ROWS = 32

#: Estimated selectivity above which an index path is refused: gathering
#: most of the table row-by-row loses to the vectorized scan-and-compress.
_INDEX_SCAN_MAX_SELECTIVITY = 0.5


# --------------------------------------------------------------------------- #
# Trace
# --------------------------------------------------------------------------- #


@dataclass
class OptimizerTrace:
    """Ordered record of every rule application during one optimization."""

    events: list[tuple[str, str]] = field(default_factory=list)
    #: Access-path decisions as data (mirrors the ``access_path`` events):
    #: index choices and refusals, for consumers that want decisions instead
    #: of prose (see ``ExplainReport.access_paths``).
    access_decisions: list[dict[str, Any]] = field(default_factory=list)

    def record(self, rule: str, detail: str) -> None:
        self.events.append((rule, detail))

    def record_access(self, **decision: Any) -> None:
        self.access_decisions.append(decision)

    def lines(self) -> list[str]:
        return [f"{rule}: {detail}" for rule, detail in self.events]

    def rules_applied(self) -> list[str]:
        """Distinct rule names in first-application order."""
        seen: list[str] = []
        for rule, _ in self.events:
            if rule not in seen:
                seen.append(rule)
        return seen

    def __bool__(self) -> bool:
        return bool(self.events)


# --------------------------------------------------------------------------- #
# Scope analysis (shared with the lowerer's join-key side analysis)
# --------------------------------------------------------------------------- #


@dataclass
class BindingInfo:
    """Columns (and, when known, value types) of one FROM-clause binding."""

    columns: list[str]
    table: Any | None = None  # base Table providing memoized statistics
    types: dict[str, DataType | None] | None = None  # derived-table outputs

    def column_type(self, name: str) -> DataType | None:
        if self.table is not None:
            try:
                return self.table.value_type(name)
            except Exception:  # noqa: BLE001 - stats are best effort
                return None
        if self.types is not None:
            return self.types.get(name)
        return None


def plan_output_names(plan: PlanNode) -> list[str] | None:
    """Best-effort output column names of a planned query subtree."""
    node = plan
    while isinstance(node, (LimitNode, SortNode, DistinctNode, CteNode)):
        node = node.input
    if isinstance(node, SetOpNode):
        return plan_output_names(node.left)
    if not isinstance(node, ProjectNode):
        return None
    names: list[str] = []
    for item in node.items:
        if isinstance(item.expr, Star):
            return None
        names.append(item.output_name())
    return dedupe_names(names)


def plan_binding_infos(
    plan: PlanNode,
    catalog,
    cte_types: dict[str, dict[str, DataType | None] | None],
) -> dict[str, BindingInfo] | None:
    """binding name -> :class:`BindingInfo` for a FROM subtree, or None.

    ``None`` means name resolution for the subtree cannot be predicted
    statically (unknown table, duplicated binding, SELECT * derived table);
    callers must then refuse to classify or move expressions.
    """
    if isinstance(plan, IndexScanNode):
        # Index scans only ever target catalog base tables (the access-path
        # rule refuses CTE and derived bindings), so resolution is direct.
        if catalog is not None and catalog.has_table(plan.table_name):
            table = catalog.table(plan.table_name)
            columns = (
                list(plan.columns) if plan.columns is not None else list(table.column_names)
            )
            return {plan.binding_name: BindingInfo(columns=columns, table=table)}
        return None
    if isinstance(plan, ScanNode):
        if plan.table_name == "<dual>":
            return {}
        cte = cte_types.get(plan.table_name.lower(), "miss")
        if cte != "miss":
            if cte is None:
                return None
            columns = list(cte)
            if plan.columns is not None:
                columns = [name for name in columns if name in plan.columns]
            return {plan.binding_name: BindingInfo(columns=columns, types=cte)}
        if catalog is not None and catalog.has_table(plan.table_name):
            table = catalog.table(plan.table_name)
            columns = (
                list(plan.columns) if plan.columns is not None else list(table.column_names)
            )
            return {plan.binding_name: BindingInfo(columns=columns, table=table)}
        return None
    if isinstance(plan, DerivedScanNode):
        names = plan_output_names(plan.input)
        if names is None:
            return None
        types = plan_output_types(plan.input, catalog, cte_types)
        return {plan.alias: BindingInfo(columns=names, types=types)}
    if isinstance(plan, FilterNode):
        return plan_binding_infos(plan.input, catalog, cte_types)
    if isinstance(plan, JoinNode):
        left = plan_binding_infos(plan.left, catalog, cte_types)
        right = plan_binding_infos(plan.right, catalog, cte_types)
        if left is None or right is None:
            return None
        if set(left) & set(right):
            return None
        merged = dict(left)
        merged.update(right)
        return merged
    return None


def plan_output_types(
    plan: PlanNode,
    catalog,
    cte_types: dict[str, dict[str, DataType | None] | None],
) -> dict[str, DataType | None] | None:
    """Output column name -> value type for a planned query subtree."""
    node = plan
    scoped_ctes = dict(cte_types)
    while True:
        if isinstance(node, (LimitNode, SortNode, DistinctNode)):
            node = node.input
            continue
        if isinstance(node, CteNode):
            for definition in node.definitions:
                produced = plan_output_types(definition.plan, catalog, scoped_ctes)
                if produced is not None and definition.columns:
                    produced = dict(zip(definition.columns, produced.values()))
                scoped_ctes[definition.name.lower()] = produced
            node = node.input
            continue
        break
    if isinstance(node, SetOpNode):
        return plan_output_types(node.left, catalog, scoped_ctes)
    if not isinstance(node, ProjectNode):
        return None
    below = node.input
    while isinstance(below, (FilterNode, WindowNode)):
        below = below.input
    if isinstance(below, AggregateNode):
        below = below.input
        while isinstance(below, FilterNode):
            below = below.input
    scope = plan_binding_infos(below, catalog, scoped_ctes)
    names: list[str] = []
    types: list[DataType | None] = []
    for item in node.items:
        if isinstance(item.expr, Star):
            return None
        names.append(item.output_name())
        types.append(expression_type_and_totality(item.expr, scope)[0])
    return dict(zip(dedupe_names(names), types))


def _resolve_ref_type(
    ref: ColumnRef, scope: dict[str, BindingInfo] | None
) -> DataType | None:
    if scope is None:
        return None
    if ref.table:
        info = scope.get(ref.table)
        if info is not None and ref.name in info.columns:
            return info.column_type(ref.name)
        return None
    hits = [info for info in scope.values() if ref.name in info.columns]
    if len(hits) == 1:
        return hits[0].column_type(ref.name)
    return None


# --------------------------------------------------------------------------- #
# Totality analysis: can this expression raise at run time?
# --------------------------------------------------------------------------- #


def _comparable(a: DataType | None, b: DataType | None) -> bool:
    """True when ordering values of the two types cannot raise."""
    if a is None or b is None:
        return False
    if a is DataType.NULL or b is DataType.NULL:
        return True
    return (a in _NUMERIC_TYPES and b in _NUMERIC_TYPES) or (
        a in _TEXTUAL_TYPES and b in _TEXTUAL_TYPES
    )


def _numeric(t: DataType | None) -> bool:
    return t is not None and (t in _NUMERIC_TYPES or t is DataType.NULL)


def _unify_types(a: DataType | None, b: DataType | None) -> DataType | None:
    """Comparison-group-safe least upper bound (unlike ``DataType.unify``,
    which maps cross-group mixes such as BOOLEAN+INTEGER to TEXT — lying to
    the totality analysis).  Cross-group mixes yield None (unknown), which
    can never prove a comparison total."""
    if a is None or b is None:
        return None
    if a is DataType.NULL:
        return b
    if b is DataType.NULL:
        return a
    if a is b:
        return a
    if a in _NUMERIC_TYPES and b in _NUMERIC_TYPES:
        return DataType.FLOAT if DataType.FLOAT in (a, b) else DataType.INTEGER
    if a in _TEXTUAL_TYPES and b in _TEXTUAL_TYPES:
        return DataType.TEXT
    return None


#: Scalar functions that are safe for arguments of any type (they coerce via
#: ``str()`` or merely select among their arguments).
_TEXT_SAFE_FUNCTIONS = frozenset(
    {"upper", "lower", "trim", "ltrim", "rtrim", "concat", "replace"}
)
#: Scalar functions safe when every argument is numeric.
_NUMERIC_SAFE_FUNCTIONS = frozenset({"abs", "floor", "ceil", "ceiling", "sign"})


def expression_type_and_totality(
    expr: SqlNode, scope: dict[str, BindingInfo] | None
) -> tuple[DataType | None, bool]:
    """(value type, total) of an expression under a FROM scope.

    *Total* means evaluation can never raise for any input row: types are
    compatible where the engine would compare or compute, no subqueries, no
    functions with partial domains.  Only total expressions may be moved to a
    different scope by the optimizer — a non-total one might currently be
    shielded by sibling conjuncts through the engine's row-wise AND/OR/CASE
    short-circuit fallback, and moving it would surface errors (or hide
    them).  Type ``None`` means unknown.
    """
    if isinstance(expr, Literal):
        return DataType.of_value(expr.value), True
    if isinstance(expr, ColumnRef):
        return _resolve_ref_type(expr, scope), True
    if isinstance(expr, Parameter):
        return None, True
    if isinstance(expr, UnaryOp):
        operand_type, operand_total = expression_type_and_totality(expr.operand, scope)
        if expr.op == "NOT":
            return DataType.BOOLEAN, operand_total
        if _numeric(operand_type):
            return operand_type, operand_total
        return None, False
    if isinstance(expr, BinaryOp):
        left_type, left_total = expression_type_and_totality(expr.left, scope)
        right_type, right_total = expression_type_and_totality(expr.right, scope)
        both = left_total and right_total
        op = expr.op
        if op in ("AND", "OR"):
            return DataType.BOOLEAN, both
        if op in ("=", "<>"):
            # Python ``==`` never raises, so SQL (in)equality is always total.
            return DataType.BOOLEAN, both
        if op in ("<", "<=", ">", ">="):
            return DataType.BOOLEAN, both and _comparable(left_type, right_type)
        if op == "LIKE":
            return DataType.BOOLEAN, both
        if op == "||":
            return DataType.TEXT, both
        if op in ("+", "-", "*"):
            if _numeric(left_type) and _numeric(right_type):
                return _unify_types(left_type, right_type), both
            return None, False
        if op in ("/", "%"):
            if _numeric(left_type) and _numeric(right_type):
                return DataType.FLOAT, both
            return None, False
        return None, False
    if isinstance(expr, BetweenOp):
        value_type, value_total = expression_type_and_totality(expr.expr, scope)
        low_type, low_total = expression_type_and_totality(expr.low, scope)
        high_type, high_total = expression_type_and_totality(expr.high, scope)
        total = (
            value_total
            and low_total
            and high_total
            and _comparable(value_type, low_type)
            and _comparable(value_type, high_type)
        )
        return DataType.BOOLEAN, total
    if isinstance(expr, InList):
        parts = [expression_type_and_totality(expr.expr, scope)] + [
            expression_type_and_totality(item, scope) for item in expr.items
        ]
        # Membership uses ``==`` only, which never raises.
        return DataType.BOOLEAN, all(total for _, total in parts)
    if isinstance(expr, IsNull):
        return DataType.BOOLEAN, expression_type_and_totality(expr.expr, scope)[1]
    if isinstance(expr, Case):
        total = True
        result_type: DataType | None = None
        known = True
        for arm in expr.whens:
            total = total and expression_type_and_totality(arm.condition, scope)[1]
            arm_type, arm_total = expression_type_and_totality(arm.result, scope)
            total = total and arm_total
            if arm_type is None:
                known = False
            elif result_type is None:
                result_type = arm_type
            else:
                result_type = _unify_types(result_type, arm_type)
                known = known and result_type is not None
        if expr.else_result is not None:
            else_type, else_total = expression_type_and_totality(expr.else_result, scope)
            total = total and else_total
            if else_type is None:
                known = False
            elif result_type is not None:
                result_type = _unify_types(result_type, else_type)
                known = known and result_type is not None
            else:
                result_type = else_type
        return (result_type if known else None), total
    if isinstance(expr, Cast):
        operand_type, operand_total = expression_type_and_totality(expr.expr, scope)
        target = expr.target_type
        if target in ("text", "varchar", "char", "string"):
            return DataType.TEXT, operand_total
        if target in ("boolean", "bool"):
            return DataType.BOOLEAN, operand_total
        if target == "date":
            return DataType.DATE, operand_total
        if target in ("int", "integer", "bigint"):
            return DataType.INTEGER, operand_total and _numeric(operand_type)
        if target in ("float", "real", "double"):
            return DataType.FLOAT, operand_total and _numeric(operand_type)
        return None, False
    if isinstance(expr, FunctionCall):
        return _function_type_and_totality(expr, scope)
    # Subqueries (ScalarSubquery / Exists / InSubquery), Star and anything
    # unrecognized are never movable.
    return None, False


def _function_type_and_totality(
    call: FunctionCall, scope: dict[str, BindingInfo] | None
) -> tuple[DataType | None, bool]:
    name = call.lower_name
    args = [expression_type_and_totality(arg, scope) for arg in call.args]
    if is_aggregate_function(name) and not is_scalar_function(name):
        if name == "count":
            return DataType.INTEGER, False
        if name in ("min", "max") and args:
            return args[0][0], False
        if name == "sum" and args and args[0][0] is DataType.INTEGER:
            return DataType.INTEGER, False
        return DataType.FLOAT, False
    all_total = all(total for _, total in args)
    if name in _TEXT_SAFE_FUNCTIONS:
        return DataType.TEXT, all_total
    if name == "length":
        return DataType.INTEGER, all_total
    if name in ("coalesce", "ifnull"):
        result: DataType | None = DataType.NULL
        for arg_type, _ in args:
            result = _unify_types(result, arg_type)
            if result is None:
                break
        return result, all_total
    if name == "nullif" and len(args) == 2:
        return args[0][0], all_total  # equality check only, never raises
    if name in _NUMERIC_SAFE_FUNCTIONS:
        total = all_total and all(_numeric(arg_type) for arg_type, _ in args)
        if name in ("floor", "ceil", "ceiling", "sign"):
            return DataType.INTEGER, total
        return (args[0][0] if args else None), total
    if name == "round":
        total = (
            all_total
            and bool(args)
            and _numeric(args[0][0])
            and (len(args) < 2 or args[1][0] in (DataType.INTEGER, DataType.NULL))
        )
        return DataType.FLOAT, total
    if name in ("year", "month", "day"):
        total = all_total and bool(args) and args[0][0] is DataType.DATE
        return DataType.INTEGER, total
    if name == "date":
        return DataType.DATE, all_total
    if name == "date_trunc":
        total = (
            all_total
            and len(args) == 2
            and isinstance(call.args[0], Literal)
            and str(call.args[0].value).lower() in ("year", "month", "day")
            and args[1][0] is DataType.DATE
        )
        return DataType.DATE, total
    if name in ("substr", "substring", "left", "right"):
        total = all_total and all(
            arg_type in (DataType.INTEGER, DataType.NULL) for arg_type, _ in args[1:]
        )
        return DataType.TEXT, total
    return None, False


def _is_constant(expr: SqlNode) -> bool:
    """True when the expression references no rows, parameters or subqueries.

    All registered scalar functions are deterministic, so such an expression
    always evaluates to the same value and may be folded to a literal.
    """
    for node in expr.walk():
        if isinstance(node, (ColumnRef, Parameter, Star, Select)):
            return False
        if isinstance(node, FunctionCall) and not is_scalar_function(node.name):
            return False
    return True


# --------------------------------------------------------------------------- #
# Incremental-maintenance shape analysis
# --------------------------------------------------------------------------- #


@dataclass
class MaintainableShape:
    """The pieces of a logical plan the delta-fold path re-executes.

    A *maintainable* query (see :func:`maintainable_shape`) reads one base
    table through at most a WHERE filter and an optional GROUP BY aggregation;
    the folder in ``engine/ivm.py`` replays exactly these pieces over each
    appended row range instead of recomputing the full query.
    """

    kind: str  # "splice" (scan/filter/project) or "aggregate" (+ GROUP BY)
    table_name: str  # base table as written in the scan (catalog lookup key)
    binding: str  # FROM-clause binding name the batch slots carry
    items: list  # SELECT-list items (SelectItem)
    predicate: SqlNode | None  # WHERE predicate, or None
    group_by: list  # GROUP BY expressions (empty for splice / global agg)
    aggregates: list  # aggregate FunctionCall ASTs (empty for splice)

    def describe(self) -> str:
        return f"{self.kind} over {self.table_name}"


def maintainable_shape(plan: PlanNode) -> tuple[MaintainableShape | None, str]:
    """Classify a *pre-rewrite* logical plan as IVM-maintainable or not.

    Returns ``(shape, detail)`` — ``shape`` is None with a human-readable
    refusal reason when the plan cannot be maintained incrementally.  v1
    accepts exactly two shapes over a single base-table scan:

    * ``Project(Filter[where]?(Scan))`` — appended rows are filtered,
      projected and spliced onto the cached result;
    * ``Project(Aggregate(Filter[where]?(Scan)))`` — appended rows fold into
      per-group accumulator state.

    Everything else — joins, windows, HAVING, DISTINCT, ORDER BY, LIMIT,
    set operations, CTEs, derived tables, subqueries, parameters — falls back
    to full recompute-on-miss.  The analysis runs on the planner's output
    (before optimization), so the shape is a pure function of the query text.
    """
    node = plan
    if not isinstance(node, ProjectNode):
        return None, f"{type(node).__name__} above the projection"
    items = node.items
    below = node.input

    aggregate: AggregateNode | None = None
    if isinstance(below, FilterNode) and below.phase == "having":
        return None, "HAVING filter"
    if isinstance(below, AggregateNode):
        aggregate = below
        below = below.input

    predicate: SqlNode | None = None
    if isinstance(below, FilterNode):
        if below.phase != "where":
            return None, f"{below.phase} filter below the projection"
        predicate = below.predicate
        below = below.input

    if not isinstance(below, ScanNode):
        return None, f"{type(below).__name__} source"
    if below.table_name == "<dual>":
        return None, "FROM-less query"

    expressions: list[SqlNode] = [item.expr for item in items]
    if predicate is not None:
        expressions.append(predicate)
    if aggregate is not None:
        expressions.extend(aggregate.group_by)
        expressions.extend(aggregate.aggregates)
    for expression in expressions:
        for descendant in expression.walk():
            if isinstance(descendant, Select):
                return None, "subquery expression"
            if isinstance(descendant, Parameter):
                return None, "parameter reference"
            if isinstance(descendant, WindowCall):
                return None, "window call"

    shape = MaintainableShape(
        kind="aggregate" if aggregate is not None else "splice",
        table_name=below.table_name,
        binding=below.binding_name,
        items=list(items),
        predicate=predicate,
        group_by=list(aggregate.group_by) if aggregate is not None else [],
        aggregates=list(aggregate.aggregates) if aggregate is not None else [],
    )
    return shape, shape.describe()


# --------------------------------------------------------------------------- #
# The optimizer
# --------------------------------------------------------------------------- #


def optimize_plan(
    plan: PlanNode,
    catalog,
    cte_columns: dict[str, list[str] | None] | None = None,
) -> tuple[PlanNode, OptimizerTrace]:
    """Rewrite a logical plan through the full rule pipeline.

    Args:
        plan: the planner's logical plan.  It is never mutated; the returned
            plan shares unchanged subtrees with it.
        catalog: the catalog supplying table statistics (duck-typed; may be
            None, which disables statistics-driven rules).
        cte_columns: lexically visible outer CTE names -> output columns (or
            None when unknown) — the same map the lowerer receives, so both
            stages agree on name resolution.
    """
    trace = OptimizerTrace()
    # Maintainability is a property of the pre-rewrite plan (the fold path
    # re-analyzes the same planner output), recorded first so EXPLAIN shows
    # the ivm decision alongside the rewrite trace.
    shape, detail = maintainable_shape(plan)
    if shape is not None:
        trace.record("ivm", f"maintainable ({detail})")
    else:
        trace.record("ivm", f"not maintainable ({detail})")
    cte_types: dict[str, dict[str, DataType | None] | None] = {}
    for name, columns in (cte_columns or {}).items():
        cte_types[name.lower()] = (
            {column: None for column in columns} if columns is not None else None
        )
    optimizer = _Optimizer(catalog, cte_types, trace)
    rewritten = optimizer.rewrite(plan)
    rewritten = optimizer.choose_access_paths(rewritten)
    rewritten = optimizer.prune(rewritten)
    return rewritten, trace


class _Optimizer:
    def __init__(
        self,
        catalog,
        cte_types: dict[str, dict[str, DataType | None] | None],
        trace: OptimizerTrace,
    ) -> None:
        self._catalog = catalog
        self._cte_types = dict(cte_types)
        self._outer_cte_names = set(cte_types)
        self._trace = trace
        self._fold_evaluator = VectorEvaluator(None)

    # ------------------------------------------------------------------ #
    # Plan-level rewriting (per SELECT scope)
    # ------------------------------------------------------------------ #

    def rewrite(self, plan: PlanNode) -> PlanNode:
        if isinstance(plan, CteNode):
            return self._rewrite_cte(plan)
        if isinstance(plan, SetOpNode):
            return SetOpNode(
                op=plan.op,
                left=self.rewrite(plan.left),
                right=self.rewrite(plan.right),
                all=plan.all,
            )
        if isinstance(plan, LimitNode):
            return LimitNode(
                input=self.rewrite(plan.input), limit=plan.limit, offset=plan.offset
            )
        if isinstance(plan, SortNode):
            return SortNode(input=self.rewrite(plan.input), order_by=list(plan.order_by))
        if isinstance(plan, DistinctNode):
            return DistinctNode(input=self.rewrite(plan.input))
        if isinstance(plan, ProjectNode):
            return self._rewrite_project(plan)
        if isinstance(plan, WindowNode):
            # Defensive: the planner always places a Project above a Window.
            return WindowNode(
                input=self._rewrite_project_input(plan.input, star_in_scope=True),
                windows=list(plan.windows),
            )
        # A bare FROM subtree (defensive: the planner always adds a Project).
        return self._rewrite_from(plan, [], star_in_scope=True)

    def _rewrite_cte(self, plan: CteNode) -> CteNode:
        saved = dict(self._cte_types)
        try:
            definitions: list[CteDefinition] = []
            for definition in plan.definitions:
                rewritten = self.rewrite(definition.plan)
                produced = plan_output_types(rewritten, self._catalog, self._cte_types)
                if produced is not None and definition.columns:
                    produced = dict(zip(definition.columns, produced.values()))
                self._cte_types[definition.name.lower()] = produced
                definitions.append(
                    CteDefinition(
                        name=definition.name,
                        columns=list(definition.columns),
                        plan=rewritten,
                    )
                )
            return CteNode(definitions=definitions, input=self.rewrite(plan.input))
        finally:
            self._cte_types = saved

    def _rewrite_project(self, project: ProjectNode) -> PlanNode:
        star_in_scope = any(
            isinstance(item.expr, Star) and item.expr.table is None
            for item in project.items
        )
        below = project.input

        window: WindowNode | None = None
        if isinstance(below, WindowNode):
            window = below
            below = below.input

        inner = self._rewrite_project_input(below, star_in_scope)
        if window is not None:
            inner = WindowNode(input=inner, windows=list(window.windows))
        return ProjectNode(input=inner, items=list(project.items))

    def _rewrite_project_input(self, below: PlanNode, star_in_scope: bool) -> PlanNode:
        """Rewrite everything between a Project (or Window) and the FROM tree."""
        having: FilterNode | None = None
        if (
            isinstance(below, FilterNode)
            and below.phase == "having"
            and isinstance(below.input, AggregateNode)
        ):
            having = below
            below = below.input

        if isinstance(below, AggregateNode):
            aggregate = below
            pool, source = self._collect_where_pool(aggregate.input)
            kept_having: SqlNode | None = None
            if having is not None:
                kept_having = self._push_having(having.predicate, aggregate, source, pool)
            new_from = self._rewrite_from(source, pool, star_in_scope)
            rebuilt: PlanNode = AggregateNode(
                input=new_from,
                group_by=list(aggregate.group_by),
                aggregates=list(aggregate.aggregates),
            )
            if kept_having is not None:
                rebuilt = FilterNode(input=rebuilt, predicate=kept_having, phase="having")
            return rebuilt

        if isinstance(below, FilterNode) and below.phase == "having":
            # HAVING without aggregation: keep it in place, rewrite below.
            folded = self._fold_predicate(below.predicate)
            inner = self.rewrite(below.input) if isinstance(
                below.input, (ProjectNode, SetOpNode, CteNode)
            ) else self._rewrite_from_below(below.input, star_in_scope)
            return FilterNode(input=inner, predicate=folded, phase="having")

        return self._rewrite_from_below(below, star_in_scope)

    def _rewrite_from_below(self, below: PlanNode, star_in_scope: bool) -> PlanNode:
        pool, source = self._collect_where_pool(below)
        return self._rewrite_from(source, pool, star_in_scope)

    def _collect_where_pool(self, node: PlanNode) -> tuple[list[SqlNode], PlanNode]:
        """Strip WHERE filters off a FROM subtree, folding their conjuncts."""
        pool: list[SqlNode] = []
        while isinstance(node, FilterNode) and node.phase == "where":
            predicate = self._fold_predicate(node.predicate)
            for conjunct in split_conjuncts(predicate):
                if isinstance(conjunct, Literal) and conjunct.value is not None and conjunct.value:
                    self._trace.record(
                        "constant_folding",
                        f"eliminated trivial predicate {to_sql(conjunct)}",
                    )
                    continue
                pool.append(conjunct)
            node = node.input
        return pool, node

    # ------------------------------------------------------------------ #
    # Rule: constant folding
    # ------------------------------------------------------------------ #

    def _fold_predicate(self, predicate: SqlNode) -> SqlNode:
        folded = self._fold_expr(predicate)
        if folded is not predicate and to_sql(folded) != to_sql(predicate):
            self._trace.record(
                "constant_folding",
                f"folded {to_sql(predicate)} -> {to_sql(folded)}",
            )
        return folded

    def _fold_expr(self, expr: SqlNode) -> SqlNode:
        if isinstance(expr, (Literal, ColumnRef, Parameter, Star, Select)):
            return expr
        children = expr.children()
        if children:
            new_children = [self._fold_expr(child) for child in children]
            if any(new is not old for new, old in zip(new_children, children)):
                expr = expr.with_children(new_children)
        if isinstance(expr, BinaryOp) and expr.op in ("AND", "OR"):
            simplified = self._absorb_boolean(expr)
            if simplified is not expr:
                return simplified
        if not isinstance(expr, Literal) and _is_constant(expr):
            try:
                value = self._fold_evaluator.eval(expr, Batch(slots=[], columns=[], length=1))[0]
            except Exception:  # noqa: BLE001 - leave expressions that error
                return expr
            if value is None or isinstance(value, (bool, int, float, str)):
                return Literal(value=value)
        return expr

    @staticmethod
    def _absorb_boolean(expr: BinaryOp) -> SqlNode:
        """Exact TRUE/FALSE absorption for AND/OR (NULL operands untouched)."""
        for literal, other in ((expr.left, expr.right), (expr.right, expr.left)):
            if not isinstance(literal, Literal) or literal.value is None:
                continue
            truthy = bool(literal.value)
            if expr.op == "AND":
                return other if truthy else Literal(value=False)
            return Literal(value=True) if truthy else other
        return expr

    # ------------------------------------------------------------------ #
    # Rule: predicate pushdown
    # ------------------------------------------------------------------ #

    def _rewrite_from(
        self, tree: PlanNode, pool: list[SqlNode], star_in_scope: bool
    ) -> PlanNode:
        tree = self._push_into(tree, pool)
        if not star_in_scope:
            tree = self._reorder_joins(tree)
        return tree

    def _push_into(self, plan: PlanNode, conjuncts: list[SqlNode]) -> PlanNode:
        if isinstance(plan, FilterNode):
            merged = conjuncts + split_conjuncts(self._fold_predicate(plan.predicate))
            return self._push_into(plan.input, merged)
        if isinstance(plan, JoinNode):
            return self._push_join(plan, conjuncts)
        if isinstance(plan, DerivedScanNode):
            rewritten = DerivedScanNode(alias=plan.alias, input=self.rewrite(plan.input))
            remaining = conjuncts
            if conjuncts:
                rewritten, remaining = self._push_into_derived(rewritten, conjuncts)
            return self._wrap_filter(rewritten, remaining)
        if isinstance(plan, ScanNode):
            return self._wrap_filter(plan, conjuncts)
        if isinstance(plan, WindowNode):
            # A window boundary (reached when conjuncts are pushed through a
            # derived table whose scope computes windows).  Only conjuncts
            # over the partition keys of *every* window may cross: they keep
            # or drop whole partitions, so surviving partitions' window
            # values are untouched.  Everything else filters above.
            pushable, kept = self._split_window_conjuncts(plan, conjuncts)
            below = plan.input
            if pushable:
                below = self._push_into(below, pushable)
            rebuilt = WindowNode(input=below, windows=list(plan.windows))
            return self._wrap_filter(rebuilt, kept)
        return self._wrap_filter(self.rewrite(plan), conjuncts)

    @staticmethod
    def _wrap_filter(plan: PlanNode, conjuncts: list[SqlNode]) -> PlanNode:
        predicate = join_conjuncts(conjuncts)
        if predicate is None:
            return plan
        return FilterNode(input=plan, predicate=predicate, phase="where")

    # -- window boundaries ----------------------------------------------- #

    def _split_window_conjuncts(
        self, window: WindowNode, conjuncts: list[SqlNode]
    ) -> tuple[list[SqlNode], list[SqlNode]]:
        """(below-window, above-window) split of conjuncts at a window boundary.

        A conjunct may cross below the window only when every column it
        references is a bare-ColumnRef partition key of *every* window the
        node computes (so it is constant within each partition and removes
        whole partitions) and it is total below the window.  Every decision
        is traced so EXPLAIN shows why pushdown stopped at the boundary.
        """
        if not conjuncts:
            return [], []
        below = window.input
        # Only FROM-like inputs accept pushed conjuncts; an Aggregate (or its
        # HAVING filter) below the window keeps its own pushdown discipline.
        from_like = isinstance(
            below, (ScanNode, IndexScanNode, DerivedScanNode, JoinNode)
        ) or (isinstance(below, FilterNode) and below.phase == "where")
        scope = self._scope_of(below) if from_like else None
        key_sets = self._window_partition_keys(window)
        pushable: list[SqlNode] = []
        kept: list[SqlNode] = []
        for conjunct in conjuncts:
            reason: str | None = None
            if key_sets is None or not self._refs_only_partition_keys(
                conjunct, key_sets
            ):
                reason = "references non-partition column(s)"
            elif not from_like or not expression_type_and_totality(conjunct, scope)[1]:
                reason = "conjunct is not provably total below the window"
            if reason is None:
                pushable.append(conjunct)
                self._trace.record(
                    "predicate_pushdown",
                    f"pushed {to_sql(conjunct)} below window boundary "
                    f"(partition keys only)",
                )
            else:
                kept.append(conjunct)
                self._trace.record(
                    "predicate_pushdown",
                    f"kept {to_sql(conjunct)} above window boundary: {reason}",
                )
        return pushable, kept

    @staticmethod
    def _window_partition_keys(window: WindowNode) -> list[list[ColumnRef]] | None:
        """Per-window bare-ColumnRef partition keys, or None when some window
        has none (nothing can then legally cross the boundary)."""
        key_sets: list[list[ColumnRef]] = []
        for call in window.windows:
            keys = [
                expr for expr in call.spec.partition_by if isinstance(expr, ColumnRef)
            ]
            if not keys:
                return None
            key_sets.append(keys)
        return key_sets

    @staticmethod
    def _refs_only_partition_keys(
        conjunct: SqlNode, key_sets: list[list[ColumnRef]]
    ) -> bool:
        refs = [node for node in conjunct.walk() if isinstance(node, ColumnRef)]
        if not refs:
            return False
        for ref in refs:
            for keys in key_sets:
                if not any(
                    ref.name == key.name
                    and (
                        ref.table is None
                        or key.table is None
                        or ref.table == key.table
                    )
                    for key in keys
                ):
                    return False
        return True

    def _scope_of(self, plan: PlanNode) -> dict[str, BindingInfo] | None:
        return plan_binding_infos(plan, self._catalog, self._cte_types)

    @staticmethod
    def _classify_side(
        conjunct: SqlNode,
        left: dict[str, BindingInfo] | None,
        right: dict[str, BindingInfo] | None,
    ) -> str | None:
        """'L' / 'R' / 'B'(oth) or None when any reference is ambiguous/outer."""
        if left is None or right is None:
            return None
        refs = [node for node in conjunct.walk() if isinstance(node, ColumnRef)]
        if not refs:
            return None
        sides: set[str] = set()
        for ref in refs:
            in_left = _ref_resolves(ref, left)
            in_right = _ref_resolves(ref, right)
            if in_left == in_right:  # both (ambiguous) or neither (outer)
                return None
            sides.add("L" if in_left else "R")
        if sides == {"L"}:
            return "L"
        if sides == {"R"}:
            return "R"
        return "B"

    def _push_join(self, join: JoinNode, incoming: list[SqlNode]) -> PlanNode:
        left_scope = self._scope_of(join.left)
        right_scope = self._scope_of(join.right)
        combined: dict[str, BindingInfo] | None = None
        if left_scope is not None and right_scope is not None:
            combined = {**left_scope, **right_scope}
        join_type = join.join_type

        to_left: list[SqlNode] = []
        to_right: list[SqlNode] = []
        on_keep: list[SqlNode] = []
        leftovers: list[SqlNode] = []

        # The join's own ON conjuncts: pushable into an input only when the
        # join does not preserve that input's unmatched rows.
        if join.condition is not None:
            for conjunct in split_conjuncts(self._fold_predicate(join.condition)):
                side = self._classify_side(conjunct, left_scope, right_scope)
                movable = expression_type_and_totality(conjunct, combined)[1]
                if movable and side == "L" and join_type == "INNER":
                    to_left.append(conjunct)
                    self._trace.record(
                        "predicate_pushdown",
                        f"pushed join condition {to_sql(conjunct)} into left input",
                    )
                elif movable and side == "R" and join_type in ("INNER", "LEFT"):
                    to_right.append(conjunct)
                    self._trace.record(
                        "predicate_pushdown",
                        f"pushed join condition {to_sql(conjunct)} into right input",
                    )
                elif movable and side == "L" and join_type == "RIGHT":
                    to_left.append(conjunct)
                    self._trace.record(
                        "predicate_pushdown",
                        f"pushed join condition {to_sql(conjunct)} into left input",
                    )
                else:
                    on_keep.append(conjunct)

        # WHERE conjuncts arriving from above: pushable into the side they
        # reference (preserved sides only for outer joins), or merged into an
        # INNER/CROSS join condition when they span both sides.
        for conjunct in incoming:
            side = self._classify_side(conjunct, left_scope, right_scope)
            movable = expression_type_and_totality(conjunct, combined)[1]
            if movable and side == "L" and join_type in ("INNER", "CROSS", "LEFT"):
                to_left.append(conjunct)
                self._trace.record(
                    "predicate_pushdown", f"pushed {to_sql(conjunct)} into left input"
                )
            elif movable and side == "R" and join_type in ("INNER", "CROSS", "RIGHT"):
                to_right.append(conjunct)
                self._trace.record(
                    "predicate_pushdown", f"pushed {to_sql(conjunct)} into right input"
                )
            elif (
                movable
                and side == "B"
                and join_type in ("INNER", "CROSS")
                and not join.using
            ):
                on_keep.append(conjunct)
                self._trace.record(
                    "predicate_pushdown",
                    f"merged {to_sql(conjunct)} into the join condition",
                )
            else:
                leftovers.append(conjunct)

        new_type = "INNER" if join_type == "CROSS" and on_keep else join_type
        rebuilt = JoinNode(
            left=self._push_into(join.left, to_left),
            right=self._push_into(join.right, to_right),
            join_type=new_type,
            condition=join_conjuncts(on_keep),
            using=list(join.using),
        )
        return self._wrap_filter(rebuilt, leftovers)

    def _push_having(
        self,
        predicate: SqlNode,
        aggregate: AggregateNode,
        source: PlanNode,
        pool: list[SqlNode],
    ) -> SqlNode | None:
        """Move group-key-only HAVING conjuncts into the WHERE pool.

        Such conjuncts are constant within each group, so filtering rows
        before aggregation keeps or drops entire groups — exactly HAVING's
        semantics — without perturbing surviving groups' aggregates.
        Returns the predicate that must stay above the aggregation.
        """
        folded = self._fold_predicate(predicate)
        scope = self._scope_of(source)
        group_refs: list[ColumnRef] = [
            expr for expr in aggregate.group_by if isinstance(expr, ColumnRef)
        ]
        kept: list[SqlNode] = []
        for conjunct in split_conjuncts(folded):
            if self._having_conjunct_pushable(conjunct, group_refs, scope):
                pool.append(conjunct)
                self._trace.record(
                    "predicate_pushdown",
                    f"pushed HAVING conjunct {to_sql(conjunct)} below aggregation",
                )
            else:
                kept.append(conjunct)
        return join_conjuncts(kept)

    def _having_conjunct_pushable(
        self,
        conjunct: SqlNode,
        group_refs: list[ColumnRef],
        scope: dict[str, BindingInfo] | None,
    ) -> bool:
        refs: list[ColumnRef] = []
        for node in conjunct.walk():
            if isinstance(node, Select):
                return False
            if (
                isinstance(node, FunctionCall)
                and is_aggregate_function(node.name)
                and not is_scalar_function(node.name)
            ):
                return False
            if isinstance(node, ColumnRef):
                refs.append(node)
        if not refs:
            return False
        for ref in refs:
            if not any(
                group.name == ref.name
                and (group.table is None or ref.table is None or group.table == ref.table)
                for group in group_refs
            ):
                return False
        return expression_type_and_totality(conjunct, scope)[1]

    # -- derived-table pushdown ----------------------------------------- #

    def _push_into_derived(
        self, derived: DerivedScanNode, conjuncts: list[SqlNode]
    ) -> tuple[DerivedScanNode, list[SqlNode]]:
        """Push conjuncts through a derived table's projection when legal."""
        wrappers: list[PlanNode] = []
        core = derived.input
        while isinstance(core, (DistinctNode, SortNode)):
            wrappers.append(core)
            core = core.input
        if not isinstance(core, ProjectNode):
            return derived, conjuncts
        raw_names: list[str] = []
        for item in core.items:
            if isinstance(item.expr, Star):
                return derived, conjuncts
            raw_names.append(item.output_name())
        if len(set(raw_names)) != len(raw_names):
            return derived, conjuncts
        mapping = {name: item.expr for name, item in zip(raw_names, core.items)}
        inner_scope = self._inner_scope_of(core.input)

        pushed: list[SqlNode] = []
        remaining: list[SqlNode] = []
        for conjunct in conjuncts:
            if any(isinstance(node, Select) for node in conjunct.walk()):
                remaining.append(conjunct)
                continue
            refs = [node for node in conjunct.walk() if isinstance(node, ColumnRef)]
            if not refs or not all(
                ref.table in (None, derived.alias) and ref.name in mapping for ref in refs
            ):
                remaining.append(conjunct)
                continue
            substituted = transform(
                conjunct,
                lambda node: mapping[node.name]
                if isinstance(node, ColumnRef)
                and node.table in (None, derived.alias)
                and node.name in mapping
                else None,
            )
            if any(isinstance(node, WindowCall) for node in substituted.walk()):
                remaining.append(conjunct)
                self._trace.record(
                    "predicate_pushdown",
                    f"kept {to_sql(conjunct)} above window boundary: "
                    f"references window function output",
                )
                continue
            if not expression_type_and_totality(substituted, inner_scope)[1]:
                remaining.append(conjunct)
                continue
            pushed.append(substituted)
            self._trace.record(
                "predicate_pushdown",
                f"pushed {to_sql(conjunct)} into derived table {derived.alias} "
                f"as {to_sql(substituted)}",
            )
        if not pushed:
            return derived, conjuncts

        if isinstance(core.input, (AggregateNode, FilterNode)) and not (
            isinstance(core.input, FilterNode) and core.input.phase == "where"
        ):
            new_input: PlanNode = self._wrap_filter(core.input, pushed)
        else:
            new_input = self._push_into(core.input, pushed)
        rebuilt: PlanNode = ProjectNode(input=new_input, items=list(core.items))
        for wrapper in reversed(wrappers):
            if isinstance(wrapper, DistinctNode):
                rebuilt = DistinctNode(input=rebuilt)
            else:
                rebuilt = SortNode(input=rebuilt, order_by=list(wrapper.order_by))  # type: ignore[union-attr]
        return DerivedScanNode(alias=derived.alias, input=rebuilt), remaining

    def _inner_scope_of(self, below_project: PlanNode) -> dict[str, BindingInfo] | None:
        node = below_project
        while isinstance(node, (FilterNode, WindowNode)):
            node = node.input
        if isinstance(node, AggregateNode):
            node = node.input
            while isinstance(node, FilterNode):
                node = node.input
        return self._scope_of(node)

    # ------------------------------------------------------------------ #
    # Rule: greedy join reordering
    # ------------------------------------------------------------------ #

    def _reorder_joins(self, plan: PlanNode) -> PlanNode:
        if isinstance(plan, FilterNode):
            return FilterNode(
                input=self._reorder_joins(plan.input),
                predicate=plan.predicate,
                phase=plan.phase,
            )
        if not isinstance(plan, JoinNode):
            return plan
        if plan.join_type in ("INNER", "CROSS") and not plan.using:
            leaves, conjuncts, region_ok = self._collect_region(plan)
            if region_ok and len(leaves) >= 3:
                leaves = [
                    self._reorder_joins(leaf)
                    if isinstance(leaf, (JoinNode, FilterNode))
                    else leaf
                    for leaf in leaves
                ]
                reordered = self._greedy_order(leaves, conjuncts)
                if reordered is not None:
                    return reordered
        return JoinNode(
            left=self._reorder_joins(plan.left),
            right=self._reorder_joins(plan.right),
            join_type=plan.join_type,
            condition=plan.condition,
            using=list(plan.using),
        )

    def _collect_region(
        self, join: JoinNode
    ) -> tuple[list[PlanNode], list[SqlNode], bool]:
        """Flatten a maximal INNER/CROSS join region into (leaves, conjuncts).

        ``region_ok`` is False when any join carries USING, any conjunct is
        non-total, or any leaf's scope is unknown — reordering is then
        skipped for the whole region.
        """
        leaves: list[PlanNode] = []
        conjuncts: list[SqlNode] = []

        def visit(node: PlanNode) -> None:
            if (
                isinstance(node, JoinNode)
                and node.join_type in ("INNER", "CROSS")
                and not node.using
            ):
                visit(node.left)
                visit(node.right)
                if node.condition is not None:
                    conjuncts.extend(split_conjuncts(node.condition))
                return
            leaves.append(node)

        visit(join)
        scopes = [self._scope_of(leaf) for leaf in leaves]
        if any(scope is None for scope in scopes):
            return leaves, conjuncts, False
        merged: dict[str, BindingInfo] = {}
        for scope in scopes:
            assert scope is not None
            if set(scope) & set(merged):
                return leaves, conjuncts, False
            merged.update(scope)
        for conjunct in conjuncts:
            if not expression_type_and_totality(conjunct, merged)[1]:
                return leaves, conjuncts, False
            if self._conjunct_leafset(conjunct, scopes) is None:
                return leaves, conjuncts, False
        return leaves, conjuncts, True

    @staticmethod
    def _conjunct_leafset(
        conjunct: SqlNode, scopes: list[dict[str, BindingInfo] | None]
    ) -> frozenset[int] | None:
        """Indices of the leaves a conjunct's references resolve to."""
        indices: set[int] = set()
        refs = [node for node in conjunct.walk() if isinstance(node, ColumnRef)]
        if not refs:
            return None
        for ref in refs:
            owner = None
            for index, scope in enumerate(scopes):
                if scope is not None and _ref_resolves(ref, scope):
                    if owner is not None:
                        return None  # ambiguous across leaves
                    owner = index
            if owner is None:
                return None  # outer / unknown reference
            indices.add(owner)
        return frozenset(indices)

    def _greedy_order(
        self, leaves: list[PlanNode], conjuncts: list[SqlNode]
    ) -> PlanNode | None:
        scopes = [self._scope_of(leaf) for leaf in leaves]
        rows = [self._estimate_rows(leaf) for leaf in leaves]
        conjunct_sets: list[frozenset[int]] = []
        for conjunct in conjuncts:
            leafset = self._conjunct_leafset(conjunct, scopes)
            assert leafset is not None  # guaranteed by _collect_region
            conjunct_sets.append(leafset)

        remaining = set(range(len(leaves)))
        order: list[int] = []
        used: set[int] = set()
        placed_conjuncts: list[list[int]] = []

        start = min(remaining, key=lambda index: (rows[index], index))
        order.append(start)
        remaining.discard(start)
        placed_conjuncts.append([])
        current_rows = rows[start]

        while remaining:
            best: tuple[float, int, int, list[int]] | None = None
            for candidate in sorted(remaining):
                chosen = set(order) | {candidate}
                usable = [
                    index
                    for index, leafset in enumerate(conjunct_sets)
                    if index not in used and leafset <= chosen
                ]
                selectivity = 1.0
                connected = 0
                for index in usable:
                    conjunct = conjuncts[index]
                    selectivity *= self._join_conjunct_selectivity(
                        conjunct, scopes, rows, candidate
                    )
                    connected = 1
                estimate = current_rows * rows[candidate] * selectivity
                key = (estimate, -connected, candidate, usable)
                if best is None or key[:3] < best[:3]:
                    best = key
            assert best is not None
            estimate, _, candidate, usable = best
            order.append(candidate)
            remaining.discard(candidate)
            used.update(usable)
            placed_conjuncts.append(usable)
            current_rows = max(estimate, 1.0)

        if order == list(range(len(leaves))):
            return None  # already in the chosen order

        tree: PlanNode = leaves[order[0]]
        for position in range(1, len(order)):
            attached = [conjuncts[index] for index in placed_conjuncts[position]]
            condition = join_conjuncts(attached)
            tree = JoinNode(
                left=tree,
                right=leaves[order[position]],
                join_type="INNER" if condition is not None else "CROSS",
                condition=condition,
            )
        unplaced = [c for i, c in enumerate(conjuncts) if i not in used]
        tree = self._wrap_filter(tree, unplaced)
        self._trace.record(
            "join_reorder",
            "reordered ["
            + ", ".join(self._leaf_label(leaf) for leaf in leaves)
            + "] -> ["
            + ", ".join(self._leaf_label(leaves[index]) for index in order)
            + "]",
        )
        return tree

    @staticmethod
    def _leaf_label(leaf: PlanNode) -> str:
        node = leaf
        while isinstance(node, FilterNode):
            node = node.input
        if isinstance(node, ScanNode):
            return node.binding_name
        if isinstance(node, DerivedScanNode):
            return node.alias
        return type(node).__name__

    # -- statistics-driven estimates ------------------------------------ #

    def _estimate_rows(self, plan: PlanNode) -> float:
        if isinstance(plan, ScanNode):
            if plan.table_name == "<dual>":
                return 1.0
            if plan.table_name.lower() in self._cte_types:
                return _DEFAULT_ROWS
            if self._catalog is not None and self._catalog.has_table(plan.table_name):
                return float(max(self._catalog.table(plan.table_name).row_count, 1))
            return _DEFAULT_ROWS
        if isinstance(plan, IndexScanNode):
            base = _DEFAULT_ROWS
            if self._catalog is not None and self._catalog.has_table(plan.table_name):
                base = float(max(self._catalog.table(plan.table_name).row_count, 1))
            return max(base * plan.estimated_selectivity, 1.0)
        if isinstance(plan, FilterNode):
            base = self._estimate_rows(plan.input)
            scope = self._scope_of(plan.input)
            selectivity = 1.0
            for conjunct in split_conjuncts(plan.predicate):
                selectivity *= self._conjunct_selectivity(conjunct, scope)
            return max(base * selectivity, 1.0)
        if isinstance(plan, DerivedScanNode):
            return self._estimate_rows(plan.input)
        if isinstance(plan, (ProjectNode, SortNode, DistinctNode, CteNode, WindowNode)):
            return self._estimate_rows(plan.input)
        if isinstance(plan, LimitNode):
            base = self._estimate_rows(plan.input)
            return min(base, float(plan.limit)) if plan.limit is not None else base
        if isinstance(plan, AggregateNode):
            return max(self._estimate_rows(plan.input) ** 0.5, 1.0)
        if isinstance(plan, SetOpNode):
            return self._estimate_rows(plan.left) + self._estimate_rows(plan.right)
        if isinstance(plan, JoinNode):
            return max(
                self._estimate_rows(plan.left) * self._estimate_rows(plan.right) * 0.1,
                1.0,
            )
        return _DEFAULT_ROWS

    def _single_column(self, expr: SqlNode) -> ColumnRef | None:
        refs = [node for node in expr.walk() if isinstance(node, ColumnRef)]
        return refs[0] if len(refs) == 1 else None

    def _column_stats(
        self, ref: ColumnRef, scope: dict[str, BindingInfo] | None
    ) -> tuple[int | None, tuple[Any, Any] | None]:
        """(distinct count, value range) for a base-table column, else Nones."""
        if scope is None:
            return None, None
        infos = (
            [scope[ref.table]] if ref.table and ref.table in scope else
            [info for info in scope.values() if ref.name in info.columns]
        )
        if len(infos) != 1 or infos[0].table is None or ref.name not in infos[0].columns:
            return None, None
        table = infos[0].table
        try:
            return table.distinct_count(ref.name), table.value_range(ref.name)
        except Exception:  # noqa: BLE001 - stats are best effort
            return None, None

    def _conjunct_selectivity(
        self, conjunct: SqlNode, scope: dict[str, BindingInfo] | None
    ) -> float:
        result = self._raw_selectivity(conjunct, scope)
        return min(max(result, 1e-4), 1.0)

    def _raw_selectivity(
        self, conjunct: SqlNode, scope: dict[str, BindingInfo] | None
    ) -> float:
        if isinstance(conjunct, BinaryOp):
            op = conjunct.op
            if op == "AND":
                return self._raw_selectivity(conjunct.left, scope) * self._raw_selectivity(
                    conjunct.right, scope
                )
            if op == "OR":
                a = self._raw_selectivity(conjunct.left, scope)
                b = self._raw_selectivity(conjunct.right, scope)
                return 1.0 - (1.0 - a) * (1.0 - b)
            column, literal = self._column_literal(conjunct)
            if op == "=":
                if column is not None:
                    distinct, _ = self._column_stats(column, scope)
                    if distinct:
                        return 1.0 / max(distinct, 1)
                return 0.1
            if op == "<>":
                return 0.9
            if op in ("<", "<=", ">", ">="):
                if column is not None and isinstance(literal, (int, float)):
                    if isinstance(conjunct.left, Literal):
                        # Literal-on-left: "30 > val" means "val < 30".
                        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
                    _, value_range = self._column_stats(column, scope)
                    if (
                        value_range is not None
                        and isinstance(value_range[0], (int, float))
                        and isinstance(value_range[1], (int, float))
                        and value_range[1] > value_range[0]
                    ):
                        low, high = float(value_range[0]), float(value_range[1])
                        fraction = (float(literal) - low) / (high - low)
                        fraction = min(max(fraction, 0.0), 1.0)
                        return fraction if op in ("<", "<=") else 1.0 - fraction
                return 0.33
            if op == "LIKE":
                return 0.25
            return 0.33
        if isinstance(conjunct, BetweenOp):
            return 0.25
        if isinstance(conjunct, InList):
            column = self._single_column(conjunct.expr)
            if column is not None:
                distinct, _ = self._column_stats(column, scope)
                if distinct:
                    return min(len(conjunct.items) / max(distinct, 1), 1.0)
            return 0.3
        if isinstance(conjunct, IsNull):
            return 0.9 if conjunct.negated else 0.1
        if isinstance(conjunct, UnaryOp) and conjunct.op == "NOT":
            return 1.0 - self._raw_selectivity(conjunct.operand, scope)
        return 0.33

    @staticmethod
    def _column_literal(conjunct: BinaryOp) -> tuple[ColumnRef | None, Any]:
        """(column, literal value) of a col-vs-literal comparison, else Nones."""
        if isinstance(conjunct.left, ColumnRef) and isinstance(conjunct.right, Literal):
            return conjunct.left, conjunct.right.value
        if isinstance(conjunct.right, ColumnRef) and isinstance(conjunct.left, Literal):
            return conjunct.right, conjunct.left.value
        return None, None

    def _join_conjunct_selectivity(
        self,
        conjunct: SqlNode,
        scopes: list[dict[str, BindingInfo] | None],
        rows: list[float],
        candidate: int,
    ) -> float:
        """Selectivity of one join conjunct when attaching ``candidate``."""
        if isinstance(conjunct, BinaryOp) and conjunct.op == "=":
            distincts: list[float] = []
            for side in (conjunct.left, conjunct.right):
                column = self._single_column(side)
                distinct = None
                if column is not None:
                    for scope in scopes:
                        count, _ = self._column_stats(column, scope)
                        if count:
                            distinct = count
                            break
                distincts.append(float(distinct) if distinct else max(rows[candidate], 1.0))
            return 1.0 / max(max(distincts), 1.0)
        return 0.5

    # ------------------------------------------------------------------ #
    # Rule: access-path selection (scan vs secondary index)
    # ------------------------------------------------------------------ #

    def choose_access_paths(self, plan: PlanNode) -> PlanNode:
        """Replace ``Filter(Scan)`` pairs with index scans where they win.

        Runs after rewriting (so predicates have been folded, split and
        pushed onto their scans) and before pruning (so a chosen
        ``IndexScanNode`` participates in column narrowing like any scan).
        """
        if self._catalog is None:
            return plan
        shadowed = set(self._outer_cte_names)
        for node in plan.walk():
            if isinstance(node, CteNode):
                for definition in node.definitions:
                    shadowed.add(definition.name.lower())
        return self._select_access(plan, shadowed)

    def _select_access(self, plan: PlanNode, shadowed: set[str]) -> PlanNode:
        if (
            isinstance(plan, FilterNode)
            and plan.phase == "where"
            and isinstance(plan.input, ScanNode)
        ):
            chosen = self._try_index_scan(plan.input, plan.predicate, shadowed)
            if chosen is not None:
                return chosen
            return plan
        if isinstance(plan, FilterNode):
            return FilterNode(
                input=self._select_access(plan.input, shadowed),
                predicate=plan.predicate,
                phase=plan.phase,
            )
        if isinstance(plan, JoinNode):
            return JoinNode(
                left=self._select_access(plan.left, shadowed),
                right=self._select_access(plan.right, shadowed),
                join_type=plan.join_type,
                condition=plan.condition,
                using=list(plan.using),
            )
        if isinstance(plan, DerivedScanNode):
            return DerivedScanNode(
                alias=plan.alias, input=self._select_access(plan.input, shadowed)
            )
        if isinstance(plan, AggregateNode):
            return AggregateNode(
                input=self._select_access(plan.input, shadowed),
                group_by=list(plan.group_by),
                aggregates=list(plan.aggregates),
            )
        if isinstance(plan, ProjectNode):
            return ProjectNode(
                input=self._select_access(plan.input, shadowed), items=list(plan.items)
            )
        if isinstance(plan, WindowNode):
            return WindowNode(
                input=self._select_access(plan.input, shadowed),
                windows=list(plan.windows),
            )
        if isinstance(plan, DistinctNode):
            return DistinctNode(input=self._select_access(plan.input, shadowed))
        if isinstance(plan, SortNode):
            return SortNode(
                input=self._select_access(plan.input, shadowed),
                order_by=list(plan.order_by),
            )
        if isinstance(plan, LimitNode):
            return LimitNode(
                input=self._select_access(plan.input, shadowed),
                limit=plan.limit,
                offset=plan.offset,
            )
        if isinstance(plan, SetOpNode):
            return SetOpNode(
                op=plan.op,
                left=self._select_access(plan.left, shadowed),
                right=self._select_access(plan.right, shadowed),
                all=plan.all,
            )
        if isinstance(plan, CteNode):
            return CteNode(
                definitions=[
                    CteDefinition(
                        name=definition.name,
                        columns=list(definition.columns),
                        plan=self._select_access(definition.plan, shadowed),
                    )
                    for definition in plan.definitions
                ],
                input=self._select_access(plan.input, shadowed),
            )
        return plan

    def _try_index_scan(
        self, scan: ScanNode, predicate: SqlNode, shadowed: set[str]
    ) -> PlanNode | None:
        """The rewritten ``IndexScan`` (+ residual filter) or None to keep."""
        if scan.table_name == "<dual>" or scan.table_name.lower() in shadowed:
            return None
        if not self._catalog.has_table(scan.table_name):
            return None
        table = self._catalog.table(scan.table_name)
        if table.row_count < _INDEX_SCAN_MIN_ROWS:
            return None
        conjuncts = split_conjuncts(predicate)
        scope = {
            scan.binding_name: BindingInfo(
                columns=list(table.column_names), table=table
            )
        }
        best: tuple[float, int, IndexAccessPath] | None = None
        for position, conjunct in enumerate(conjuncts):
            access = self._indexable_access(conjunct, scan, table)
            if access is None:
                continue
            selectivity = self._conjunct_selectivity(conjunct, scope)
            if best is None or selectivity < best[0]:
                best = (selectivity, position, access)
        if best is None:
            return None
        selectivity, position, access = best
        if selectivity > _INDEX_SCAN_MAX_SELECTIVITY:
            self._trace.record(
                "access_path",
                f"kept sequential scan of {scan.table_name}: best indexable "
                f"conjunct {to_sql(conjuncts[position])} too unselective "
                f"(est. {selectivity:.4f})",
            )
            self._trace.record_access(
                decision="seq_scan",
                table=scan.table_name,
                column=access.column,
                kind=access.kind,
                op=access.op,
                chosen=False,
                reason="too unselective",
                estimated_selectivity=selectivity,
            )
            return None
        residual = [c for index, c in enumerate(conjuncts) if index != position]
        index_scan = IndexScanNode(
            table_name=scan.table_name,
            binding_name=scan.binding_name,
            access=access,
            columns=list(scan.columns) if scan.columns is not None else None,
            estimated_selectivity=selectivity,
        )
        detail = (
            f"chose {access.kind} index on {scan.table_name}.{access.column} "
            f"for {to_sql(conjuncts[position])} (est. selectivity {selectivity:.4f})"
        )
        if residual:
            detail += f"; residual filter keeps {len(residual)} conjunct(s)"
        self._trace.record("access_path", detail)
        self._trace.record_access(
            decision="index_scan",
            table=scan.table_name,
            column=access.column,
            kind=access.kind,
            op=access.op,
            chosen=True,
            estimated_selectivity=selectivity,
            residual_conjuncts=len(residual),
        )
        return self._wrap_filter(index_scan, residual)

    def _indexable_access(
        self, conjunct: SqlNode, scan: ScanNode, table
    ) -> IndexAccessPath | None:
        """An index access path serving this conjunct exactly, or None.

        Only plan-time-constant operands qualify (parameters would bake one
        parameter set into a cached plan), and ordered paths additionally
        require the statistics to prove the probe comparable with the
        column, so a chosen path can never raise where the fused predicate
        would not.
        """
        if isinstance(conjunct, BinaryOp) and conjunct.op in ("=", "<", "<=", ">", ">="):
            op = conjunct.op
            if isinstance(conjunct.left, ColumnRef) and isinstance(conjunct.right, Literal):
                ref, literal = conjunct.left, conjunct.right.value
            elif isinstance(conjunct.right, ColumnRef) and isinstance(conjunct.left, Literal):
                ref, literal = conjunct.right, conjunct.left.value
                op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            else:
                return None
            if literal is None or not self._ref_binds_to_scan(ref, scan, table):
                return None
            if op == "=":
                kind = self._usable_kind(table, ref.name, literal, prefer_hash=True)
            else:
                kind = self._usable_kind(table, ref.name, literal, ordered_only=True)
            if kind is None:
                return None
            return IndexAccessPath(column=ref.name, kind=kind, op=op, values=(literal,))
        if isinstance(conjunct, BetweenOp) and not conjunct.negated:
            ref = conjunct.expr
            if (
                not isinstance(ref, ColumnRef)
                or not isinstance(conjunct.low, Literal)
                or not isinstance(conjunct.high, Literal)
            ):
                return None
            low, high = conjunct.low.value, conjunct.high.value
            if low is None or high is None or not self._ref_binds_to_scan(ref, scan, table):
                return None
            if self._usable_kind(table, ref.name, low, ordered_only=True) is None:
                return None
            if self._usable_kind(table, ref.name, high, ordered_only=True) is None:
                return None
            return IndexAccessPath(
                column=ref.name, kind="ordered", op="between", values=(low, high)
            )
        if isinstance(conjunct, InList) and not conjunct.negated:
            ref = conjunct.expr
            if not isinstance(ref, ColumnRef) or not conjunct.items:
                return None
            if not all(isinstance(item, Literal) for item in conjunct.items):
                return None
            members = tuple(item.value for item in conjunct.items)  # type: ignore[union-attr]
            if any(member is None for member in members):
                # A NULL member changes false results to NULL; the fused path
                # handles that three-valued subtlety — leave it there.
                return None
            if not self._ref_binds_to_scan(ref, scan, table):
                return None
            index = table.column_index(ref.name, "hash")
            if index is None or index.poisoned:
                return None
            return IndexAccessPath(column=ref.name, kind="hash", op="in", values=members)
        return None

    @staticmethod
    def _ref_binds_to_scan(ref: ColumnRef, scan: ScanNode, table) -> bool:
        if ref.table is not None and ref.table != scan.binding_name:
            return False
        return table.has_column(ref.name)

    def _usable_kind(
        self,
        table,
        column: str,
        probe: Any,
        prefer_hash: bool = False,
        ordered_only: bool = False,
    ) -> str | None:
        """Which index kind (if any) can serve a probe against this column."""
        if prefer_hash and not ordered_only:
            index = table.column_index(column, "hash")
            if index is not None and not index.poisoned:
                return "hash"
        index = table.column_index(column, "ordered")
        if index is None or index.poisoned:
            return None
        try:
            column_type = table.value_type(column)
        except Exception:  # noqa: BLE001 - stats are best effort
            return None
        if not _comparable(column_type, DataType.of_value(probe)):
            return None
        return "ordered"

    # ------------------------------------------------------------------ #
    # Rule: projection pruning
    # ------------------------------------------------------------------ #

    def prune(self, plan: PlanNode) -> PlanNode:
        demands = _ColumnDemands(cte_names=set(self._outer_cte_names))
        _collect_demands(plan, demands)
        if demands.plain_star:
            return plan
        return self._apply_pruning(plan, demands)

    def _apply_pruning(self, plan: PlanNode, demands: "_ColumnDemands") -> PlanNode:
        if isinstance(plan, ScanNode):
            return self._prune_scan(plan, demands)
        if isinstance(plan, IndexScanNode):
            return self._prune_index_scan(plan, demands)
        if isinstance(plan, DerivedScanNode):
            return DerivedScanNode(
                alias=plan.alias, input=self._apply_pruning(plan.input, demands)
            )
        if isinstance(plan, JoinNode):
            return JoinNode(
                left=self._apply_pruning(plan.left, demands),
                right=self._apply_pruning(plan.right, demands),
                join_type=plan.join_type,
                condition=plan.condition,
                using=list(plan.using),
            )
        if isinstance(plan, FilterNode):
            return FilterNode(
                input=self._apply_pruning(plan.input, demands),
                predicate=plan.predicate,
                phase=plan.phase,
            )
        if isinstance(plan, AggregateNode):
            return AggregateNode(
                input=self._apply_pruning(plan.input, demands),
                group_by=list(plan.group_by),
                aggregates=list(plan.aggregates),
            )
        if isinstance(plan, ProjectNode):
            return ProjectNode(
                input=self._apply_pruning(plan.input, demands), items=list(plan.items)
            )
        if isinstance(plan, WindowNode):
            return WindowNode(
                input=self._apply_pruning(plan.input, demands),
                windows=list(plan.windows),
            )
        if isinstance(plan, DistinctNode):
            return DistinctNode(input=self._apply_pruning(plan.input, demands))
        if isinstance(plan, SortNode):
            return SortNode(
                input=self._apply_pruning(plan.input, demands),
                order_by=list(plan.order_by),
            )
        if isinstance(plan, LimitNode):
            return LimitNode(
                input=self._apply_pruning(plan.input, demands),
                limit=plan.limit,
                offset=plan.offset,
            )
        if isinstance(plan, SetOpNode):
            return SetOpNode(
                op=plan.op,
                left=self._apply_pruning(plan.left, demands),
                right=self._apply_pruning(plan.right, demands),
                all=plan.all,
            )
        if isinstance(plan, CteNode):
            return CteNode(
                definitions=[
                    CteDefinition(
                        name=definition.name,
                        columns=list(definition.columns),
                        plan=self._apply_pruning(definition.plan, demands),
                    )
                    for definition in plan.definitions
                ],
                input=self._apply_pruning(plan.input, demands),
            )
        return plan

    def _prune_scan(self, scan: ScanNode, demands: "_ColumnDemands") -> ScanNode:
        if scan.table_name == "<dual>" or scan.columns is not None:
            return scan
        if scan.table_name.lower() in demands.cte_names:
            return scan
        if self._catalog is None or not self._catalog.has_table(scan.table_name):
            return scan
        if scan.binding_name in demands.star_bindings:
            return scan
        table = self._catalog.table(scan.table_name)
        needed = [
            column
            for column in table.column_names
            if column in demands.names
            or (scan.binding_name, column) in demands.qualified
            or column in demands.using
        ]
        if len(needed) == len(table.column_names):
            return scan
        self._trace.record(
            "projection_pruning",
            f"scan of {scan.table_name} AS {scan.binding_name} narrowed to "
            f"[{', '.join(needed) or '<none>'}]",
        )
        return ScanNode(
            table_name=scan.table_name, binding_name=scan.binding_name, columns=needed
        )

    def _prune_index_scan(
        self, scan: IndexScanNode, demands: "_ColumnDemands"
    ) -> IndexScanNode:
        """Narrow an index scan's output columns like any base-table scan.

        The access column itself need not survive: the probe reads the
        column store directly, not the output batch.
        """
        if scan.columns is not None:
            return scan
        if self._catalog is None or not self._catalog.has_table(scan.table_name):
            return scan
        if scan.binding_name in demands.star_bindings:
            return scan
        table = self._catalog.table(scan.table_name)
        needed = [
            column
            for column in table.column_names
            if column in demands.names
            or (scan.binding_name, column) in demands.qualified
            or column in demands.using
        ]
        if len(needed) == len(table.column_names):
            return scan
        self._trace.record(
            "projection_pruning",
            f"index scan of {scan.table_name} AS {scan.binding_name} narrowed to "
            f"[{', '.join(needed) or '<none>'}]",
        )
        return IndexScanNode(
            table_name=scan.table_name,
            binding_name=scan.binding_name,
            access=scan.access,
            columns=needed,
            estimated_selectivity=scan.estimated_selectivity,
        )


@dataclass
class _ColumnDemands:
    """Every column name the plan could resolve against a scan at run time."""

    qualified: set[tuple[str, str]] = field(default_factory=set)  # (binding, column)
    names: set[str] = field(default_factory=set)  # unqualified references
    star_bindings: set[str] = field(default_factory=set)  # t.* expansions
    using: set[str] = field(default_factory=set)  # USING join columns
    cte_names: set[str] = field(default_factory=set)  # lowercase CTE names
    plain_star: bool = False  # SELECT * anywhere: disable pruning


def _ref_resolves(ref: ColumnRef, scope: dict[str, BindingInfo]) -> bool:
    if ref.table:
        info = scope.get(ref.table)
        return info is not None and ref.name in info.columns
    return any(ref.name in info.columns for info in scope.values())


def _collect_demands(plan: PlanNode, demands: _ColumnDemands) -> None:
    for node in plan.walk():
        if isinstance(node, FilterNode):
            _collect_expr_demands(node.predicate, demands)
        elif isinstance(node, JoinNode):
            if node.condition is not None:
                _collect_expr_demands(node.condition, demands)
            demands.using.update(node.using)
        elif isinstance(node, AggregateNode):
            for expr in list(node.group_by) + list(node.aggregates):
                _collect_expr_demands(expr, demands)
        elif isinstance(node, WindowNode):
            for call in node.windows:
                _collect_expr_demands(call, demands)
        elif isinstance(node, ProjectNode):
            for item in node.items:
                _collect_expr_demands(item.expr, demands)
        elif isinstance(node, SortNode):
            for item in node.order_by:
                _collect_expr_demands(item.expr, demands)
        elif isinstance(node, CteNode):
            for definition in node.definitions:
                demands.cte_names.add(definition.name.lower())


def _collect_expr_demands(expr: SqlNode, demands: _ColumnDemands) -> None:
    if isinstance(expr, FunctionCall) and expr.args and isinstance(expr.args[0], Star):
        # count(*) and friends demand row counts, not columns.
        for arg in expr.args[1:]:
            _collect_expr_demands(arg, demands)
        return
    if isinstance(expr, ColumnRef):
        if expr.table:
            demands.qualified.add((expr.table, expr.name))
        else:
            demands.names.add(expr.name)
        return
    if isinstance(expr, Star):
        if expr.table:
            demands.star_bindings.add(expr.table)
        else:
            demands.plain_star = True
        return
    for child in expr.children():
        _collect_expr_demands(child, demands)
