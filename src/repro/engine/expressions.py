"""Expression evaluation over row environments.

The executor materializes each row as an :class:`Environment` binding table
aliases to column values.  The :class:`ExpressionEvaluator` walks expression
ASTs against an environment, with hooks for

* correlated subqueries (via a parent environment chain),
* aggregate values precomputed by the GROUP BY operator,
* SELECT-list aliases referenced from ORDER BY / HAVING.
"""

from __future__ import annotations

import re
from itertools import compress
from operator import and_, or_
from typing import Any, Callable

from repro.errors import ExecutionError
from repro.engine.functions import call_scalar_function, is_scalar_function
from repro.sql.ast_nodes import (
    BetweenOp,
    BinaryOp,
    Case,
    Cast,
    ColumnRef,
    Exists,
    FunctionCall,
    InList,
    InSubquery,
    IsNull,
    Literal,
    Parameter,
    ScalarSubquery,
    Select,
    SqlNode,
    Star,
    UnaryOp,
)
from repro.sql.printer import to_sql


class Environment:
    """One row's visible bindings during evaluation.

    Attributes:
        bindings: table binding name -> {column name -> value}.
        aliases: SELECT output aliases available to ORDER BY / HAVING.
        parent: enclosing query's environment (for correlated subqueries).
    """

    def __init__(
        self,
        bindings: dict[str, dict[str, Any]] | None = None,
        parent: "Environment | None" = None,
    ) -> None:
        self.bindings: dict[str, dict[str, Any]] = bindings or {}
        self.aliases: dict[str, Any] = {}
        self.parent = parent

    def bind(self, binding_name: str, values: dict[str, Any]) -> None:
        self.bindings[binding_name] = values

    def child(self) -> "Environment":
        """A fresh environment whose unresolved names fall through to this one."""
        return Environment(parent=self)

    def merged_with(self, other: "Environment") -> "Environment":
        """A new environment containing both rows' bindings (used by joins)."""
        merged = Environment(parent=self.parent)
        merged.bindings = {**self.bindings, **other.bindings}
        return merged

    def resolve(self, column: ColumnRef) -> Any:
        """Resolve a column reference to its value.

        Raises ExecutionError when the column is unknown in this environment
        chain or is ambiguous within one level.
        """
        found: list[Any] = []
        for binding_name, values in self.bindings.items():
            if column.table and column.table != binding_name:
                continue
            if column.name in values:
                found.append(values[column.name])
        if len(found) == 1:
            return found[0]
        if len(found) > 1:
            raise ExecutionError(f"Ambiguous column reference {column.qualified_name!r}")
        if not column.table and column.name in self.aliases:
            return self.aliases[column.name]
        if self.parent is not None:
            return self.parent.resolve(column)
        raise ExecutionError(f"Unknown column {column.qualified_name!r}")



def like_to_regex(pattern: str) -> re.Pattern[str]:
    """Convert a SQL LIKE pattern to an anchored regular expression."""
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


def sql_cast(value: Any, target: str) -> Any:
    """Apply a SQL CAST to one value (NULL casts to NULL)."""
    if value is None:
        return None
    try:
        if target in ("int", "integer", "bigint"):
            return int(float(value))
        if target in ("float", "real", "double"):
            return float(value)
        if target in ("text", "varchar", "char", "string"):
            return str(value)
        if target in ("boolean", "bool"):
            return bool(value)
        if target == "date":
            return str(value)[:10]
    except (TypeError, ValueError) as exc:
        raise ExecutionError(f"Cannot cast {value!r} to {target}: {exc}") from exc
    raise ExecutionError(f"Unknown cast target type {target!r}")


def sql_compare(op: str, left: Any, right: Any) -> bool | None:
    """Evaluate a comparison operator with NULL propagation."""
    if left is None or right is None:
        return None
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"Unknown comparison operator {op!r}")


class ExpressionEvaluator:
    """Evaluates expression ASTs against an :class:`Environment`.

    Args:
        subquery_executor: callback ``(select, env) -> QueryResult`` used to run
            nested subqueries with the current environment as correlation
            context.  May be None for expression contexts that cannot contain
            subqueries (the evaluator then raises on encountering one).
        aggregate_values: precomputed aggregate results for the current group,
            keyed by the canonical SQL text of the aggregate call.
        parameters: values for named/positional query parameters.
    """

    def __init__(
        self,
        subquery_executor: Callable[[Select, Environment], Any] | None = None,
        aggregate_values: dict[str, Any] | None = None,
        parameters: dict[str, Any] | None = None,
    ) -> None:
        self._subquery_executor = subquery_executor
        self._aggregate_values = aggregate_values or {}
        self._parameters = parameters or {}

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def evaluate(self, node: SqlNode, env: Environment) -> Any:
        if self._aggregate_values:
            key = to_sql(node)
            if key in self._aggregate_values:
                return self._aggregate_values[key]

        if isinstance(node, Literal):
            return node.value
        if isinstance(node, ColumnRef):
            return env.resolve(node)
        if isinstance(node, Parameter):
            if node.name not in self._parameters:
                raise ExecutionError(f"Missing value for parameter :{node.name}")
            return self._parameters[node.name]
        if isinstance(node, Star):
            raise ExecutionError("'*' is only valid inside count(*) or a SELECT list")
        if isinstance(node, UnaryOp):
            return self._evaluate_unary(node, env)
        if isinstance(node, BinaryOp):
            return self._evaluate_binary(node, env)
        if isinstance(node, BetweenOp):
            return self._evaluate_between(node, env)
        if isinstance(node, InList):
            return self._evaluate_in_list(node, env)
        if isinstance(node, InSubquery):
            return self._evaluate_in_subquery(node, env)
        if isinstance(node, Exists):
            return self._evaluate_exists(node, env)
        if isinstance(node, ScalarSubquery):
            return self._evaluate_scalar_subquery(node, env)
        if isinstance(node, IsNull):
            value = self.evaluate(node.expr, env)
            return (value is not None) if node.negated else (value is None)
        if isinstance(node, FunctionCall):
            return self._evaluate_function(node, env)
        if isinstance(node, Cast):
            return self._evaluate_cast(node, env)
        if isinstance(node, Case):
            return self._evaluate_case(node, env)
        raise ExecutionError(f"Cannot evaluate expression node {type(node).__name__}")

    def is_truthy(self, node: SqlNode, env: Environment) -> bool:
        """Evaluate a predicate: NULL counts as false (SQL three-valued logic)."""
        value = self.evaluate(node, env)
        return bool(value) if value is not None else False

    # ------------------------------------------------------------------ #
    # Operators
    # ------------------------------------------------------------------ #

    def _evaluate_unary(self, node: UnaryOp, env: Environment) -> Any:
        value = self.evaluate(node.operand, env)
        if node.op == "NOT":
            if value is None:
                return None
            return not bool(value)
        if value is None:
            return None
        if node.op == "-":
            return -value
        if node.op == "+":
            return +value
        raise ExecutionError(f"Unknown unary operator {node.op!r}")

    def _evaluate_binary(self, node: BinaryOp, env: Environment) -> Any:
        op = node.op
        if op == "AND":
            left = self.evaluate(node.left, env)
            if left is not None and not left:
                return False
            right = self.evaluate(node.right, env)
            if right is not None and not right:
                return False
            if left is None or right is None:
                return None
            return True
        if op == "OR":
            left = self.evaluate(node.left, env)
            if left is not None and left:
                return True
            right = self.evaluate(node.right, env)
            if right is not None and right:
                return True
            if left is None or right is None:
                return None
            return False

        left = self.evaluate(node.left, env)
        right = self.evaluate(node.right, env)
        if op in ("=", "<>", "<", "<=", ">", ">="):
            return sql_compare(op, left, right)
        if op == "LIKE":
            if left is None or right is None:
                return None
            return bool(like_to_regex(str(right)).match(str(left)))
        if op == "||":
            if left is None or right is None:
                return None
            return str(left) + str(right)
        if left is None or right is None:
            return None
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            if op == "/":
                if right == 0:
                    return None
                if isinstance(left, int) and isinstance(right, int):
                    return left / right
                return left / right
            if op == "%":
                if right == 0:
                    return None
                return left % right
        except TypeError as exc:
            raise ExecutionError(
                f"Type error evaluating {left!r} {op} {right!r}: {exc}"
            ) from exc
        raise ExecutionError(f"Unknown binary operator {op!r}")

    def _evaluate_between(self, node: BetweenOp, env: Environment) -> Any:
        value = self.evaluate(node.expr, env)
        low = self.evaluate(node.low, env)
        high = self.evaluate(node.high, env)
        if value is None or low is None or high is None:
            return None
        result = low <= value <= high
        return not result if node.negated else result

    def _evaluate_in_list(self, node: InList, env: Environment) -> Any:
        value = self.evaluate(node.expr, env)
        if value is None:
            return None
        items = [self.evaluate(item, env) for item in node.items]
        found = any(item is not None and item == value for item in items)
        if not found and any(item is None for item in items):
            return None
        return not found if node.negated else found

    def _run_subquery(self, query: Select, env: Environment) -> Any:
        if self._subquery_executor is None:
            raise ExecutionError("Subqueries are not allowed in this context")
        return self._subquery_executor(query, env)

    def _evaluate_in_subquery(self, node: InSubquery, env: Environment) -> Any:
        value = self.evaluate(node.expr, env)
        if value is None:
            return None
        result = self._run_subquery(node.query, env)
        values = [row[0] for row in result.rows]
        found = any(item is not None and item == value for item in values)
        if not found and any(item is None for item in values):
            return None
        return not found if node.negated else found

    def _evaluate_exists(self, node: Exists, env: Environment) -> Any:
        result = self._run_subquery(node.query, env)
        found = result.row_count > 0
        return not found if node.negated else found

    def _evaluate_scalar_subquery(self, node: ScalarSubquery, env: Environment) -> Any:
        result = self._run_subquery(node.query, env)
        if result.row_count == 0:
            return None
        if len(result.columns) != 1:
            raise ExecutionError("Scalar subquery must return exactly one column")
        if result.row_count > 1:
            raise ExecutionError("Scalar subquery returned more than one row")
        return result.rows[0][0]

    def _evaluate_function(self, node: FunctionCall, env: Environment) -> Any:
        name = node.lower_name
        if is_scalar_function(name):
            args = [self.evaluate(arg, env) for arg in node.args]
            return call_scalar_function(name, args)
        # Aggregates must have been precomputed by the GROUP BY operator.
        key = to_sql(node)
        if key in self._aggregate_values:
            return self._aggregate_values[key]
        raise ExecutionError(
            f"Aggregate or unknown function {node.name!r} used outside of an "
            f"aggregation context"
        )

    def _evaluate_cast(self, node: Cast, env: Environment) -> Any:
        value = self.evaluate(node.expr, env)
        return sql_cast(value, node.target_type)

    def _evaluate_case(self, node: Case, env: Environment) -> Any:
        for arm in node.whens:
            if self.is_truthy(arm.condition, env):
                return self.evaluate(arm.result, env)
        if node.else_result is not None:
            return self.evaluate(node.else_result, env)
        return None


# --------------------------------------------------------------------------- #
# Vectorized evaluation over columnar batches
# --------------------------------------------------------------------------- #


class Batch:
    """A columnar batch of rows flowing between physical plan operators.

    Attributes:
        slots: ordered ``(binding, column)`` pairs, one per value column.
        columns: value lists parallel to ``slots``; all of length ``length``.
        length: number of rows in the batch.
        aliases: SELECT output aliases exposed to later items / ORDER BY,
            as ``alias -> value column``.
        aggregates: per-group aggregate results produced by the aggregation
            operator, keyed by the canonical SQL of the aggregate call.
    """

    __slots__ = ("slots", "columns", "length", "aliases", "aggregates")

    def __init__(
        self,
        slots: list[tuple[str, str]],
        columns: list[list[Any]],
        length: int,
        aliases: dict[str, list[Any]] | None = None,
        aggregates: dict[str, list[Any]] | None = None,
    ) -> None:
        self.slots = slots
        self.columns = columns
        self.length = length
        self.aliases = aliases or {}
        self.aggregates = aggregates or {}

    @classmethod
    def from_table(cls, table: "Table", binding: str) -> "Batch":
        """Zero-copy scan batch over a table's column lists (read-only)."""
        slots = [(binding, name) for name in table.column_names]
        columns = [table.column_data(name) for name in table.column_names]
        return cls(slots=slots, columns=columns, length=table.row_count)

    def take(self, indices: list[int]) -> "Batch":
        """Gather the given row positions into a new batch."""
        return Batch(
            slots=self.slots,
            columns=[[column[i] for i in indices] for column in self.columns],
            length=len(indices),
            aliases={name: [column[i] for i in indices] for name, column in self.aliases.items()},
            aggregates={
                key: [column[i] for i in indices] for key, column in self.aggregates.items()
            },
        )

    def filter(self, keep: list[bool], count: int) -> "Batch":
        """Apply a boolean selection mask (``count`` = number of True entries).

        Equivalent to ``take`` on the mask's index positions but gathers with
        ``itertools.compress``, which walks each column once at C speed.
        """
        return Batch(
            slots=self.slots,
            columns=[list(compress(column, keep)) for column in self.columns],
            length=count,
            aliases={
                name: list(compress(column, keep)) for name, column in self.aliases.items()
            },
            aggregates={
                key: list(compress(column, keep)) for key, column in self.aggregates.items()
            },
        )

    def slice(self, start: int, stop: int | None) -> "Batch":
        """Row range [start, stop) as a new batch (used by LIMIT/OFFSET)."""
        columns = [column[start:stop] for column in self.columns]
        length = len(columns[0]) if columns else max(
            0, (self.length if stop is None else min(stop, self.length)) - start
        )
        return Batch(
            slots=self.slots,
            columns=columns,
            length=length,
            aliases={name: column[start:stop] for name, column in self.aliases.items()},
            aggregates={key: column[start:stop] for key, column in self.aggregates.items()},
        )

    def slot_indices(self, ref: ColumnRef) -> list[int]:
        """Positions of the slots a column reference could resolve to."""
        return [
            index
            for index, (binding, column) in enumerate(self.slots)
            if column == ref.name and (not ref.table or ref.table == binding)
        ]

    def rows(self) -> list[tuple[Any, ...]]:
        """Materialize the batch's value columns as row tuples."""
        if not self.columns:
            return [() for _ in range(self.length)]
        return list(zip(*self.columns))


class BatchRowView(Environment):
    """One batch row exposed through the row-wise :class:`Environment` API.

    Used as the correlation context for subqueries executed per outer row, and
    as the fallback environment when a vectorized expression needs row-at-a-
    time evaluation (short-circuit semantics).
    """

    def __init__(self, batch: Batch, index: int, parent: Environment | None = None) -> None:
        super().__init__(parent=parent)
        self._batch = batch
        self._index = index

    def resolve(self, column: ColumnRef) -> Any:
        matches = self._batch.slot_indices(column)
        if len(matches) == 1:
            return self._batch.columns[matches[0]][self._index]
        if len(matches) > 1:
            raise ExecutionError(f"Ambiguous column reference {column.qualified_name!r}")
        if not column.table and column.name in self._batch.aliases:
            return self._batch.aliases[column.name][self._index]
        if not column.table and column.name in self.aliases:
            return self.aliases[column.name]
        if self.parent is not None:
            return self.parent.resolve(column)
        raise ExecutionError(f"Unknown column {column.qualified_name!r}")

    def aggregate_values(self) -> dict[str, Any]:
        """This row's precomputed aggregate values (for row-wise fallback)."""
        return {key: column[self._index] for key, column in self._batch.aggregates.items()}


class CorrelationProbe(Environment):
    """Environment proxy recording whether an outer column was ever resolved.

    The physical executor wraps the outer row context in a probe while running
    a subquery; if the probe is never consulted the subquery result is safe to
    memoize across outer rows.
    """

    def __init__(self, inner: Environment | None) -> None:
        super().__init__(parent=inner)
        self.correlated = False

    def resolve(self, column: ColumnRef) -> Any:
        self.correlated = True
        if self.parent is None:
            raise ExecutionError(f"Unknown column {column.qualified_name!r}")
        return self.parent.resolve(column)


class VectorEvaluator:
    """Evaluates expression ASTs column-at-a-time over a :class:`Batch`.

    The evaluator mirrors :class:`ExpressionEvaluator`'s SQL semantics exactly
    (three-valued logic, NULL propagation, LIKE, CASE).  Expressions whose
    semantics require per-row short-circuiting (AND/OR right operands or CASE
    arms that raise when evaluated eagerly) fall back to row-wise evaluation,
    so vectorization is never observable in results or errors.

    Args:
        context: execution context providing ``outer`` (the enclosing query's
            row environment for correlated references), ``parameters`` and
            ``run_subquery(select, row_env)``.  ``None`` means subqueries and
            outer references are unavailable (both then raise).
    """

    def __init__(self, context: "ExecutionContextProtocol | None" = None) -> None:
        self._context = context
        self._like_memo: dict[str, re.Pattern[str]] = {}

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #

    def eval(self, node: SqlNode, batch: Batch) -> list[Any]:
        """Evaluate ``node`` for every row of ``batch``."""
        if batch.aggregates:
            key = to_sql(node)
            if key in batch.aggregates:
                return batch.aggregates[key]

        if isinstance(node, Literal):
            return [node.value] * batch.length
        if isinstance(node, ColumnRef):
            return self._resolve_column(node, batch)
        if isinstance(node, Parameter):
            parameters = self._context.parameters if self._context is not None else {}
            if node.name not in parameters:
                raise ExecutionError(f"Missing value for parameter :{node.name}")
            return [parameters[node.name]] * batch.length
        if isinstance(node, Star):
            raise ExecutionError("'*' is only valid inside count(*) or a SELECT list")
        if isinstance(node, UnaryOp):
            return self._eval_unary(node, batch)
        if isinstance(node, BinaryOp):
            return self._eval_binary(node, batch)
        if isinstance(node, BetweenOp):
            return self._eval_between(node, batch)
        if isinstance(node, InList):
            return self._eval_in_list(node, batch)
        if isinstance(node, InSubquery):
            return self._eval_in_subquery(node, batch)
        if isinstance(node, Exists):
            return self._eval_exists(node, batch)
        if isinstance(node, ScalarSubquery):
            return self._eval_scalar_subquery(node, batch)
        if isinstance(node, IsNull):
            values = self.eval(node.expr, batch)
            if node.negated:
                return [value is not None for value in values]
            return [value is None for value in values]
        if isinstance(node, FunctionCall):
            return self._eval_function(node, batch)
        if isinstance(node, Cast):
            values = self.eval(node.expr, batch)
            return [sql_cast(value, node.target_type) for value in values]
        if isinstance(node, Case):
            return self._eval_case(node, batch)
        raise ExecutionError(f"Cannot evaluate expression node {type(node).__name__}")

    def eval_predicate(self, node: SqlNode, batch: Batch) -> list[bool]:
        """Evaluate a predicate per row; NULL counts as false.

        The common scan-filter shapes — comparisons and BETWEEN with literal
        bounds, LIKE with a literal pattern, IN over literal lists, IS NULL,
        and AND/OR compositions of those — are fused into a single selection
        pass producing booleans directly, instead of materializing the
        intermediate three-valued column that a generic ``eval()`` plus a
        booleanize pass would.  Fusion is skipped for aggregate batches
        (HAVING), where aggregate substitution must stay on the generic path.
        """
        if not batch.aggregates:
            fused = self._fused_predicate(node, batch)
            if fused is not None:
                return fused
        values = self.eval(node, batch)
        return [bool(value) if value is not None else False for value in values]

    def _fused_predicate(self, node: SqlNode, batch: Batch) -> list[bool] | None:
        """Selection vector for a fusable predicate, or None to fall back.

        Each fused form computes ``value IS TRUE`` per row under SQL
        three-valued logic: a NULL operand can never satisfy a fused
        comparison, so ``a is not None and a < c`` is exactly the
        NULL-propagating comparison collapsed with the NULL-counts-as-false
        rule.  Exceptions mirror the generic path: a raising left conjunct
        propagates, a raising right conjunct falls back to exact row-wise
        evaluation (short-circuit semantics).
        """
        if isinstance(node, BinaryOp):
            op = node.op
            if op in ("AND", "OR"):
                left = self._fused_predicate(node.left, batch)
                if left is None:
                    return None
                try:
                    right = self._fused_predicate(node.right, batch)
                except (ExecutionError, TypeError):
                    values = self._eval_rowwise(node, batch)
                    return [bool(value) if value is not None else False for value in values]
                if right is None:
                    return None
                # Fused sub-predicates are guaranteed bool vectors, so the
                # bitwise operators compute the logical merge at C speed.
                if op == "AND":
                    return list(map(and_, left, right))
                return list(map(or_, left, right))
            if op in ("=", "<>", "<", "<=", ">", ">="):
                return self._fused_comparison(node, batch)
            if op == "LIKE" and isinstance(node.right, Literal):
                pattern = node.right.value
                if pattern is None:
                    return [False] * batch.length
                compiled = self._like_pattern(str(pattern))
                values = self.eval(node.left, batch)
                return [
                    value is not None and compiled.match(str(value)) is not None
                    for value in values
                ]
            return None
        if isinstance(node, BetweenOp):
            return self._fused_between(node, batch)
        if isinstance(node, IsNull):
            values = self.eval(node.expr, batch)
            if node.negated:
                return [value is not None for value in values]
            return [value is None for value in values]
        if isinstance(node, InList):
            return self._fused_in_list(node, batch)
        return None

    def _fused_comparison(self, node: BinaryOp, batch: Batch) -> list[bool] | None:
        op = node.op
        if isinstance(node.right, Literal):
            constant = node.right.value
            if constant is None:
                return [False] * batch.length
            values = self.eval(node.left, batch)
        elif isinstance(node.left, Literal):
            constant = node.left.value
            if constant is None:
                return [False] * batch.length
            values = self.eval(node.right, batch)
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
        else:
            left = self.eval(node.left, batch)
            right = self.eval(node.right, batch)
            pairs = zip(left, right)
            if op == "=":
                return [a is not None and b is not None and a == b for a, b in pairs]
            if op == "<>":
                return [a is not None and b is not None and a != b for a, b in pairs]
            if op == "<":
                return [a is not None and b is not None and a < b for a, b in pairs]
            if op == "<=":
                return [a is not None and b is not None and a <= b for a, b in pairs]
            if op == ">":
                return [a is not None and b is not None and a > b for a, b in pairs]
            return [a is not None and b is not None and a >= b for a, b in pairs]
        constant_value = constant
        if None not in values:
            # Null-free column (the common case for base-table scans): drop
            # the per-row NULL test entirely.  ``in`` does an identity-first
            # C-speed sweep, so the precheck costs one pass, not a listcomp.
            if op == "=":
                return [value == constant_value for value in values]
            if op == "<>":
                return [value != constant_value for value in values]
            if op == "<":
                return [value < constant_value for value in values]
            if op == "<=":
                return [value <= constant_value for value in values]
            if op == ">":
                return [value > constant_value for value in values]
            return [value >= constant_value for value in values]
        if op == "=":
            return [value is not None and value == constant_value for value in values]
        if op == "<>":
            return [value is not None and value != constant_value for value in values]
        if op == "<":
            return [value is not None and value < constant_value for value in values]
        if op == "<=":
            return [value is not None and value <= constant_value for value in values]
        if op == ">":
            return [value is not None and value > constant_value for value in values]
        return [value is not None and value >= constant_value for value in values]

    def _fused_between(self, node: BetweenOp, batch: Batch) -> list[bool] | None:
        if isinstance(node.low, Literal) and isinstance(node.high, Literal):
            low, high = node.low.value, node.high.value
            if low is None or high is None:
                return [False] * batch.length
            values = self.eval(node.expr, batch)
            if None not in values:
                if node.negated:
                    return [not low <= value <= high for value in values]
                return [low <= value <= high for value in values]
            if node.negated:
                return [
                    value is not None and not (low <= value <= high) for value in values
                ]
            return [value is not None and low <= value <= high for value in values]
        values = self.eval(node.expr, batch)
        lows = self.eval(node.low, batch)
        highs = self.eval(node.high, batch)
        out: list[bool] = []
        for value, low, high in zip(values, lows, highs):
            if value is None or low is None or high is None:
                out.append(False)
            else:
                inside = low <= value <= high
                out.append(not inside if node.negated else inside)
        return out

    def _fused_in_list(self, node: InList, batch: Batch) -> list[bool] | None:
        if not all(isinstance(item, Literal) for item in node.items):
            return None
        items = [item.value for item in node.items]
        has_null_item = any(item is None for item in items)
        if node.negated and has_null_item:
            # value NOT IN (..., NULL, ...) is never true: either the value
            # matches (false) or the NULL comparison makes the result NULL.
            return [False] * batch.length
        try:
            members = {item for item in items if item is not None}
        except TypeError:
            return None
        values = self.eval(node.expr, batch)
        try:
            if node.negated:
                return [value is not None and value not in members for value in values]
            return [value is not None and value in members for value in values]
        except TypeError:
            # An unhashable probe value: the generic equality loop handles it.
            return None

    # ------------------------------------------------------------------ #
    # Column resolution
    # ------------------------------------------------------------------ #

    def _resolve_column(self, ref: ColumnRef, batch: Batch) -> list[Any]:
        matches = batch.slot_indices(ref)
        if len(matches) == 1:
            return batch.columns[matches[0]]
        if len(matches) > 1:
            raise ExecutionError(f"Ambiguous column reference {ref.qualified_name!r}")
        if not ref.table and ref.name in batch.aliases:
            return batch.aliases[ref.name]
        outer = self._context.outer if self._context is not None else None
        if outer is not None:
            value = outer.resolve(ref)
            return [value] * batch.length
        raise ExecutionError(f"Unknown column {ref.qualified_name!r}")

    # ------------------------------------------------------------------ #
    # Operators
    # ------------------------------------------------------------------ #

    def _eval_unary(self, node: UnaryOp, batch: Batch) -> list[Any]:
        values = self.eval(node.operand, batch)
        if node.op == "NOT":
            return [None if value is None else not bool(value) for value in values]
        if node.op == "-":
            return [None if value is None else -value for value in values]
        if node.op == "+":
            return [None if value is None else +value for value in values]
        raise ExecutionError(f"Unknown unary operator {node.op!r}")

    def _eval_binary(self, node: BinaryOp, batch: Batch) -> list[Any]:
        op = node.op
        if op in ("AND", "OR"):
            return self._eval_logical(node, batch)

        left = self.eval(node.left, batch)
        right = self.eval(node.right, batch)
        pairs = zip(left, right)
        if op == "=":
            return [None if a is None or b is None else a == b for a, b in pairs]
        if op == "<>":
            return [None if a is None or b is None else a != b for a, b in pairs]
        if op == "<":
            return [None if a is None or b is None else a < b for a, b in pairs]
        if op == "<=":
            return [None if a is None or b is None else a <= b for a, b in pairs]
        if op == ">":
            return [None if a is None or b is None else a > b for a, b in pairs]
        if op == ">=":
            return [None if a is None or b is None else a >= b for a, b in pairs]
        if op == "LIKE":
            return [
                None
                if a is None or b is None
                else bool(self._like_pattern(str(b)).match(str(a)))
                for a, b in pairs
            ]
        if op == "||":
            return [None if a is None or b is None else str(a) + str(b) for a, b in pairs]
        if op in ("+", "-", "*", "/", "%"):
            return self._eval_arithmetic(op, left, right)
        raise ExecutionError(f"Unknown binary operator {op!r}")

    def _like_pattern(self, pattern: str) -> re.Pattern[str]:
        compiled = self._like_memo.get(pattern)
        if compiled is None:
            compiled = like_to_regex(pattern)
            self._like_memo[pattern] = compiled
        return compiled

    @staticmethod
    def _eval_arithmetic(op: str, left: list[Any], right: list[Any]) -> list[Any]:
        out: list[Any] = []
        append = out.append
        for a, b in zip(left, right):
            if a is None or b is None:
                append(None)
                continue
            try:
                if op == "+":
                    append(a + b)
                elif op == "-":
                    append(a - b)
                elif op == "*":
                    append(a * b)
                elif op == "/":
                    append(None if b == 0 else a / b)
                else:  # "%"
                    append(None if b == 0 else a % b)
            except TypeError as exc:
                raise ExecutionError(
                    f"Type error evaluating {a!r} {op} {b!r}: {exc}"
                ) from exc
        return out

    def _eval_logical(self, node: BinaryOp, batch: Batch) -> list[Any]:
        left = self.eval(node.left, batch)
        try:
            right = self.eval(node.right, batch)
        except (ExecutionError, TypeError):
            # The right operand raised when evaluated for every row (raw
            # TypeError covers comparisons over mixed types); the rows that
            # error may be short-circuited away row-wise, so retry with exact
            # per-row semantics.
            return self._eval_rowwise(node, batch)
        out: list[Any] = []
        if node.op == "AND":
            for a, b in zip(left, right):
                if (a is not None and not a) or (b is not None and not b):
                    out.append(False)
                elif a is None or b is None:
                    out.append(None)
                else:
                    out.append(True)
        else:  # OR
            for a, b in zip(left, right):
                if (a is not None and a) or (b is not None and b):
                    out.append(True)
                elif a is None or b is None:
                    out.append(None)
                else:
                    out.append(False)
        return out

    def _eval_between(self, node: BetweenOp, batch: Batch) -> list[Any]:
        values = self.eval(node.expr, batch)
        lows = self.eval(node.low, batch)
        highs = self.eval(node.high, batch)
        out: list[Any] = []
        for value, low, high in zip(values, lows, highs):
            if value is None or low is None or high is None:
                out.append(None)
            else:
                result = low <= value <= high
                out.append(not result if node.negated else result)
        return out

    def _eval_in_list(self, node: InList, batch: Batch) -> list[Any]:
        values = self.eval(node.expr, batch)
        item_columns = [self.eval(item, batch) for item in node.items]
        out: list[Any] = []
        for index, value in enumerate(values):
            if value is None:
                out.append(None)
                continue
            items = [column[index] for column in item_columns]
            found = any(item is not None and item == value for item in items)
            if not found and any(item is None for item in items):
                out.append(None)
            else:
                out.append(not found if node.negated else found)
        return out

    # ------------------------------------------------------------------ #
    # Subqueries (executed per row through the execution context)
    # ------------------------------------------------------------------ #

    def _subquery_runner(self, query: Select, batch: Batch) -> Callable[[int], Any]:
        """``index -> result`` of ``query`` for the rows of ``batch``.

        The executor caches an uncorrelated subquery's result on the context
        (``Executor.run_subquery``); once a row's call returned a cached
        result, the later rows reuse it without building a row view or
        entering the executor.  A correlated subquery runs, and checks its
        deadline, per row.
        """
        context = self._context
        shared = None

        def result_for(index: int) -> Any:
            nonlocal shared
            if shared is not None:
                return shared
            if context is None:
                raise ExecutionError("Subqueries are not allowed in this context")
            result = context.run_subquery(query, BatchRowView(batch, index, parent=context.outer))
            if context.is_cached(result):
                shared = result
            return result

        return result_for

    def _eval_in_subquery(self, node: InSubquery, batch: Batch) -> list[Any]:
        values = self.eval(node.expr, batch)
        out: list[Any] = []
        run = self._subquery_runner(node.query, batch)
        # An uncorrelated subquery returns one PlanResult for every outer
        # row; keep the member extraction (and the hash set, when the members
        # allow one) keyed to that identity instead of rebuilding them per
        # row.
        last_result: Any = None
        members: list[Any] = []
        member_set: set[Any] | None = None
        has_null_member = False
        for index, value in enumerate(values):
            if value is None:
                out.append(None)
                continue
            result = run(index)
            if result is not last_result:
                last_result = result
                members = [row[0] for row in result.rows]
                has_null_member = any(item is None for item in members)
                try:
                    member_set = {item for item in members if item is not None}
                except TypeError:
                    member_set = None
            if member_set is not None:
                try:
                    found = value in member_set
                except TypeError:
                    found = any(item is not None and item == value for item in members)
            else:
                found = any(item is not None and item == value for item in members)
            if not found and has_null_member:
                out.append(None)
            else:
                out.append(not found if node.negated else found)
        return out

    def _eval_exists(self, node: Exists, batch: Batch) -> list[Any]:
        out: list[Any] = []
        run = self._subquery_runner(node.query, batch)
        for index in range(batch.length):
            result = run(index)
            found = result.row_count > 0
            out.append(not found if node.negated else found)
        return out

    def _eval_scalar_subquery(self, node: ScalarSubquery, batch: Batch) -> list[Any]:
        out: list[Any] = []
        run = self._subquery_runner(node.query, batch)
        for index in range(batch.length):
            result = run(index)
            if result.row_count == 0:
                out.append(None)
                continue
            if len(result.columns) != 1:
                raise ExecutionError("Scalar subquery must return exactly one column")
            if result.row_count > 1:
                raise ExecutionError("Scalar subquery returned more than one row")
            out.append(result.rows[0][0])
        return out

    # ------------------------------------------------------------------ #
    # Functions, CASE and the row-wise fallback
    # ------------------------------------------------------------------ #

    def _eval_function(self, node: FunctionCall, batch: Batch) -> list[Any]:
        name = node.lower_name
        if is_scalar_function(name):
            arg_columns = [self.eval(arg, batch) for arg in node.args]
            return [
                call_scalar_function(name, [column[index] for column in arg_columns])
                for index in range(batch.length)
            ]
        raise ExecutionError(
            f"Aggregate or unknown function {node.name!r} used outside of an "
            f"aggregation context"
        )

    def _eval_case(self, node: Case, batch: Batch) -> list[Any]:
        try:
            condition_columns = [
                self.eval_predicate(arm.condition, batch) for arm in node.whens
            ]
            result_columns = [self.eval(arm.result, batch) for arm in node.whens]
            else_column = (
                self.eval(node.else_result, batch)
                if node.else_result is not None
                else [None] * batch.length
            )
        except (ExecutionError, TypeError):
            # An arm raised when evaluated for every row; the rows that error
            # may never reach that arm row-wise, so retry with exact per-row
            # (first-matching-arm) semantics.
            return self._eval_rowwise(node, batch)
        out: list[Any] = []
        for index in range(batch.length):
            for conditions, results in zip(condition_columns, result_columns):
                if conditions[index]:
                    out.append(results[index])
                    break
            else:
                out.append(else_column[index])
        return out

    def _eval_rowwise(self, node: SqlNode, batch: Batch) -> list[Any]:
        """Exact per-row evaluation via the row-wise evaluator (fallback)."""
        outer = self._context.outer if self._context is not None else None
        subquery_executor = None
        if self._context is not None:
            subquery_executor = self._context.run_subquery
        out: list[Any] = []
        for index in range(batch.length):
            row_env = BatchRowView(batch, index, parent=outer)
            evaluator = ExpressionEvaluator(
                subquery_executor=subquery_executor,
                aggregate_values=row_env.aggregate_values(),
                parameters=self._context.parameters if self._context is not None else {},
            )
            out.append(evaluator.evaluate(node, row_env))
        return out


class ExecutionContextProtocol:
    """Structural interface the executor provides to :class:`VectorEvaluator`.

    Attributes:
        outer: the enclosing query's row environment (correlation context).
        parameters: named query parameter values.
    """

    outer: Environment | None
    parameters: dict[str, Any]

    def run_subquery(self, query: Select, row_env: Environment) -> Any:  # pragma: no cover
        raise NotImplementedError
