"""AST node classes for the SQL dialect used throughout the reproduction.

The node model deliberately exposes a *uniform tree protocol* — every node
reports its children via :meth:`SqlNode.child_slots` and can be rebuilt from
replacement children via :meth:`SqlNode.with_children` — because the Difftree
layer (``repro.difftree``) treats query ASTs as generic ordered labelled trees
that it merges, diffs and transforms.

Node equality is structural (dataclass equality), which the Difftree merge
algorithm relies on to detect identical subtrees across queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Iterator, Sequence


#: Dataclass field names per node class (fields() re-derives them per call,
#: which shows up hot in tree-heavy paths like Difftree instantiation).
_FIELD_NAMES_CACHE: dict[type, tuple[str, ...]] = {}


class SqlNode:
    """Base class for all SQL AST nodes.

    The tree protocol used by the Difftree layer:

    * :meth:`child_slots` yields ``(slot_name, value)`` pairs where ``value``
      is either a :class:`SqlNode`, a list of nodes, or a plain value
      (identifier string, literal, keyword).
    * :meth:`children` returns only node-valued children in order, as a tuple
      memoized on the node: nodes are frozen and no code mutates a node's
      list fields in place, so the memo can never go stale.  Like the other
      node memos it is not a dataclass field, so equality and hashing ignore
      it, and ``with_children`` / ``dataclasses.replace`` build fresh nodes
      without it.
    * :meth:`with_children` rebuilds the node with a replacement child list in
      the same order that :meth:`children` produced them.
    * :meth:`label` is the structural label used when two nodes are compared
      for "same kind of node" (it includes non-node scalar attributes such as
      operator symbols and identifier names, but not children).
    """

    def child_slots(self) -> Iterator[tuple[str, Any]]:
        names = _FIELD_NAMES_CACHE.get(type(self))
        if names is None:
            names = tuple(f.name for f in fields(self))  # type: ignore[arg-type]
            _FIELD_NAMES_CACHE[type(self)] = names
        for name in names:
            yield name, getattr(self, name)

    def children(self) -> tuple["SqlNode", ...]:
        try:
            return self._repro_children  # type: ignore[attr-defined]
        except AttributeError:
            pass
        result: list[SqlNode] = []
        for _, value in self.child_slots():
            if isinstance(value, SqlNode):
                result.append(value)
            elif isinstance(value, (list, tuple)):
                result.extend(v for v in value if isinstance(v, SqlNode))
        children = tuple(result)
        object.__setattr__(self, "_repro_children", children)
        return children

    def scalar_slots(self) -> dict[str, Any]:
        """Return the non-node attributes that participate in the node label."""
        scalars: dict[str, Any] = {}
        for name, value in self.child_slots():
            if isinstance(value, SqlNode):
                continue
            if isinstance(value, (list, tuple)) and any(isinstance(v, SqlNode) for v in value):
                continue
            scalars[name] = value
        return scalars

    def label(self) -> tuple:
        """A hashable structural label: class name plus scalar attributes."""
        scalars = tuple(sorted((k, _freeze(v)) for k, v in self.scalar_slots().items()))
        return (type(self).__name__, scalars)

    def with_children(self, new_children: Sequence["SqlNode"]) -> "SqlNode":
        """Rebuild this node with ``new_children`` substituted positionally."""
        queue = list(new_children)
        updates: dict[str, Any] = {}
        for name, value in self.child_slots():
            if isinstance(value, SqlNode):
                if not queue:
                    raise ValueError(f"Not enough replacement children for {type(self).__name__}")
                updates[name] = queue.pop(0)
            elif isinstance(value, (list, tuple)) and any(isinstance(v, SqlNode) for v in value):
                new_list = []
                for item in value:
                    if isinstance(item, SqlNode):
                        if not queue:
                            raise ValueError(
                                f"Not enough replacement children for {type(self).__name__}"
                            )
                        new_list.append(queue.pop(0))
                    else:
                        new_list.append(item)
                updates[name] = type(value)(new_list) if isinstance(value, tuple) else new_list
        if queue:
            raise ValueError(f"Too many replacement children for {type(self).__name__}")
        return replace(self, **updates)  # type: ignore[type-var]

    def walk(self) -> Iterator["SqlNode"]:
        """Pre-order traversal of this subtree (explicit stack, no recursion)."""
        stack: list[SqlNode] = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def find_all(self, node_type: type) -> list["SqlNode"]:
        """Return every descendant (including self) of the given type."""
        return [node for node in self.walk() if isinstance(node, node_type)]


def _freeze(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


# --------------------------------------------------------------------------- #
# Expressions
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Literal(SqlNode):
    """A constant literal: number, string, boolean or NULL."""

    value: Any

    @property
    def kind(self) -> str:
        if self.value is None:
            return "null"
        if isinstance(self.value, bool):
            return "boolean"
        if isinstance(self.value, int):
            return "integer"
        if isinstance(self.value, float):
            return "float"
        return "string"


@dataclass(frozen=True)
class ColumnRef(SqlNode):
    """A (possibly qualified) column reference, e.g. ``t.price``."""

    name: str
    table: str | None = None

    @property
    def qualified_name(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(SqlNode):
    """``*`` or ``t.*`` in a SELECT list or inside ``count(*)``."""

    table: str | None = None


@dataclass(frozen=True)
class Parameter(SqlNode):
    """A named (``:name``) or positional (``?``) query parameter."""

    name: str


@dataclass(frozen=True)
class UnaryOp(SqlNode):
    """A unary operator application: ``-x``, ``+x``, ``NOT x``."""

    op: str
    operand: SqlNode


@dataclass(frozen=True)
class BinaryOp(SqlNode):
    """A binary operator application: comparisons, arithmetic, AND/OR, LIKE."""

    op: str
    left: SqlNode
    right: SqlNode


@dataclass(frozen=True)
class BetweenOp(SqlNode):
    """``expr [NOT] BETWEEN low AND high``."""

    expr: SqlNode
    low: SqlNode
    high: SqlNode
    negated: bool = False


@dataclass(frozen=True)
class InList(SqlNode):
    """``expr [NOT] IN (v1, v2, ...)``."""

    expr: SqlNode
    items: list[SqlNode]
    negated: bool = False


@dataclass(frozen=True)
class InSubquery(SqlNode):
    """``expr [NOT] IN (SELECT ...)``."""

    expr: SqlNode
    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class Exists(SqlNode):
    """``[NOT] EXISTS (SELECT ...)``."""

    query: "Select"
    negated: bool = False


@dataclass(frozen=True)
class ScalarSubquery(SqlNode):
    """A subquery used as a scalar expression."""

    query: "Select"


@dataclass(frozen=True)
class IsNull(SqlNode):
    """``expr IS [NOT] NULL``."""

    expr: SqlNode
    negated: bool = False


@dataclass(frozen=True)
class FunctionCall(SqlNode):
    """A scalar or aggregate function call, e.g. ``count(*)`` or ``avg(x)``."""

    name: str
    args: list[SqlNode] = field(default_factory=list)
    distinct: bool = False

    @property
    def lower_name(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Cast(SqlNode):
    """``CAST(expr AS type)``."""

    expr: SqlNode
    target_type: str


@dataclass(frozen=True)
class CaseWhen(SqlNode):
    """One ``WHEN condition THEN result`` arm of a CASE expression."""

    condition: SqlNode
    result: SqlNode


@dataclass(frozen=True)
class Case(SqlNode):
    """A searched CASE expression."""

    whens: list[CaseWhen]
    else_result: SqlNode | None = None


# --------------------------------------------------------------------------- #
# Query clauses
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class SelectItem(SqlNode):
    """One item of the SELECT list: an expression with an optional alias."""

    expr: SqlNode
    alias: str | None = None

    def output_name(self) -> str:
        """The column name this item produces in the result schema."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        if isinstance(self.expr, Star):
            return "*"
        if isinstance(self.expr, FunctionCall):
            return self.expr.lower_name
        if isinstance(self.expr, WindowCall):
            return self.expr.lower_name
        return "expr"


@dataclass(frozen=True)
class TableRef(SqlNode):
    """A base table reference in the FROM clause, with optional alias."""

    name: str
    alias: str | None = None

    @property
    def binding_name(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class SubqueryRef(SqlNode):
    """A derived table: ``(SELECT ...) AS alias``."""

    query: "Select"
    alias: str

    @property
    def binding_name(self) -> str:
        return self.alias


@dataclass(frozen=True)
class Join(SqlNode):
    """A join between two FROM-clause items."""

    left: SqlNode
    right: SqlNode
    join_type: str = "INNER"  # INNER, LEFT, RIGHT, FULL, CROSS
    condition: SqlNode | None = None
    using: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class OrderItem(SqlNode):
    """One ORDER BY expression with direction."""

    expr: SqlNode
    descending: bool = False
    nulls_last: bool = True


@dataclass(frozen=True)
class WindowFrame(SqlNode):
    """A ``ROWS`` frame clause of a window specification.

    ``start_kind``/``end_kind`` take the values ``"UNBOUNDED_PRECEDING"``,
    ``"PRECEDING"``, ``"CURRENT_ROW"``, ``"FOLLOWING"`` and
    ``"UNBOUNDED_FOLLOWING"``; the offset fields carry the integer operand of
    ``N PRECEDING`` / ``N FOLLOWING`` bounds and are ``None`` otherwise.  All
    slots are scalars, so frames participate in :meth:`SqlNode.label` and two
    structurally identical frames compare equal for Difftree merging.
    """

    start_kind: str
    end_kind: str
    start_offset: int | None = None
    end_offset: int | None = None


@dataclass(frozen=True)
class WindowSpec(SqlNode):
    """The ``OVER (...)`` specification: partitioning, ordering and frame."""

    partition_by: list[SqlNode] = field(default_factory=list)
    order_by: list[OrderItem] = field(default_factory=list)
    frame: WindowFrame | None = None


@dataclass(frozen=True)
class WindowCall(SqlNode):
    """A window function application: ``fn(args) OVER (spec)``.

    The wrapped :class:`FunctionCall` is kept verbatim so ranking functions
    (``row_number`` …) and windowed aggregates (``sum(x) OVER (...)``) share
    one node shape; the call is *not* a group aggregate — see
    :func:`contains_aggregate`.
    """

    call: FunctionCall
    spec: WindowSpec

    @property
    def lower_name(self) -> str:
        return self.call.lower_name


@dataclass(frozen=True)
class CommonTableExpr(SqlNode):
    """One CTE of a WITH clause."""

    name: str
    query: "Select"
    columns: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Select(SqlNode):
    """A full SELECT statement (optionally with CTEs and set operations)."""

    select_items: list[SelectItem]
    from_clause: SqlNode | None = None
    where: SqlNode | None = None
    group_by: list[SqlNode] = field(default_factory=list)
    having: SqlNode | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    ctes: list[CommonTableExpr] = field(default_factory=list)

    def output_names(self) -> list[str]:
        """Best-effort output column names (Star expands at execution time)."""
        return [item.output_name() for item in self.select_items]


@dataclass(frozen=True)
class SetOperation(SqlNode):
    """``left UNION/INTERSECT/EXCEPT [ALL] right``."""

    op: str
    left: SqlNode
    right: SqlNode
    all: bool = False


#: Aggregate function names recognised by the engine and by Difftree analysis.
AGGREGATE_FUNCTIONS: frozenset[str] = frozenset(
    {"count", "sum", "avg", "min", "max", "stddev", "variance", "median"}
)


#: Ranking/navigation functions that are only valid with an ``OVER`` clause.
#: Windowed aggregates (``sum(x) OVER (...)``) reuse AGGREGATE_FUNCTIONS.
WINDOW_FUNCTIONS: frozenset[str] = frozenset(
    {"row_number", "rank", "dense_rank", "lag", "lead"}
)


def is_aggregate_call(node: SqlNode) -> bool:
    """Return True when ``node`` is a call to an aggregate function."""
    return isinstance(node, FunctionCall) and node.lower_name in AGGREGATE_FUNCTIONS


def is_window_call(node: SqlNode) -> bool:
    """Return True when ``node`` is a window function application."""
    return isinstance(node, WindowCall)


def contains_window(node: SqlNode) -> bool:
    """Return True when any descendant of ``node`` is a window call."""
    return any(isinstance(descendant, WindowCall) for descendant in node.walk())


def contains_aggregate(node: SqlNode) -> bool:
    """Return True when any descendant of ``node`` is a *group* aggregate call.

    A windowed aggregate (``sum(x) OVER (...)``) is not a group aggregate —
    the wrapped call is skipped — but its argument and specification
    expressions are still searched, so ``sum(count(*)) OVER (...)`` correctly
    reports the inner ``count(*)``.
    """
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, WindowCall):
            stack.extend(current.call.args)
            stack.extend(current.spec.partition_by)
            stack.extend(item.expr for item in current.spec.order_by)
            continue
        if is_aggregate_call(current):
            return True
        stack.extend(current.children())
    return False
