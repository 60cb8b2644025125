"""Instantiating Difftrees into concrete SQL queries.

A *binding* assigns a value to every choice node of a Difftree:

* for an :class:`~repro.difftree.nodes.AnyNode`, the index of the selected
  alternative (an ``int``),
* for an :class:`~repro.difftree.nodes.OptNode`, whether the subtree is
  present (a ``bool``).

:func:`instantiate` resolves the choice nodes under a binding and rebuilds a
plain SQL AST, taking care of structural fall-out: an OPT node switched off
removes its subtree, which may collapse an AND chain or drop a SELECT item.
This is exactly the mechanism interface widgets use at runtime — a widget
updates a binding, PI2 re-instantiates the query and re-executes it.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import BindingError
from repro.difftree.nodes import AnyNode, OptNode, collect_choice_nodes
from repro.sql.ast_nodes import (
    BinaryOp,
    OrderItem,
    Select,
    SelectItem,
    SqlNode,
)

Binding = Mapping[str, Any]


class LiteralBinding:
    """Wrapper marking a binding value as a literal to substitute.

    Plain integers bound to an ANY node are interpreted as alternative
    *indices*; interface events (sliders, brushes, clicks) that want to bind a
    concrete literal value — including integers — wrap it in this class to
    force the literal interpretation.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LiteralBinding({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LiteralBinding) and self.value == other.value

    def __hash__(self) -> int:
        return hash(("LiteralBinding", self.value))


def default_bindings(tree: SqlNode) -> dict[str, Any]:
    """The default binding: first alternative of each ANY, OPT per its default."""
    bindings: dict[str, Any] = {}
    for node in collect_choice_nodes(tree):
        if isinstance(node, AnyNode):
            bindings[node.choice_id] = 0
        elif isinstance(node, OptNode):
            bindings[node.choice_id] = node.default_on
    return bindings


def binding_space_size(tree: SqlNode) -> int:
    """Number of distinct bindings of the Difftree."""
    size = 1
    for node in collect_choice_nodes(tree):
        if isinstance(node, AnyNode):
            size *= node.cardinality
        elif isinstance(node, OptNode):
            size *= 2
    return size


def enumerate_bindings(
    tree: SqlNode,
    limit: int | None = None,
    domains: Mapping[str, Sequence[Any]] | None = None,
) -> Iterator[dict[str, Any]]:
    """Enumerate bindings (optionally capped at ``limit`` combinations).

    ``domains`` narrows the values enumerated for some choice nodes (choice
    id → values, in enumeration order); every other choice node ranges over
    its full domain.
    """
    choices = collect_choice_nodes(tree)
    values: list[Sequence[Any]] = []
    for node in choices:
        if domains is not None and node.choice_id in domains:
            values.append(domains[node.choice_id])
        elif isinstance(node, AnyNode):
            values.append(range(node.cardinality))
        else:
            values.append((True, False))
    count = 0
    for combination in itertools.product(*values):
        if limit is not None and count >= limit:
            return
        count += 1
        yield {node.choice_id: value for node, value in zip(choices, combination)}


def instantiate(tree: SqlNode, bindings: Binding | None = None) -> SqlNode:
    """Resolve every choice node of ``tree`` under ``bindings``.

    Missing binding entries fall back to the choice node's default.  Raises
    BindingError when the instantiation removes a required clause (e.g. every
    SELECT item was optional and switched off).
    """
    bindings = dict(bindings or {})
    result = _instantiate(tree, bindings)
    if result is None:
        raise BindingError("Instantiation removed the entire query")
    return result


def _instantiate(node: SqlNode, bindings: Binding) -> SqlNode | None:
    if isinstance(node, AnyNode):
        value = bindings.get(node.choice_id, 0)
        if isinstance(value, LiteralBinding):
            if not node.is_literal_choice():
                raise BindingError(
                    f"Choice {node.choice_id} is not a literal choice; cannot bind "
                    f"value {value.value!r}"
                )
            from repro.sql.ast_nodes import Literal

            return Literal(value.value)
        if isinstance(value, bool):
            raise BindingError(
                f"Binding for {node.choice_id} must be an alternative index or a "
                f"literal value, got a boolean"
            )
        if isinstance(value, int) and 0 <= value < node.cardinality:
            return _instantiate(node.alternatives[value], bindings)
        # Widgets such as sliders and brushes generalize literal choices beyond
        # the input queries: any plain value binds as a fresh literal.
        if node.is_literal_choice():
            from repro.sql.ast_nodes import Literal

            return Literal(value)
        raise BindingError(
            f"Binding for {node.choice_id} must be an index in "
            f"[0, {node.cardinality}), got {value!r}"
        )
    if isinstance(node, OptNode):
        enabled = bindings.get(node.choice_id, node.default_on)
        if not enabled:
            return None
        return _instantiate(node.child, bindings)
    if isinstance(node, Select):
        return _instantiate_select(node, bindings)
    if isinstance(node, BinaryOp) and node.op in ("AND", "OR"):
        left = _instantiate(node.left, bindings)
        right = _instantiate(node.right, bindings)
        if left is None and right is None:
            return None
        if left is None:
            return right
        if right is None:
            return left
        return BinaryOp(op=node.op, left=left, right=right)

    children = node.children()
    if not children:
        return node
    new_children = []
    for child in children:
        resolved = _instantiate(child, bindings)
        if resolved is None:
            # A required child vanished: propagate removal upwards.  The
            # enclosing AND/Select levels know how to absorb it.
            return None
        new_children.append(resolved)
    return node.with_children(new_children)


def _instantiate_select(query: Select, bindings: Binding) -> Select:
    select_items = _instantiate_list(query.select_items, bindings)
    if not select_items:
        raise BindingError("Instantiation removed every SELECT item")
    from_clause = (
        _instantiate(query.from_clause, bindings) if query.from_clause is not None else None
    )
    where = _instantiate(query.where, bindings) if query.where is not None else None
    group_by = _instantiate_list(query.group_by, bindings)
    having = _instantiate(query.having, bindings) if query.having is not None else None
    order_by = _instantiate_list(query.order_by, bindings)
    ctes = _instantiate_list(query.ctes, bindings)
    return Select(
        select_items=[_as_select_item(item) for item in select_items],
        from_clause=from_clause,
        where=where,
        group_by=group_by,
        having=having,
        order_by=[item for item in order_by if isinstance(item, OrderItem)],
        limit=query.limit,
        offset=query.offset,
        distinct=query.distinct,
        ctes=ctes,  # type: ignore[arg-type]
    )


def _instantiate_list(items: Sequence[SqlNode], bindings: Binding) -> list[SqlNode]:
    resolved: list[SqlNode] = []
    for item in items:
        value = _instantiate(item, bindings)
        if value is not None:
            resolved.append(value)
    return resolved


def _as_select_item(node: SqlNode) -> SelectItem:
    if isinstance(node, SelectItem):
        return node
    return SelectItem(expr=node)


def instantiate_and_execute(tree: SqlNode, catalog, bindings: Binding | None = None):
    """Instantiate ``tree`` under ``bindings`` and execute it against ``catalog``.

    This is the runtime loop every interface event performs — widget update →
    re-instantiate → re-execute — routed through the catalog's canonical-query
    result cache, so sibling bindings (and sibling interface candidates during
    search) that instantiate to equivalent SQL share one execution.

    Returns the engine's :class:`~repro.engine.table.QueryResult`.
    """
    from repro.sql.ast_nodes import SetOperation

    query = instantiate(tree, bindings)
    if not isinstance(query, (Select, SetOperation)):
        raise BindingError("Instantiated Difftree is not an executable SELECT statement")
    return catalog.execute(query)


# --------------------------------------------------------------------------- #
# Coverage: can the Difftree express a given query?
# --------------------------------------------------------------------------- #


def find_binding_for(tree: SqlNode, target: SqlNode, limit: int = 4096) -> dict[str, Any] | None:
    """Search for a binding under which ``tree`` instantiates to ``target``.

    Queries are compared in canonical form (AND chains flattened to a left-deep
    shape) so that equivalent parenthesizations count as the same query.
    Returns the binding, or None if no binding (within ``limit`` combinations)
    reproduces the target query.
    """
    from repro.difftree.canonical import canonical_form

    canonical_target = canonical_form(target)
    for bindings in enumerate_bindings(tree, limit=limit):
        try:
            candidate = instantiate(tree, bindings)
        except BindingError:
            continue
        if candidate == target or canonical_form(candidate) == canonical_target:
            return bindings
    return None


def covers(tree: SqlNode, queries: Sequence[SqlNode], limit: int = 4096) -> bool:
    """True when every query in ``queries`` is expressible by ``tree``."""
    return all(find_binding_for(tree, query, limit=limit) is not None for query in queries)


def expressiveness_ratio(tree: SqlNode, queries: Sequence[SqlNode], limit: int = 4096) -> float:
    """Fraction of ``queries`` the Difftree can express exactly."""
    if not queries:
        return 1.0
    covered = sum(1 for query in queries if find_binding_for(tree, query, limit=limit) is not None)
    return covered / len(queries)
