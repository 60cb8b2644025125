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

:func:`find_binding_for` answers the inverse question — which binding, if
any, reproduces a given query — and is the one coverage matcher: ``covers``,
``expressiveness_ratio``, ``DifftreeForest.covers_all`` and the cost model's
expressiveness term all ask it.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import BindingError
from repro.difftree.canonical import canonical_form, canonical_sql
from repro.difftree.nodes import AnyNode, ChoiceNode, OptNode, collect_choice_nodes
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    OrderItem,
    Select,
    SelectItem,
    SqlNode,
    TableRef,
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
    domains: Mapping[str, Sequence[Any]] | None = None,
) -> Iterator[dict[str, Any]]:
    """Enumerate bindings, every choice node over its domain.

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
    for combination in itertools.product(*values):
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

_TARGET_KEYS_ATTR = "_repro_match_keys"


def _match_key(node: SqlNode) -> tuple:
    """What a node keeps of its label through instantiation and canonicalization.

    Qualifier stripping rewrites column qualifiers and table aliases, so
    column and table references compare by name alone; every other label
    survives both steps unchanged (AND chains are rebuilt, but an AND node
    stays an AND node).
    """
    if isinstance(node, (ColumnRef, TableRef)):
        return (type(node).__name__, node.name)
    return node.label()


def _target_keys(query: SqlNode) -> frozenset:
    """Match keys of every node of the query's canonical form, memoized on it."""
    cached = getattr(query, _TARGET_KEYS_ATTR, None)
    if cached is None:
        cached = frozenset(_match_key(node) for node in canonical_form(query).walk())
        object.__setattr__(query, _TARGET_KEYS_ATTR, cached)
    return cached


def _choice_free_keys(node: SqlNode) -> set | None:
    """Match keys of a subtree, or None when it contains a choice node."""
    keys = set()
    for descendant in node.walk():
        if isinstance(descendant, ChoiceNode):
            return None
        keys.add(_match_key(descendant))
    return keys


def narrowed_domains(tree: SqlNode, target: SqlNode) -> dict[str, list[Any]]:
    """Per choice id, the values a binding needs to instantiate ``tree`` to ``target``.

    Only choice nodes over *choice-free* subtrees narrow, and only when their
    choice id is unique in the tree; every other node keeps its full domain
    (it is absent from the result):

    * an ANY keeps its alternatives that contain choice nodes, and those
      choice-free alternatives whose match keys all occur in the target.  A
      choice-free alternative that cannot reach the output — it is not an
      ``OrderItem`` but lands in an ORDER BY list, which instantiation
      filters — always survives.  If no choice-free alternative survives,
      the first one is kept: the node must then be dead.
    * an OPT whose choice-free child has a key missing from the target is
      forced off — unless switching it off could empty the SELECT list of a
      query other than the root, which raises instead of yielding a query.

    Soundness: take a binding that reproduces the target and give one such
    node a value outside its narrowed domain.  A choice-free subtree
    instantiates to an equal copy of itself — never to None, never raising —
    so if it reached the output its keys would occur in the target.  It
    therefore did not: an ancestor dropped it.  Dropping does not depend on
    the node's value (None-ness, the only thing ancestors look at, is
    unchanged), so swapping in a kept choice-free alternative, or switching
    the OPT off where that cannot raise, yields the same query.  Repeating
    this node by node moves the binding into the narrowed product.  Target
    keys come from the canonical AST, which equal canonical SQL pins down
    (print-then-parse is the identity).
    """
    seen: set[str] = set()
    repeated: set[str] = set()
    for node in collect_choice_nodes(tree):
        (repeated if node.choice_id in seen else seen).add(node.choice_id)
    domains: dict[str, list[Any]] = {}
    _narrow(tree, tree, _target_keys(target), repeated, domains, False, False)
    return domains


def _narrow(
    node: SqlNode, tree: SqlNode, keys: frozenset, repeated: set[str], domains: dict, order_slot: bool, off_raises: bool
) -> None:
    """Record the narrowed domains of the choice nodes under ``node`` (see :func:`narrowed_domains`).

    Not a closure: a closure that calls itself is a reference cycle.
    """
    if isinstance(node, AnyNode):
        carrying: list[int] = []
        free: list[int] = []
        surviving: list[int] = []
        for index, alternative in enumerate(node.alternatives):
            alternative_keys = _choice_free_keys(alternative)
            if alternative_keys is None:
                carrying.append(index)
                _narrow(alternative, tree, keys, repeated, domains, order_slot, off_raises)
                continue
            free.append(index)
            dropped = order_slot and not isinstance(alternative, OrderItem)
            if dropped or alternative_keys <= keys:
                surviving.append(index)
        if node.choice_id not in repeated:
            domains[node.choice_id] = sorted(carrying + (surviving or free[:1]))
        return
    if isinstance(node, OptNode):
        child_keys = _choice_free_keys(node.child)
        if child_keys is None:
            _narrow(node.child, tree, keys, repeated, domains, order_slot, off_raises)
        elif not off_raises and node.choice_id not in repeated and not child_keys <= keys:
            domains[node.choice_id] = [False]
        return
    if isinstance(node, Select):
        nested = node is not tree
        for item in node.select_items:
            _narrow(item, tree, keys, repeated, domains, False, nested)
        for item in node.order_by:
            _narrow(item, tree, keys, repeated, domains, True, False)
        for value in (node.from_clause, node.where, node.having, *node.group_by, *node.ctes):
            if value is not None:
                _narrow(value, tree, keys, repeated, domains, False, False)
        return
    for child in node.children():
        _narrow(child, tree, keys, repeated, domains, False, off_raises)


def find_binding_for(tree: SqlNode, target: SqlNode) -> dict[str, Any] | None:
    """The first binding under which ``tree`` instantiates to ``target``, or None.

    Answered target-first, in three steps:

    1. **narrow** — every choice node's domain shrinks to the values a
       matching binding could need (:func:`narrowed_domains`);
    2. **enumerate** — only the narrowed product, through
       :func:`enumerate_bindings`;
    3. **verify** — a binding counts only when :func:`instantiate` followed by
       ``canonical_sql`` reproduces the target's canonical SQL exactly, so
       ``1``, ``1.0`` and ``TRUE`` are three different queries.  A binding
       whose instantiation or rendering raises is skipped.

    Verification is the exact oracle, so narrowing can never invent a match;
    it is sound (never hides one) by the argument in :func:`narrowed_domains`.
    """
    target_sql = canonical_sql(target)
    for bindings in enumerate_bindings(tree, domains=narrowed_domains(tree, target)):
        try:
            if canonical_sql(instantiate(tree, bindings)) == target_sql:
                return bindings
        except Exception:  # noqa: BLE001 - skip broken/unrenderable bindings
            continue
    return None


def covers(tree: SqlNode, queries: Sequence[SqlNode]) -> bool:
    """True when every query in ``queries`` is expressible by ``tree``."""
    return all(find_binding_for(tree, query) is not None for query in queries)


def expressiveness_ratio(tree: SqlNode, queries: Sequence[SqlNode]) -> float:
    """Fraction of ``queries`` the Difftree can express exactly."""
    if not queries:
        return 1.0
    covered = sum(1 for query in queries if find_binding_for(tree, query) is not None)
    return covered / len(queries)
