"""Merging query ASTs into Difftrees.

The merge algorithm implements step 1 of the PI2 pipeline: given a sequence of
queries it produces Difftrees whose choice nodes capture exactly where the
queries differ.  The core operation is :func:`merge_nodes`, a structural merge
of two (possibly already merged) trees:

* identical subtrees stay as they are,
* subtrees with the same label but differing children are merged child-wise
  (clause lists are aligned so that unchanged SELECT items / conjuncts match
  up, and unmatched ones become OPT nodes),
* differing literals and otherwise incompatible subtrees become ANY nodes.

``SELECT`` statements get dedicated handling because their clauses have
distinct merge semantics (e.g. a missing WHERE clause is an OPT, predicate
conjuncts are aligned as a set-like list).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import MergeError
from repro.difftree.canonical import join_conjuncts, split_conjuncts
from repro.difftree.nodes import AnyNode, OptNode
from repro.sql.ast_nodes import (
    Select,
    SelectItem,
    SqlNode,
)


def merge_nodes(a: SqlNode, b: SqlNode) -> SqlNode:
    """Merge two Difftrees / ASTs into one Difftree covering both."""
    if a == b:
        return a

    # Choice nodes absorb further variations.
    if isinstance(a, AnyNode) or isinstance(b, AnyNode):
        return _merge_into_any(a, b)
    if isinstance(a, OptNode) and isinstance(b, OptNode):
        return OptNode(child=merge_nodes(a.child, b.child), default_on=a.default_on)
    if isinstance(a, OptNode):
        return OptNode(child=merge_nodes(a.child, b), default_on=a.default_on)
    if isinstance(b, OptNode):
        return OptNode(child=merge_nodes(a, b.child), default_on=b.default_on)

    if isinstance(a, Select) and isinstance(b, Select):
        return merge_selects(a, b)

    if a.label() == b.label():
        # Comparison predicates whose operands *both* differ stay as an ANY
        # over the whole predicates (Figure 3(a)); the factor_common_root
        # transformation can later refactor the shared operator above the
        # choice (Figure 3(b)).  Merging only one differing operand in place
        # keeps e.g. ``a = 1`` / ``a = 2`` as ``a = ANY(1, 2)`` directly.
        if _is_comparison(a) and _differing_child_count(a, b) > 1:
            return AnyNode(alternatives=[a, b])
        return _merge_same_label(a, b)

    # Two literals (or any incompatible subtrees) become an ANY choice.
    return AnyNode(alternatives=[a, b])


def _is_comparison(node: SqlNode) -> bool:
    from repro.sql.ast_nodes import BetweenOp, BinaryOp

    if isinstance(node, BetweenOp):
        return True
    return isinstance(node, BinaryOp) and node.op not in ("AND", "OR")


def _differing_child_count(a: SqlNode, b: SqlNode) -> int:
    children_a = a.children()
    children_b = b.children()
    if len(children_a) != len(children_b):
        return max(len(children_a), len(children_b))
    return sum(1 for x, y in zip(children_a, children_b) if x != y)


def spliced_alternatives(nodes: Sequence[SqlNode]) -> list[SqlNode]:
    """The alternatives of one ANY over ``nodes``.

    An ANY among ``nodes`` contributes its alternatives instead of itself, and
    structurally equal alternatives are kept once, in first-seen order.  Every
    ANY the merge and factoring rules build takes its alternatives from here,
    which keeps Difftrees normalized by construction: given distinct ``nodes``
    whose ANYs are themselves normalized, the result has at least two
    alternatives and none of them is an ANY.
    """
    alternatives: list[SqlNode] = []
    for node in nodes:
        for candidate in node.alternatives if isinstance(node, AnyNode) else (node,):
            if not any(candidate == existing for existing in alternatives):
                alternatives.append(candidate)
    return alternatives


def _merge_into_any(a: SqlNode, b: SqlNode) -> AnyNode:
    """Combine alternatives, deduplicating structurally identical ones."""
    alternatives = spliced_alternatives((a, b))
    if isinstance(a, AnyNode):
        return AnyNode(alternatives=alternatives, choice_id=a.choice_id)
    return AnyNode(alternatives=alternatives)


def _merge_same_label(a: SqlNode, b: SqlNode) -> SqlNode:
    """Merge two nodes of identical label slot by slot."""
    updates: dict[str, object] = {}
    slots_a = dict(a.child_slots())
    slots_b = dict(b.child_slots())
    for name, value_a in slots_a.items():
        value_b = slots_b[name]
        if isinstance(value_a, SqlNode) or isinstance(value_b, SqlNode):
            updates[name] = _merge_optional_nodes(value_a, value_b)
        elif isinstance(value_a, (list, tuple)) and _is_node_list(value_a, value_b):
            updates[name] = align_and_merge_lists(list(value_a), list(value_b))
        # Scalars are identical by construction (they are part of the label).
    from dataclasses import replace

    return replace(a, **updates)  # type: ignore[type-var]


def _is_node_list(value_a: object, value_b: object) -> bool:
    def is_node_list(value: object) -> bool:
        return isinstance(value, (list, tuple)) and any(isinstance(v, SqlNode) for v in value)

    return is_node_list(value_a) or is_node_list(value_b)


def _merge_optional_nodes(a: object, b: object) -> SqlNode | None:
    """Merge two node-or-None slots."""
    if a is None and b is None:
        return None
    if a is None:
        assert isinstance(b, SqlNode)
        return OptNode(child=b, default_on=False)
    if b is None:
        assert isinstance(a, SqlNode)
        return OptNode(child=a, default_on=True)
    assert isinstance(a, SqlNode) and isinstance(b, SqlNode)
    return merge_nodes(a, b)


# --------------------------------------------------------------------------- #
# List alignment
# --------------------------------------------------------------------------- #


def _lcs_pairs(xs: list[SqlNode], ys: list[SqlNode]) -> list[tuple[int, int]]:
    """Longest common subsequence (by structural equality) index pairs."""
    n, m = len(xs), len(ys)
    lengths = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        for j in range(m - 1, -1, -1):
            if xs[i] == ys[j]:
                lengths[i][j] = lengths[i + 1][j + 1] + 1
            else:
                lengths[i][j] = max(lengths[i + 1][j], lengths[i][j + 1])
    pairs: list[tuple[int, int]] = []
    i = j = 0
    while i < n and j < m:
        if xs[i] == ys[j]:
            pairs.append((i, j))
            i += 1
            j += 1
        elif lengths[i + 1][j] >= lengths[i][j + 1]:
            i += 1
        else:
            j += 1
    return pairs


def align_and_merge_lists(xs: list[SqlNode], ys: list[SqlNode]) -> list[SqlNode]:
    """Merge two ordered clause lists into one list of (possibly choice) nodes.

    Structurally identical items anchor the alignment; the gaps between
    anchors are merged pairwise in order, and leftover items on either side
    become OPT nodes (present in one query, absent in the other).
    """
    merged: list[SqlNode] = []
    anchors = _lcs_pairs(xs, ys) + [(len(xs), len(ys))]
    prev_x = prev_y = 0
    for anchor_x, anchor_y in anchors:
        gap_x = xs[prev_x:anchor_x]
        gap_y = ys[prev_y:anchor_y]
        merged.extend(_merge_gap(gap_x, gap_y))
        if anchor_x < len(xs):
            merged.append(xs[anchor_x])
        prev_x, prev_y = anchor_x + 1, anchor_y + 1
    return merged


def _merge_gap(gap_x: list[SqlNode], gap_y: list[SqlNode]) -> list[SqlNode]:
    """Merge the unmatched items between two alignment anchors."""
    merged: list[SqlNode] = []
    for item_x, item_y in zip(gap_x, gap_y):
        merged.append(merge_nodes(item_x, item_y))
    longer, default_on = (gap_x, True) if len(gap_x) > len(gap_y) else (gap_y, False)
    for extra in longer[min(len(gap_x), len(gap_y)) :]:
        merged.append(_wrap_optional(extra, default_on))
    return merged


def _wrap_optional(node: SqlNode, default_on: bool) -> SqlNode:
    if isinstance(node, OptNode):
        return node
    return OptNode(child=node, default_on=default_on)


# --------------------------------------------------------------------------- #
# SELECT-specific merging
# --------------------------------------------------------------------------- #


def merge_selects(a: Select, b: Select) -> SqlNode:
    """Merge two SELECT statements clause by clause.

    Falls back to an ANY choice over the two whole statements when the scalar
    clauses (DISTINCT / LIMIT / OFFSET) disagree — those cannot be captured by
    an in-tree choice node and typically indicate genuinely different queries.
    """
    if (a.distinct, a.limit, a.offset) != (b.distinct, b.limit, b.offset):
        return AnyNode(alternatives=[a, b])

    select_items = [
        _coerce_select_item(item)
        for item in align_and_merge_lists(list(a.select_items), list(b.select_items))
    ]
    from_clause = _merge_optional_nodes(a.from_clause, b.from_clause)
    where = merge_predicates(a.where, b.where)
    group_by = align_and_merge_lists(list(a.group_by), list(b.group_by))
    having = merge_predicates(a.having, b.having)
    order_by = align_and_merge_lists(list(a.order_by), list(b.order_by))
    ctes = align_and_merge_lists(list(a.ctes), list(b.ctes))

    return Select(
        select_items=select_items,  # type: ignore[arg-type]
        from_clause=from_clause,
        where=where,
        group_by=group_by,
        having=having,
        order_by=order_by,  # type: ignore[arg-type]
        limit=a.limit,
        offset=a.offset,
        distinct=a.distinct,
        ctes=ctes,  # type: ignore[arg-type]
    )


def _coerce_select_item(node: SqlNode) -> SqlNode:
    """Keep SELECT-list entries as SelectItems where possible.

    A choice between two select items with identical aliases is pushed inside
    the item (``SelectItem(ANY(p, a))``) so the output column stays stable.
    """
    if isinstance(node, AnyNode) and all(
        isinstance(alt, SelectItem) for alt in node.alternatives
    ):
        aliases = {alt.alias for alt in node.alternatives}  # type: ignore[union-attr]
        if len(aliases) == 1:
            inner = AnyNode(
                alternatives=spliced_alternatives([alt.expr for alt in node.alternatives]),  # type: ignore[union-attr]
                choice_id=node.choice_id,
            )
            return SelectItem(expr=inner, alias=aliases.pop())
    return node


def merge_predicates(a: SqlNode | None, b: SqlNode | None) -> SqlNode | None:
    """Merge two WHERE/HAVING predicates conjunct-by-conjunct.

    Top-level AND chains are treated as ordered conjunct lists: identical
    conjuncts align, corresponding differing conjuncts merge recursively
    (producing ANY/OPT nodes inside them), and conjuncts present on only one
    side become OPT nodes.  A missing predicate on one side wraps the other
    side in a single OPT (Figure 4's optional WHERE clause).
    """
    if a is None and b is None:
        return None
    if a is None:
        assert b is not None
        return OptNode(child=b, default_on=False)
    if b is None:
        return OptNode(child=a, default_on=True)

    conjuncts_a = split_conjuncts(a)
    conjuncts_b = split_conjuncts(b)
    if len(conjuncts_a) == 1 and len(conjuncts_b) == 1:
        return merge_nodes(a, b)
    merged = align_and_merge_lists(conjuncts_a, conjuncts_b)
    result = join_conjuncts(merged)
    if result is None:
        raise MergeError("Predicate merge produced an empty conjunct list")
    return result


# --------------------------------------------------------------------------- #
# Multi-query merge
# --------------------------------------------------------------------------- #


def merge_query_sequence(queries: Sequence[SqlNode]) -> SqlNode:
    """Merge an ordered sequence of queries into a single Difftree."""
    if not queries:
        raise MergeError("Cannot merge an empty query sequence")
    merged = queries[0]
    for query in queries[1:]:
        merged = merge_nodes(merged, query)
    return merged
