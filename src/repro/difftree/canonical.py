"""Canonicalization and similarity measures over query ASTs / Difftrees.

Before merging queries into a Difftree, PI2 benefits from putting ASTs into a
canonical form so that superficial differences (redundant table qualifiers,
alias capitalization) do not create spurious choice nodes.  This module also
provides the structural-similarity measure the forest builder uses to decide
which queries to cluster into the same Difftree.
"""

from __future__ import annotations

from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Select,
    SqlNode,
    TableRef,
)
from repro.sql.visitor import transform


def _single_binding_name(query: Select) -> str | None:
    """Binding name of the FROM clause when it is a single base table, else None."""
    from_clause = query.from_clause
    if isinstance(from_clause, TableRef):
        return from_clause.binding_name
    return None


def strip_redundant_qualifiers(query: Select) -> Select:
    """Remove table qualifiers that refer to the only table in a simple FROM.

    ``SELECT c.date FROM covid_cases c`` and ``SELECT date FROM covid_cases``
    then merge without a spurious choice node.  Queries with joins or derived
    tables are left untouched (the qualifier is meaningful there).
    """
    binding = _single_binding_name(query)
    if binding is None:
        return query

    # Fast path: most queries the search canonicalizes (candidate
    # instantiations of already-canonical trees) carry no redundant
    # qualifiers at all — detect that with one traversal and skip the
    # rebuilding transform entirely.
    if not any(
        (isinstance(node, ColumnRef) and node.table == binding)
        or (isinstance(node, TableRef) and node.binding_name == binding and node.alias)
        for node in query.walk()
    ):
        return query

    def rewrite(node: SqlNode) -> SqlNode | None:
        if isinstance(node, ColumnRef) and node.table == binding:
            return ColumnRef(name=node.name)
        if isinstance(node, TableRef) and node.binding_name == binding and node.alias:
            # Drop the now-unused alias so FROM clauses also compare equal.
            return TableRef(name=node.name)
        return None

    rewritten = transform(query, rewrite)
    assert isinstance(rewritten, Select)
    return rewritten


def normalize_and_chains(node: SqlNode) -> SqlNode:
    """Rebuild every AND chain as a left-deep chain of its conjuncts.

    ``(a AND b) AND (c AND d)`` and ``((a AND b) AND c) AND d`` denote the same
    predicate; putting both into the same shape makes structural equality (and
    therefore Difftree coverage checks) insensitive to how the user happened to
    parenthesize their filters.
    """
    if not any(
        isinstance(descendant, BinaryOp) and descendant.op == "AND" for descendant in node.walk()
    ):
        return node

    def rewrite(candidate: SqlNode) -> SqlNode | None:
        if isinstance(candidate, BinaryOp) and candidate.op == "AND":
            conjuncts = split_conjuncts(candidate)
            rebuilt = join_conjuncts(conjuncts)
            if rebuilt is not None and rebuilt != candidate:
                return rebuilt
        return None

    return transform(node, rewrite)


def canonicalize(query: Select) -> Select:
    """Apply all canonicalization passes to a query AST."""
    normalized = normalize_and_chains(strip_redundant_qualifiers(query))
    assert isinstance(normalized, Select)
    return normalized


_CANONICAL_ATTR = "_repro_canonical"


def canonical_form(node: SqlNode) -> SqlNode:
    """Canonical shape of an arbitrary query/expression for equality checks.

    Memoized on the (immutable) node object: coverage checks canonicalize the
    same target queries thousands of times during a search, and the memo makes
    every repeat an attribute lookup.  A node that is its own canonical form
    memoizes ``True``, not itself: a self-reference would be a cycle only the
    cyclic collector frees, and ``True`` keeps its identity through pickle
    and ``copy.deepcopy``.
    """
    cached = getattr(node, _CANONICAL_ATTR, None)
    if cached is not None:
        return node if cached is True else cached
    if isinstance(node, Select):
        result = canonicalize(node)
    else:
        result = normalize_and_chains(node)
    try:
        object.__setattr__(node, _CANONICAL_ATTR, True if result is node else result)
    except (AttributeError, TypeError):  # pragma: no cover - slotted nodes
        pass
    return result


_CANONICAL_SQL_ATTR = "_repro_canonical_sql"


def canonical_sql(node: SqlNode) -> str:
    """Rendered SQL of the node's canonical form, memoized on the node.

    Because printing then re-parsing is the identity (property-tested), two
    queries have equal canonical SQL iff their canonical ASTs are equal —
    which makes this string a precise, cheap-to-compare equality proxy for
    coverage checks.
    """
    from repro.sql.printer import to_sql

    cached = getattr(node, _CANONICAL_SQL_ATTR, None)
    if cached is not None:
        return cached
    rendered = to_sql(canonical_form(node))
    try:
        object.__setattr__(node, _CANONICAL_SQL_ATTR, rendered)
    except (AttributeError, TypeError):  # pragma: no cover - slotted nodes
        pass
    return rendered


def _similarity_key(node: SqlNode) -> tuple:
    """``(label, child keys)`` of a subtree, memoized on the node.

    Unlike the type-exact :func:`~repro.difftree.signatures.tree_signature`,
    this compares labels with Python ``==`` (``1``, ``1.0`` and ``TRUE``
    match), as :func:`~repro.difftree.diff.merge_nodes` does: similarity
    estimates how much of two queries a merge would share.
    """
    try:
        return node._repro_similarity_key  # type: ignore[attr-defined]
    except AttributeError:
        pass
    key = (node.label(), tuple(_similarity_key(child) for child in node.children()))
    object.__setattr__(node, "_repro_similarity_key", key)
    return key


def _subtree_counts(node: SqlNode) -> tuple[dict[tuple, int], int]:
    """The multiset of subtree keys in ``node`` and its size, memoized on the node.

    The size is the sum of the counts.  Every generation compares every query
    pair of its log, and a regenerated log brings back the same query nodes,
    so each query is walked once per catalog rather than once per pair.
    """
    try:
        return node._repro_subtree_counts  # type: ignore[attr-defined]
    except AttributeError:
        pass
    counts: dict[tuple, int] = {}
    for descendant in node.walk():
        key = _similarity_key(descendant)
        counts[key] = counts.get(key, 0) + 1
    memo = (counts, sum(counts.values()))
    object.__setattr__(node, "_repro_subtree_counts", memo)
    return memo


def structural_similarity(a: SqlNode, b: SqlNode) -> float:
    """Similarity in [0, 1]: shared subtree mass over average tree size.

    Shared subtrees are counted over multisets of subtree keys, so repeated
    structure is credited once per occurrence.
    """
    counts_a, size_a = _subtree_counts(a)
    counts_b, size_b = _subtree_counts(b)
    shared = sum(min(count, counts_b.get(key, 0)) for key, count in counts_a.items())
    return min(1.0, 2.0 * shared / (size_a + size_b))


def _table_names(query: SqlNode) -> frozenset[str]:
    """The lower-cased names of every base table ``query`` reads, memoized on the node."""
    try:
        return query._repro_table_names  # type: ignore[attr-defined]
    except AttributeError:
        pass
    names = frozenset(ref.name.lower() for ref in query.find_all(TableRef))
    object.__setattr__(query, "_repro_table_names", names)
    return names


def queries_share_source(a: Select, b: Select) -> bool:
    """True when the two queries reference at least one common base table."""
    return not _table_names(a).isdisjoint(_table_names(b))


def split_conjuncts(predicate: SqlNode | None) -> list[SqlNode]:
    """Split a predicate into its top-level AND conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, BinaryOp) and predicate.op == "AND":
        return split_conjuncts(predicate.left) + split_conjuncts(predicate.right)
    return [predicate]


def join_conjuncts(conjuncts: list[SqlNode]) -> SqlNode | None:
    """Re-assemble a conjunct list into a left-deep AND chain."""
    if not conjuncts:
        return None
    result = conjuncts[0]
    for conjunct in conjuncts[1:]:
        result = BinaryOp(op="AND", left=result, right=conjunct)
    return result
