"""Expressiveness term of the cost model.

The generated interface must be able to re-express every query of the input
log ("return the lowest cost interface I that can express all queries in Q").
This module measures the fraction of input queries each Difftree can
instantiate and converts misses into a large cost penalty; it also reports the
size of the binding space as a (log-scaled) generality measure used by
ablation benchmarks.

Coverage asks, per (tree, member query) pair, whether *some* binding of the
tree instantiates to the query.  It is answered target-first, in three steps:

1. **narrow** — every choice node's domain shrinks to the values a matching
   binding could need (:func:`narrowed_domains`);
2. **enumerate** — only the narrowed product, through ``enumerate_bindings``;
3. **verify** — a binding counts only when ``instantiate`` followed by
   ``canonical_sql`` reproduces the target's canonical SQL exactly.

Verification is the exact oracle, so narrowing can never invent a match; it
is sound (never hides one) by the argument in :func:`narrowed_domains`.
"""

from __future__ import annotations

import math
from typing import Any

from repro.difftree.builder import DifftreeForest
from repro.difftree.canonical import canonical_form, canonical_sql
from repro.difftree.instantiate import binding_space_size
from repro.difftree.nodes import AnyNode, ChoiceNode, OptNode, collect_choice_nodes
from repro.difftree.signatures import structure_key
from repro.sql.ast_nodes import ColumnRef, OrderItem, Select, SqlNode, TableRef

#: Cost added per input query the interface cannot express.
MISSING_QUERY_PENALTY = 10.0
#: Trees whose binding space exceeds this are counted as not covering their
#: queries without enumerating: such tangles of choice nodes are terrible
#: interfaces anyway, and the penalty steers the search away from them cheaply.
BINDING_SPACE_CAP = 256


#: Mapping used to memoize coverage answers across the many forest states a
#: search evaluates, and across generations on one catalog:
#: ``(structure key, canonical target SQL) → bool``.  The structure key
#: (:func:`~repro.difftree.signatures.structure_key`) erases choice ids, so
#: equal trees rebuilt along different action sequences — including merges
#: replayed with fresh choice ids — share one entry, and the cache holds no
#: tree objects alive.  Coverage never looks at the ids themselves, only at
#: which choice nodes share one (a shared id makes them agree), and the key
#: keeps that sharing pattern, so it is exact.  Any dict-like mapping works;
#: the cost model passes a bounded LruDict, by default the catalog's shared
#: one.
CoverageCache = dict

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
    keys = _target_keys(target)
    domains: dict[str, list[Any]] = {}

    def visit(node: SqlNode, order_slot: bool, off_raises: bool) -> None:
        if isinstance(node, AnyNode):
            carrying: list[int] = []
            free: list[int] = []
            surviving: list[int] = []
            for index, alternative in enumerate(node.alternatives):
                alternative_keys = _choice_free_keys(alternative)
                if alternative_keys is None:
                    carrying.append(index)
                    visit(alternative, order_slot, off_raises)
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
                visit(node.child, order_slot, off_raises)
            elif not off_raises and node.choice_id not in repeated and not child_keys <= keys:
                domains[node.choice_id] = [False]
            return
        if isinstance(node, Select):
            nested = node is not tree
            for item in node.select_items:
                visit(item, False, nested)
            for item in node.order_by:
                visit(item, True, False)
            for value in (node.from_clause, node.where, node.having, *node.group_by, *node.ctes):
                if value is not None:
                    visit(value, False, False)
            return
        for child in node.children():
            visit(child, False, off_raises)

    visit(tree, False, False)
    return domains


def _query_covered(tree, query, tree_key, cache: CoverageCache | None) -> bool:
    target_sql = canonical_sql(query)
    key = None
    if cache is not None:
        key = (tree_key, target_sql)
        cached = cache.get(key)
        if cached is not None:
            return cached
    covered = False
    if binding_space_size(tree) <= BINDING_SPACE_CAP:
        # Looked up at call time so tracing wrappers see every call.
        from repro.difftree.instantiate import enumerate_bindings, instantiate

        for bindings in enumerate_bindings(tree, domains=narrowed_domains(tree, query)):
            try:
                if canonical_sql(instantiate(tree, bindings)) == target_sql:
                    covered = True
                    break
            except Exception:  # noqa: BLE001 - skip broken/unrenderable bindings
                continue
    if cache is not None:
        cache[key] = covered
    return covered


def tree_covered_count(
    tree,
    forest: DifftreeForest,
    member_indices: list[int],
    cache: CoverageCache | None = None,
) -> int:
    """How many of the tree's member queries it can express.

    This is the per-tree piece of the coverage computation: the forest-level
    ratio/cost recompose from these counts, so an incremental evaluation only
    pays for the trees an action changed.
    """
    tree_key = structure_key(tree) if cache is not None else None
    covered = 0
    for query_index in member_indices:
        if _query_covered(tree, forest.queries[query_index], tree_key, cache):
            covered += 1
    return covered


def forest_covered_count(forest: DifftreeForest, cache: CoverageCache | None = None) -> int:
    """Input queries expressible by the tree that owns them, forest-wide."""
    covered = 0
    for tree_index, member_indices in enumerate(forest.members):
        covered += tree_covered_count(forest.trees[tree_index], forest, member_indices, cache)
    return covered


def coverage_ratio(forest: DifftreeForest, cache: CoverageCache | None = None) -> float:
    """Fraction of the input query log expressible by the forest's trees."""
    if not forest.queries:
        return 1.0
    return forest_covered_count(forest, cache) / len(forest.queries)


def cost_from_covered(covered: int, total: int) -> float:
    """The expressiveness penalty for ``covered`` of ``total`` queries.

    The single home of the missing-query formula — the standalone
    :func:`expressiveness_cost` and the cost model's decomposed evaluation
    both go through it, so the two paths cannot drift.
    """
    if total == 0:
        return 0.0
    ratio = covered / total
    missing = round((1.0 - ratio) * total)
    return missing * MISSING_QUERY_PENALTY


def expressiveness_cost(forest: DifftreeForest, cache: CoverageCache | None = None) -> float:
    """Penalty for input queries the interface cannot re-express."""
    if not forest.queries:
        return 0.0
    return cost_from_covered(forest_covered_count(forest, cache), len(forest.queries))


def generality_score(forest: DifftreeForest) -> float:
    """Log-scaled size of the space of queries the interface can express.

    Choice nodes generalize the input queries (a slider expresses infinitely
    many literal values; here we count the discrete binding space).  The score
    is informational — the cost model does not reward generality directly, but
    the ablation benchmarks report it.
    """
    total = 0.0
    for tree in forest.trees:
        total += math.log2(max(binding_space_size(tree), 1))
    return total
