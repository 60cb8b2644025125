"""Difftree schema extraction.

The interface mapping step of PI2 is formulated as schema matching: both the
Difftrees and the interface components expose a *schema*, and mapping is the
search for a compatible match.  This module computes the Difftree side:

* a :class:`TreeProfile` per Difftree — the result schema of its default
  instantiation plus query-shape features (from ``repro.sql.analyzer``), and
* a :class:`ChoiceContext` per choice node — what kind of variation it
  controls (literals, columns, predicates, whole subqueries), which attribute
  it constrains, which clause it lives in, and whether it forms a low/high
  range pair with a sibling choice (the pattern that maps to brushes, sliders
  and pan/zoom interactions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

from repro.difftree.builder import DifftreeForest
from repro.difftree.instantiate import default_bindings, instantiate
from repro.difftree.nodes import AnyNode, ChoiceNode, OptNode, collect_choice_nodes
from repro.difftree.signatures import STRUCTURE_CACHE_CAPACITIES, LruDict, structure_key
from repro.sql.analyzer import Analyzer, QueryProfile
from repro.sql.ast_nodes import (
    BetweenOp,
    BinaryOp,
    ColumnRef,
    Exists,
    FunctionCall,
    InList,
    InSubquery,
    Literal,
    Select,
    SelectItem,
    SqlNode,
)
from repro.sql.schema import TableSchema

#: Clause labels used by ChoiceContext.clause.
CLAUSES = ("select", "from", "where", "group_by", "having", "order_by", "cte")


@dataclass(frozen=True)
class ChoiceContext:
    """Mapping-relevant description of one choice node."""

    choice_id: str
    kind: str  # "any" | "opt"
    cardinality: int
    alternative_kind: str
    clause: str
    target_attribute: str | None = None
    comparison_op: str | None = None
    literal_values: tuple = ()
    range_partner: str | None = None
    range_position: str | None = None  # "low" | "high"
    wraps_subquery: bool = False
    wraps_predicate: bool = False

    @property
    def is_range_member(self) -> bool:
        return self.range_partner is not None


@dataclass
class TreeProfile:
    """Schema-matching profile of one Difftree."""

    tree_index: int
    query_profile: QueryProfile
    choices: list[ChoiceContext] = field(default_factory=list)

    def choice(self, choice_id: str) -> ChoiceContext:
        for context in self.choices:
            if context.choice_id == choice_id:
                return context
        raise KeyError(choice_id)

    def range_pairs(self) -> list[tuple[ChoiceContext, ChoiceContext]]:
        """(low, high) choice pairs that together define a value range."""
        pairs = []
        by_id = {context.choice_id: context for context in self.choices}
        for context in self.choices:
            if context.range_position == "low" and context.range_partner in by_id:
                pairs.append((context, by_id[context.range_partner]))
        return pairs


@dataclass
class ForestSchema:
    """Profiles for every tree of a forest."""

    profiles: list[TreeProfile] = field(default_factory=list)


# --------------------------------------------------------------------------- #
# Choice context extraction
# --------------------------------------------------------------------------- #


def _alternative_kind(node: ChoiceNode) -> str:
    if isinstance(node, OptNode):
        child = node.child
        if isinstance(child, (InSubquery, Exists)) or any(
            isinstance(descendant, Select) for descendant in child.walk()
        ):
            return "subquery"
        if _is_predicate(child):
            return "predicate"
        if isinstance(child, SelectItem):
            return "select_item"
        if isinstance(child, ColumnRef):
            return "column"
        if isinstance(child, Literal):
            return (
                "numeric_literal"
                if isinstance(child.value, (int, float)) and not isinstance(child.value, bool)
                else "text_literal"
            )
        return "other"
    assert isinstance(node, AnyNode)
    alternatives = node.alternatives
    if all(isinstance(alt, Literal) for alt in alternatives):
        if node.is_numeric_literal_choice():
            return "numeric_literal"
        return "text_literal"
    if all(isinstance(alt, ColumnRef) for alt in alternatives):
        return "column"
    if all(isinstance(alt, SelectItem) for alt in alternatives):
        return "select_item"
    if all(isinstance(alt, Select) for alt in alternatives):
        return "query"
    if all(_is_predicate(alt) for alt in alternatives):
        return "predicate"
    return "mixed"


def _is_predicate(node: SqlNode) -> bool:
    if isinstance(node, (BetweenOp, InList, InSubquery, Exists)):
        return True
    if isinstance(node, BinaryOp) and node.op in ("=", "<>", "<", "<=", ">", ">=", "AND", "OR", "LIKE"):
        return True
    return False


def _literal_values(node: ChoiceNode) -> tuple:
    if isinstance(node, AnyNode) and node.is_literal_choice():
        return tuple(node.literal_values())
    return ()


#: The clause of each Select field that holds nodes.
_SELECT_SLOTS = {
    "select_items": "select",
    "from_clause": "from",
    "where": "where",
    "group_by": "group_by",
    "having": "having",
    "order_by": "order_by",
    "ctes": "cte",
}
_SLOT_ORDER = {clause: order for order, clause in enumerate(CLAUSES)}
_COMPARISONS = ("=", "<>", "<", "<=", ">", ">=")


def _comparisons_under(node: SqlNode) -> list[tuple[SqlNode, tuple]]:
    """(choice child, (attribute, operator, range position)) pairs ``node`` establishes."""
    if isinstance(node, BinaryOp):
        if node.op not in _COMPARISONS:
            return []
        if isinstance(node.right, ChoiceNode) and isinstance(node.left, ColumnRef):
            return [(node.right, (node.left.name, node.op, None))]
        if isinstance(node.left, ChoiceNode) and isinstance(node.right, ColumnRef):
            return [(node.left, (node.right.name, node.op, None))]
        return []
    if isinstance(node, BetweenOp):
        if not isinstance(node.expr, ColumnRef):
            return []
        name = node.expr.name
        return [
            (bound, (name, "between", position))
            for bound, position in ((node.low, "low"), (node.high, "high"))
            if isinstance(bound, ChoiceNode)
        ]
    if isinstance(node, (InList, InSubquery)):
        if not isinstance(node.expr, ColumnRef):
            return []
        return [
            (child, (node.expr.name, "in", None))
            for child in node.children()
            if isinstance(child, ChoiceNode)
        ]
    if isinstance(node, FunctionCall):
        # e.g. ANY inside strftime(...) — attribute unknown.
        return [
            (arg, (None, node.lower_name, None)) for arg in node.args if isinstance(arg, ChoiceNode)
        ]
    return []


def _child_slots(select: Select):
    """(child, clause) pairs of a Select, in ``children()`` order."""
    for name, value in select.child_slots():
        clause = _SELECT_SLOTS.get(name)
        if isinstance(value, SqlNode):
            yield value, clause
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, SqlNode):
                    yield item, clause


def _walk_contexts(tree: SqlNode):
    """One pre-order walk collecting every choice node's clause, comparison and range facts.

    Returns ``(clauses, comparisons, partners)``:

    * ``clauses`` — per choice *object*, its clause in the innermost SELECT
      enclosing it.  A choice object placed at several positions takes the
      last enclosing SELECT in pre-order among all its positions, then the
      first clause in :data:`CLAUSES` order among its positions there.
      Clauses are only tracked when the root is a SELECT;
    * ``comparisons`` — per choice object, the (attribute, operator, range
      position) of the first parent in pre-order that compares it with a
      column;
    * ``partners`` — per choice id, its (partner id, "low"/"high") in a
      BETWEEN whose bounds are both choices; later BETWEENs overwrite
      earlier ones.
    """
    track_clauses = isinstance(tree, Select)
    # Per choice object, the greatest (pre-order index of the innermost
    # SELECT, -slot order) over its positions.
    owners: dict[int, tuple[int, int]] = {}
    comparisons: dict[int, tuple] = {}
    partners: dict[str, tuple[str, str]] = {}
    selects = 0
    # Stack entries: (node, innermost enclosing SELECT's pre-order index, clause).
    stack: list[tuple[SqlNode, int, str | None]] = [(tree, -1, None)]
    while stack:
        node, owner, clause = stack.pop()
        if isinstance(node, ChoiceNode) and track_clauses and clause is not None:
            rank = (owner, -_SLOT_ORDER[clause])
            if rank > owners.get(id(node), (-1, 0)):
                owners[id(node)] = rank
        for choice, context in _comparisons_under(node):
            comparisons.setdefault(id(choice), context)
        if isinstance(node, BetweenOp):
            low, high = node.low, node.high
            if isinstance(low, ChoiceNode) and isinstance(high, ChoiceNode):
                partners[low.choice_id] = (high.choice_id, "low")
                partners[high.choice_id] = (low.choice_id, "high")
        if isinstance(node, Select):
            index = selects
            selects += 1
            stack.extend((child, index, slot) for child, slot in reversed(list(_child_slots(node))))
        else:
            stack.extend((child, owner, clause) for child in reversed(node.children()))
    clauses = {node_id: CLAUSES[-slot] for node_id, (_, slot) in owners.items()}
    return clauses, comparisons, partners


def choice_contexts(tree: SqlNode) -> list[ChoiceContext]:
    """Compute the :class:`ChoiceContext` of every choice node in a Difftree."""
    choices = collect_choice_nodes(tree)
    if not choices:
        return []
    clauses, comparisons, partners = _walk_contexts(tree)
    # Keyed by choice id: the last node carrying an id speaks for all of them.
    raw_contexts = {
        choice.choice_id: comparisons.get(id(choice), (None, None, None)) for choice in choices
    }

    contexts: list[ChoiceContext] = []
    for choice in choices:
        attribute, operator, position = raw_contexts[choice.choice_id]
        partner_id, partner_position = partners.get(choice.choice_id, (None, None))
        kind = "opt" if isinstance(choice, OptNode) else "any"
        alternative_kind = _alternative_kind(choice)
        contexts.append(
            ChoiceContext(
                choice_id=choice.choice_id,
                kind=kind,
                cardinality=2 if isinstance(choice, OptNode) else choice.cardinality,  # type: ignore[union-attr]
                alternative_kind=alternative_kind,
                clause=clauses.get(id(choice), "select"),
                target_attribute=attribute,
                comparison_op=operator,
                literal_values=_literal_values(choice),
                range_partner=partner_id,
                range_position=partner_position or position,
                wraps_subquery=alternative_kind == "subquery",
                wraps_predicate=alternative_kind in ("predicate", "subquery"),
            )
        )
    return contexts


# --------------------------------------------------------------------------- #
# Tree and forest profiles
# --------------------------------------------------------------------------- #


def tree_profile(
    tree: SqlNode, tree_index: int, table_schemas: dict[str, TableSchema]
) -> TreeProfile:
    """Profile one Difftree: default instantiation analysis plus choice contexts."""
    default_query = instantiate(tree, default_bindings(tree))
    if not isinstance(default_query, Select):
        raise TypeError("Difftree default instantiation is not a SELECT")
    return TreeProfile(
        tree_index=tree_index,
        query_profile=Analyzer(table_schemas).analyze(default_query),
        choices=choice_contexts(tree),
    )


#: Tree objects the per-generation identity path remembers before it starts
#: over: the bound one search's profile cache had before the store moved to
#: the catalog (a search builds more tree objects than it visits structures).
IDENTITY_PATH_CAPACITY = 1024


class TreeProfileCache:
    """One generation's view of a structure-keyed, LRU-bounded profile store.

    A tree's profile is a deterministic function of the tree structure and
    the table schemas, so it can be shared across every forest state a
    search visits — and, when the store is the catalog's, across
    generations.  Lookups take an identity fast path first (neighbouring
    forest states share unchanged trees by object identity), then fall back
    to the store, keyed on ``(structure_key(tree), scope)``: the structure
    key erases choice ids but keeps which choice nodes share one, and
    ``scope`` identifies the table schemas.  Equal trees rebuilt along
    different action sequences with fresh choice ids correspond
    positionally (pre-order), so the cached profile's choice contexts are
    remapped to the new tree's ids — once per tree object, since the remapped
    profile joins the identity path.

    ``hits``/``misses`` count this view's lookups only, so a store shared by
    concurrent generations does not mix their traffic into each other's
    statistics.  The identity path holds tree objects alive, so it never
    outlives the view.
    """

    def __init__(self, store: LruDict | None = None, scope: Hashable = None) -> None:
        if store is None:
            store = LruDict(STRUCTURE_CACHE_CAPACITIES["profiles"])
        self._store = store
        self._scope = scope
        self._by_id: dict[int, tuple[SqlNode, TreeProfile]] = {}
        self.hits = 0
        self.misses = 0

    def get(self, tree: SqlNode) -> TreeProfile | None:
        entry = self._by_id.get(id(tree))
        if entry is not None and entry[0] is tree:
            self.hits += 1
            return entry[1]
        cached = self._store.get((structure_key(tree), self._scope))
        if cached is None:
            self.misses += 1
            return None
        self.hits += 1
        cached_ids, profile = cached
        tree_ids = tuple(node.choice_id for node in collect_choice_nodes(tree))
        if tree_ids != cached_ids:
            profile = _remap_profile(profile, cached_ids, tree_ids)
        self._remember(tree, profile)
        return profile

    def put(self, tree: SqlNode, profile: TreeProfile) -> None:
        tree_ids = tuple(node.choice_id for node in collect_choice_nodes(tree))
        self._store.put((structure_key(tree), self._scope), (tree_ids, profile))
        self._remember(tree, profile)

    def _remember(self, tree: SqlNode, profile: TreeProfile) -> None:
        if len(self._by_id) >= IDENTITY_PATH_CAPACITY:
            self._by_id.clear()
        self._by_id[id(tree)] = (tree, profile)

    def stats(self) -> dict[str, int]:
        stats = self._store.stats()
        stats["hits"] = self.hits
        stats["misses"] = self.misses
        return stats


def _remap_profile(
    profile: TreeProfile, cached_ids: tuple[str, ...], tree_ids: tuple[str, ...]
) -> TreeProfile:
    """Rebind a cached profile's choice contexts to a tree with the same structure key.

    The two trees differ only in choice ids, and their id-sharing patterns
    are equal (the key includes them), so the positional map is a function:
    every id-bearing field is translated through it.  The result is exactly
    the profile a from-scratch ``tree_profile`` call on the new tree would
    produce.
    """
    from dataclasses import replace

    mapping = dict(zip(cached_ids, tree_ids))
    choices = [
        replace(
            context,
            choice_id=mapping[context.choice_id],
            range_partner=mapping.get(context.range_partner, context.range_partner)
            if context.range_partner is not None
            else None,
        )
        for context in profile.choices
    ]
    return TreeProfile(
        tree_index=profile.tree_index, query_profile=profile.query_profile, choices=choices
    )


def _reindexed(profile: TreeProfile, index: int) -> TreeProfile:
    if profile.tree_index == index:
        return profile
    return TreeProfile(
        tree_index=index, query_profile=profile.query_profile, choices=profile.choices
    )


def forest_schema(
    forest: DifftreeForest,
    table_schemas: dict[str, TableSchema],
    profile_cache: TreeProfileCache | None = None,
) -> ForestSchema:
    """Profiles for every tree of a forest.

    ``profile_cache`` (signature-keyed, LRU-bounded) lets the search layer
    reuse profiles of trees shared between neighbouring forest states.
    """
    profiles = []
    for index, tree in enumerate(forest.trees):
        cached_profile = profile_cache.get(tree) if profile_cache is not None else None
        if cached_profile is not None:
            profile = _reindexed(cached_profile, index)
        else:
            profile = tree_profile(tree, index, table_schemas)
            if profile_cache is not None:
                profile_cache.put(tree, profile)
        profiles.append(profile)
    return ForestSchema(profiles=profiles)
