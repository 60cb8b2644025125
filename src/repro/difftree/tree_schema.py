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

from repro.difftree.builder import DifftreeForest
from repro.difftree.instantiate import default_bindings, instantiate
from repro.difftree.nodes import AnyNode, ChoiceNode, OptNode, collect_choice_nodes
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
    def is_numeric_domain(self) -> bool:
        return self.alternative_kind == "numeric_literal"

    @property
    def is_range_member(self) -> bool:
        return self.range_partner is not None


@dataclass
class TreeProfile:
    """Schema-matching profile of one Difftree."""

    tree_index: int
    default_query: Select
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

    def all_choices(self) -> list[tuple[int, ChoiceContext]]:
        result = []
        for profile in self.profiles:
            for context in profile.choices:
                result.append((profile.tree_index, context))
        return result


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


def _find_clause(root: Select, target: ChoiceNode) -> str:
    """The clause of the nearest enclosing SELECT that contains ``target``."""
    # Locate the innermost Select that contains the target.
    owner = root
    for node in root.walk():
        if isinstance(node, Select) and any(descendant is target for descendant in node.walk()):
            owner = node
    slots: list[tuple[str, list[SqlNode]]] = [
        ("select", [item for item in owner.select_items]),
        ("from", [owner.from_clause] if owner.from_clause is not None else []),
        ("where", [owner.where] if owner.where is not None else []),
        ("group_by", list(owner.group_by)),
        ("having", [owner.having] if owner.having is not None else []),
        ("order_by", list(owner.order_by)),
        ("cte", list(owner.ctes)),
    ]
    for clause, nodes in slots:
        for node in nodes:
            if node is target or any(descendant is target for descendant in node.walk()):
                return clause
    return "select"


def _comparison_context(tree: SqlNode, target: ChoiceNode) -> tuple[str | None, str | None, str | None]:
    """(attribute, operator, range position) of the comparison enclosing ``target``."""
    for node in tree.walk():
        if isinstance(node, BinaryOp) and node.op in ("=", "<>", "<", "<=", ">", ">="):
            if node.right is target and isinstance(node.left, ColumnRef):
                return node.left.name, node.op, None
            if node.left is target and isinstance(node.right, ColumnRef):
                return node.right.name, node.op, None
        if isinstance(node, BetweenOp) and isinstance(node.expr, ColumnRef):
            if node.low is target:
                return node.expr.name, "between", "low"
            if node.high is target:
                return node.expr.name, "between", "high"
        if isinstance(node, (InList, InSubquery)) and isinstance(node.expr, ColumnRef):
            if any(child is target for child in node.children()):
                return node.expr.name, "in", None
        if isinstance(node, FunctionCall):
            if any(arg is target for arg in node.args):
                # e.g. ANY inside strftime(...) — attribute unknown.
                return None, node.lower_name, None
    return None, None, None


def _range_partners(
    tree: SqlNode, contexts: dict[str, tuple[str | None, str | None, str | None]]
) -> dict[str, tuple[str, str]]:
    """Pair up low/high choices of the same BETWEEN: choice_id -> (partner, position)."""
    partners: dict[str, tuple[str, str]] = {}
    for node in tree.walk():
        if not isinstance(node, BetweenOp):
            continue
        low, high = node.low, node.high
        if isinstance(low, ChoiceNode) and isinstance(high, ChoiceNode):
            partners[low.choice_id] = (high.choice_id, "low")
            partners[high.choice_id] = (low.choice_id, "high")
    return partners


def choice_contexts(tree: SqlNode) -> list[ChoiceContext]:
    """Compute the :class:`ChoiceContext` of every choice node in a Difftree."""
    choices = collect_choice_nodes(tree)
    if not choices:
        return []
    root = tree if isinstance(tree, Select) else None
    raw_contexts: dict[str, tuple[str | None, str | None, str | None]] = {}
    for choice in choices:
        raw_contexts[choice.choice_id] = _comparison_context(tree, choice)
    partners = _range_partners(tree, raw_contexts)

    contexts: list[ChoiceContext] = []
    for choice in choices:
        attribute, operator, position = raw_contexts[choice.choice_id]
        partner_id, partner_position = partners.get(choice.choice_id, (None, None))
        clause = _find_clause(root, choice) if root is not None else "select"
        kind = "opt" if isinstance(choice, OptNode) else "any"
        alternative_kind = _alternative_kind(choice)
        contexts.append(
            ChoiceContext(
                choice_id=choice.choice_id,
                kind=kind,
                cardinality=2 if isinstance(choice, OptNode) else choice.cardinality,  # type: ignore[union-attr]
                alternative_kind=alternative_kind,
                clause=clause,
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
    analyzer = Analyzer(table_schemas)
    profile = analyzer.analyze(default_query)
    return TreeProfile(
        tree_index=tree_index,
        default_query=default_query,
        query_profile=profile,
        choices=choice_contexts(tree),
    )


class TreeProfileCache:
    """Signature-keyed, LRU-bounded cache of per-tree profiles.

    A tree's profile is a deterministic function of the tree structure and
    the fixed catalog schemas, so it can be shared across every forest state
    a search visits.  Lookups take an identity fast path first (neighbouring
    forest states share unchanged trees by object identity), then fall back
    to the *structural* (choice-id-insensitive) signature, which also catches
    equal trees rebuilt along different action sequences with fresh choice
    ids — their choice nodes correspond positionally (pre-order), so the
    cached profile's choice contexts are remapped to the new tree's ids.
    """

    def __init__(self, capacity: int = 1024) -> None:
        from repro.difftree.signatures import LruDict

        self._by_signature = LruDict(capacity)
        self._by_id: dict[int, tuple[SqlNode, TreeProfile]] = {}
        self._id_capacity = capacity

    @property
    def hits(self) -> int:
        return self._by_signature.hits

    @property
    def misses(self) -> int:
        return self._by_signature.misses

    def get(self, tree: SqlNode) -> TreeProfile | None:
        entry = self._by_id.get(id(tree))
        if entry is not None and entry[0] is tree:
            self._by_signature.hits += 1
            return entry[1]
        from repro.difftree.signatures import structural_signature

        cached = self._by_signature.get(structural_signature(tree))
        if cached is None:
            return None
        cached_ids, profile = cached
        tree_ids = tuple(node.choice_id for node in collect_choice_nodes(tree))
        if tree_ids == cached_ids:
            return profile
        return _remap_profile(profile, cached_ids, tree_ids)

    def put(self, tree: SqlNode, profile: TreeProfile) -> None:
        from repro.difftree.signatures import structural_signature

        tree_ids = tuple(node.choice_id for node in collect_choice_nodes(tree))
        self._by_signature.put(structural_signature(tree), (tree_ids, profile))
        if len(self._by_id) >= self._id_capacity:
            self._by_id.clear()
        self._by_id[id(tree)] = (tree, profile)

    def stats(self) -> dict[str, int]:
        return self._by_signature.stats()


def _remap_profile(
    profile: TreeProfile, cached_ids: tuple[str, ...], tree_ids: tuple[str, ...]
) -> TreeProfile:
    """Rebind a cached profile's choice contexts to a structurally equal tree.

    The two trees differ only in choice ids; choice nodes correspond
    positionally, so every id-bearing field is translated through the
    positional map.  The result is exactly the profile a from-scratch
    ``tree_profile`` call on the new tree would produce.
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
        tree_index=profile.tree_index,
        default_query=profile.default_query,
        query_profile=profile.query_profile,
        choices=choices,
    )


def _reindexed(profile: TreeProfile, index: int) -> TreeProfile:
    if profile.tree_index == index:
        return profile
    return TreeProfile(
        tree_index=index,
        default_query=profile.default_query,
        query_profile=profile.query_profile,
        choices=profile.choices,
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
