"""Per-tree signatures: cached, exact identities of Difftree structures.

The search layer evaluates thousands of candidate forests, but each action
(a ``merge(i, j)`` or a single-tree transformation) touches one or two trees —
the rest of the forest is *structure-shared* by object identity.  Signatures
turn that sharing into cache hits:

* :func:`tree_signature` — a *precise* structural signature (node labels,
  which include choice ids and OPT defaults, plus tree shape).
* :func:`structural_signature` — the same with choice ids erased.
* both signatures are **type-exact**: ``SqlNode.label()`` compares scalars
  with Python ``==``, which merges ``1``, ``1.0`` and ``TRUE``; the
  signatures tag literal scalars with their type, because the three render
  differently.
* caches never key on a bare signature — a nested tuple as large as the
  tree, whose hash Python recomputes on every dict operation — but on an
  :class:`ExactKey`, which hashes once and compares exactly:
  :func:`tree_key` (ids included) and :func:`structure_key` (ids erased,
  choice-id sharing pattern added).  Both are memoized on the root node.
* a forest's identity, ``DifftreeForest.signature()``, is per tree its
  members plus :func:`structure_key`; the search's evaluation ledger, the
  catalog's forest-cost memo and the visited-sets key on it.
* signatures compare **by value**: equal trees reached along different
  action sequences get equal keys and so share cache entries, whichever
  tuple object each rollout happened to build.  Nothing process-global holds
  them: a signature lives exactly as long as the node memo and the cache
  entries that reference it.

All memos are stored via ``object.__setattr__`` on the (frozen, immutable) AST
nodes — a node's structure never changes after construction, so the memo can
never go stale.  The memo attributes are not dataclass fields, so node
equality and hashing are unaffected.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable

from repro.sql.ast_nodes import SqlNode

#: Sentinel for "no entry" (a cached value may be None or False).
_MISSING = object()

#: Memo attribute names stashed on AST nodes (not dataclass fields).
_SIGNATURE_ATTR = "_repro_signature"
_STRUCTURAL_ATTR = "_repro_structural"


class ExactKey:
    """A cache key that hashes its value once and compares it exactly.

    Signatures are nested tuples as large as their tree, and Python does not
    cache tuple hashes, so every dict operation on a bare signature costs
    O(tree).  An ExactKey computes the hash once; equality compares the
    hashes first and then the values themselves, so two keys are equal
    exactly when their values are.  Subtrees shared by two trees share their
    memoized signature tuples, which keeps the comparison on a hash match
    short.  The hash is not pickled: string hashes differ between processes,
    so an unpickled key hashes its value again.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: Hashable) -> None:
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not ExactKey:
            return NotImplemented
        return self._hash == other._hash and self.value == other.value

    def __reduce__(self):
        return (ExactKey, (self.value,))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactKey({self.value!r})"


def _exact(value: Any) -> Any:
    """A scalar tagged with its type where Python equality would merge types.

    ``1 == 1.0 == True``, yet the three literals render differently, so a
    signature must tell them apart.  Floats are tagged by ``repr``, which also
    separates ``0.0`` from ``-0.0``.
    """
    kind = type(value)
    if kind is float:
        return ("float", repr(value))
    if kind is int or kind is bool:
        return (kind.__name__, value)
    if kind is tuple:
        return tuple(_exact(item) for item in value)
    return value


def exact_key(*values: Hashable) -> ExactKey:
    """``values`` as one :class:`ExactKey`, every scalar tagged by type.

    For keys built from settings rather than trees: ``1``, ``1.0`` and
    ``True`` stay three keys, as they do in a signature.  Give a dataclass as
    ``dataclasses.astuple`` and a mapping as its sorted items.
    """
    return ExactKey(_exact(values))


def _exact_label(node: SqlNode, erase_choice_id: bool = False) -> tuple:
    """``node.label()`` with type-tagged scalars (and, optionally, no choice id)."""
    name, scalars = node.label()
    return (
        name,
        tuple(
            (slot, _exact(value))
            for slot, value in scalars
            if not (erase_choice_id and slot == "choice_id")
        ),
    )


def tree_signature(node: SqlNode) -> tuple:
    """Precise structural signature of a Difftree, memoized on the node.

    Equal signatures imply equal node labels — hence equal choice ids, OPT
    defaults, literals (type included) and column names — at every position
    of the tree.  Suitable for values that *embed choice ids* (widget mapping
    pieces, transformation lists); for choice-id-insensitive values use
    :func:`structural_signature`, which shares entries across replayed merges
    that allocate fresh choice ids.  Caches key on :func:`tree_key`, the
    O(1)-hashing wrapper of this tuple.
    """
    cached = getattr(node, _SIGNATURE_ATTR, None)
    if cached is not None:
        return cached
    # The label covers the class name and every scalar field — including
    # choice ids and OPT defaults, which widget bindings depend on — so the
    # recursive (label, children) shape identifies the tree precisely.
    signature = (_exact_label(node), tuple(tree_signature(child) for child in node.children()))
    try:
        object.__setattr__(node, _SIGNATURE_ATTR, signature)
    except (AttributeError, TypeError):  # pragma: no cover - slotted nodes
        pass
    return signature


def structural_signature(node: SqlNode) -> tuple:
    """Choice-id-*insensitive* signature of a Difftree, memoized on the node.

    Identical to :func:`tree_signature` except that choice ids are erased
    (OPT defaults and everything else are kept).  The search replays the same
    merge along many action sequences, allocating fresh choice ids each time;
    values that do not depend on the ids key their caches on
    :func:`structure_key`, which completes this signature with the choice-id
    sharing pattern, so all those replays share one entry.  Choice nodes
    correspond *positionally* (pre-order) between equal-key trees, which is
    what profile reuse relies on to remap ids.
    """
    cached = getattr(node, _STRUCTURAL_ATTR, None)
    if cached is not None:
        return cached
    from repro.difftree.nodes import ChoiceNode

    signature = (
        _exact_label(node, erase_choice_id=isinstance(node, ChoiceNode)),
        tuple(structural_signature(child) for child in node.children()),
    )
    try:
        object.__setattr__(node, _STRUCTURAL_ATTR, signature)
    except (AttributeError, TypeError):  # pragma: no cover - slotted nodes
        pass
    return signature


def choice_sharing(node: SqlNode) -> tuple[int, ...] | None:
    """Which choice nodes of a Difftree share a choice id, or None when none do.

    :func:`structural_signature` erases choice ids, so on its own it cannot
    tell a tree whose two ANY nodes share one id (one binding drives both)
    from the same tree with distinct ids.  The pattern lists, per choice node
    in pre-order, the position of the first node carrying its id; together
    with the structural signature it pins a tree down up to a renaming of
    its ids.  The search never builds shared-id trees, so the common answer
    is None.
    """
    from repro.difftree.nodes import collect_choice_nodes

    first: dict[str, int] = {}
    pattern = tuple(
        first.setdefault(choice.choice_id, position)
        for position, choice in enumerate(collect_choice_nodes(node))
    )
    return None if len(first) == len(pattern) else pattern


def tree_key(node: SqlNode) -> ExactKey:
    """:func:`tree_signature` as an O(1)-hashing cache key, memoized on the node."""
    try:
        return node._repro_tree_key  # type: ignore[attr-defined]
    except AttributeError:
        pass
    key = ExactKey(tree_signature(node))
    object.__setattr__(node, "_repro_tree_key", key)
    return key


def structure_key(node: SqlNode) -> ExactKey:
    """A tree's identity up to a renaming of its choice ids, memoized on the node.

    ``(structural_signature, choice_sharing)`` as an O(1)-hashing cache key.
    Everything that never looks at the ids themselves — coverage verdicts,
    profiles (after an id remap), chart templates and filter-attribute
    sets — keys on it.
    """
    try:
        return node._repro_structure_key  # type: ignore[attr-defined]
    except AttributeError:
        pass
    key = ExactKey((structural_signature(node), choice_sharing(node)))
    object.__setattr__(node, "_repro_structure_key", key)
    return key


class LruDict:
    """A minimal bounded mapping with LRU eviction (insertion-order based).

    Used by the search layer's per-tree caches: signature-keyed entries are
    recency-promoted on access and the oldest entries are evicted past
    ``capacity``, so long searches cannot grow memory without bound.
    """

    __slots__ = ("capacity", "_entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("LruDict capacity must be positive")
        self.capacity = capacity
        self._entries: dict[Hashable, Any] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: Any = None) -> Any:
        entries = self._entries
        value = entries.pop(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        entries[key] = value  # re-insert: most recently used
        self.hits += 1
        return value

    def __getitem__(self, key: Hashable) -> Any:
        if key not in self._entries:
            raise KeyError(key)
        return self.get(key)

    def __setitem__(self, key: Hashable, value: Any) -> None:
        self.put(key, value)

    def put(self, key: Hashable, value: Any) -> None:
        if key in self._entries:
            self._entries.pop(key)
        elif len(self._entries) >= self.capacity:
            oldest = next(iter(self._entries))
            self._entries.pop(oldest)
            self.evictions += 1
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class SharedLruDict(LruDict):
    """An :class:`LruDict` that threads may share: one leaf lock per operation.

    The lock is never held while calling out, so it can sit below every
    other lock in the process (see the locking hierarchy in
    ``docs/SERVING.md``).
    """

    __slots__ = ("_lock",)

    def __init__(self, capacity: int = 1024) -> None:
        super().__init__(capacity)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            return LruDict.get(self, key, default)

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            LruDict.put(self, key, value)

    def clear(self) -> None:
        with self._lock:
            LruDict.clear(self)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return LruDict.stats(self)


#: LRU bound of each structure cache.  Coverage holds one boolean per (tree
#: structure, member query) pair; costs hold one breakdown per forest costed
#: under one context; the others hold one entry per tree structure.  512
#: structures (and 1024 forests) are more than one search on the benchmark
#: logs visits, so a single generation never evicts, while it bounds what a
#: long-lived catalog keeps alive between generations: every entry pins its
#: key's signature tuples after the trees themselves are gone.
STRUCTURE_CACHE_CAPACITIES = {
    "coverage": 4096,
    "profiles": 512,
    "charts": 512,
    "filter_attributes": 512,
    "costs": 1024,
}
COVERAGE_MEMO_CAPACITY = STRUCTURE_CACHE_CAPACITIES["coverage"]


class StructureCaches:
    """The per-structure facts one catalog lineage keeps across generations.

    PI2 regenerates the interface every time the query log grows, and
    consecutive generations see almost the same tree structures.  Each fact
    below is a pure function of a tree's :func:`structure_key` plus the
    stated scope, so it stays valid from one generation to the next:

    * ``coverage`` — ``(structure key, canonical target SQL)`` → verdict;
    * ``profiles`` — ``(structure key, schemas)`` → (choice ids, profile);
    * ``charts`` — ``(structure key, schemas)`` → chart template;
    * ``filter_attributes`` — structure key → attribute set;
    * ``costs`` — ``(forest signature, cost context)`` → the forest's
      :class:`~repro.cost.model.CostBreakdown`; the context is the canonical
      SQL of the log, the schemas and the cost and mapping settings (see
      ``SearchSpace``).

    A catalog owns one set of :class:`SharedLruDict` caches, which every
    snapshot shares; a search or cost model built without a catalog keeps a
    private set of plain :class:`LruDict` caches of the same capacities.
    """

    __slots__ = tuple(STRUCTURE_CACHE_CAPACITIES)

    def __init__(self, lru: type[LruDict] = LruDict) -> None:
        for name, capacity in STRUCTURE_CACHE_CAPACITIES.items():
            setattr(self, name, lru(capacity))

    def caches(self) -> dict[str, LruDict]:
        return {name: getattr(self, name) for name in self.__slots__}

    def clear(self) -> None:
        for cache in self.caches().values():
            cache.clear()
