"""Per-tree signatures: cached identities of Difftree structures.

The search layer evaluates thousands of candidate forests, but each action
(a ``merge(i, j)`` or a single-tree transformation) touches one or two trees —
the rest of the forest is *structure-shared* by object identity.  Signatures
turn that sharing into cache hits:

* :func:`tree_fingerprint` — the legacy textual fingerprint used by forest
  signatures and search visited-sets (rendered SQL when possible).  It is
  computed once per tree *object* and memoized on the node itself, so
  ``forest.signature()`` costs a handful of attribute lookups instead of a
  full render per call.
* :func:`tree_signature` — a *precise* structural signature (node labels,
  which include choice ids and OPT defaults, plus tree shape).  Two trees
  with equal signatures are interchangeable for every per-tree computation
  the search performs: profiling, visualization mapping, widget mapping,
  coverage checks and data profiling all key their caches on it.
* signatures compare **by value**: equal trees reached along different
  action sequences (e.g. the same merge replayed in two MCTS rollouts) get
  equal signatures and so share cache entries, whichever tuple object each
  rollout happened to build.  Nothing process-global holds them: a
  signature lives exactly as long as the node memo and the cache entries
  that reference it.

Both signatures are memoized via ``object.__setattr__`` on the (frozen,
immutable) AST nodes — a node's structure never changes after construction,
so the memo can never go stale.  The memo attributes are not dataclass
fields, so node equality and hashing are unaffected.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Hashable

from repro.sql.ast_nodes import SqlNode

#: Memo attribute names stashed on AST nodes (not dataclass fields).
_FINGERPRINT_ATTR = "_repro_fingerprint"
_SIGNATURE_ATTR = "_repro_signature"
_STRUCTURAL_ATTR = "_repro_structural"


def _compute_fingerprint(node: SqlNode) -> str:
    from repro.sql.printer import to_sql

    try:
        return to_sql(node)
    except Exception:  # noqa: BLE001 - choice nodes are not renderable as SQL
        parts = []
        for descendant in node.walk():
            parts.append(type(descendant).__name__)
        return "|".join(parts)


def tree_fingerprint(node: SqlNode) -> str:
    """A stable textual fingerprint of a tree (its rendered SQL when possible).

    Memoized per node object and interned, so repeated forest signatures are
    nearly free.  The fingerprint value is identical to what
    :func:`repro.difftree.canonical.tree_fingerprint` historically produced.
    """
    cached = getattr(node, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    fingerprint = sys.intern(_compute_fingerprint(node))
    try:
        object.__setattr__(node, _FINGERPRINT_ATTR, fingerprint)
    except (AttributeError, TypeError):  # pragma: no cover - slotted nodes
        pass
    return fingerprint


def tree_signature(node: SqlNode) -> tuple:
    """Precise structural signature of a Difftree, memoized on the node.

    Equal signatures imply equal node labels — hence equal choice ids, OPT
    defaults, literals and column names — at every position of the tree.
    Suitable as a cache key for values that *embed choice ids* (widget
    mapping pieces, transformation lists); for choice-id-insensitive values
    use :func:`structural_signature`, which shares entries across replayed
    merges that allocate fresh choice ids.
    """
    cached = getattr(node, _SIGNATURE_ATTR, None)
    if cached is not None:
        return cached
    # node.label() covers the class name and every scalar field — including
    # choice ids and OPT defaults, which widget bindings depend on — so the
    # recursive (label, children) shape identifies the tree precisely.
    signature = (node.label(), tuple(tree_signature(child) for child in node.children()))
    try:
        object.__setattr__(node, _SIGNATURE_ATTR, signature)
    except (AttributeError, TypeError):  # pragma: no cover - slotted nodes
        pass
    return signature


def _structural_label(node: SqlNode) -> tuple:
    from repro.difftree.nodes import ChoiceNode

    label = node.label()
    if not isinstance(node, ChoiceNode):
        return label
    name, scalars = label
    return (name, tuple(pair for pair in scalars if pair[0] != "choice_id"))


def structural_signature(node: SqlNode) -> tuple:
    """Choice-id-*insensitive* signature of a Difftree, memoized on the node.

    Identical to :func:`tree_signature` except that choice ids are erased
    (OPT defaults and everything else are kept).  The search replays the same
    merge along many action sequences, allocating fresh choice ids each time;
    values that do not depend on the ids — coverage checks, default-query row
    counts, chart templates, filter-attribute sets — key their caches on this
    signature so all those replays share one entry.  Choice nodes correspond
    *positionally* (pre-order) between equal-signature trees, which is what
    profile reuse relies on to remap ids.
    """
    cached = getattr(node, _STRUCTURAL_ATTR, None)
    if cached is not None:
        return cached
    signature = (
        _structural_label(node),
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
    its ids, which is all that id-insensitive values (coverage verdicts) may
    depend on.  The search never builds shared-id trees, so the common
    answer is None.
    """
    from repro.difftree.nodes import collect_choice_nodes

    first: dict[str, int] = {}
    pattern = tuple(
        first.setdefault(choice.choice_id, position)
        for position, choice in enumerate(collect_choice_nodes(node))
    )
    return None if len(first) == len(pattern) else pattern


def forest_signature(forest) -> tuple:
    """Hashable identity of a forest: per-tree fingerprints plus membership.

    This is the (unchanged) value of ``DifftreeForest.signature()``; the
    per-tree fingerprints come from the node memo so recomputing a forest
    signature after an action costs O(trees), not O(nodes).

    Caveat: for trees *with choice nodes* the legacy fingerprint falls back
    to a type-name walk, so structurally different difftrees can collide.
    The historical search strategies (and their evaluation memo / visited
    sets) deliberately keep this granularity for reproducibility; new code
    that needs exact forest identity should use
    :func:`precise_forest_signature` instead.
    """
    return tuple(
        (tuple(members), tree_fingerprint(tree))
        for members, tree in zip(forest.members, forest.trees)
    )


def precise_forest_signature(forest) -> tuple:
    """Exact forest identity: per-tree precise signatures plus membership.

    Unlike :func:`forest_signature` this never collides distinct structures
    (choice ids, OPT defaults and literals all participate); the beam
    strategy keys its visited-set on it.
    """
    return tuple(
        (tuple(members), tree_signature(tree))
        for members, tree in zip(forest.members, forest.trees)
    )


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
        if key in self._entries:
            value = self._entries.pop(key)
            self._entries[key] = value  # re-insert: most recently used
            self.hits += 1
            return value
        self.misses += 1
        return default

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
