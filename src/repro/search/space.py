"""The search space over Difftree forests.

A search *state* is a :class:`~repro.difftree.builder.DifftreeForest`.  The
actions available in a state are

* ``merge(i, j)`` — merge two trees of the forest into one (reduces chart
  count, introduces choice nodes),
* every applicable tree transformation from
  :mod:`repro.difftree.transformations` (factoring shared structure above an
  ANY node).

Evaluating a state maps the forest to a candidate interface (the mapping step)
and scores it with the cost model.  Evaluations are recorded on the forest's
exact identity (:meth:`DifftreeForest.signature`: per tree, its members and
structure key) in a per-generation ledger, so the different search strategies
can be compared on the number of *distinct* candidates they explore.  The
ledger is not bounded: it holds at most one cost per evaluation the strategy's
budget allows.  A forest's cost is also kept for the catalog's lifetime
(``StructureCaches.costs``, keyed on the signature and the search's cost
context), so a generation that revisits a forest an earlier one costed, as a
re-run notebook cell does, neither maps nor costs it again.

Evaluation is **incremental** without being told what changed: every action
builds one tree (:attr:`Action.touched`) while the rest of the forest is
structure-shared with the parent state, and all per-tree work — tree
profiles, chart templates, widget mapping pieces, coverage checks and
filter-attribute sets — is cached by per-tree key
(:mod:`repro.difftree.signatures`), so unchanged trees cost a lookup; no
candidate's queries are executed.  The tree-coupled steps (layout, the
duplicate-chart penalty, id renumbering) and the per-component sums run over
the whole candidate.

The caches whose facts never mention choice ids live on the catalog
(:class:`~repro.difftree.signatures.StructureCaches`), so a generation pays
for each tree structure once per catalog rather than once per generation;
those that embed choice ids, which every generation allocates afresh, live
on the space.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field
from typing import Callable, Sequence

from repro.cost.model import CostBreakdown, CostModel
from repro.difftree.builder import DifftreeForest, build_forest
from repro.difftree.canonical import canonical_sql, queries_share_source, structural_similarity
from repro.difftree.diff import merge_nodes
from repro.difftree.signatures import LruDict, StructureCaches, exact_key, tree_key
from repro.difftree.transformations import Transformation, applicable_transformations
from repro.errors import SearchError
from repro.interface.interface import Interface
from repro.mapping.schema_matching import (
    MappingCaches,
    MappingConfig,
    map_forest_to_interface,
    schema_scope,
)
from repro.sql.ast_nodes import SqlNode
from repro.sql.schema import TableSchema

#: Bound on the key-indexed transformation cache (entries, LRU-evicted).
TRANSFORMATION_CACHE_CAPACITY = 512


@dataclass(frozen=True)
class Action:
    """One applicable state transition.

    ``touched`` is the action's *delta*: the indices (in the **result**
    forest) of the trees the action created.  Every other tree of the result
    is shared by object identity with the source forest, which is why the
    per-tree evaluation caches hit.
    """

    kind: str  # "merge" | "transform"
    description: str
    apply: Callable[[DifftreeForest], DifftreeForest] = field(compare=False)
    touched: tuple[int, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.description


@dataclass
class SearchStats:
    """Bookkeeping shared by all search strategies.

    ``evaluations`` counts distinct candidates and ``cache_hits`` repeat
    requests for one.  ``costs_reused`` counts the evaluations the catalog's
    forest-cost memo answered, without mapping or costing the forest.

    ``tree_evals_reused`` / ``tree_evals_computed`` account per-tree
    incremental reuse across the mappings that actually ran (a
    ``costs_reused`` evaluation maps nothing), observed from the per-tree
    profile cache rather than inferred from action deltas.

    ``queries_executed``, ``query_cache_hits`` and ``profile_cache_hits``
    always read 0, because a search executes no queries; they stay because
    the repository benchmark's ``generate`` workload reads them by name.
    """

    evaluations: int = 0
    cache_hits: int = 0
    costs_reused: int = 0
    states_expanded: int = 0
    elapsed_seconds: float = 0.0
    queries_executed: int = 0
    query_cache_hits: int = 0
    profile_cache_hits: int = 0
    tree_evals_reused: int = 0
    tree_evals_computed: int = 0


@dataclass
class SearchResult:
    """The outcome of a search run."""

    interface: Interface
    cost: CostBreakdown
    forest: DifftreeForest
    stats: SearchStats
    strategy: str = ""
    action_trace: list[str] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return self.cost.total


class SearchSpace:
    """Action enumeration and cached evaluation over Difftree forests."""

    def __init__(
        self,
        queries: Sequence[str],
        table_schemas: dict[str, TableSchema],
        mapping_config: MappingConfig | None = None,
        cost_model: CostModel | None = None,
        initial_strategy: str = "per_query",
        catalog=None,
    ) -> None:
        if not queries:
            raise SearchError("Cannot search over an empty query log")
        self.table_schemas = table_schemas
        self.mapping_config = mapping_config or MappingConfig()
        self.cost_model = cost_model or CostModel()
        self.initial_state = build_forest(queries, strategy=initial_strategy)
        #: The ledger: one cost per distinct candidate of this generation.
        self._cache: dict[tuple, CostBreakdown] = {}
        #: The trees this generation's merges and factorings built, keyed on
        #: their inputs (see :meth:`_merge` and :meth:`_factor`), so a
        #: replayed action returns the very tree object it built first.
        self._merges: dict[tuple, SqlNode] = {}
        self._factorings: dict[tuple, SqlNode] = {}
        # The structure caches of ``catalog`` (a live catalog or a pinned
        # snapshot, which shares them), or private ones of the same bounds.
        caches = catalog.structure_caches if catalog is not None else StructureCaches()
        #: Per-tree mapping caches (profiles, chart templates, widget pieces);
        #: the first two are the structure caches — see MappingCaches.
        self.mapping_caches = MappingCaches(
            profile_store=caches.profiles,
            visualizations=caches.charts,
            scope=schema_scope(table_schemas),
        )
        self._costs = caches.costs
        #: Everything a forest's cost reads besides its trees and members: the
        #: log coverage checks them against, the schemas and the cost and
        #: mapping settings.  ``mapping_config.name`` is left out, because no
        #: cost term reads it.
        policy = self.mapping_config.policy
        self._cost_context = exact_key(
            tuple(map(canonical_sql, self.initial_state.queries)),
            self.mapping_caches.scope,
            tuple(sorted(self.cost_model.nominal_cardinalities.items())),
            astuple(self.cost_model.weights),
            astuple(self.mapping_config.screen),
            None if policy is None else astuple(policy),
        )
        #: Applicable transformations per tree, keyed by tree key and
        #: LRU-bounded (the transformations close over choice ids only, so
        #: they are reusable across equal-key trees within one generation).
        self._transformation_cache = LruDict(TRANSFORMATION_CACHE_CAPACITY)
        self._pair_similarity: dict[tuple[int, int], float] = {}
        self.stats = SearchStats()
        self.min_merge_similarity = 0.3
        self._precompute_similarities()

    def _precompute_similarities(self) -> None:
        queries = self.initial_state.queries
        self._pair_shares_source: dict[tuple[int, int], bool] = {}
        for i in range(len(queries)):
            for j in range(i + 1, len(queries)):
                self._pair_similarity[(i, j)] = structural_similarity(queries[i], queries[j])
                self._pair_shares_source[(i, j)] = queries_share_source(queries[i], queries[j])

    def _members_similar(self, members_a: list[int], members_b: list[int]) -> bool:
        """True when some query pair across the two trees is similar enough to merge."""
        best = 0.0
        for i in members_a:
            for j in members_b:
                key = (min(i, j), max(i, j))
                best = max(best, self._pair_similarity.get(key, 0.0))
        return best >= self.min_merge_similarity

    # ------------------------------------------------------------------ #
    # Actions
    # ------------------------------------------------------------------ #

    def actions(self, forest: DifftreeForest) -> list[Action]:
        """All actions applicable in the given state."""
        actions: list[Action] = []
        for first in range(forest.tree_count):
            for second in range(first + 1, forest.tree_count):
                first_members = forest.members[first]
                second_members = forest.members[second]
                key = (min(first_members[0], second_members[0]), max(first_members[0], second_members[0]))
                if not self._pair_shares_source.get(key, True):
                    continue
                if not self._members_similar(first_members, second_members):
                    continue
                actions.append(
                    Action(
                        kind="merge",
                        description=f"merge(t{first}, t{second})",
                        apply=lambda f, i=first, j=second: self._merge(f, i, j),
                        # The merged tree lands at min(i, j) in the result.
                        touched=(min(first, second),),
                    )
                )
        for tree_index, tree in enumerate(forest.trees):
            for transformation in self._transformations_for(tree):
                actions.append(
                    Action(
                        kind="transform",
                        description=f"t{tree_index}:{transformation.describe()}",
                        apply=lambda f, idx=tree_index, tr=transformation: self._factor(f, idx, tr),
                        touched=(tree_index,),
                    )
                )
        return actions

    def apply(self, forest: DifftreeForest, action: Action) -> DifftreeForest:
        return action.apply(forest)

    def _merge(self, forest: DifftreeForest, first: int, second: int) -> DifftreeForest:
        """``forest.merge_trees(first, second)``, each merged tree built once per generation.

        The key holds each tree's members beside its tree key.  A log that
        repeats a query gives two trees of one forest equal tree keys, and a
        memo on tree keys alone would hand both of their merges one tree: two
        trees of a later forest would then share choice ids.
        """
        low, high = min(first, second), max(first, second)
        trees, members = forest.trees, forest.members
        key = (tuple(members[low]), tree_key(trees[low]), tuple(members[high]), tree_key(trees[high]))
        merged = self._merges.get(key)
        if merged is None:
            merged = self._merges[key] = merge_nodes(trees[low], trees[high])
        return forest.merge_trees(first, second, merged=merged)

    def _factor(self, forest: DifftreeForest, index: int, transformation: Transformation) -> DifftreeForest:
        """``forest`` with one tree transformed, each result built once per generation."""
        tree = forest.trees[index]
        key = (tuple(forest.members[index]), tree_key(tree), transformation.rule, transformation.choice_id)
        factored = self._factorings.get(key)
        if factored is None:
            factored = self._factorings[key] = transformation(tree)
        return forest.replace_tree(index, factored)

    def _transformations_for(self, tree):
        """Applicable transformations of one tree, cached by tree key.

        Transformation instances close over choice ids (not tree objects), so
        equal-key trees — which have equal choice ids at equal positions —
        share one entry.  The cache is LRU-bounded: it can no longer hold
        every tree a long search ever saw alive.
        """
        key = tree_key(tree)
        cached = self._transformation_cache.get(key)
        if cached is not None:
            return cached
        transformations = applicable_transformations(tree)
        self._transformation_cache.put(key, transformations)
        return transformations

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #

    def evaluate(self, forest: DifftreeForest) -> CostBreakdown:
        """The forest's cost: map it to an interface and cost it, at most once.

        A forest this generation already evaluated returns the ledger's very
        breakdown (a ``cache_hits`` count).  Otherwise the catalog's
        forest-cost memo answers if an earlier generation costed the forest
        under the same context (a ``costs_reused`` count), and only a memo
        miss maps and costs the forest.  Both keys are blind to choice ids,
        which no cost term reads.  Strategies need only the cost;
        :meth:`result` maps the forest it returns.
        """
        key = forest.signature()
        cost = self._cache.get(key)
        if cost is not None:
            self.stats.cache_hits += 1
            return cost
        started = time.perf_counter()
        memo_key = (key, self._cost_context)
        cost = self._costs.get(memo_key)
        if cost is not None:
            self.stats.costs_reused += 1
        else:
            profile_stats = self.mapping_caches.profiles
            hits_before = profile_stats.hits
            misses_before = profile_stats.misses
            interface = map_forest_to_interface(
                forest,
                self.table_schemas,
                self.mapping_config,
                caches=self.mapping_caches,
            )
            cost = self.cost_model.evaluate(interface)
            self._costs.put(memo_key, cost)
            self.stats.tree_evals_reused += profile_stats.hits - hits_before
            self.stats.tree_evals_computed += profile_stats.misses - misses_before
        self._cache[key] = cost
        self.stats.evaluations += 1
        self.stats.elapsed_seconds += time.perf_counter() - started
        return cost

    def cache_info(self) -> dict:
        """Hit/size statistics of every per-tree cache (for benches/debugging)."""
        info = self.mapping_caches.stats()
        info["transformations"] = self._transformation_cache.stats()
        info["evaluations"] = {"entries": len(self._cache)}
        return info

    def result(
        self, forest: DifftreeForest, strategy: str, action_trace: list[str] | None = None
    ) -> SearchResult:
        """The search's answer: ``forest``, its cost and its own interface."""
        cost = self.evaluate(forest)
        return SearchResult(
            interface=map_forest_to_interface(
                forest, self.table_schemas, self.mapping_config, caches=self.mapping_caches
            ),
            cost=cost,
            forest=forest,
            stats=self.stats,
            strategy=strategy,
            action_trace=action_trace or [],
        )
