"""The search space over Difftree forests.

A search *state* is a :class:`~repro.difftree.builder.DifftreeForest`.  The
actions available in a state are

* ``merge(i, j)`` — merge two trees of the forest into one (reduces chart
  count, introduces choice nodes),
* every applicable tree transformation from
  :mod:`repro.difftree.transformations` (factoring shared structure above an
  ANY node, flipping an OPT default).

Evaluating a state maps the forest to a candidate interface (the mapping step)
and scores it with the cost model; evaluations are memoized by forest
signature, so the different search strategies can be compared on the number of
*distinct* candidates they explore.

Evaluation is **incremental**: every action touches one or two trees (its
:attr:`Action.touched` delta) while the rest of the forest is structure-shared
with the parent state, so all per-tree work — profiling, chart templates,
widget mapping pieces, coverage checks, and default-query data profiling — is
cached by per-tree key (:mod:`repro.difftree.signatures`) and
reused for unchanged trees.  Only the genuinely tree-coupled steps (layout,
the duplicate-chart penalty, id renumbering) run globally per candidate, which
makes one evaluation O(changed trees) instead of O(forest).

The caches whose facts never mention choice ids live on the catalog
(:class:`~repro.difftree.signatures.StructureCaches`), so a generation pays
for each tree structure once per catalog rather than once per generation;
those that embed choice ids, which every generation allocates afresh, live
on the space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.cost.model import CostBreakdown, CostModel
from repro.difftree.builder import DifftreeForest, build_forest
from repro.difftree.canonical import queries_share_source, structural_similarity
from repro.difftree.signatures import ExactKey, LruDict, StructureCaches, structure_key, tree_key
from repro.difftree.transformations import applicable_transformations
from repro.errors import SearchError
from repro.interface.interface import Interface
from repro.mapping.schema_matching import (
    MappingCaches,
    MappingConfig,
    map_forest_to_interface,
    schema_scope,
)
from repro.sql.schema import TableSchema

#: Bound on the key-indexed transformation cache (entries, LRU-evicted).
TRANSFORMATION_CACHE_CAPACITY = 512


@dataclass(frozen=True)
class Action:
    """One applicable state transition.

    ``touched`` is the action's *delta*: the indices (in the **result**
    forest) of the trees the action created.  Every other tree of the result
    is shared by object identity with the source forest, which is what the
    per-tree evaluation caches exploit.  Strategies thread the delta through
    :meth:`SearchSpace.evaluate` so the incremental-reuse accounting in
    :class:`SearchStats` reflects what each strategy actually re-evaluated.
    """

    kind: str  # "merge" | "transform"
    description: str
    apply: Callable[[DifftreeForest], DifftreeForest] = field(compare=False)
    touched: tuple[int, ...] = ()

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.description


@dataclass
class Evaluation:
    """The mapped interface and its cost for one state.

    ``data_rows`` holds, per Difftree, the row count of the tree's default
    instantiation executed against the catalog (None when the space was built
    without a catalog, or -1 when that tree's query failed to execute).
    """

    interface: Interface
    cost: CostBreakdown
    data_rows: tuple[int, ...] | None = None

    @property
    def total_cost(self) -> float:
        return self.cost.total


@dataclass
class SearchStats:
    """Bookkeeping shared by all search strategies.

    ``queries_executed`` counts queries the engine *actually executed* during
    data profiling; ``query_cache_hits`` counts profiling queries answered by
    the catalog's canonical-query result cache (both sourced from
    ``Catalog.cache_stats()`` deltas).  ``profile_cache_hits`` counts trees
    whose row counts were reused from the per-tree profile cache without
    touching the catalog at all.  ``tree_evals_reused`` / ``tree_evals_computed``
    account per-tree incremental reuse across candidate evaluations,
    observed from the per-tree profile cache rather than inferred from
    action deltas.
    """

    evaluations: int = 0
    cache_hits: int = 0
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
        profile_executor=None,
    ) -> None:
        if not queries:
            raise SearchError("Cannot search over an empty query log")
        self.table_schemas = table_schemas
        #: Optional live catalog (or a pinned
        #: :class:`~repro.engine.catalog.CatalogSnapshot`, which the serving
        #: layer passes so one generation run sees one consistent data
        #: version).  When present, every candidate evaluation also executes
        #: each tree's default instantiation through the catalog's
        #: canonical-query cache — sibling candidates share most trees, so
        #: the repeated queries are cache hits and the search gets real data
        #: profiles (row counts) almost for free.
        self.catalog = catalog
        #: Optional ``concurrent.futures`` executor.  When set, the per-tree
        #: default-query executions a candidate evaluation actually misses on
        #: (the signature-cache decomposition already de-duplicates the rest)
        #: are fanned out across its workers.  Results are deterministic —
        #: row counts do not depend on completion order — but the executor
        #: must not be the pool the evaluation itself runs on (a saturated
        #: pool waiting on itself deadlocks); the serving layer dedicates a
        #: separate profile pool.
        self.profile_executor = profile_executor
        self.mapping_config = mapping_config or MappingConfig()
        self.cost_model = cost_model or CostModel()
        self.initial_state = build_forest(queries, strategy=initial_strategy)
        self._cache: dict[tuple, Evaluation] = {}
        # The catalog's structure caches, or private ones of the same bounds.
        caches = catalog.structure_caches if catalog is not None else StructureCaches()
        #: Per-tree mapping caches (profiles, chart templates, widget pieces);
        #: the first two are the structure caches — see MappingCaches.
        self.mapping_caches = MappingCaches(
            profile_store=caches.profiles,
            visualizations=caches.charts,
            scope=schema_scope(table_schemas),
        )
        #: Per-tree default-instantiation row counts, keyed by (structure
        #: key, (catalog id, data version)) so catalog mutations invalidate
        #: entries implicitly — and a worker process's caches, shared by
        #: several catalogs, never confuse two catalogs' lineage-local
        #: versions.
        self._rows_cache = caches.rows
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
                        apply=lambda f, i=first, j=second: f.merge_trees(i, j),
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
                        apply=lambda f, idx=tree_index, tr=transformation: f.replace_tree(
                            idx, tr(f.trees[idx])
                        ),
                        touched=(tree_index,),
                    )
                )
        return actions

    def apply(self, forest: DifftreeForest, action: Action) -> DifftreeForest:
        return action.apply(forest)

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

    def evaluate(
        self,
        forest: DifftreeForest,
        changed: tuple[int, ...] | None = None,
        use_cache: bool = True,
    ) -> Evaluation:
        """Map the forest to an interface and cost it (memoized).

        ``changed`` is the action delta that produced this forest (see
        :attr:`Action.touched`); trees outside the delta are structure-shared
        with an already-evaluated neighbour, which is what makes the per-tree
        caches hit.  The delta is the caller's contract, not a directive —
        reuse is *observed* from the profile cache, so the
        ``tree_evals_reused`` / ``tree_evals_computed`` counters reflect what
        actually happened (a changed chart context, say, forces widget-piece
        recomputation regardless of the delta).

        ``use_cache=False`` bypasses the forest-level memo (but not the
        per-tree caches) — the beam strategy and the differential test
        harness use it where the memo's historical fingerprint granularity
        would get in the way.
        """
        key = forest.signature()
        if use_cache and key in self._cache:
            self.stats.cache_hits += 1
            return self._cache[key]
        started = time.perf_counter()
        profile_stats = self.mapping_caches.profiles
        hits_before = profile_stats.hits
        misses_before = profile_stats.misses
        interface = map_forest_to_interface(
            forest,
            self.table_schemas,
            self.mapping_config,
            caches=self.mapping_caches,
        )
        cost = self.cost_model.evaluate(interface, forest.queries)
        evaluation = Evaluation(
            interface=interface, cost=cost, data_rows=self._profile_data(forest)
        )
        if use_cache:
            self._cache[key] = evaluation
        self.stats.evaluations += 1
        self.stats.tree_evals_reused += profile_stats.hits - hits_before
        self.stats.tree_evals_computed += profile_stats.misses - misses_before
        self.stats.elapsed_seconds += time.perf_counter() - started
        return evaluation

    def _profile_data(self, forest: DifftreeForest) -> tuple[int, ...] | None:
        """Row counts of each tree's default instantiation, incrementally.

        Per-tree results are cached by (structure key, catalog data version),
        so a candidate evaluation only executes the trees no earlier
        evaluation on this catalog version profiled — and those usually hit
        the catalog's canonical-query result cache in turn.  Execution/hit
        counts are attributed from the catalog's cache statistics so
        ``SearchStats`` separates real executions from result-cache hits.
        """
        if self.catalog is None:
            return None
        from repro.difftree.instantiate import instantiate_and_execute

        version = ExactKey((self.catalog.catalog_id, self.catalog.data_version()))
        cache_stats = self.catalog.query_cache.stats
        row_counts: list[int | None] = [None] * forest.tree_count
        missed: list[tuple[int, object, tuple]] = []
        for index, tree in enumerate(forest.trees):
            # Default instantiations never depend on choice ids, so row
            # counts are shared across replayed merges too.
            key = (structure_key(tree), version)
            cached = self._rows_cache.get(key)
            if cached is not None:
                self.stats.profile_cache_hits += 1
                row_counts[index] = cached
            else:
                missed.append((index, tree, key))
        if missed:
            hits_before = cache_stats.hits
            executed_before = cache_stats.misses + cache_stats.bypassed

            def run(tree) -> int:
                try:
                    return instantiate_and_execute(tree, self.catalog).row_count
                except Exception:  # noqa: BLE001 - odd instantiations must not kill search
                    return -1

            pool = self.profile_executor
            if pool is not None and len(missed) > 1:
                # Fan the cache-missing trees out across the pool.  Duplicate
                # signatures within one batch execute redundantly (the serial
                # path would hit the rows cache on the second), but the
                # engine's result cache makes the repeat nearly free and the
                # counts are identical either way.
                counts = list(pool.map(run, [tree for _, tree, _ in missed]))
            else:
                counts = [run(tree) for _, tree, _ in missed]
            for (index, _tree, key), count in zip(missed, counts):
                self._rows_cache.put(key, count)
                row_counts[index] = count
            # Bulk attribution: under a shared serving catalog these counters
            # can include concurrent sessions' traffic — they are telemetry,
            # not part of the evaluation result.
            self.stats.query_cache_hits += cache_stats.hits - hits_before
            self.stats.queries_executed += (
                cache_stats.misses + cache_stats.bypassed - executed_before
            )
        return tuple(row_counts)

    def cache_info(self) -> dict:
        """Hit/size statistics of every per-tree cache (for benches/debugging)."""
        info = self.mapping_caches.stats()
        info["rows"] = self._rows_cache.stats()
        info["transformations"] = self._transformation_cache.stats()
        info["evaluations"] = {"entries": len(self._cache)}
        return info

    def result(
        self, forest: DifftreeForest, strategy: str, action_trace: list[str] | None = None
    ) -> SearchResult:
        evaluation = self.evaluate(forest)
        return SearchResult(
            interface=evaluation.interface,
            cost=evaluation.cost,
            forest=forest,
            stats=self.stats,
            strategy=strategy,
            action_trace=action_trace or [],
        )
