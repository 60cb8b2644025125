"""Expressiveness term of the cost model.

The generated interface must be able to re-express every query of the input
log ("return the lowest cost interface I that can express all queries in Q").
This module measures the fraction of input queries each Difftree can
instantiate and converts misses into a large cost penalty; it also reports the
size of the binding space as a (log-scaled) generality measure used by
ablation benchmarks.

Coverage asks, per (tree, member query) pair, whether *some* binding of the
tree instantiates to the query; :func:`~repro.difftree.instantiate.find_binding_for`
answers it (narrow → enumerate → verify by canonical SQL).  The cost model
adds one policy of its own, :data:`BINDING_SPACE_CAP`, and memoizes the
verdicts per tree structure.
"""

from __future__ import annotations

import math

from repro.difftree.builder import DifftreeForest
from repro.difftree.canonical import canonical_sql
from repro.difftree.instantiate import binding_space_size, find_binding_for
from repro.difftree.signatures import structure_key

#: Cost added per input query the interface cannot express.
MISSING_QUERY_PENALTY = 10.0
#: Trees whose binding space exceeds this are counted as not covering their
#: queries without asking the matcher: such tangles of choice nodes are
#: terrible interfaces anyway, and the penalty steers the search away from
#: them cheaply.  The cap is the cost model's policy; the matcher itself has
#: no bound (docs/SEARCH.md records what removing the cap costs).
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


def _query_covered(tree, query, tree_key, cache: CoverageCache | None) -> bool:
    key = None
    if cache is not None:
        key = (tree_key, canonical_sql(query))
        cached = cache.get(key)
        if cached is not None:
            return cached
    covered = binding_space_size(tree) <= BINDING_SPACE_CAP and find_binding_for(tree, query) is not None
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

    Each (tree, query) verdict is memoized in ``cache`` by structure key, so
    a forest that shares trees with one already costed pays only for the
    trees an action changed.
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


def expressiveness_cost(forest: DifftreeForest, cache: CoverageCache | None = None) -> float:
    """Penalty for input queries the interface cannot re-express."""
    missing = len(forest.queries) - forest_covered_count(forest, cache)
    return missing * MISSING_QUERY_PENALTY


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
