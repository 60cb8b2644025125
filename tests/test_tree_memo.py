"""The catalog's tree memo: a regenerated log gets back the trees it built.

The search's merged and factored trees (``StructureCaches.trees``) and each
tree's applicable transformations (``StructureCaches.transformations``) live
as long as the catalog lineage, keyed on the input trees' exact tree keys.
The leaves are the catalog's parsed queries, which carry no choice ids, so a
regenerated log replays its whole merge lattice.  This suite checks that

* **a repeat builds nothing** — a second identical generation on one catalog
  merges and enumerates transformations 0 times, with the first run's
  fingerprint, cost and evaluation count;
* **a grown prefix replays** — the longer log gets back the shorter log's
  trees as the same objects;
* **the caches are the catalog's** — bounded, emptied by ``clear_caches()``,
  shared by snapshots, private to each catalog and each worker;
* **results still travel** — a warm catalog's result round-trips through
  ``pickle`` and ``copy.deepcopy``, node memos included;
* **similarity facts are walked once** — a regenerated log's search space
  walks no query.

Disjoint choice ids across warm catalogs, evictions and concurrent
generations are checked in ``tests/test_search_memos.py``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import repro.search.space as space_module
from repro.datasets import covid_query_log, load_covid_catalog
from repro.difftree.nodes import collect_choice_nodes
from repro.difftree.signatures import STRUCTURE_CACHE_CAPACITIES, LruDict, SharedLruDict
from repro.engine.catalog import Catalog
from repro.pipeline import PipelineConfig, generate_interface
from repro.search.space import SearchSpace
from repro.serving.workers import _run_task, _WorkerState
from repro.sql.ast_nodes import SqlNode


@pytest.fixture(scope="module")
def base() -> Catalog:
    return load_covid_catalog()


def fresh_catalog(base: Catalog) -> Catalog:
    """A new catalog (every cache empty) over the same immutable tables."""
    catalog = Catalog()
    for name in base.table_names():
        catalog.register(base.table(name))
    return catalog


def outcome(result) -> tuple:
    return result.interface.fingerprint(), repr(result.total_cost), result.stats.evaluations


def action(space, forest, description):
    (found,) = [candidate for candidate in space.actions(forest) if candidate.description == description]
    return found


@pytest.fixture
def calls(monkeypatch) -> dict[str, int]:
    """Counts of the search's ``merge_nodes`` and ``applicable_transformations`` calls."""
    counts = {"merge": 0, "transformations": 0}
    merge_nodes = space_module.merge_nodes
    applicable = space_module.applicable_transformations

    def counted_merge(*args):
        counts["merge"] += 1
        return merge_nodes(*args)

    def counted_transformations(tree):
        counts["transformations"] += 1
        return applicable(tree)

    monkeypatch.setattr(space_module, "merge_nodes", counted_merge)
    monkeypatch.setattr(space_module, "applicable_transformations", counted_transformations)
    return counts


# --------------------------------------------------------------------------- #
# A repeat builds nothing, a grown prefix replays
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("method", ["mcts", "greedy", "beam"])
def test_a_repeated_generation_builds_no_tree(base, calls, method):
    catalog = fresh_catalog(base)
    log, config = covid_query_log(), PipelineConfig(method=method, seed=1)
    first = generate_interface(log, catalog, config)
    assert first.stats.trees_built >= calls["merge"] > 0 and calls["transformations"] > 0
    calls.update(merge=0, transformations=0)
    second = generate_interface(log, catalog, config)
    assert calls == {"merge": 0, "transformations": 0}
    assert outcome(second) == outcome(first)
    assert second.stats.trees_built == 0 and second.summary()["trees_built"] == 0
    assert first.summary()["trees_built"] == first.stats.trees_built


def test_a_grown_prefix_gets_back_the_shorter_prefixs_trees(base):
    catalog = fresh_catalog(base)
    log = covid_query_log()
    short = SearchSpace(log[:3], catalog.schemas(), catalog=catalog)
    pair = short.apply(short.initial_state, action(short, short.initial_state, "merge(t0, t1)"))
    triple = short.apply(pair, action(short, pair, "merge(t0, t1)"))
    assert short.stats.trees_built == 2

    grown = SearchSpace(log[:4], catalog.schemas(), catalog=catalog)
    again = grown.apply(grown.initial_state, action(grown, grown.initial_state, "merge(t0, t1)"))
    assert again.trees[0] is pair.trees[0]
    # The reused tree keeps its ids, so the merge built on top of it hits too.
    again = grown.apply(again, action(grown, again, "merge(t0, t1)"))
    assert again.trees[0] is triple.trees[0]
    assert grown.stats.trees_built == 0


@pytest.mark.parametrize("method", ["mcts", "greedy", "beam"])
def test_a_grown_log_builds_fewer_trees_than_on_a_fresh_catalog(base, method):
    log = covid_query_log()
    warm = fresh_catalog(base)
    generate_interface(log[:-1], warm, PipelineConfig(method=method, seed=1))
    grown = generate_interface(log, warm, PipelineConfig(method=method, seed=1))
    cold = generate_interface(log, fresh_catalog(base), PipelineConfig(method=method, seed=1))
    assert outcome(grown) == outcome(cold)
    assert grown.stats.trees_built < cold.stats.trees_built


# --------------------------------------------------------------------------- #
# The caches are the catalog's
# --------------------------------------------------------------------------- #


def test_both_caches_stay_within_capacity_and_clear(base):
    catalog = fresh_catalog(base)
    caches = catalog.structure_caches
    log = covid_query_log()
    for length in range(2, len(log) + 1):
        for method in ("mcts", "greedy", "beam"):
            generate_interface(log[:length], catalog, PipelineConfig(method=method, seed=length))
    for cache in (caches.trees, caches.transformations):
        assert 0 < len(cache) <= cache.capacity
    assert (caches.trees.capacity, caches.transformations.capacity) == (
        STRUCTURE_CACHE_CAPACITIES["trees"],
        STRUCTURE_CACHE_CAPACITIES["transformations"],
    )
    catalog.clear_caches()
    assert len(caches.trees) == len(caches.transformations) == 0


def test_small_caches_evict_stay_bounded_and_change_nothing(base, monkeypatch):
    log, config = covid_query_log(), PipelineConfig(method="beam")
    expected = outcome(generate_interface(log, fresh_catalog(base), config))
    monkeypatch.setitem(STRUCTURE_CACHE_CAPACITIES, "trees", 8)
    monkeypatch.setitem(STRUCTURE_CACHE_CAPACITIES, "transformations", 4)
    catalog = fresh_catalog(base)
    caches = catalog.structure_caches
    for _ in range(2):
        assert outcome(generate_interface(log, catalog, config)) == expected
    for cache in (caches.trees, caches.transformations):
        assert len(cache) == cache.capacity and cache.evictions > 0


def test_snapshots_share_the_caches_and_other_catalogs_do_not(base):
    catalog = fresh_catalog(base)
    caches = catalog.structure_caches
    snapshot = catalog.snapshot()
    assert snapshot.structure_caches.trees is caches.trees
    assert snapshot.structure_caches.transformations is caches.transformations
    assert isinstance(caches.trees, SharedLruDict)
    generate_interface(covid_query_log()[:4], snapshot, PipelineConfig(method="greedy"))
    # The catalog itself replays what its snapshot built.
    replayed = generate_interface(covid_query_log()[:4], catalog, PipelineConfig(method="greedy"))
    assert replayed.stats.trees_built == 0
    other = fresh_catalog(base).structure_caches
    assert other.trees is not caches.trees and len(other.trees) == 0
    assert other.transformations is not caches.transformations
    state = _WorkerState()
    assert isinstance(state.structure_caches.trees, SharedLruDict)
    assert state.structure_caches.trees is not caches.trees


def test_a_search_without_a_catalog_keeps_private_caches(base):
    first = SearchSpace(covid_query_log()[:3], base.schemas())
    second = SearchSpace(covid_query_log()[:3], base.schemas())
    assert type(first._trees) is LruDict and first._trees is not second._trees
    assert type(first._transformations) is LruDict and first._transformations is not second._transformations


# --------------------------------------------------------------------------- #
# Results still travel
# --------------------------------------------------------------------------- #


def test_a_warm_result_round_trips_through_pickle_and_deepcopy(base):
    catalog = fresh_catalog(base)
    log, config = covid_query_log(), PipelineConfig(method="mcts", seed=1)
    generate_interface(log, catalog, config)
    warm = generate_interface(log, catalog, config)
    assert warm.stats.trees_built == 0
    for copied in (pickle.loads(pickle.dumps(warm)), copy.deepcopy(warm)):
        assert outcome(copied) == outcome(warm)
        assert copied.forest.signature() == warm.forest.signature()
        assert copied.forest.covers_all()


def test_node_memos_travel_through_the_worker_pipe(base):
    """The worker pickles its result; the frontend's copy still carries each memo."""
    state = _WorkerState()
    key = (base.catalog_id, base.data_version())
    snapshot = state.admit(key, pickle.dumps(base.snapshot()))
    log, config = covid_query_log(), PipelineConfig(method="greedy")
    first = _run_task("generate", snapshot, (log, config))
    again = _run_task("generate", snapshot, (log, config))
    assert again.stats.trees_built == 0 and outcome(again) == outcome(first)
    shipped = pickle.loads(pickle.dumps(again))
    assert outcome(shipped) == outcome(again)
    for tree in shipped.forest.trees:
        assert "_repro_structure_key" in vars(tree)
    assert any(collect_choice_nodes(tree) for tree in shipped.forest.trees), "the result merged nothing"
    for query in shipped.forest.queries:
        assert {"_repro_subtree_counts", "_repro_table_names"} <= set(vars(query))


# --------------------------------------------------------------------------- #
# Similarity facts are walked once
# --------------------------------------------------------------------------- #


def test_a_regenerated_log_walks_no_query(base, monkeypatch):
    catalog = fresh_catalog(base)
    log = [catalog.parse(sql) for sql in covid_query_log()]
    first = SearchSpace(log, catalog.schemas(), catalog=catalog)
    walks = []
    walk = SqlNode.walk

    def counted_walk(self):
        walks.append(self)
        return walk(self)

    monkeypatch.setattr(SqlNode, "walk", counted_walk)
    second = SearchSpace(log, catalog.schemas(), catalog=catalog)
    assert walks == []
    assert second._pair_similarity == first._pair_similarity
    assert second._pair_shares_source == first._pair_shares_source
