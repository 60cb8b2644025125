"""Each merge and factoring paid for once per catalog, and a generation that frees itself.

The catalog's tree memo (``StructureCaches.trees``) holds merged trees,
keyed on both input trees' ``(members, tree_key)``, and factored trees,
keyed on ``(members, tree_key, rule, choice_id)``.  A replayed action
returns the very tree object it built first.  This suite checks:

* **memo identity** — the same action applied twice returns the same tree,
  while ``DifftreeForest.merge_trees`` on its own still builds fresh ids;
* **disjoint choice ids** — on logs that repeat a query, two trees have
  equal tree keys, and only the members in the key keep their merges apart:
  every forest a search evaluates has pairwise-disjoint choice ids, also on
  a warm catalog, when the memo evicts mid-generation and when four threads
  generate on one catalog at once;
* **no reference cycles** — with the cyclic collector off, a generation
  under every method, cold and warm, leaves nothing for it to collect.
"""

from __future__ import annotations

import gc
import itertools
import sys
import threading

import pytest

from repro.datasets import covid_query_log, load_covid_catalog
from repro.difftree.nodes import collect_choice_nodes
from repro.difftree.signatures import STRUCTURE_CACHE_CAPACITIES, structure_key
from repro.engine.catalog import Catalog
from repro.pipeline import PipelineConfig, generate_interface
from repro.search.space import SearchSpace

#: Covid logs that repeat queries, by query index.
REPEATING_LOGS = {
    "q0-q1-q0-q1": [0, 1, 0, 1],
    "q2-q3-q2-q3-q4": [2, 3, 2, 3, 4],
    "q1-q1-q2-q2": [1, 1, 2, 2],
}


def choice_ids(tree) -> set[str]:
    return {node.choice_id for node in collect_choice_nodes(tree)}


def action(space, forest, description):
    (found,) = [candidate for candidate in space.actions(forest) if candidate.description == description]
    return found


@pytest.fixture()
def space(covid_catalog):
    return SearchSpace(covid_query_log(), covid_catalog.schemas(), catalog=covid_catalog)


# --------------------------------------------------------------------------- #
# Memo identity
# --------------------------------------------------------------------------- #


def test_a_replayed_merge_returns_the_tree_it_built_first(space):
    forest = space.initial_state
    merge = next(candidate for candidate in space.actions(forest) if candidate.kind == "merge")
    (index,) = merge.touched
    first = space.apply(forest, merge)
    second = space.apply(forest, merge)
    assert second is not first
    assert second.trees[index] is first.trees[index]
    # The same merge re-enumerated on an equal copy of the forest hits too.
    replayed = space.apply(forest.copy(), action(space, forest.copy(), merge.description))
    assert replayed.trees[index] is first.trees[index]


def test_a_replayed_factoring_returns_the_tree_it_built_first(space):
    forest = space.initial_state
    factorable = None
    for merge in (candidate for candidate in space.actions(forest) if candidate.kind == "merge"):
        merged = space.apply(forest, merge)
        transforms = [candidate for candidate in space.actions(merged) if candidate.kind == "transform"]
        if transforms:
            factorable, factoring = merged, transforms[0]
            break
    assert factorable is not None, "no merge of the covid log is factorable"
    (index,) = factoring.touched
    first = space.apply(factorable, factoring)
    second = space.apply(factorable, action(space, factorable, factoring.description))
    assert second.trees[index] is first.trees[index]
    assert first.trees[index] is not factorable.trees[index]


def test_merge_trees_alone_still_allocates_fresh_ids(space):
    forest = space.initial_state
    first, second = forest.merge_trees(0, 1), forest.merge_trees(0, 1)
    assert first.trees[0] is not second.trees[0]
    assert choice_ids(first.trees[0]) and not choice_ids(first.trees[0]) & choice_ids(second.trees[0])
    assert structure_key(first.trees[0]) == structure_key(second.trees[0])


def test_equal_trees_with_other_members_get_their_own_merge(covid_catalog):
    """``[q0, q1, q0, q1]``: merge(t0, t1) and merge(t2, t3) see equal tree keys."""
    log = [covid_query_log()[i] for i in (0, 1, 0, 1)]
    space = SearchSpace(log, covid_catalog.schemas(), catalog=covid_catalog)
    first = space.apply(space.initial_state, action(space, space.initial_state, "merge(t0, t1)"))
    assert first.members == [[0, 1], [2], [3]]
    both = space.apply(first, action(space, first, "merge(t1, t2)"))
    assert both.members == [[0, 1], [2, 3]]
    assert structure_key(both.trees[0]) == structure_key(both.trees[1])
    assert both.trees[0] is not both.trees[1]
    assert not choice_ids(both.trees[0]) & choice_ids(both.trees[1])


# --------------------------------------------------------------------------- #
# Disjoint choice ids
# --------------------------------------------------------------------------- #


def check_disjoint_choice_ids(monkeypatch) -> list:
    """Make ``SearchSpace.evaluate`` assert that its forest's trees share no choice id.

    Returns the list every checked forest is appended to.
    """
    evaluate = SearchSpace.evaluate
    evaluated = []

    def checked_evaluate(self, forest):
        for (first, ids), (second, other) in itertools.combinations(enumerate(map(choice_ids, forest.trees)), 2):
            assert not ids & other, f"trees {first} and {second} of {forest.members} share {sorted(ids & other)}"
        evaluated.append(forest)
        return evaluate(self, forest)

    monkeypatch.setattr(SearchSpace, "evaluate", checked_evaluate)
    return evaluated


def generate_repeating_log(catalog, picks, method) -> None:
    log = [covid_query_log()[i] for i in picks]
    for seed in (1, 2, 3):
        generate_interface(log, catalog, PipelineConfig(method=method, seed=seed))


def fresh_catalog(base):
    """A new catalog (every cache empty) over the same immutable tables."""
    catalog = Catalog()
    for name in base.table_names():
        catalog.register(base.table(name))
    return catalog


def some_forest_merged(evaluated) -> bool:
    return any(forest.tree_count > 1 and forest.choice_count() for forest in evaluated)


@pytest.mark.parametrize("method", ["mcts", "greedy", "beam"])
@pytest.mark.parametrize("picks", REPEATING_LOGS.values(), ids=list(REPEATING_LOGS))
def test_every_evaluated_forest_has_disjoint_choice_ids(monkeypatch, covid_catalog, picks, method):
    evaluated = check_disjoint_choice_ids(monkeypatch)
    generate_repeating_log(covid_catalog, picks, method)
    assert some_forest_merged(evaluated)


@pytest.mark.parametrize("method", ["mcts", "greedy", "beam"])
def test_disjoint_choice_ids_on_a_warm_catalog(monkeypatch, covid_catalog, method):
    """Each repeating log grown query by query, then regenerated after the others.

    A grown prefix mixes trees from the catalog's memo with trees built now,
    so fresh ids must never repeat one a memo tree carries.
    """
    catalog = fresh_catalog(covid_catalog)
    evaluated = check_disjoint_choice_ids(monkeypatch)
    for picks in REPEATING_LOGS.values():
        for length in range(2, len(picks) + 1):
            generate_repeating_log(catalog, picks[:length], method)
    built = catalog.structure_caches.trees.misses
    for picks in REPEATING_LOGS.values():
        generate_repeating_log(catalog, picks, method)
    assert catalog.structure_caches.trees.misses == built  # every tree came from the memo
    assert some_forest_merged(evaluated)


@pytest.mark.parametrize("method", ["mcts", "greedy", "beam"])
def test_disjoint_choice_ids_when_the_tree_memo_evicts(monkeypatch, covid_catalog, method):
    """A tree evicted mid-generation is rebuilt with fresh ids."""
    monkeypatch.setitem(STRUCTURE_CACHE_CAPACITIES, "trees", 6)
    catalog = fresh_catalog(covid_catalog)
    evaluated = check_disjoint_choice_ids(monkeypatch)
    for _ in range(2):
        for picks in REPEATING_LOGS.values():
            generate_repeating_log(catalog, picks, method)
    assert catalog.structure_caches.trees.evictions > 0
    assert some_forest_merged(evaluated)


@pytest.mark.parametrize("method", ["mcts", "greedy", "beam"])
def test_disjoint_choice_ids_under_concurrent_generations(monkeypatch, covid_catalog, method):
    """Threads that both miss build one key twice; the later store wins, and every id stays fresh.

    Four threads each generate the logs in another order, with a short
    switch interval so that they interleave inside one generation.
    """
    catalog = fresh_catalog(covid_catalog)
    evaluated = check_disjoint_choice_ids(monkeypatch)
    errors = []

    def run(order) -> None:
        try:
            for picks in order:
                generate_repeating_log(catalog, picks, method)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    logs = list(REPEATING_LOGS.values())
    orders = [logs[start:] + logs[:start] for start in range(len(logs))] + [logs[::-1]]
    threads = [threading.Thread(target=run, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors
    assert catalog.structure_caches.trees.hits > 0  # the threads shared the memo
    assert some_forest_merged(evaluated)


# --------------------------------------------------------------------------- #
# No reference cycles
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("method", ["mcts", "greedy", "beam", "exhaustive", "none"])
def test_a_generation_leaves_nothing_for_the_cyclic_collector(method):
    gc.collect()
    gc.disable()
    try:
        catalog = load_covid_catalog()
        for phase in ("cold", "warm"):
            generate_interface(covid_query_log(), catalog, PipelineConfig(method=method, seed=1))
            assert gc.collect() == 0, f"{method} {phase} generation left reference cycles"
        del catalog
        assert gc.collect() == 0, "the catalog and its caches sat in reference cycles"
    finally:
        gc.enable()
