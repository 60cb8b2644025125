"""Each merge and factoring paid for once per generation, and a generation that frees itself.

``SearchSpace`` keeps two memos beside its evaluation memo: merged trees,
keyed on both input trees' ``(members, tree_key)``, and factored trees,
keyed on ``(members, tree_key, rule, choice_id)``.  A replayed action
returns the very tree object it built first.  This suite checks:

* **memo identity** — the same action applied twice returns the same tree,
  while ``DifftreeForest.merge_trees`` on its own still builds fresh ids;
* **disjoint choice ids** — on logs that repeat a query, two trees have
  equal tree keys, and only the members in the key keep their merges apart:
  every forest a search evaluates has pairwise-disjoint choice ids;
* **no reference cycles** — with the cyclic collector off, a generation
  under every method, cold and warm, leaves nothing for it to collect.
"""

from __future__ import annotations

import gc
import itertools

import pytest

from repro.datasets import covid_query_log, load_covid_catalog
from repro.difftree.nodes import collect_choice_nodes
from repro.difftree.signatures import structure_key
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


@pytest.mark.parametrize("method", ["mcts", "greedy", "beam"])
@pytest.mark.parametrize("picks", REPEATING_LOGS.values(), ids=list(REPEATING_LOGS))
def test_every_evaluated_forest_has_disjoint_choice_ids(monkeypatch, covid_catalog, picks, method):
    evaluate = SearchSpace.evaluate
    evaluated = []

    def checked_evaluate(self, forest):
        for (first, ids), (second, other) in itertools.combinations(enumerate(map(choice_ids, forest.trees)), 2):
            assert not ids & other, f"trees {first} and {second} of {forest.members} share {sorted(ids & other)}"
        evaluated.append(forest)
        return evaluate(self, forest)

    monkeypatch.setattr(SearchSpace, "evaluate", checked_evaluate)
    log = [covid_query_log()[i] for i in picks]
    for seed in (1, 2, 3):
        generate_interface(log, covid_catalog, PipelineConfig(method=method, seed=seed))
    assert any(forest.tree_count > 1 and forest.choice_count() for forest in evaluated)


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
