"""The search's one forest identity and the interfaces it returns.

``SearchSpace.evaluate`` memoizes each candidate forest on
``DifftreeForest.signature()``: per tree, its member queries and its
``structure_key`` (the exact, type-tagged structure with choice ids erased
and their sharing pattern kept).  This suite checks the three promises that
identity makes:

* **distinct forests, distinct entries** — the pairs the old type-name
  fingerprint collided (an OPT whose default differs; ``ANY(1, 2)`` vs
  ``ANY(7, 9)``) each get their own entry and their own cost in one search;
* **twins share one entry** — forests whose trees differ only by a renaming
  of choice ids hit one entry, whose cost and row counts equal a fresh
  evaluation of the twin on a fresh catalog;
* **interfaces belong to their forests** — for every strategy,
  ``SearchResult.interface`` equals a fresh mapping of
  ``SearchResult.forest``, also when the winner's memo entry came from a
  twin and so holds an interface bound to the twin's choice ids.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cost.model import CostModel
from repro.datasets import covid_query_log, load_covid_catalog
from repro.difftree.builder import DifftreeForest
from repro.difftree.nodes import AnyNode, ChoiceNode, OptNode, collect_choice_nodes
from repro.difftree.signatures import structure_key, tree_key
from repro.mapping import MappingConfig
from repro.mapping.schema_matching import map_forest_to_interface
from repro.search import beam_search, exhaustive_search, greedy_search, mcts_search
from repro.search.space import SearchSpace
from repro.sql.ast_nodes import Literal
from repro.sql.visitor import transform

OPT_LOG = [
    "SELECT date, cases FROM covid_cases WHERE state = 'NY' ORDER BY date",
    "SELECT date, cases FROM covid_cases ORDER BY date",
]
ANY_LOG = [
    "SELECT date, cases FROM covid_cases WHERE cases > 1 ORDER BY date",
    "SELECT date, cases FROM covid_cases WHERE cases > 2 ORDER BY date",
]
STRATEGIES = {
    "mcts": lambda space: mcts_search(space, iterations=20, seed=3),
    "greedy": greedy_search,
    "beam": lambda space: beam_search(space, width=2, max_depth=4),
    "exhaustive": lambda space: exhaustive_search(space, max_depth=2, max_states=60),
}


@pytest.fixture(scope="module")
def catalog():
    return load_covid_catalog()


def search_space(catalog, log) -> SearchSpace:
    """A search that keeps every structure cache in ``catalog``'s, as generation does."""
    return SearchSpace(
        queries=log,
        table_schemas=catalog.schemas(),
        cost_model=CostModel(caches=catalog.structure_caches),
        catalog=catalog,
    )


def rewrite_choices(forest: DifftreeForest, rewrite) -> DifftreeForest:
    """``forest`` with ``rewrite`` applied to every choice node of every tree."""
    return DifftreeForest(
        trees=[
            transform(tree, lambda node: rewrite(node) if isinstance(node, ChoiceNode) else None)
            for tree in forest.trees
        ],
        members=[list(members) for members in forest.members],
        queries=list(forest.queries),
    )


def twin(forest: DifftreeForest) -> DifftreeForest:
    """``forest`` with every choice id renamed."""
    return rewrite_choices(forest, lambda node: dataclasses.replace(node, choice_id=f"{node.choice_id}_twin"))


def fresh_evaluation(forest: DifftreeForest, log):
    """``forest`` evaluated by a new search on a new catalog: no cache shared."""
    return search_space(load_covid_catalog(), log).evaluate(forest)


def fresh_mapping(catalog, forest: DifftreeForest):
    return map_forest_to_interface(forest, catalog.schemas(), MappingConfig())


# --------------------------------------------------------------------------- #
# Distinct forests, distinct entries
# --------------------------------------------------------------------------- #


def flip_opt_default(forest: DifftreeForest) -> DifftreeForest:
    return rewrite_choices(
        forest,
        lambda node: dataclasses.replace(node, default_on=not node.default_on) if isinstance(node, OptNode) else None,
    )


def other_literals(forest: DifftreeForest) -> DifftreeForest:
    return rewrite_choices(
        forest,
        lambda node: dataclasses.replace(node, alternatives=[Literal(7), Literal(9)])
        if isinstance(node, AnyNode)
        else None,
    )


@pytest.mark.parametrize(
    "log, variant, choice_type",
    [(OPT_LOG, flip_opt_default, OptNode), (ANY_LOG, other_literals, AnyNode)],
    ids=["opt-default", "any-literals"],
)
def test_colliding_pairs_get_their_own_entries_and_costs(catalog, log, variant, choice_type):
    space = search_space(catalog, log)
    merged = space.initial_state.merge_trees(0, 1)
    assert [type(node) for node in collect_choice_nodes(merged.trees[0])] == [choice_type]
    other = variant(merged)
    assert merged.signature() != other.signature()
    evaluations = space.stats.evaluations
    first, second = space.evaluate(merged), space.evaluate(other)
    assert space.stats.evaluations == evaluations + 2
    assert second is not first
    for forest, evaluation in ((merged, first), (other, second)):
        fresh = fresh_evaluation(forest, log)
        assert evaluation.cost.as_dict() == fresh.cost.as_dict()
    # Asking again is a memo hit on each forest's own entry.
    assert space.evaluate(variant(merged)) is second and space.evaluate(merged) is first


def test_literal_variants_differ_in_cost(catalog):
    """``ANY(7, 9)`` expresses neither query, so sharing an entry would misprice it."""
    space = search_space(catalog, ANY_LOG)
    merged = space.initial_state.merge_trees(0, 1)
    assert space.evaluate(other_literals(merged)).total_cost > space.evaluate(merged).total_cost


# --------------------------------------------------------------------------- #
# Twins share one entry
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("log", [OPT_LOG, ANY_LOG, covid_query_log()[:4]], ids=["opt", "any", "covid4"])
def test_twins_share_one_entry_equal_to_a_fresh_evaluation(catalog, log):
    space = search_space(catalog, log)
    forest = space.initial_state.merge_trees(0, 1)
    replayed = space.initial_state.merge_trees(0, 1)  # the same merge, fresh choice ids
    for other in (replayed, twin(forest)):
        assert tree_key(other.trees[0]) != tree_key(forest.trees[0])
        assert structure_key(other.trees[0]) == structure_key(forest.trees[0])
    evaluation = space.evaluate(forest)
    evaluations, hits = space.stats.evaluations, space.stats.cache_hits
    for other in (replayed, twin(forest)):
        assert space.evaluate(other) is evaluation
        fresh = fresh_evaluation(other, log)
        assert evaluation.cost.as_dict() == fresh.cost.as_dict()
    assert space.stats.evaluations == evaluations
    assert space.stats.cache_hits == hits + 2


# --------------------------------------------------------------------------- #
# Interfaces belong to their forests
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("seed_twin", [False, True], ids=["plain", "twin-seeded"])
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_the_result_interface_maps_the_result_forest(catalog, strategy, seed_twin):
    log = covid_query_log()
    run = STRATEGIES[strategy]
    space = search_space(catalog, log)
    decoy = None
    if seed_twin:
        # Evaluate a twin of the winner first, so the winner's memo entry —
        # cost and interface — is the twin's.
        decoy = twin(run(search_space(catalog, log)).forest)
        space.evaluate(decoy)
    result = run(space)
    assert result.forest.choice_count() > 0  # widgets bind choice ids
    if decoy is not None:
        assert result.forest.signature() == decoy.signature()
        held = space.evaluate(result.forest).interface
        assert held.forest is decoy and held != fresh_mapping(catalog, result.forest)
    assert result.interface.forest is result.forest
    assert result.interface == fresh_mapping(catalog, result.forest)
    assert result.cost.as_dict() == fresh_evaluation(result.forest, log).cost.as_dict()
