"""The catalog's forest-cost memo: a repeat skips the work, keys are exact, snapshots stay apart.

``SearchSpace.evaluate`` maps and costs a forest only when neither this
generation nor an earlier one on the same catalog costed it under the same
context (``StructureCaches.costs``, keyed on the forest's signature and the
search's cost context).  Together they are everything a forest's cost reads:
its trees and members, the log coverage checks them against, the schemas,
the nominal cardinalities, the cost weights, the screen and the mapping
policy.  This suite checks that

* **a repeat skips the work** — a second identical generation on one catalog
  costs nothing and maps only the forest it returns, with the same
  fingerprint, cost and evaluation count as the first;
* **keys are exact** — varying one part of the context at a time gives the
  same forest its own entry, whose cost equals a fresh catalog's, while the
  interface name, which no cost term reads, shares the entry;
* **snapshots stay apart** — snapshots pinned before and after an append that
  adds a text value do not share an entry.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.search.space as space_module
from repro.cost.model import CostModel, CostWeights
from repro.datasets import covid_query_log, load_covid_catalog
from repro.difftree.builder import DifftreeForest, parse_query_log
from repro.engine.catalog import Catalog
from repro.interface.layout import MEDIUM_SCREEN, SMALL_SCREEN
from repro.mapping import MappingConfig
from repro.mapping.interaction_mapping import MappingPolicy
from repro.pipeline import PipelineConfig, _nominal_cardinalities, generate_interface
from repro.search.space import SearchSpace
from repro.sql.schema import AttributeRole

ANY_LOG = [
    "SELECT date, cases FROM covid_cases WHERE cases > 1 ORDER BY date",
    "SELECT date, cases FROM covid_cases WHERE cases > 2 ORDER BY date",
]
#: ``ANY_LOG`` with its second query changed: the merged ``ANY(1, 2)`` tree
#: does not express it, so the same trees cost more over this log.
OTHER_LOG = [ANY_LOG[0], "SELECT date, cases FROM covid_cases WHERE cases > 3 ORDER BY date"]


def new_state(catalog: Catalog) -> None:
    """Append a row whose ``state`` no row had: only the nominal cardinalities move."""
    schemas = catalog.schemas()
    catalog.append_rows("covid_cases", [["ZZ", "2021-12-31", 4]])
    assert catalog.schemas() == schemas


def other_log(catalog: Catalog, forest: DifftreeForest) -> tuple[dict, DifftreeForest]:
    """The same trees and members over ``OTHER_LOG``: an equal signature."""
    relogged = DifftreeForest(trees=forest.trees, members=forest.members, queries=parse_query_log(OTHER_LOG))
    assert relogged.signature() == forest.signature()
    return {"log": OTHER_LOG}, relogged


def more_states(catalog: Catalog, forest: DifftreeForest) -> tuple[dict, DifftreeForest]:
    new_state(catalog)
    return {}, forest


def ordinal_cases(catalog: Catalog, forest: DifftreeForest) -> tuple[dict, DifftreeForest]:
    """The schemas with ``covid_cases.cases`` ordinal: what a worker's shared caches see from another catalog."""
    schemas = dict(catalog.schemas())
    table = schemas["covid_cases"]
    columns = tuple(
        replace(column, role=AttributeRole.ORDINAL) if column.name == "cases" else column
        for column in table.columns
    )
    schemas["covid_cases"] = replace(table, columns=columns)
    return {"schemas": schemas}, forest


def setting(**changes):
    return lambda catalog, forest: (changes, forest)


#: One part of the context each: ``(catalog, forest) -> (keyword changes to
#: memo_space, the forest to evaluate)``, after writing to the catalog if the
#: part is the data.
VARIANTS = {
    "log": other_log,
    "cardinalities": more_states,
    "schemas": ordinal_cases,
    "weights": setting(weights=CostWeights(interaction=1)),  # 1, not 1.0
    "screen": setting(screen=SMALL_SCREEN),
    "policy": setting(policy=MappingPolicy(prefer_vis_interactions=False)),
}


@pytest.fixture(scope="module")
def base() -> Catalog:
    return load_covid_catalog()


def fresh_catalog(base: Catalog) -> Catalog:
    """A new catalog (every cache empty) over the same immutable tables."""
    catalog = Catalog()
    for name in base.table_names():
        catalog.register(base.table(name))
    return catalog


def memo_space(
    catalog,
    log=ANY_LOG,
    schemas=None,
    weights: CostWeights | None = None,
    screen=MEDIUM_SCREEN,
    policy: MappingPolicy | None = None,
    name: str = "interface",
) -> SearchSpace:
    """A search on ``catalog``'s structure caches, costed as generation costs it."""
    return SearchSpace(
        queries=log,
        table_schemas=schemas or catalog.schemas(),
        mapping_config=MappingConfig(screen=screen, policy=policy, name=name),
        cost_model=CostModel(
            weights=weights,
            nominal_cardinalities=_nominal_cardinalities(catalog),
            caches=catalog.structure_caches,
        ),
        catalog=catalog,
    )


def outcome(result) -> tuple:
    return result.interface.fingerprint(), repr(result.total_cost), result.stats.evaluations


@pytest.fixture
def calls(monkeypatch) -> dict[str, int]:
    """Counts of ``CostModel.evaluate`` and of the search's mapping calls."""
    counts = {"cost": 0, "map": 0}
    evaluate = CostModel.evaluate
    map_forest = space_module.map_forest_to_interface

    def counted_evaluate(self, interface):
        counts["cost"] += 1
        return evaluate(self, interface)

    def counted_map(*args, **kwargs):
        counts["map"] += 1
        return map_forest(*args, **kwargs)

    monkeypatch.setattr(CostModel, "evaluate", counted_evaluate)
    monkeypatch.setattr(space_module, "map_forest_to_interface", counted_map)
    return counts


@pytest.mark.parametrize("method", ["mcts", "greedy", "beam"])
def test_a_repeated_generation_maps_only_its_result(base, calls, method):
    catalog = fresh_catalog(base)
    log, config = covid_query_log(), PipelineConfig(method=method, seed=1)
    first = generate_interface(log, catalog, config)
    assert first.stats.costs_reused == 0 and calls["cost"] == first.stats.evaluations
    calls.update(cost=0, map=0)
    second = generate_interface(log, catalog, config)
    assert calls == {"cost": 0, "map": 1}  # the map is result()'s own
    assert outcome(second) == outcome(first)
    assert second.stats.costs_reused == second.stats.evaluations > 0
    assert second.stats.tree_evals_reused == second.stats.tree_evals_computed == 0
    assert second.summary()["costs_reused"] == second.stats.evaluations


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_each_context_gets_its_own_entry(base, variant):
    catalog = fresh_catalog(base)
    forest = memo_space(catalog).initial_state.merge_trees(0, 1)
    memo_space(catalog).evaluate(forest)
    costs = catalog.structure_caches.costs
    assert len(costs) == 1
    changes, forest = VARIANTS[variant](catalog, forest)
    space = memo_space(catalog, **changes)
    cost = space.evaluate(forest)
    assert space.stats.costs_reused == 0 and len(costs) == 2, variant
    assert cost.as_dict() == memo_space(fresh_catalog(catalog), **changes).evaluate(forest).as_dict()
    assert memo_space(catalog, **changes).evaluate(forest) is cost  # the variant's own entry


def test_a_context_that_moves_the_cost_does_not_reuse_it(base):
    """The merged tree expresses ``ANY_LOG`` but not ``OTHER_LOG``: one signature, two costs."""
    catalog = fresh_catalog(base)
    forest = memo_space(catalog).initial_state.merge_trees(0, 1)
    covered = memo_space(catalog).evaluate(forest)
    changes, relogged = other_log(catalog, forest)
    assert memo_space(catalog, **changes).evaluate(relogged).expressiveness > covered.expressiveness


def test_the_interface_name_shares_the_entry(base):
    """No cost term reads ``MappingConfig.name``, so it stays out of the key."""
    catalog = fresh_catalog(base)
    forest = memo_space(catalog).initial_state.merge_trees(0, 1)
    cost = memo_space(catalog).evaluate(forest)
    renamed = memo_space(catalog, name="renamed")
    assert renamed.evaluate(forest) is cost
    assert renamed.stats.costs_reused == 1


def test_snapshots_before_and_after_an_append_stay_apart(base):
    catalog = fresh_catalog(base)
    log, config = covid_query_log()[:4], PipelineConfig(method="greedy")
    before = catalog.snapshot()
    new_state(catalog)
    after = catalog.snapshot()
    assert before.structure_caches is after.structure_caches
    assert _nominal_cardinalities(before) != _nominal_cardinalities(after)
    first = generate_interface(log, before, config)
    second = generate_interface(log, after, config)
    assert first.stats.costs_reused == second.stats.costs_reused == 0
    assert outcome(second) == outcome(generate_interface(log, fresh_catalog(after), config))
    # Each snapshot still reuses its own entries.
    assert generate_interface(log, before, config).stats.costs_reused == first.stats.evaluations


def test_the_memo_stays_bounded_and_clears(base):
    catalog = fresh_catalog(base)
    costs = catalog.structure_caches.costs
    for length in range(2, len(covid_query_log()) + 1):
        generate_interface(covid_query_log()[:length], catalog, PipelineConfig(method="mcts", seed=length))
    assert 0 < len(costs) <= costs.capacity
    catalog.clear_caches()
    assert len(costs) == 0


def test_a_breakdown_is_frozen(base):
    space = memo_space(fresh_catalog(base))
    cost = space.evaluate(space.initial_state)
    with pytest.raises(AttributeError):
        cost.layout = 0.0  # type: ignore[misc]
    assert replace(cost, layout=0.0).layout == 0.0
