"""Tests for the search layer: space, MCTS, greedy, exhaustive."""

from __future__ import annotations

import pytest

from repro.cost import CostModel
from repro.errors import SearchError
from repro.interface import InteractionType
from repro.mapping import MappingConfig
from repro.search import (
    MctsSearcher,
    SearchSpace,
    exhaustive_search,
    greedy_search,
    mcts_search,
)


@pytest.fixture()
def sdss_space(sdss_catalog, sdss_log):
    return SearchSpace(
        queries=sdss_log,
        table_schemas=sdss_catalog.schemas(),
        mapping_config=MappingConfig(name="sdss"),
        cost_model=CostModel(),
    )


def make_space(catalog, queries, **kwargs):
    return SearchSpace(
        queries=queries,
        table_schemas=catalog.schemas(),
        mapping_config=MappingConfig(),
        cost_model=CostModel(),
        **kwargs,
    )


class TestSearchSpace:
    def test_initial_state_is_per_query(self, sdss_space, sdss_log):
        assert sdss_space.initial_state.tree_count == len(sdss_log)

    def test_actions_include_merges(self, sdss_space):
        actions = sdss_space.actions(sdss_space.initial_state)
        assert any(action.kind == "merge" for action in actions)

    def test_transformations_appear_after_merge(self, sdss_space):
        merged = sdss_space.initial_state.merge_trees(0, 1)
        actions = sdss_space.actions(merged)
        assert any(action.kind == "transform" for action in actions)

    def test_evaluation_is_cached(self, sdss_space):
        state = sdss_space.initial_state
        first = sdss_space.evaluate(state)
        evaluations = sdss_space.stats.evaluations
        second = sdss_space.evaluate(state)
        assert first is second
        assert sdss_space.stats.evaluations == evaluations
        assert sdss_space.stats.cache_hits >= 1

    def test_dissimilar_trees_not_merged(self, covid_catalog):
        space = make_space(
            covid_catalog,
            [
                "SELECT date, sum(cases) AS c FROM covid_cases GROUP BY date",
                "SELECT state, region FROM state_regions",
            ],
        )
        actions = space.actions(space.initial_state)
        assert not [a for a in actions if a.kind == "merge"]

    def test_empty_query_log_rejected(self, covid_catalog):
        with pytest.raises(SearchError):
            make_space(covid_catalog, [])


class TestStrategies:
    def test_mcts_finds_pan_zoom_interface(self, sdss_space):
        result = mcts_search(sdss_space, iterations=60, seed=1)
        assert result.strategy == "mcts"
        assert result.interface.interactions
        assert result.interface.interactions[0].interaction_type is InteractionType.PAN_ZOOM
        assert result.forest.covers_all()

    def test_mcts_never_worse_than_initial(self, sdss_space):
        initial_cost = sdss_space.evaluate(sdss_space.initial_state).total
        result = mcts_search(sdss_space, iterations=40, seed=3)
        assert result.total_cost <= initial_cost

    def test_mcts_deterministic_for_seed(self, sdss_catalog, sdss_log):
        costs = []
        for _ in range(2):
            space = make_space(sdss_catalog, sdss_log)
            costs.append(mcts_search(space, iterations=30, seed=7).total_cost)
        assert costs[0] == pytest.approx(costs[1])

    def test_mcts_requires_iterations(self, sdss_space):
        with pytest.raises(SearchError):
            MctsSearcher(sdss_space, iterations=0)

    def test_greedy_runs_and_reports_trace(self, covid_catalog, covid_log):
        space = make_space(covid_catalog, covid_log[:3])
        result = greedy_search(space)
        assert result.strategy == "greedy"
        assert result.total_cost <= space.evaluate(space.initial_state).total
        assert isinstance(result.action_trace, list)

    def test_exhaustive_at_least_as_good_as_greedy(self, sdss_catalog, sdss_log):
        greedy_space = make_space(sdss_catalog, sdss_log)
        greedy_result = greedy_search(greedy_space)
        exhaustive_space = make_space(sdss_catalog, sdss_log)
        exhaustive_result = exhaustive_search(exhaustive_space, max_depth=3, max_states=200)
        assert exhaustive_result.total_cost <= greedy_result.total_cost + 1e-9

    def test_mcts_matches_exhaustive_on_small_log(self, sdss_catalog, sdss_log):
        exhaustive_space = make_space(sdss_catalog, sdss_log)
        best = exhaustive_search(exhaustive_space, max_depth=3, max_states=200).total_cost
        mcts_space = make_space(sdss_catalog, sdss_log)
        found = mcts_search(mcts_space, iterations=80, seed=1).total_cost
        assert found <= best + 1e-9

    def test_mcts_explores_fewer_candidates_than_exhaustive(self, covid_catalog, covid_log):
        # On the larger COVID log exhaustive enumeration visits far more
        # distinct candidates than a short MCTS run.
        exhaustive_space = make_space(covid_catalog, covid_log[:4])
        exhaustive_search(exhaustive_space, max_depth=3, max_states=120)
        mcts_space = make_space(covid_catalog, covid_log[:4])
        mcts_search(mcts_space, iterations=20, seed=1)
        assert mcts_space.stats.evaluations < exhaustive_space.stats.evaluations

    def test_greedy_gets_stuck_on_sdss(self, sdss_catalog, sdss_log):
        """Greedy cannot cross the temporarily-worse merge step on SDSS."""
        greedy_space = make_space(sdss_catalog, sdss_log)
        greedy_result = greedy_search(greedy_space)
        mcts_space = make_space(sdss_catalog, sdss_log)
        mcts_result = mcts_search(mcts_space, iterations=80, seed=1)
        assert mcts_result.total_cost < greedy_result.total_cost
