"""Differential tests for incremental candidate evaluation.

The search layer evaluates candidates incrementally: per-tree pieces
(profiles, chart templates, widget-mapping pieces, coverage checks, data
profiles) are cached by tree signature and reused across the forest
states a search visits.  The contract — mirroring the optimizer on-vs-off
pattern of ``docs/TESTING.md`` — is that an incremental evaluation is
*indistinguishable* from a from-scratch one:

for any forest reached by any action sequence, a warm ``SearchSpace`` (full
caches, arbitrary evaluation history) must produce exactly the same
``CostBreakdown`` and the same interface as a cold ``SearchSpace`` that has
never evaluated anything else.

The property test drives seeded random action walks; regression tests cover
the satellite behaviours (beam determinism, stats split, cache bounds).
"""

from __future__ import annotations

import random

import pytest

from repro.cost import CostModel
from repro.difftree.signatures import STRUCTURE_CACHE_CAPACITIES
from repro.engine.catalog import Catalog
from repro.mapping import MappingConfig
from repro.mapping.schema_matching import map_forest_to_interface
from repro.search import SearchSpace, beam_search, greedy_search, mcts_search


def make_space(schema_catalog, queries, **kwargs):
    return SearchSpace(
        queries=queries,
        table_schemas=schema_catalog.schemas(),
        mapping_config=MappingConfig(),
        cost_model=CostModel(),
        **kwargs,
    )


def fresh_catalog(base: Catalog) -> Catalog:
    """A new catalog (every cache empty) over the same immutable tables.

    A space built on a catalog keeps its profiles, chart templates and row
    counts in the catalog's structure caches, so a from-scratch evaluation
    needs a catalog no other space has used.
    """
    catalog = Catalog()
    for name in base.table_names():
        catalog.register(base.table(name))
    return catalog


def interface_dump(interface) -> tuple:
    """Canonical structural dump of an interface for exact comparison.

    Choice ids are normalized by order of first appearance: they are gensym'd
    allocation labels (``any_417``), so two evaluations of the same structure
    legitimately differ in the numbers while being the same interface — the
    forest-level evaluation cache has always reused structurally equal states
    wholesale, and each interface stays self-consistent with the forest it
    embeds.  Everything else must match byte for byte.
    """
    renames: dict[str, str] = {}

    def rename(choice_id: str) -> str:
        if choice_id not in renames:
            renames[choice_id] = f"c#{len(renames) + 1}"
        return renames[choice_id]

    return (
        tuple(
            (
                vis.vis_id,
                vis.chart_type.value,
                tuple(encoding.describe() for encoding in vis.encodings),
                vis.tree_index,
                vis.title,
                vis.width,
                vis.height,
            )
            for vis in interface.visualizations
        ),
        tuple(
            (
                widget.widget_id,
                widget.widget_type.value,
                widget.label,
                tuple((b.tree_index, rename(b.choice_id)) for b in widget.bindings),
                tuple(str(option) for option in widget.options),
                widget.domain,
                str(widget.default),
            )
            for widget in interface.widgets
        ),
        tuple(
            (
                interaction.interaction_id,
                interaction.interaction_type.value,
                interaction.source_vis_id,
                interaction.attribute,
                interaction.secondary_attribute,
                tuple((b.tree_index, rename(b.choice_id)) for b in interaction.bindings),
                tuple(interaction.target_vis_ids),
            )
            for interaction in interface.interactions
        ),
    )


def map_and_cost(space, forest) -> tuple:
    """``forest``'s interface and cost through ``space``'s per-tree caches only.

    Mapping and costing directly goes past the space's ledger and its
    forest-cost memo, which would otherwise answer a forest the warm-up
    search already costed.
    """
    interface = map_forest_to_interface(forest, space.table_schemas, space.mapping_config, caches=space.mapping_caches)
    return interface, space.cost_model.evaluate(interface)


def random_walk(space, rng, steps):
    """Apply up to ``steps`` random actions; yield each forest reached."""
    forest = space.initial_state
    for _ in range(steps):
        actions = space.actions(forest)
        if not actions:
            return
        action = rng.choice(actions)
        forest = space.apply(forest, action)
        yield forest


class TestIncrementalEqualsFull:
    """Property: warm-cache evaluation == cold-cache evaluation, exactly."""

    @pytest.mark.parametrize("seed", range(6))
    def test_covid_random_walks(self, covid_catalog, covid_log, seed):
        rng = random.Random(seed)
        warm = make_space(covid_catalog, covid_log[:4], catalog=covid_catalog)
        # Warm the caches with an unrelated evaluation history first.
        mcts_search(warm, iterations=8, seed=seed)
        for forest in random_walk(warm, rng, steps=4):
            interface, cost = map_and_cost(warm, forest)  # afresh, through the warm per-tree caches
            cold_catalog = fresh_catalog(covid_catalog)
            cold = make_space(cold_catalog, covid_log[:4], catalog=cold_catalog)
            scratch_interface, scratch_cost = map_and_cost(cold, forest)
            assert cost.as_dict() == scratch_cost.as_dict()
            assert interface_dump(interface) == interface_dump(scratch_interface)
            assert warm.evaluate(forest).as_dict() == scratch_cost.as_dict()

    @pytest.mark.parametrize("seed", range(4))
    def test_sdss_random_walks(self, sdss_catalog, sdss_log, seed):
        rng = random.Random(seed)
        warm = make_space(sdss_catalog, sdss_log)
        mcts_search(warm, iterations=10, seed=seed)
        for forest in random_walk(warm, rng, steps=5):
            interface, cost = map_and_cost(warm, forest)  # afresh, through the warm per-tree caches
            cold = make_space(sdss_catalog, sdss_log)
            scratch_interface, scratch_cost = map_and_cost(cold, forest)
            assert cost.as_dict() == scratch_cost.as_dict()
            assert interface_dump(interface) == interface_dump(scratch_interface)
            assert warm.evaluate(forest).as_dict() == scratch_cost.as_dict()

    def test_incremental_reuse_is_counted(self, covid_catalog, covid_log):
        space = make_space(covid_catalog, covid_log)
        mcts_search(space, iterations=20, seed=1)
        # Most per-tree evaluations must have been reused, not recomputed:
        # that is the whole point of the incremental path.
        assert space.stats.tree_evals_reused > space.stats.tree_evals_computed


class TestActionDeltas:
    def test_merge_touches_merged_slot(self, covid_catalog, covid_log):
        space = make_space(covid_catalog, covid_log[:4])
        merges = [a for a in space.actions(space.initial_state) if a.kind == "merge"]
        assert merges
        for action in merges:
            result = space.apply(space.initial_state, action)
            assert len(action.touched) == 1
            (touched,) = action.touched
            # Every tree except the touched slot is shared by identity.
            source_ids = {id(tree) for tree in space.initial_state.trees}
            for index, tree in enumerate(result.trees):
                if index == touched:
                    assert id(tree) not in source_ids
                else:
                    assert id(tree) in source_ids

    def test_transform_touches_transformed_slot(self, sdss_catalog, sdss_log):
        space = make_space(sdss_catalog, sdss_log)
        forest = space.initial_state.merge_trees(0, 1)
        transforms = [a for a in space.actions(forest) if a.kind == "transform"]
        assert transforms
        for action in transforms:
            result = space.apply(forest, action)
            (touched,) = action.touched
            for index, tree in enumerate(result.trees):
                if index != touched:
                    assert tree is forest.trees[index]


class TestBeamSearch:
    def test_beam_deterministic(self, sdss_catalog, sdss_log):
        costs = []
        dumps = []
        for _ in range(2):
            space = make_space(sdss_catalog, sdss_log)
            result = beam_search(space, width=3, max_depth=6)
            costs.append(result.total_cost)
            dumps.append(interface_dump(result.interface))
        assert costs[0] == costs[1]
        assert dumps[0] == dumps[1]

    def test_beam_never_worse_than_initial(self, covid_catalog, covid_log):
        space = make_space(covid_catalog, covid_log[:4])
        initial_cost = space.evaluate(space.initial_state).total
        result = beam_search(space)
        assert result.strategy == "beam"
        assert result.total_cost <= initial_cost

    def test_beam_escapes_greedy_local_minimum(self, sdss_catalog, sdss_log):
        """On SDSS the winning interface needs a temporarily-worse merge."""
        greedy_space = make_space(sdss_catalog, sdss_log)
        greedy_result = greedy_search(greedy_space)
        beam_space = make_space(sdss_catalog, sdss_log)
        beam_result = beam_search(beam_space, width=4, max_depth=6)
        assert beam_result.total_cost < greedy_result.total_cost

    def test_beam_width_one_requires_positive_width(self, covid_catalog, covid_log):
        from repro.errors import SearchError

        space = make_space(covid_catalog, covid_log[:3])
        with pytest.raises(SearchError):
            beam_search(space, width=0)

    def test_pipeline_beam_method(self, covid_catalog, covid_log):
        from repro.pipeline import PipelineConfig, generate_interface

        result = generate_interface(
            covid_log[:4], covid_catalog, PipelineConfig(method="beam")
        )
        assert result.strategy == "beam"
        assert result.interface.visualization_count >= 1


class TestStatsSplit:
    def test_summary_surfaces_split(self, covid_catalog, covid_log):
        from repro.pipeline import PipelineConfig, generate_interface

        result = generate_interface(
            covid_log[:3], covid_catalog, PipelineConfig(method="greedy")
        )
        summary = result.summary()
        for key in ("tree_evals_reused", "tree_evals_computed"):
            assert key in summary


class TestCacheBounds:
    def test_transformation_cache_is_bounded(self, covid_catalog, covid_log):
        space = make_space(covid_catalog, covid_log[:4])
        mcts_search(space, iterations=30, seed=2)
        assert len(space._transformations) <= STRUCTURE_CACHE_CAPACITIES["transformations"]

    def test_transformation_cache_keyed_by_signature(self, covid_catalog, covid_log):
        """Equal-signature trees share one entry; the cache holds no id() keys."""
        space = make_space(covid_catalog, covid_log[:4])
        forest = space.initial_state
        first = space._transformations_for(forest.trees[0])
        second = space._transformations_for(forest.trees[0])
        assert first is second

    def test_cache_info_reports_all_caches(self, covid_catalog, covid_log):
        space = make_space(covid_catalog, covid_log[:3], catalog=covid_catalog)
        greedy_search(space)
        info = space.cache_info()
        for section in ("profiles", "visualizations", "pieces", "transformations"):
            assert section in info
