"""Tests for the interface cost model and its components."""

from __future__ import annotations

import functools
import operator

import pytest

from repro.cost import (
    MISSING_QUERY_PENALTY,
    CostModel,
    CostWeights,
    coverage_ratio,
    generality_score,
    interaction_cost,
    total_interaction_cost,
    total_widget_cost,
    widget_cost,
)
from repro.difftree import build_forest, find_binding_for
from repro.difftree.transformations import applicable_transformations
from repro.interface import (
    ChoiceBinding,
    InteractionType,
    VisInteraction,
    Widget,
    WidgetType,
)
from repro.mapping import MappingConfig, map_forest_to_interface


def build_interface(queries, catalog, strategy="merged", factor=False, screen=None):
    forest = build_forest(queries, strategy=strategy)
    if factor:
        for index, tree in enumerate(forest.trees):
            changed = True
            while changed:
                changed = False
                for transformation in applicable_transformations(tree):
                    if transformation.rule == "factor_common_root":
                        tree = transformation(tree)
                        changed = True
                        break
            forest = forest.replace_tree(index, tree)
    config = MappingConfig(screen=screen) if screen else MappingConfig()
    return map_forest_to_interface(forest, catalog.schemas(), config)


class TestComponentCosts:
    def test_widget_type_ordering(self):
        def cost_of(widget_type, options=()):
            return widget_cost(
                Widget(
                    widget_id="W",
                    widget_type=widget_type,
                    label="x",
                    bindings=[ChoiceBinding(0, "c")],
                    options=list(options),
                    domain=(0, 1),
                )
            )

        assert cost_of(WidgetType.TOGGLE) < cost_of(WidgetType.BUTTON_GROUP, ["a", "b"])
        assert cost_of(WidgetType.BUTTON_GROUP, ["a", "b"]) < cost_of(WidgetType.DROPDOWN, ["a", "b"])
        assert cost_of(WidgetType.DROPDOWN, ["a", "b"]) < cost_of(WidgetType.TABS, ["a", "b"])

    def test_long_option_lists_cost_more(self):
        short = Widget("W", WidgetType.RADIO, "x", [ChoiceBinding(0, "c")], options=["a", "b"])
        long = Widget(
            "W", WidgetType.RADIO, "x", [ChoiceBinding(0, "c")], options=[str(i) for i in range(12)]
        )
        assert widget_cost(long) > widget_cost(short)

    def test_raw_sql_options_cost_more(self):
        plain = Widget("W", WidgetType.RADIO, "x", [ChoiceBinding(0, "c")], options=["South", "North"])
        sqlish = Widget(
            "W",
            WidgetType.RADIO,
            "x",
            [ChoiceBinding(0, "c")],
            options=["date BETWEEN '2021-12-01' AND '2021-12-14'", "a = 1"],
        )
        assert widget_cost(sqlish) > widget_cost(plain)

    def test_interactions_cheaper_than_widgets(self):
        brush = VisInteraction(
            interaction_id="I",
            interaction_type=InteractionType.BRUSH_X,
            source_vis_id="G1",
            attribute="date",
            bindings=[ChoiceBinding(0, "a"), ChoiceBinding(0, "b")],
            target_vis_ids=["G2"],
        )
        widget = Widget(
            "W", WidgetType.RANGE_SLIDER, "date", [ChoiceBinding(0, "a")], domain=(0, 1)
        )
        assert interaction_cost(brush) < widget_cost(widget)

    def test_linked_interaction_discount(self):
        linked = VisInteraction(
            interaction_id="I",
            interaction_type=InteractionType.BRUSH_X,
            source_vis_id="G1",
            attribute="date",
            bindings=[ChoiceBinding(0, "a")],
            target_vis_ids=["G2"],
        )
        unlinked = VisInteraction(
            interaction_id="I",
            interaction_type=InteractionType.BRUSH_X,
            source_vis_id="G1",
            attribute="date",
            bindings=[ChoiceBinding(0, "a")],
            target_vis_ids=["G1"],
        )
        assert interaction_cost(linked) < interaction_cost(unlinked)

    def test_totals_fold_left_to_right(self):
        """The totals add in list order: Python 3.12's ``sum()`` would give 7.0 and 4.0."""
        toggles = [Widget(f"W{i}", WidgetType.TOGGLE, "x", [ChoiceBinding(0, "c")]) for i in range(10)]
        pan_zooms = [
            VisInteraction(
                interaction_id=f"I{i}",
                interaction_type=InteractionType.PAN_ZOOM,
                source_vis_id="G1",
                attribute="date",
                bindings=[ChoiceBinding(0, "a")],
                target_vis_ids=["G1"],
            )
            for i in range(10)
        ]
        widget_costs = [widget_cost(widget) for widget in toggles]
        interaction_costs = [interaction_cost(interaction) for interaction in pan_zooms]
        assert widget_costs == [0.7] * 10
        assert interaction_costs == [0.4] * 10
        assert total_widget_cost(toggles) == functools.reduce(operator.add, widget_costs, 0.0)
        assert total_interaction_cost(pan_zooms) == functools.reduce(operator.add, interaction_costs, 0.0)
        assert total_widget_cost(toggles) == 7.000000000000001
        assert total_interaction_cost(pan_zooms) == 3.9999999999999996


class TestCostModel:
    def test_breakdown_totals(self, sdss_catalog, sdss_log):
        interface = build_interface(sdss_log, sdss_catalog, factor=True)
        model = CostModel()
        breakdown = model.evaluate(interface)
        assert breakdown.total == pytest.approx(
            breakdown.visualization + breakdown.interaction + breakdown.layout + breakdown.expressiveness
        )
        assert breakdown.expressiveness == 0.0
        assert set(breakdown.as_dict()) == {
            "visualization",
            "interaction",
            "layout",
            "expressiveness",
            "total",
        }

    def test_weights_scale_terms(self, sdss_catalog, sdss_log):
        interface = build_interface(sdss_log, sdss_catalog, factor=True)
        plain = CostModel().evaluate(interface)
        weighted = CostModel(weights=CostWeights(interaction=0.0)).evaluate(interface)
        assert weighted.total < plain.total

    def test_factored_sdss_cheaper_than_static_pair(self, sdss_catalog, sdss_log):
        """The paper's Figure 1(c) interface should beat two static charts."""
        static = build_interface(sdss_log, sdss_catalog, strategy="per_query")
        interactive = build_interface(sdss_log, sdss_catalog, strategy="merged", factor=True)
        model = CostModel()
        assert model.evaluate(interactive).total < model.evaluate(static).total

    def test_duplicate_charts_penalized(self, covid_catalog, covid_log):
        duplicated = build_interface(covid_log[1:3], covid_catalog, strategy="per_query")
        merged = build_interface(covid_log[1:3], covid_catalog, strategy="merged", factor=True)
        model = CostModel()
        assert model.evaluate(merged).total < model.evaluate(duplicated).total

    def test_noisy_color_penalized(self, covid_catalog, covid_log):
        # Q4 (per-state breakdown) maps state onto color: 14 states > threshold.
        interface = build_interface([covid_log[3]], covid_catalog, strategy="per_query")
        with_cardinalities = CostModel(
            nominal_cardinalities={"state": 14}
        ).visualization_cost(interface)
        without = CostModel().visualization_cost(interface)
        assert with_cardinalities > without

    def test_expressiveness_penalty_for_uncovered_queries(self, covid_catalog, covid_log):
        interface = build_interface(covid_log[:2], covid_catalog, strategy="merged")
        # Tamper with the forest: pretend the tree also owns a query it cannot express.
        forest = interface.forest
        from repro.difftree import parse_query_log

        forest.queries.append(parse_query_log(["SELECT state FROM state_regions"])[0])
        forest.members[0].append(len(forest.queries) - 1)
        breakdown = CostModel().evaluate(interface)
        uncovered = [
            query_index
            for tree, members in zip(forest.trees, forest.members)
            for query_index in members
            if find_binding_for(tree, forest.queries[query_index]) is None
        ]
        assert uncovered == [len(forest.queries) - 1]
        assert breakdown.expressiveness == MISSING_QUERY_PENALTY * len(uncovered)


class TestCoverageHelpers:
    def test_coverage_ratio_full(self, fig2_queries, toy_catalog):
        forest = build_forest(fig2_queries, strategy="clustered")
        assert coverage_ratio(forest) == 1.0

    def test_generality_grows_with_choices(self, fig2_queries):
        per_query = build_forest(fig2_queries, strategy="per_query")
        merged = build_forest(fig2_queries, strategy="merged")
        assert generality_score(merged) > generality_score(per_query)
