"""Tests for the live interface runtime: widget/interaction events → new queries → new data."""

from __future__ import annotations

import pytest

from repro.datasets import load_covid_catalog
from repro.engine.options import ExecOptions
from repro.errors import InterfaceError
from repro.interface import InteractionType, WidgetType
from repro.mapping import MappingConfig, map_forest_to_interface
from repro.difftree import build_forest
from repro.difftree.transformations import applicable_transformations
from repro.interface.state import InterfaceState
from repro.pipeline import PipelineConfig, generate_interface


@pytest.fixture()
def sdss_state(sdss_catalog, sdss_log):
    result = generate_interface(
        sdss_log, sdss_catalog, PipelineConfig(method="mcts", mcts_iterations=40, seed=2)
    )
    return result.start_session(sdss_catalog)


@pytest.fixture()
def covid_state(covid_catalog, covid_log):
    result = generate_interface(
        covid_log[:3],
        covid_catalog,
        PipelineConfig(method="mcts", mcts_iterations=60, seed=2, name="covid"),
    )
    return result.start_session(covid_catalog)


class TestSdssPanZoom:
    def test_initial_data_loads(self, sdss_state):
        data = sdss_state.refresh_all()
        assert data
        for result in data.values():
            assert result.row_count > 0

    def test_pan_zoom_changes_query_and_data(self, sdss_state):
        interactions = [
            i
            for i in sdss_state.interface.interactions
            if i.interaction_type is InteractionType.PAN_ZOOM
        ]
        assert interactions, "SDSS interface should expose a pan/zoom interaction"
        interaction = interactions[0]
        tree_index = interaction.bindings[0].tree_index

        before_sql = sdss_state.current_sql(tree_index)
        before_rows = sdss_state.data_for_tree(tree_index).row_count

        event = sdss_state.apply_pan_zoom(
            interaction.interaction_id, (150.0, 152.0), (0.0, 3.0)
        )
        after_sql = sdss_state.current_sql(tree_index)
        after_rows = sdss_state.data_for_tree(tree_index).row_count

        assert before_sql != after_sql
        assert "150.0" in after_sql and "152.0" in after_sql
        assert after_rows < before_rows
        assert event.affected_trees == (tree_index,)

    def test_history_records_events(self, sdss_state):
        interaction = sdss_state.interface.interactions[0]
        sdss_state.apply_pan_zoom(interaction.interaction_id, (120.0, 130.0), (0.0, 10.0))
        assert len(sdss_state.history) == 1
        assert sdss_state.history[0].sql_after


class TestCovidBrush:
    def test_brush_reconfigures_detail_chart(self, covid_state):
        brushes = [
            i
            for i in covid_state.interface.interactions
            if i.interaction_type is InteractionType.BRUSH_X
        ]
        assert brushes, "COVID V1 interface should expose a brush interaction"
        brush = brushes[0]
        tree_index = brush.bindings[0].tree_index

        event = covid_state.apply_brush(brush.interaction_id, "2021-11-01", "2021-11-10")
        sql = event.sql_after[tree_index]
        assert "2021-11-01" in sql and "2021-11-10" in sql

        data = covid_state.data_for_tree(tree_index)
        dates = data.column_values("date")
        assert dates and min(dates) >= "2021-11-01" and max(dates) <= "2021-11-10"

    def test_wrong_event_type_rejected(self, covid_state):
        brush = covid_state.interface.interactions[0]
        with pytest.raises(InterfaceError):
            covid_state.apply_click(brush.interaction_id, "2021-11-01")


class TestWidgets:
    def test_toggle_widget_changes_structure(self, covid_catalog, covid_v3_log):
        result = generate_interface(
            covid_v3_log,
            covid_catalog,
            PipelineConfig(method="greedy", name="covid V3"),
        )
        state = result.start_session(covid_catalog)
        toggles = [w for w in result.interface.widgets if w.widget_type is WidgetType.TOGGLE]
        if not toggles:
            pytest.skip("no toggle produced for this search seed")
        toggle = toggles[0]
        tree_index = toggle.bindings[0].tree_index
        state.set_widget(toggle.widget_id, True)
        enabled_sql = state.current_sql(tree_index)
        state.set_widget(toggle.widget_id, False)
        disabled_sql = state.current_sql(tree_index)
        # Toggling the OPT choice adds/removes a whole clause of the query.
        assert enabled_sql != disabled_sql
        assert len(disabled_sql) < len(enabled_sql)

    def test_button_group_switches_region(self, covid_catalog, covid_v3_log):
        result = generate_interface(
            covid_v3_log,
            covid_catalog,
            PipelineConfig(method="mcts", mcts_iterations=120, seed=1, name="covid V3"),
        )
        state = result.start_session(covid_catalog)
        groups = [
            w
            for w in result.interface.widgets
            if w.is_discrete() and set(w.options) == {"South", "Northeast"}
        ]
        assert groups, "V3 interface should expose a South/Northeast button pair"
        group = groups[0]
        tree_index = group.bindings[0].tree_index
        state.set_widget(group.widget_id, 1)
        sql = state.current_sql(tree_index)
        assert "Northeast" in sql and "'South'" not in sql

    def test_invalid_option_index_rejected(self, covid_catalog, covid_v3_log):
        result = generate_interface(
            covid_v3_log, covid_catalog, PipelineConfig(method="greedy", name="covid V3")
        )
        state = result.start_session(covid_catalog)
        discrete = [w for w in result.interface.widgets if w.is_discrete()]
        if not discrete:
            pytest.skip("no discrete widget produced")
        with pytest.raises(InterfaceError):
            state.set_widget(discrete[0].widget_id, 99)

    def test_range_widget_binding(self, toy_catalog):
        # Build an interface whose range pair maps to a widget (single tree,
        # no other chart displaying the attribute).
        forest = build_forest(
            [
                "SELECT p, count(*) FROM t WHERE a BETWEEN 1 AND 2 GROUP BY p",
                "SELECT p, count(*) FROM t WHERE a BETWEEN 2 AND 3 GROUP BY p",
            ],
            strategy="merged",
        )
        tree = forest.trees[0]
        for transformation in applicable_transformations(tree):
            if transformation.rule == "factor_common_root":
                tree = transformation(tree)
        forest = forest.replace_tree(0, tree)
        interface = map_forest_to_interface(forest, toy_catalog.schemas(), MappingConfig())
        range_widgets = [w for w in interface.widgets if w.is_continuous()]
        assert range_widgets
        state = InterfaceState(interface, toy_catalog)
        state.set_widget(range_widgets[0].widget_id, (1, 3))
        sql = state.current_sql(0)
        assert "BETWEEN 1 AND 3" in sql


class TestDataVersion:
    def test_refresh_after_append_matches_a_cold_execution(self, covid_log):
        catalog = load_covid_catalog()  # private: this test writes to it
        result = generate_interface(covid_log[:3], catalog, PipelineConfig(method="greedy", seed=2))
        state = result.start_session(catalog)
        before = state.refresh_all()
        catalog.append_rows(
            "covid_cases", [("NY", "2021-12-05", 100000), ("TX", "2021-09-01", 50000)]
        )
        after = state.refresh_all()
        cold_options = ExecOptions(use_cache=False)
        for vis in state.interface.visualizations:
            cold = catalog.execute(state.current_query(vis.tree_index), cold_options)
            assert after[vis.vis_id].columns == cold.columns
            assert sorted(after[vis.vis_id].rows, key=repr) == sorted(cold.rows, key=repr)
        # Not vacuous: the appended rows changed what some chart shows.
        assert any(after[vis_id].rows != before[vis_id].rows for vis_id in after)
