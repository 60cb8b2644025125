"""Runtime interface state: widget/interaction events → queries → chart data.

The generated :class:`~repro.interface.interface.Interface` is *live*: each
Difftree carries a current binding, and manipulating a widget or performing a
visualization interaction rebinds the affected choice nodes.  The state object
then re-instantiates the affected Difftrees into concrete SQL, executes them
against the catalog, and hands back fresh data for every affected chart —
which is exactly the loop the JupyterLab extension performs in the demo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import InterfaceError
from repro.difftree.instantiate import (
    LiteralBinding,
    default_bindings,
    instantiate,
    instantiate_and_execute,
)
from repro.engine.catalog import Catalog
from repro.engine.table import QueryResult
from repro.interface.interactions import InteractionType, VisInteraction
from repro.interface.interface import Interface
from repro.interface.widgets import ChoiceBinding, WidgetType
from repro.sql.ast_nodes import Select
from repro.sql.printer import to_sql


@dataclass
class EventRecord:
    """One recorded state-changing event (for history/undo and tests)."""

    component_id: str
    payload: Any
    affected_trees: tuple[int, ...]
    sql_after: dict[int, str] = field(default_factory=dict)


class InterfaceState:
    """Mutable runtime state of a generated interface."""

    def __init__(self, interface: Interface, catalog: Catalog) -> None:
        self.interface = interface
        self.catalog = catalog
        self.bindings: dict[int, dict[str, Any]] = {
            index: default_bindings(tree) for index, tree in enumerate(interface.forest.trees)
        }
        self.history: list[EventRecord] = []
        #: Per tree: (catalog data version, result of its current query).
        self._cache: dict[int, tuple[tuple, QueryResult]] = {}

    # ------------------------------------------------------------------ #
    # Queries and data
    # ------------------------------------------------------------------ #

    def current_query(self, tree_index: int) -> Select:
        """The concrete query the given Difftree currently expresses."""
        tree = self.interface.forest.trees[tree_index]
        query = instantiate(tree, self.bindings[tree_index])
        if not isinstance(query, Select):
            raise InterfaceError("Instantiated Difftree is not a SELECT statement")
        return query

    def current_sql(self, tree_index: int) -> str:
        return to_sql(self.current_query(tree_index))

    def data_for_tree(self, tree_index: int) -> QueryResult:
        """Execute (with memoization) the current query of one tree.

        Execution goes through :func:`instantiate_and_execute`, i.e. the
        catalog's canonical-query result cache: revisiting a binding (or
        another interface whose tree instantiates to an equivalent query)
        reuses the materialized result.  The per-tree memo is keyed by the
        catalog's data version, so rows appended since the last refresh are
        never hidden behind it.
        """
        version = self.catalog.data_version()
        entry = self._cache.get(tree_index)
        if entry is None or entry[0] != version:
            tree = self.interface.forest.trees[tree_index]
            entry = (version, instantiate_and_execute(tree, self.catalog, self.bindings[tree_index]))
            self._cache[tree_index] = entry
        return entry[1]

    def data_for(self, vis_id: str) -> QueryResult:
        """Execute the query feeding one visualization."""
        vis = self.interface.visualization(vis_id)
        return self.data_for_tree(vis.tree_index)

    def refresh_all(self) -> dict[str, QueryResult]:
        """Execute every visualization's current query."""
        return {vis.vis_id: self.data_for(vis.vis_id) for vis in self.interface.visualizations}

    # ------------------------------------------------------------------ #
    # Widget events
    # ------------------------------------------------------------------ #

    def set_widget(self, widget_id: str, value: Any) -> EventRecord:
        """Apply a widget manipulation.

        * discrete widgets (radio/dropdown/button group/tabs): ``value`` is the
          selected option index,
        * boolean widgets (toggle/checkbox): ``value`` is a bool,
        * continuous widgets (slider): ``value`` is a number,
        * range widgets (range slider / date range): ``value`` is a
          ``(low, high)`` pair.
        """
        widget = self.interface.widget(widget_id)
        if widget.widget_type in (WidgetType.RANGE_SLIDER, WidgetType.DATE_RANGE):
            low, high = value
            self._bind_range(widget.bindings, low, high)
        elif widget.is_boolean():
            self._bind_all(widget.bindings, bool(value))
        elif widget.widget_type is WidgetType.SLIDER:
            self._bind_all(widget.bindings, LiteralBinding(value))
        else:
            if not isinstance(value, int) or not 0 <= value < len(widget.options):
                raise InterfaceError(
                    f"Widget {widget_id} expects an option index in "
                    f"[0, {len(widget.options)}), got {value!r}"
                )
            self._bind_all(widget.bindings, value)
        return self._record(widget_id, value, widget.bindings)

    # ------------------------------------------------------------------ #
    # Visualization interaction events
    # ------------------------------------------------------------------ #

    def apply_brush(self, interaction_id: str, low: Any, high: Any) -> EventRecord:
        """Brush an x-range on the interaction's source chart."""
        interaction = self._interaction_of_type(
            interaction_id, InteractionType.BRUSH_X, InteractionType.BRUSH_2D
        )
        self._bind_range(interaction.bindings, low, high)
        return self._record(interaction_id, (low, high), interaction.bindings)

    def apply_pan_zoom(
        self,
        interaction_id: str,
        x_range: tuple[Any, Any],
        y_range: tuple[Any, Any],
    ) -> EventRecord:
        """Pan/zoom the source chart: rebinds two (low, high) range pairs."""
        interaction = self._interaction_of_type(interaction_id, InteractionType.PAN_ZOOM)
        if len(interaction.bindings) < 4:
            raise InterfaceError(
                f"Pan/zoom interaction {interaction_id} needs four bound choices "
                f"(x low/high, y low/high)"
            )
        x_bindings = interaction.bindings[:2]
        y_bindings = interaction.bindings[2:4]
        self._bind_range(x_bindings, *x_range)
        self._bind_range(y_bindings, *y_range)
        return self._record(interaction_id, (x_range, y_range), interaction.bindings)

    def apply_click(self, interaction_id: str, value: Any) -> EventRecord:
        """Click a mark of the source chart, binding its value into the target."""
        interaction = self._interaction_of_type(interaction_id, InteractionType.CLICK_SELECT)
        self._bind_all(interaction.bindings, LiteralBinding(value))
        return self._record(interaction_id, value, interaction.bindings)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _interaction_of_type(self, interaction_id: str, *types: InteractionType) -> VisInteraction:
        interaction = self.interface.interaction(interaction_id)
        if interaction.interaction_type not in types:
            raise InterfaceError(
                f"Interaction {interaction_id} is a {interaction.interaction_type.value}, "
                f"expected one of {[t.value for t in types]}"
            )
        return interaction

    def _bind_all(self, bindings: list[ChoiceBinding], value: Any) -> None:
        for binding in bindings:
            self.bindings[binding.tree_index][binding.choice_id] = value
            self._cache.pop(binding.tree_index, None)

    def _bind_range(self, bindings: list[ChoiceBinding], low: Any, high: Any) -> None:
        if len(bindings) < 2:
            raise InterfaceError("Range events require a (low, high) pair of bound choices")
        low_binding, high_binding = bindings[0], bindings[1]
        self.bindings[low_binding.tree_index][low_binding.choice_id] = LiteralBinding(low)
        self.bindings[high_binding.tree_index][high_binding.choice_id] = LiteralBinding(high)
        self._cache.pop(low_binding.tree_index, None)
        self._cache.pop(high_binding.tree_index, None)

    def _record(self, component_id: str, payload: Any, bindings: list[ChoiceBinding]) -> EventRecord:
        affected = tuple(sorted({binding.tree_index for binding in bindings}))
        record = EventRecord(
            component_id=component_id,
            payload=payload,
            affected_trees=affected,
            sql_after={index: self.current_sql(index) for index in affected},
        )
        self.history.append(record)
        return record
