"""Per-component interaction costs.

The cost of the interaction mapping M follows the usability heuristics the
paper alludes to ("borrows current best practices"): direct manipulation on a
chart (brush, pan/zoom, click) is cheaper than an equivalent widget, simple
widgets (toggles, button pairs) are cheaper than option lists, and widgets
whose options are raw SQL snippets carry a readability surcharge.
"""

from __future__ import annotations

from repro.interface.interactions import InteractionType, VisInteraction
from repro.interface.widgets import Widget, WidgetType

#: Base cost per widget type.
WIDGET_TYPE_COSTS: dict[WidgetType, float] = {
    WidgetType.TOGGLE: 0.7,
    WidgetType.CHECKBOX: 0.7,
    WidgetType.BUTTON_GROUP: 1.0,
    WidgetType.SLIDER: 1.0,
    WidgetType.RANGE_SLIDER: 1.1,
    WidgetType.DATE_RANGE: 1.1,
    WidgetType.RADIO: 1.3,
    WidgetType.DROPDOWN: 1.5,
    WidgetType.TABS: 2.0,
    WidgetType.TEXT_INPUT: 2.5,
}

#: Base cost per visualization interaction type (cheaper than widgets).
INTERACTION_TYPE_COSTS: dict[InteractionType, float] = {
    InteractionType.PAN_ZOOM: 0.4,
    InteractionType.BRUSH_X: 0.5,
    InteractionType.BRUSH_2D: 0.6,
    InteractionType.CLICK_SELECT: 0.6,
    InteractionType.HOVER_FILTER: 0.5,
}

#: Extra cost per option beyond this count (long option lists are hard to scan).
FREE_OPTION_COUNT = 4
PER_EXTRA_OPTION_COST = 0.08

#: Surcharge for widgets whose options read like raw SQL fragments.
RAW_SQL_OPTION_COST = 0.8


def _options_look_like_sql(widget: Widget) -> bool:
    markers = (" BETWEEN ", " AND ", " OR ", "=", "<", ">", "SELECT ", " IN ")
    for option in widget.options:
        text = str(option)
        if any(marker in text for marker in markers):
            return True
    return False


def widget_cost(widget: Widget) -> float:
    """Cost of one widget."""
    cost = WIDGET_TYPE_COSTS.get(widget.widget_type, 1.5)
    extra_options = max(0, len(widget.options) - FREE_OPTION_COUNT)
    cost += extra_options * PER_EXTRA_OPTION_COST
    if widget.is_discrete() and _options_look_like_sql(widget):
        cost += RAW_SQL_OPTION_COST
    return cost


def interaction_cost(interaction: VisInteraction) -> float:
    """Cost of one visualization interaction."""
    cost = INTERACTION_TYPE_COSTS.get(interaction.interaction_type, 0.8)
    # Linked interactions (gesture on one chart reconfiguring another) get a
    # small discount: they replace a widget *and* add coordination value.
    if interaction.is_linked():
        cost -= 0.1
    return max(cost, 0.1)


# The totals fold left to right instead of calling the builtin ``sum()``:
# from Python 3.12 ``sum()`` of floats uses compensated summation, which would
# make an interface's cost, and so the search's tie-breaks, depend on the
# interpreter.
def total_widget_cost(widgets: list[Widget]) -> float:
    total = 0.0
    for widget in widgets:
        total += widget_cost(widget)
    return total


def total_interaction_cost(interactions: list[VisInteraction]) -> float:
    total = 0.0
    for interaction in interactions:
        total += interaction_cost(interaction)
    return total
