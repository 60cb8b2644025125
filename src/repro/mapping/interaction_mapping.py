"""Interaction mapping M: choice nodes → widgets and visualization interactions.

This is where PI2 departs from parameter-widget tools: a choice node may map
either to a widget *or* to an interaction performed directly on a chart, and
the chart need not belong to the same Difftree (linked views).  The rules, in
order of preference, mirror the behaviours described in the paper:

1.  A (low, high) range pair over an attribute shown on another chart's x axis
    maps to a **brush** on that chart that reconfigures this tree's query
    (COVID walkthrough: brushing G1 drives G2/G3's date range).
2.  Two range pairs over the attributes shown on this tree's own scatter axes
    map to **pan/zoom** on that chart (SDSS ra/dec example, Figure 1c).
3.  A single range pair otherwise maps to a **range slider** (dates get a
    date-range widget).
4.  A literal choice whose attribute is plotted on *another* chart maps to a
    **click-to-select** interaction on that chart (Figure 5's multi-view bar
    click).
5.  Remaining literal/column/select-item/predicate choices map to discrete
    widgets sized by cardinality (button group / radio / dropdown), OPT
    choices map to toggles, and choices over whole queries map to tabs.

Choices with identical attribute and alternative values are *linked*: one
widget drives all of them (the region literal repeated in three places of the
COVID Q4 query becomes a single South/Northeast button pair).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.difftree.builder import DifftreeForest
from repro.difftree.tree_schema import ChoiceContext, ForestSchema, TreeProfile
from repro.interface.interactions import InteractionType, VisInteraction
from repro.interface.visualizations import Channel, ChartType, Visualization
from repro.interface.widgets import ChoiceBinding, Widget, WidgetType, default_widget_for_cardinality
from repro.mapping.attributes import (
    find_own_vis,
    find_vis_displaying,
    group_linked_choices,
    literal_domain,
    option_labels,
    widget_label,
)


@dataclass(frozen=True)
class MappingPolicy:
    """Tunable preferences of the interaction mapper (used by ablations)."""

    prefer_vis_interactions: bool = True
    allow_pan_zoom: bool = True
    allow_click_select: bool = True
    slider_min_options: int = 6
    dropdown_min_options: int = 6


@dataclass
class InteractionMappingResult:
    """The M mapping: widgets plus visualization interactions."""

    widgets: list[Widget] = field(default_factory=list)
    interactions: list[VisInteraction] = field(default_factory=list)


def compose_interaction_mapping(
    pieces: list[InteractionMappingResult],
) -> InteractionMappingResult:
    """Recompose per-tree mapping pieces into one forest-level mapping.

    Widget and interaction ids are renumbered globally in piece order
    (``W1..``, ``I1..``), reproducing exactly the numbering a monolithic
    mapping pass over the same trees would assign.  Components are shallow-
    copied so cached pieces are never aliased into a live interface.
    """
    from dataclasses import replace

    result = InteractionMappingResult()
    widget_count = 0
    interaction_count = 0
    for piece in pieces:
        for widget in piece.widgets:
            widget_count += 1
            result.widgets.append(replace(widget, widget_id=f"W{widget_count}"))
        for interaction in piece.interactions:
            interaction_count += 1
            result.interactions.append(
                replace(interaction, interaction_id=f"I{interaction_count}")
            )
    return result


class InteractionMapper:
    """Maps every choice node of a forest to a widget or a vis interaction."""

    def __init__(self, policy: MappingPolicy | None = None) -> None:
        self.policy = policy or MappingPolicy()
        self._widget_counter = 0
        self._interaction_counter = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def map_forest(
        self,
        forest: DifftreeForest,
        schema: ForestSchema,
        visualizations: list[Visualization],
    ) -> InteractionMappingResult:
        pieces = [
            self.map_tree_piece(profile, forest, visualizations) for profile in schema.profiles
        ]
        return compose_interaction_mapping(pieces)

    def map_tree_piece(
        self,
        profile: TreeProfile,
        forest: DifftreeForest,
        visualizations: list[Visualization],
    ) -> InteractionMappingResult:
        """Map one tree's choices in isolation, with locally-numbered ids.

        The mapping decisions depend on the tree's profile and on the *shapes*
        of all charts (linked brushes and click-selects target other trees'
        charts), but never on the id counters — so per-tree pieces can be
        cached and recomposed with :func:`compose_interaction_mapping`, which
        renumbers ids exactly as a monolithic ``map_forest`` run would.
        """
        result = InteractionMappingResult()
        saved = (self._widget_counter, self._interaction_counter)
        self._widget_counter = 0
        self._interaction_counter = 0
        try:
            self._map_tree(profile, forest, visualizations, result)
        finally:
            self._widget_counter, self._interaction_counter = saved
        return result

    # ------------------------------------------------------------------ #
    # Per-tree mapping
    # ------------------------------------------------------------------ #

    def _map_tree(
        self,
        profile: TreeProfile,
        forest: DifftreeForest,
        visualizations: list[Visualization],
        result: InteractionMappingResult,
    ) -> None:
        tree_index = profile.tree_index
        tree = forest.trees[tree_index]
        handled: set[str] = set()

        # 1./2./3. range pairs first (they consume two choices each).
        range_pairs = profile.range_pairs()
        pan_zoom_pairs: list[tuple[ChoiceContext, ChoiceContext]] = []
        for low, high in range_pairs:
            if low.choice_id in handled or high.choice_id in handled:
                continue
            own_vis = find_own_vis(visualizations, tree_index)
            attribute = low.target_attribute or ""
            other_vis = (
                find_vis_displaying(visualizations, attribute, exclude_tree=tree_index)
                if self.policy.prefer_vis_interactions and attribute
                else None
            )
            if other_vis is not None:
                # Brush on the other chart, reconfiguring this tree's query.
                self._add_brush(result, other_vis, own_vis, low, high, tree_index)
                handled.update((low.choice_id, high.choice_id))
            elif (
                self.policy.allow_pan_zoom
                and own_vis is not None
                and own_vis.chart_type is ChartType.SCATTER
                and attribute in (own_vis.field_for(Channel.X), own_vis.field_for(Channel.Y))
            ):
                pan_zoom_pairs.append((low, high))
                handled.update((low.choice_id, high.choice_id))
            else:
                self._add_range_widget(result, low, high, tree_index)
                handled.update((low.choice_id, high.choice_id))

        if pan_zoom_pairs:
            self._add_pan_zoom(result, visualizations, pan_zoom_pairs, tree_index)

        # 4./5. remaining choices, linked by (attribute, values).
        remaining = [context for context in profile.choices if context.choice_id not in handled]
        for group in group_linked_choices(remaining):
            representative = group[0]
            if representative.choice_id in handled:
                continue
            bindings = [ChoiceBinding(tree_index, context.choice_id) for context in group]
            mapped = False
            if (
                self.policy.allow_click_select
                and representative.literal_values
                and representative.target_attribute
                and representative.comparison_op in ("=", "in")
            ):
                other_vis = find_vis_displaying(
                    visualizations, representative.target_attribute, exclude_tree=tree_index
                )
                if other_vis is not None:
                    own_vis = find_own_vis(visualizations, tree_index)
                    self._add_click_select(result, other_vis, own_vis, representative, bindings)
                    mapped = True
            if not mapped:
                self._add_widget_for_group(result, tree, representative, bindings)
            handled.update(context.choice_id for context in group)

    # ------------------------------------------------------------------ #
    # Component constructors
    # ------------------------------------------------------------------ #

    def _next_widget_id(self) -> str:
        self._widget_counter += 1
        return f"W{self._widget_counter}"

    def _next_interaction_id(self) -> str:
        self._interaction_counter += 1
        return f"I{self._interaction_counter}"

    def _add_brush(
        self,
        result: InteractionMappingResult,
        source_vis: Visualization,
        target_vis: Visualization | None,
        low: ChoiceContext,
        high: ChoiceContext,
        tree_index: int,
    ) -> None:
        interaction = VisInteraction(
            interaction_id=self._next_interaction_id(),
            interaction_type=InteractionType.BRUSH_X,
            source_vis_id=source_vis.vis_id,
            attribute=low.target_attribute or "",
            bindings=[
                ChoiceBinding(tree_index, low.choice_id),
                ChoiceBinding(tree_index, high.choice_id),
            ],
            target_vis_ids=[target_vis.vis_id] if target_vis else [],
        )
        result.interactions.append(interaction)

    def _add_pan_zoom(
        self,
        result: InteractionMappingResult,
        visualizations: list[Visualization],
        pairs: list[tuple[ChoiceContext, ChoiceContext]],
        tree_index: int,
    ) -> None:
        own_vis = find_own_vis(visualizations, tree_index)
        assert own_vis is not None
        # Order the pairs so x comes before y, matching the chart's axes.
        x_field = own_vis.field_for(Channel.X)
        ordered = sorted(
            pairs, key=lambda pair: 0 if pair[0].target_attribute == x_field else 1
        )
        bindings: list[ChoiceBinding] = []
        for low, high in ordered:
            bindings.append(ChoiceBinding(tree_index, low.choice_id))
            bindings.append(ChoiceBinding(tree_index, high.choice_id))
        primary = ordered[0][0].target_attribute or ""
        secondary = ordered[1][0].target_attribute if len(ordered) > 1 else None
        result.interactions.append(
            VisInteraction(
                interaction_id=self._next_interaction_id(),
                interaction_type=InteractionType.PAN_ZOOM,
                source_vis_id=own_vis.vis_id,
                attribute=primary,
                secondary_attribute=secondary,
                bindings=bindings,
                target_vis_ids=[own_vis.vis_id],
            )
        )

    def _add_click_select(
        self,
        result: InteractionMappingResult,
        source_vis: Visualization,
        target_vis: Visualization | None,
        context: ChoiceContext,
        bindings: list[ChoiceBinding],
    ) -> None:
        result.interactions.append(
            VisInteraction(
                interaction_id=self._next_interaction_id(),
                interaction_type=InteractionType.CLICK_SELECT,
                source_vis_id=source_vis.vis_id,
                attribute=context.target_attribute or "",
                bindings=bindings,
                target_vis_ids=[target_vis.vis_id] if target_vis else [],
            )
        )

    def _add_range_widget(
        self,
        result: InteractionMappingResult,
        low: ChoiceContext,
        high: ChoiceContext,
        tree_index: int,
    ) -> None:
        values = list(low.literal_values) + list(high.literal_values)
        domain = literal_domain(values) or (0, 1)
        is_date = all(isinstance(value, str) for value in values if value is not None)
        widget_type = WidgetType.DATE_RANGE if is_date else WidgetType.RANGE_SLIDER
        result.widgets.append(
            Widget(
                widget_id=self._next_widget_id(),
                widget_type=widget_type,
                label=widget_label(low),
                bindings=[
                    ChoiceBinding(tree_index, low.choice_id),
                    ChoiceBinding(tree_index, high.choice_id),
                ],
                domain=domain,
                default=domain,
            )
        )

    def _add_widget_for_group(
        self,
        result: InteractionMappingResult,
        tree,
        context: ChoiceContext,
        bindings: list[ChoiceBinding],
    ) -> None:
        label = widget_label(context)
        if context.kind == "opt":
            result.widgets.append(
                Widget(
                    widget_id=self._next_widget_id(),
                    widget_type=WidgetType.TOGGLE,
                    label=label,
                    bindings=bindings,
                    default=True,
                )
            )
            return

        options = (
            [str(value) for value in context.literal_values]
            if context.literal_values
            else option_labels(tree, context)
        )
        if context.alternative_kind == "query":
            widget_type = WidgetType.TABS
        elif (
            context.alternative_kind == "numeric_literal"
            and len(options) >= self.policy.slider_min_options
        ):
            widget_type = WidgetType.SLIDER
        else:
            widget_type = default_widget_for_cardinality(len(options))

        domain = None
        default: object = 0
        if widget_type is WidgetType.SLIDER:
            domain = literal_domain(list(context.literal_values))
            default = context.literal_values[0] if context.literal_values else None
        result.widgets.append(
            Widget(
                widget_id=self._next_widget_id(),
                widget_type=widget_type,
                label=label,
                bindings=bindings,
                options=options if widget_type is not WidgetType.SLIDER else [],
                domain=domain,
                default=default,
            )
        )
