"""The interface cost model C(I, Q).

The cost of a candidate interface is a weighted sum of four terms:

* **visualization cost** — number and quality of charts (tables and
  single-column fallbacks are penalized; so are charts that stack a
  high-cardinality nominal field on the color channel),
* **interaction cost** — widgets plus visualization interactions, priced by
  :mod:`repro.cost.widget_costs` (direct manipulation < simple widgets <
  option lists < tabs),
* **layout cost** — how well the components fit the target screen
  (:mod:`repro.cost.layout_costs`),
* **expressiveness cost** — a large penalty for every input query the
  interface can no longer express (:mod:`repro.cost.expressiveness`).

The search layer minimizes this cost over Difftree structures; the ablation
benchmarks switch individual terms off to show each one's effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.cost.expressiveness import expressiveness_cost
from repro.cost.layout_costs import layout_cost
from repro.cost.widget_costs import (
    interaction_cost,
    total_interaction_cost,
    total_widget_cost,
    widget_cost,
)
from repro.interface.interface import Interface
from repro.interface.visualizations import Channel, ChartType
from repro.sql.ast_nodes import Select

#: Base cost per chart; keeps the model from multiplying views without benefit.
PER_CHART_COST = 1.0
#: Extra cost for fallback chart types.
TABLE_CHART_COST = 1.0
HISTOGRAM_CHART_COST = 0.4
#: Extra cost when a chart maps a high-cardinality nominal field to color
#: (the "visually noisy" state breakdown of walkthrough Step 3).
NOISY_COLOR_COST = 0.5
NOISY_COLOR_CARDINALITY = 10
#: Extra cost for every chart whose spec duplicates an earlier chart's.
DUPLICATE_CHART_COST = 0.8


@dataclass(frozen=True)
class CostWeights:
    """Relative weights of the four cost terms."""

    visualization: float = 1.0
    interaction: float = 1.0
    layout: float = 1.0
    expressiveness: float = 1.0


@dataclass(frozen=True)
class TreeCostComponents:
    """The per-tree share of a forest evaluation's cost.

    Every term of the cost model except the layout term and the
    duplicate-chart penalty decomposes per tree: one chart per tree, widgets
    and interactions bound to one tree each, expressiveness counted over the
    tree's member queries.  The search layer caches these components by tree
    signature and recomposes the forest-level :class:`CostBreakdown` from
    them, so evaluating a candidate costs O(changed trees).
    """

    tree_index: int
    visualization: float
    interaction: float
    queries_covered: int
    queries_owned: int

    @property
    def queries_missing(self) -> int:
        return self.queries_owned - self.queries_covered


@dataclass
class CostBreakdown:
    """The evaluated cost of one candidate interface."""

    visualization: float
    interaction: float
    layout: float
    expressiveness: float
    weights: CostWeights = field(default_factory=CostWeights)
    #: Optional per-tree decomposition (populated by CostModel.evaluate);
    #: excluded from equality so breakdowns compare on their terms alone.
    per_tree: list[TreeCostComponents] | None = field(default=None, compare=False)

    @property
    def total(self) -> float:
        return (
            self.weights.visualization * self.visualization
            + self.weights.interaction * self.interaction
            + self.weights.layout * self.layout
            + self.weights.expressiveness * self.expressiveness
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "visualization": self.visualization,
            "interaction": self.interaction,
            "layout": self.layout,
            "expressiveness": self.expressiveness,
            "total": self.total,
        }


class CostModel:
    """Evaluates C(I, Q) for candidate interfaces."""

    def __init__(
        self,
        weights: CostWeights | None = None,
        check_expressiveness: bool = True,
        nominal_cardinalities: dict[str, int] | None = None,
        caches=None,
    ) -> None:
        """
        Args:
            weights: term weights (ablations set individual terms to zero).
            check_expressiveness: set False to skip the (comparatively slow)
                coverage check — used by search variants that guarantee
                coverage by construction.
            nominal_cardinalities: optional attribute → distinct-count map so
                the visualization term can price noisy color encodings (built
                from the catalog by the pipeline).
            caches: the :class:`~repro.difftree.signatures.StructureCaches`
                to keep coverage verdicts and filter-attribute sets in (the
                pipeline passes the catalog's, so they outlive one
                generation); without them the model keeps private caches of
                the same capacities.
        """
        from repro.difftree.signatures import StructureCaches

        self.weights = weights or CostWeights()
        self.check_expressiveness = check_expressiveness
        self.nominal_cardinalities = nominal_cardinalities or {}
        # Bounded all the same: a long search must not hold every structure
        # it ever costed.
        if caches is None:
            caches = StructureCaches()
        self._coverage_cache = caches.coverage
        self._filter_attribute_cache = caches.filter_attributes

    # ------------------------------------------------------------------ #
    # Term evaluation
    # ------------------------------------------------------------------ #

    def chart_cost(self, vis) -> float:
        """Per-chart share of the visualization term (no cross-chart penalty)."""
        cost = PER_CHART_COST
        if vis.chart_type is ChartType.TABLE:
            cost += TABLE_CHART_COST
        elif vis.chart_type is ChartType.HISTOGRAM:
            cost += HISTOGRAM_CHART_COST
        color = vis.encoding_for(Channel.COLOR)
        if color is not None:
            cardinality = self.nominal_cardinalities.get(color.field, 0)
            if cardinality > NOISY_COLOR_CARDINALITY:
                cost += NOISY_COLOR_COST
        return cost

    def _visualization_terms(self, interface: Interface) -> tuple[float, list[tuple[int, float]]]:
        """(total visualization cost, [(tree_index, per-chart cost), ...]).

        The single home of the visualization-term loop — both the standalone
        :meth:`visualization_cost` and the decomposed :meth:`evaluate` go
        through it, so the two paths cannot drift.
        """
        total = 0.0
        per_chart: list[tuple[int, float]] = []
        seen_specs: set[tuple] = set()
        for vis in interface.visualizations:
            chart = self.chart_cost(vis)
            per_chart.append((vis.tree_index, chart))
            total += chart
            # Charts with identical specs *and* identical filtered attributes
            # are redundant: the queries behind them differ only in values an
            # interaction could express, so they should have been merged into
            # one interactive chart.  An overview/detail pair (same spec, but
            # one query unfiltered) is intentionally not penalized — that is
            # the linked-brush idiom of the COVID walkthrough.  The penalty
            # couples trees, so it never enters the per-chart components.
            spec = self._chart_spec(interface, vis)
            if spec in seen_specs:
                total += DUPLICATE_CHART_COST
            seen_specs.add(spec)
        return total, per_chart

    def visualization_cost(self, interface: Interface) -> float:
        return self._visualization_terms(interface)[0]

    def _chart_spec(self, interface: Interface, vis) -> tuple:
        """The identity used by the (cross-tree) duplicate-chart penalty."""
        return (
            vis.chart_type,
            tuple(encoding.describe() for encoding in vis.encodings),
            self._filter_attributes(interface, vis.tree_index),
        )

    def _filter_attributes(self, interface: Interface, tree_index: int) -> frozenset[str]:
        """Column names referenced by comparison predicates anywhere in the tree.

        Memoized by structure key: the attribute set is a function of the
        tree structure alone (choice ids are irrelevant), and sibling
        candidates — and consecutive generations — share most trees.
        """
        from repro.difftree.signatures import structure_key
        from repro.sql.ast_nodes import BetweenOp, BinaryOp, ColumnRef, InList, InSubquery

        tree = interface.forest.trees[tree_index]
        signature = structure_key(tree)
        cached = self._filter_attribute_cache.get(signature)
        if cached is not None:
            return cached
        names: set[str] = set()
        for node in tree.walk():
            if isinstance(node, BinaryOp) and node.op in ("=", "<>", "<", "<=", ">", ">="):
                for side in (node.left, node.right):
                    if isinstance(side, ColumnRef):
                        names.add(side.name)
            elif isinstance(node, (BetweenOp, InList, InSubquery)) and isinstance(
                node.expr, ColumnRef
            ):
                names.add(node.expr.name)
        result = frozenset(names)
        self._filter_attribute_cache.put(signature, result)
        return result

    def interaction_cost(self, interface: Interface) -> float:
        return total_widget_cost(interface.widgets) + total_interaction_cost(
            interface.interactions
        )

    def layout_cost(self, interface: Interface) -> float:
        if interface.layout is None:
            return 1.0
        return layout_cost(interface.layout, interface.visualizations, interface.widgets)

    def expressiveness_cost(self, interface: Interface) -> float:
        if not self.check_expressiveness:
            return 0.0
        return expressiveness_cost(interface.forest, cache=self._coverage_cache)

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def evaluate(self, interface: Interface, queries: Sequence[Select] | None = None) -> CostBreakdown:
        """Evaluate the full cost of a candidate interface.

        ``queries`` is accepted for signature compatibility with C(I, Q); the
        forest embedded in the interface already carries the query log, which
        is what the expressiveness term checks against.

        The breakdown is computed *decomposed*: per-tree components (chart
        cost, widget/interaction cost, coverage counts) are evaluated tree by
        tree — hitting the signature-keyed coverage and filter-attribute
        caches for unchanged trees — and only the terms that genuinely couple
        trees (the duplicate-chart penalty and the layout term) are evaluated
        globally.  The recomposed terms are numerically identical to a
        monolithic evaluation: all per-component sums run in the same
        component order.
        """
        from repro.cost.expressiveness import cost_from_covered, tree_covered_count

        forest = interface.forest
        tree_count = forest.tree_count

        # Per-tree pieces, in tree order.
        chart_costs = [0.0] * tree_count
        interaction_costs = [0.0] * tree_count
        covered_counts = [0] * tree_count
        owned_counts = [0] * tree_count

        visualization, per_chart = self._visualization_terms(interface)
        for tree_index, chart in per_chart:
            if 0 <= tree_index < tree_count:
                chart_costs[tree_index] += chart

        # The authoritative term uses the canonical sum-of-sums so the value is
        # bit-identical to interaction_cost(); the per-tree split rides along.
        interaction = self.interaction_cost(interface)
        for widget in interface.widgets:
            cost = widget_cost(widget)
            for tree_index in widget.tree_indices:
                if 0 <= tree_index < tree_count:
                    interaction_costs[tree_index] += cost
        for vis_interaction in interface.interactions:
            cost = interaction_cost(vis_interaction)
            for tree_index in vis_interaction.tree_indices:
                if 0 <= tree_index < tree_count:
                    interaction_costs[tree_index] += cost

        if self.check_expressiveness and forest.queries:
            for tree_index, member_indices in enumerate(forest.members):
                covered_counts[tree_index] = tree_covered_count(
                    forest.trees[tree_index], forest, member_indices, cache=self._coverage_cache
                )
                owned_counts[tree_index] = len(member_indices)
            expressiveness = cost_from_covered(sum(covered_counts), len(forest.queries))
        else:
            expressiveness = 0.0

        per_tree = [
            TreeCostComponents(
                tree_index=index,
                visualization=chart_costs[index],
                interaction=interaction_costs[index],
                queries_covered=covered_counts[index],
                queries_owned=owned_counts[index],
            )
            for index in range(tree_count)
        ]
        return CostBreakdown(
            visualization=visualization,
            interaction=interaction,
            layout=self.layout_cost(interface),  # couples trees: global
            expressiveness=expressiveness,
            weights=self.weights,
            per_tree=per_tree,
        )
