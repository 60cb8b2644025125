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

from repro.cost.expressiveness import expressiveness_cost
from repro.cost.layout_costs import layout_cost
from repro.cost.widget_costs import total_interaction_cost, total_widget_cost
from repro.interface.interface import Interface
from repro.interface.visualizations import Channel, ChartType

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
class CostBreakdown:
    """The evaluated cost of one candidate interface.

    Frozen: the search shares one breakdown between generations and threads
    (the catalog's forest-cost memo).
    """

    visualization: float
    interaction: float
    layout: float
    expressiveness: float
    weights: CostWeights = field(default_factory=CostWeights)

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
        nominal_cardinalities: dict[str, int] | None = None,
        caches=None,
    ) -> None:
        """
        Args:
            weights: term weights (ablations set individual terms to zero).
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

    def visualization_cost(self, interface: Interface) -> float:
        total = 0.0
        seen_specs: set[tuple] = set()
        for vis in interface.visualizations:
            total += self.chart_cost(vis)
            # Charts with identical specs *and* identical filtered attributes
            # are redundant: the queries behind them differ only in values an
            # interaction could express, so they should have been merged into
            # one interactive chart.  An overview/detail pair (same spec, but
            # one query unfiltered) is intentionally not penalized — that is
            # the linked-brush idiom of the COVID walkthrough.
            spec = self._chart_spec(interface, vis)
            if spec in seen_specs:
                total += DUPLICATE_CHART_COST
            seen_specs.add(spec)
        return total

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
        return expressiveness_cost(interface.forest, cache=self._coverage_cache)

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #

    def evaluate(self, interface: Interface) -> CostBreakdown:
        """Evaluate the full cost of a candidate interface.

        The forest embedded in the interface carries the query log, which is
        what the expressiveness term checks against.  Per-tree facts (coverage
        verdicts, filter-attribute sets) come from the structure-keyed caches,
        so an unchanged tree costs a lookup.
        """
        return CostBreakdown(
            visualization=self.visualization_cost(interface),
            interaction=self.interaction_cost(interface),
            layout=self.layout_cost(interface),
            expressiveness=self.expressiveness_cost(interface),
            weights=self.weights,
        )
