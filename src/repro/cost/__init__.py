"""Interface cost model C(I, Q) and its components."""

from repro.cost.expressiveness import (
    MISSING_QUERY_PENALTY,
    coverage_ratio,
    expressiveness_cost,
    generality_score,
)
from repro.cost.layout_costs import layout_cost
from repro.cost.model import CostBreakdown, CostModel, CostWeights
from repro.cost.widget_costs import (
    INTERACTION_TYPE_COSTS,
    WIDGET_TYPE_COSTS,
    interaction_cost,
    total_interaction_cost,
    total_widget_cost,
    widget_cost,
)

__all__ = [
    "MISSING_QUERY_PENALTY",
    "coverage_ratio",
    "expressiveness_cost",
    "generality_score",
    "layout_cost",
    "CostBreakdown",
    "CostModel",
    "CostWeights",
    "INTERACTION_TYPE_COSTS",
    "WIDGET_TYPE_COSTS",
    "interaction_cost",
    "total_interaction_cost",
    "total_widget_cost",
    "widget_cost",
]
