"""End-to-end interface generation: the public entry point of the library.

:func:`generate_interface` runs the four-step PI2 pipeline of Figure 6:

1. parse the query log into Difftrees (initial forest),
2. map Difftrees to a candidate interface,
3. evaluate the candidate with the cost model,
4. search over tree transformations (MCTS by default) for the lowest-cost
   interface that expresses every query,

and returns a :class:`GenerationResult` bundling the interface, its cost
breakdown, the final forest and search statistics.  The result can be made
*live* against a catalog with :meth:`GenerationResult.start_session`, which
returns an :class:`~repro.interface.state.InterfaceState` whose widget and
interaction events re-instantiate and re-execute the underlying queries.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.cost.model import CostBreakdown, CostModel, CostWeights
from repro.difftree.builder import DifftreeForest
from repro.engine.catalog import Catalog
from repro.errors import ReproError
from repro.interface.interface import Interface
from repro.interface.layout import MEDIUM_SCREEN, ScreenSize
from repro.interface.state import InterfaceState
from repro.mapping.interaction_mapping import MappingPolicy
from repro.mapping.schema_matching import MappingConfig, map_forest_to_interface
from repro.search.beam import beam_search
from repro.search.exhaustive import exhaustive_search
from repro.search.greedy import greedy_search
from repro.search.mcts import mcts_search
from repro.search.space import SearchSpace, SearchStats
from repro.sql.ast_nodes import Select


@dataclass
class PipelineConfig:
    """Configuration of the end-to-end generation pipeline."""

    screen: ScreenSize = MEDIUM_SCREEN
    method: str = "mcts"  # "mcts" | "greedy" | "beam" | "exhaustive" | "none"
    mcts_iterations: int = 60
    mcts_rollout_depth: int = 2
    mcts_max_depth: int = 6
    exhaustive_depth: int = 3
    exhaustive_max_states: int = 300
    greedy_max_steps: int = 12
    beam_width: int = 4
    beam_depth: int = 8
    seed: int = 0
    cost_weights: CostWeights = field(default_factory=CostWeights)
    mapping_policy: MappingPolicy = field(default_factory=MappingPolicy)
    initial_strategy: str = "per_query"
    name: str = "interface"


@dataclass
class GenerationResult:
    """Everything the pipeline produces for one invocation."""

    interface: Interface
    cost: CostBreakdown
    forest: DifftreeForest
    stats: SearchStats
    strategy: str
    elapsed_seconds: float
    action_trace: list[str] = field(default_factory=list)

    @property
    def total_cost(self) -> float:
        return self.cost.total

    def start_session(self, catalog: Catalog) -> InterfaceState:
        """Attach the generated interface to a catalog for live interaction."""
        return InterfaceState(self.interface, catalog)

    def summary(self) -> dict:
        return {
            "strategy": self.strategy,
            "total_cost": round(self.total_cost, 3),
            "cost": {key: round(value, 3) for key, value in self.cost.as_dict().items()},
            "visualizations": self.interface.visualization_count,
            "widgets": self.interface.widget_count,
            "interactions": self.interface.interaction_count,
            "trees": self.forest.tree_count,
            "candidates_evaluated": self.stats.evaluations,
            "evaluation_cache_hits": self.stats.cache_hits,
            "costs_reused": self.stats.costs_reused,
            "trees_built": self.stats.trees_built,
            "tree_evals_reused": self.stats.tree_evals_reused,
            "tree_evals_computed": self.stats.tree_evals_computed,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "actions": list(self.action_trace),
        }


def generate_interface(
    queries: Sequence[str],
    catalog: Catalog,
    config: PipelineConfig | None = None,
) -> GenerationResult:
    """Generate an interactive visualization interface from a SQL query log.

    Args:
        queries: The selected notebook queries (SQL strings), in log order.
        catalog: The catalog the queries run against (schemas drive the
            visualization mapping; data cardinalities inform the cost model).
            May be a pinned :class:`~repro.engine.catalog.CatalogSnapshot` —
            the serving layer passes one so a whole generation run reads a
            single consistent data version while writers keep ingesting.
            Query text is parsed through the catalog's AST memo, and the
            search keeps its per-structure facts and the trees it builds in
            the catalog's ``structure_caches``, so later generations on the
            same catalog start warm; time a cold generation on a fresh
            catalog or after ``clear_caches()``.
        config: Pipeline configuration; defaults to MCTS search on a
            medium-sized screen.
    """
    if not queries:
        raise ReproError("generate_interface requires at least one query")
    config = config or PipelineConfig()
    started = time.perf_counter()

    table_schemas = catalog.schemas()
    nominal_cardinalities = _nominal_cardinalities(catalog)
    cost_model = CostModel(
        weights=config.cost_weights,
        nominal_cardinalities=nominal_cardinalities,
        caches=catalog.structure_caches,
    )
    mapping_config = MappingConfig(
        screen=config.screen, policy=config.mapping_policy, name=config.name
    )
    space = SearchSpace(
        queries=[_parsed(query, catalog) for query in queries],
        table_schemas=table_schemas,
        mapping_config=mapping_config,
        cost_model=cost_model,
        initial_strategy=config.initial_strategy,
        catalog=catalog,
    )

    if config.method == "mcts":
        result = mcts_search(
            space,
            iterations=config.mcts_iterations,
            rollout_depth=config.mcts_rollout_depth,
            max_depth=config.mcts_max_depth,
            seed=config.seed,
        )
    elif config.method == "greedy":
        result = greedy_search(space, max_steps=config.greedy_max_steps)
    elif config.method == "beam":
        result = beam_search(space, width=config.beam_width, max_depth=config.beam_depth)
    elif config.method == "exhaustive":
        result = exhaustive_search(
            space, max_depth=config.exhaustive_depth, max_states=config.exhaustive_max_states
        )
    elif config.method == "none":
        result = space.result(space.initial_state, strategy="none")
    else:
        raise ReproError(f"Unknown search method {config.method!r}")

    elapsed = time.perf_counter() - started
    return GenerationResult(
        interface=result.interface,
        cost=result.cost,
        forest=result.forest,
        stats=result.stats,
        strategy=result.strategy,
        elapsed_seconds=elapsed,
        action_trace=result.action_trace,
    )


def _parsed(query, catalog):
    """A log entry as the catalog's shared AST (SQL text that is no SELECT stays text).

    Regenerating on a longer log then reuses the earlier queries' ASTs and
    every memo on them: canonical forms, signatures and coverage targets.
    """
    if not isinstance(query, str):
        return query
    node = catalog.parse(query)
    return node if isinstance(node, Select) else query


def map_queries_statically(
    queries: Sequence[str],
    catalog: Catalog,
    screen: ScreenSize = MEDIUM_SCREEN,
    name: str = "static",
) -> Interface:
    """One static chart per query, no widgets or interactions (Figure 2).

    This is the degenerate interface a notebook without PI2 would show; the
    Figure 2 benchmark and the baseline comparisons use it.
    """
    from repro.difftree.builder import build_forest

    forest = build_forest(list(queries), strategy="per_query")
    return map_forest_to_interface(
        forest, catalog.schemas(), MappingConfig(screen=screen, name=name)
    )


def _nominal_cardinalities(catalog: Catalog) -> dict[str, int]:
    """Distinct counts of every text-like column, for the noisy-color cost term."""
    cardinalities: dict[str, int] = {}
    for table_name in catalog.table_names():
        table = catalog.table(table_name)
        schema = table.schema()
        for column in schema.columns:
            if column.data_type.value in ("text", "boolean"):
                count = len(table.distinct_values(column.name))
                existing = cardinalities.get(column.name, 0)
                cardinalities[column.name] = max(existing, count)
    return cardinalities
