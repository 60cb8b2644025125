"""Difftrees: generalized SQL ASTs with choice nodes, merging and transformations."""

from repro.difftree.builder import (
    DEFAULT_SIMILARITY_THRESHOLD,
    DifftreeForest,
    build_forest,
    parse_query_log,
    similarity_matrix,
)
from repro.difftree.canonical import (
    canonicalize,
    join_conjuncts,
    split_conjuncts,
    structural_similarity,
    tree_size,
)
from repro.difftree.diff import merge_nodes, merge_query_sequence, merge_selects
from repro.difftree.instantiate import (
    binding_space_size,
    covers,
    default_bindings,
    enumerate_bindings,
    expressiveness_ratio,
    find_binding_for,
    instantiate,
    instantiate_and_execute,
)
from repro.difftree.signatures import (
    structural_signature,
    tree_signature,
)
from repro.difftree.nodes import (
    AnyNode,
    ChoiceNode,
    OptNode,
    choice_node_by_id,
    collect_choice_nodes,
    count_choice_nodes,
    count_static_nodes,
    is_choice_node,
    reset_choice_ids,
)
from repro.difftree.transformations import (
    Transformation,
    applicable_transformations,
    can_factor,
    factor_common_root,
)
from repro.difftree.tree_schema import (
    ChoiceContext,
    ForestSchema,
    TreeProfile,
    choice_contexts,
    forest_schema,
    tree_profile,
)

__all__ = [
    "DEFAULT_SIMILARITY_THRESHOLD",
    "DifftreeForest",
    "build_forest",
    "parse_query_log",
    "similarity_matrix",
    "canonicalize",
    "join_conjuncts",
    "split_conjuncts",
    "structural_similarity",
    "tree_size",
    "merge_nodes",
    "merge_query_sequence",
    "merge_selects",
    "binding_space_size",
    "covers",
    "default_bindings",
    "enumerate_bindings",
    "expressiveness_ratio",
    "find_binding_for",
    "instantiate",
    "instantiate_and_execute",
    "structural_signature",
    "tree_signature",
    "AnyNode",
    "ChoiceNode",
    "OptNode",
    "choice_node_by_id",
    "collect_choice_nodes",
    "count_choice_nodes",
    "count_static_nodes",
    "is_choice_node",
    "reset_choice_ids",
    "Transformation",
    "applicable_transformations",
    "can_factor",
    "factor_common_root",
    "ChoiceContext",
    "ForestSchema",
    "TreeProfile",
    "choice_contexts",
    "forest_schema",
    "tree_profile",
]
