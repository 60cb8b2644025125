"""The interface mapping step: Difftree forest → candidate Interface.

This orchestrates the three sub-mappings of ``I = (V, M, L)``:

* ``V`` — :mod:`repro.mapping.vis_mapping` maps each Difftree's result schema
  to a chart,
* ``M`` — :mod:`repro.mapping.interaction_mapping` maps each choice node to a
  widget or a visualization interaction,
* ``L`` — :mod:`repro.mapping.layout_mapping` lays the components out for the
  target screen,

mirroring the schema-matching formulation of Section 2: the Difftree side's
schema comes from :mod:`repro.difftree.tree_schema`, the interface side's
"schema" is the set of component types with their compatibility rules encoded
in the mappers.

The mapping is *decomposed per tree* so the search layer can evaluate
candidates incrementally: profiles, chart templates and interaction-mapping
pieces are deterministic functions of one tree (plus, for interaction pieces,
the shapes of the surrounding charts) and are cached by tree signature in a
:class:`MappingCaches` bundle.  Only the layout step — which genuinely couples
trees — always runs globally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.difftree.builder import DifftreeForest
from repro.difftree.signatures import LruDict, structural_signature, tree_signature
from repro.difftree.tree_schema import (
    TreeProfileCache,
    forest_schema,
)
from repro.interface.interface import Interface
from repro.interface.layout import MEDIUM_SCREEN, ScreenSize
from repro.mapping.interaction_mapping import (
    InteractionMapper,
    MappingPolicy,
    compose_interaction_mapping,
)
from repro.mapping.layout_mapping import map_layout
from repro.mapping.vis_mapping import map_tree_to_visualization
from repro.sql.schema import TableSchema


@dataclass
class MappingConfig:
    """Configuration of the interface mapping step."""

    screen: ScreenSize = MEDIUM_SCREEN
    policy: MappingPolicy | None = None
    name: str = "interface"


@dataclass
class MappingCaches:
    """Signature-keyed per-tree caches shared across candidate evaluations.

    * ``profiles`` — tree signature → :class:`TreeProfile` (instantiation,
      analysis and choice contexts of one tree),
    * ``visualizations`` — tree signature → chart template (re-id'd per
      forest position on reuse),
    * ``pieces`` — (tree signature, position, chart-context signature) →
      interaction-mapping piece.  The chart-context part captures the shapes
      of *all* charts because linked interactions (brushes, click-selects)
      target other trees' charts; a piece is only reused when every chart the
      decision could have looked at is unchanged.
    """

    profiles: TreeProfileCache = field(default_factory=lambda: TreeProfileCache(1024))
    visualizations: LruDict = field(default_factory=lambda: LruDict(1024))
    pieces: LruDict = field(default_factory=lambda: LruDict(2048))

    def stats(self) -> dict[str, dict[str, int]]:
        return {
            "profiles": self.profiles.stats(),
            "visualizations": self.visualizations.stats(),
            "pieces": self.pieces.stats(),
        }


def _chart_context(visualizations) -> tuple:
    """Hashable shape of every chart an interaction-mapping pass can observe."""
    return tuple(
        (
            vis.chart_type.value,
            tuple(encoding.describe() for encoding in vis.encodings),
        )
        for vis in visualizations
    )


def _tree_visualization(profile, index: int, tree, caches: MappingCaches | None):
    """The chart for one tree, via the template cache when available."""
    vis_id = f"G{index + 1}"
    if caches is None:
        return map_tree_to_visualization(profile, vis_id=vis_id)
    # Chart templates never reference choice ids, so the id-insensitive
    # signature shares them across replayed merges.
    signature = structural_signature(tree)
    template = caches.visualizations.get(signature)
    if template is None:
        template = map_tree_to_visualization(profile, vis_id=vis_id)
        caches.visualizations.put(signature, template)
    # Copy with positional identity: the cached template must never be aliased
    # into a live interface (layout sizing mutates width/height in place).
    return replace(template, vis_id=vis_id, tree_index=index)


def map_forest_to_interface(
    forest: DifftreeForest,
    table_schemas: dict[str, TableSchema],
    config: MappingConfig | None = None,
    caches: MappingCaches | None = None,
) -> Interface:
    """Map a Difftree forest to a complete candidate interface.

    ``caches`` (optional) enables the incremental per-tree path: unchanged
    trees reuse their cached profile, chart template and interaction-mapping
    piece, so a candidate that differs from its neighbour in one tree only
    pays for that tree.
    """
    config = config or MappingConfig()
    schema = forest_schema(
        forest, table_schemas, profile_cache=caches.profiles if caches is not None else None
    )

    visualizations = [
        _tree_visualization(profile, index, forest.trees[index], caches)
        for index, profile in enumerate(schema.profiles)
    ]

    mapper = InteractionMapper(policy=config.policy)
    context = _chart_context(visualizations) if caches is not None else None
    pieces = []
    for index, profile in enumerate(schema.profiles):
        piece = None
        key = None
        if caches is not None:
            key = (tree_signature(forest.trees[index]), index, context)
            piece = caches.pieces.get(key)
        if piece is None:
            piece = mapper.map_tree_piece(profile, forest, visualizations)
            if caches is not None:
                caches.pieces.put(key, piece)
        pieces.append(piece)
    mapping = compose_interaction_mapping(pieces)

    ordered, layout = map_layout(visualizations, mapping.widgets, schema, config.screen)

    interface = Interface(
        forest=forest,
        visualizations=ordered,
        widgets=mapping.widgets,
        interactions=mapping.interactions,
        layout=layout,
        name=config.name,
    )
    interface.validate()
    return interface
