"""The Interface object: I = (V, M, L).

An :class:`Interface` packages the three mappings of Section 2:

* ``V`` — visualizations (Difftree results → charts),
* ``M`` — interactions (choice nodes → widgets and visualization interactions),
* ``L`` — layout (tree structure + screen size → component placement),

together with the Difftree forest it was generated from, so that runtime state
(:mod:`repro.interface.state`) can rebind choices, re-instantiate queries and
refresh chart data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import InterfaceError
from repro.difftree.builder import DifftreeForest
from repro.interface.interactions import VisInteraction
from repro.interface.layout import Layout
from repro.interface.visualizations import Visualization
from repro.interface.widgets import ChoiceBinding, Widget


@dataclass
class Interface:
    """A complete generated interactive visualization interface."""

    forest: DifftreeForest
    visualizations: list[Visualization] = field(default_factory=list)
    widgets: list[Widget] = field(default_factory=list)
    interactions: list[VisInteraction] = field(default_factory=list)
    layout: Layout | None = None
    name: str = "interface"

    # ------------------------------------------------------------------ #
    # Lookup helpers
    # ------------------------------------------------------------------ #

    def visualization(self, vis_id: str) -> Visualization:
        for vis in self.visualizations:
            if vis.vis_id == vis_id:
                return vis
        raise InterfaceError(f"No visualization {vis_id!r} in interface {self.name!r}")

    def widget(self, widget_id: str) -> Widget:
        for widget in self.widgets:
            if widget.widget_id == widget_id:
                return widget
        raise InterfaceError(f"No widget {widget_id!r} in interface {self.name!r}")

    def interaction(self, interaction_id: str) -> VisInteraction:
        for interaction in self.interactions:
            if interaction.interaction_id == interaction_id:
                return interaction
        raise InterfaceError(f"No interaction {interaction_id!r} in interface {self.name!r}")

    def visualizations_for_tree(self, tree_index: int) -> list[Visualization]:
        return [vis for vis in self.visualizations if vis.tree_index == tree_index]

    # ------------------------------------------------------------------ #
    # Component statistics (used by the cost model and Table 1)
    # ------------------------------------------------------------------ #

    @property
    def visualization_count(self) -> int:
        return len(self.visualizations)

    @property
    def widget_count(self) -> int:
        return len(self.widgets)

    @property
    def interaction_count(self) -> int:
        return len(self.interactions)

    def component_count(self) -> int:
        return self.visualization_count + self.widget_count + self.interaction_count

    def all_bindings(self) -> Iterator[tuple[str, ChoiceBinding]]:
        """All (component id, choice binding) pairs of the interaction mapping M."""
        for widget in self.widgets:
            for binding in widget.bindings:
                yield widget.widget_id, binding
        for interaction in self.interactions:
            for binding in interaction.bindings:
                yield interaction.interaction_id, binding

    def bound_choice_ids(self) -> set[str]:
        return {binding.choice_id for _component, binding in self.all_bindings()}

    def has_structural_widgets(self) -> bool:
        """True when some widget changes query *structure* (not just a literal).

        This is the capability Table 1 calls "Arbitrary" widgets: toggling a
        subquery or choosing between projection attributes, as opposed to
        substituting a parameter value.
        """
        structural = {"predicate", "subquery", "select_item", "column", "query", "other", "mixed"}
        choice_kinds = self._choice_kinds()
        for widget in self.widgets:
            for binding in widget.bindings:
                if choice_kinds.get(binding.choice_id) in structural:
                    return True
        return False

    def _choice_kinds(self) -> dict[str, str]:
        from repro.difftree.tree_schema import choice_contexts

        kinds: dict[str, str] = {}
        for tree in self.forest.trees:
            for context in choice_contexts(tree):
                kinds[context.choice_id] = context.alternative_kind
        return kinds

    # ------------------------------------------------------------------ #
    # Validation and description
    # ------------------------------------------------------------------ #

    def validate(self) -> None:
        """Check structural invariants of the interface.

        Every visualization must reference an existing tree, every binding an
        existing choice node, and every choice node must be bound to exactly
        one component (otherwise parts of the query log are unreachable).
        """
        from repro.difftree.nodes import collect_choice_nodes

        for vis in self.visualizations:
            vis.validate()
            if not 0 <= vis.tree_index < self.forest.tree_count:
                raise InterfaceError(
                    f"Visualization {vis.vis_id} references unknown tree {vis.tree_index}"
                )
        for widget in self.widgets:
            widget.validate()
        for interaction in self.interactions:
            interaction.validate()

        known_choices: dict[int, set[str]] = {
            index: {node.choice_id for node in collect_choice_nodes(tree)}
            for index, tree in enumerate(self.forest.trees)
        }
        bound: set[tuple[int, str]] = set()
        for component_id, binding in self.all_bindings():
            if binding.tree_index not in known_choices:
                raise InterfaceError(
                    f"Component {component_id} binds unknown tree {binding.tree_index}"
                )
            if binding.choice_id not in known_choices[binding.tree_index]:
                raise InterfaceError(
                    f"Component {component_id} binds unknown choice {binding.choice_id!r}"
                )
            bound.add((binding.tree_index, binding.choice_id))
        for tree_index, choice_ids in known_choices.items():
            for choice_id in choice_ids:
                if (tree_index, choice_id) not in bound:
                    raise InterfaceError(
                        f"Choice node {choice_id!r} of tree {tree_index} is not bound to any component"
                    )

    def summary(self) -> dict:
        """A compact, serializable description of the interface."""
        return {
            "name": self.name,
            "visualizations": [vis.describe() for vis in self.visualizations],
            "widgets": [widget.describe() for widget in self.widgets],
            "interactions": [interaction.describe() for interaction in self.interactions],
            "layout": self.layout.describe() if self.layout else None,
            "tree_count": self.forest.tree_count,
            "choice_count": self.forest.choice_count(),
        }

    def fingerprint(self) -> tuple:
        """A hashable structural identity, normalized over gensym choice ids.

        Choice ids are allocation labels (``any_417``): two generations of the
        same structure legitimately differ in the numbers while being the same
        interface.  The fingerprint renames them by order of first appearance,
        so equality means "byte-identical modulo gensym ids" — the property
        the serving layer's determinism gates (concurrent generation vs the
        serial pipeline) assert.
        """
        renames: dict[str, str] = {}

        def rename(choice_id: str) -> str:
            if choice_id not in renames:
                renames[choice_id] = f"c#{len(renames) + 1}"
            return renames[choice_id]

        return (
            tuple(
                (
                    vis.vis_id,
                    vis.chart_type.value,
                    tuple(encoding.describe() for encoding in vis.encodings),
                    vis.tree_index,
                    vis.title,
                    vis.width,
                    vis.height,
                )
                for vis in self.visualizations
            ),
            tuple(
                (
                    widget.widget_id,
                    widget.widget_type.value,
                    widget.label,
                    tuple((b.tree_index, rename(b.choice_id)) for b in widget.bindings),
                    tuple(str(option) for option in widget.options),
                    widget.domain,
                    str(widget.default),
                )
                for widget in self.widgets
            ),
            tuple(
                (
                    interaction.interaction_id,
                    interaction.interaction_type.value,
                    interaction.source_vis_id,
                    interaction.attribute,
                    interaction.secondary_attribute,
                    tuple((b.tree_index, rename(b.choice_id)) for b in interaction.bindings),
                    tuple(interaction.target_vis_ids),
                )
                for interaction in self.interactions
            ),
        )

    def describe(self) -> str:
        lines = [f"Interface {self.name!r}"]
        lines.append(f"  trees: {self.forest.tree_count}, choices: {self.forest.choice_count()}")
        for vis in self.visualizations:
            lines.append(f"  {vis.describe()}")
        for widget in self.widgets:
            lines.append(f"  {widget.describe()}")
        for interaction in self.interactions:
            lines.append(f"  {interaction.describe()}")
        if self.layout is not None:
            lines.append("  layout:")
            for line in self.layout.describe().splitlines():
                lines.append(f"    {line}")
        return "\n".join(lines)
