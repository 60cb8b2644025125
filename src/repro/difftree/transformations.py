"""Tree transformation rules over Difftrees.

Step 4 of the PI2 pipeline repeatedly transforms Difftrees to explore
alternative interface structures (Figure 3 of the paper shows the canonical
example: refactoring the shared ``=`` above an ANY node).  Each rule is a pure
function ``tree -> new tree`` that either applies at a specific choice node or
returns the tree unchanged when it does not apply; the search layer enumerates
applicable (rule, node) pairs via :func:`applicable_transformations`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import TransformationError
from repro.difftree.diff import spliced_alternatives
from repro.difftree.nodes import AnyNode, ChoiceNode, collect_choice_nodes
from repro.sql.ast_nodes import SqlNode
from repro.sql.visitor import transform


# --------------------------------------------------------------------------- #
# Rule implementations
# --------------------------------------------------------------------------- #


def factor_common_root(tree: SqlNode, choice_id: str) -> SqlNode:
    """Factor the shared root of an ANY node's alternatives above the choice.

    Applies when every alternative of the ANY node has the same label (same
    node class and scalar attributes) and the same child count.  The result
    replaces ``ANY(f(x1, y1), f(x2, y2))`` with ``f(ANY(x1, x2), ANY(y1, y2))``
    — Figure 3(a) → 3(b).  Child positions whose subtrees are identical across
    alternatives stay concrete instead of becoming singleton choices.
    """

    def rewrite(node: SqlNode) -> SqlNode | None:
        if not isinstance(node, AnyNode) or node.choice_id != choice_id:
            return None
        return _factor_any(node)

    return transform(tree, rewrite)


def _factor_refusal(node: AnyNode) -> str | None:
    """Why :func:`factor_common_root` cannot factor ``node``, or None when it can."""
    alternatives = node.alternatives
    if len(alternatives) < 2:
        return "Cannot factor an ANY node with fewer than two alternatives"
    first = alternatives[0]
    if isinstance(first, ChoiceNode):
        return "Cannot factor an ANY node whose alternatives are choices"
    label = first.label()
    child_count = len(first.children())
    if any(alt.label() != label for alt in alternatives):
        return "ANY alternatives do not share a common root label"
    if any(len(alt.children()) != child_count for alt in alternatives):
        return "ANY alternatives do not have matching child counts"
    if child_count == 0:
        return "ANY alternatives have no children to factor over"
    return None


def _factor_any(node: AnyNode) -> SqlNode:
    refusal = _factor_refusal(node)
    if refusal is not None:
        raise TransformationError(refusal)
    alternatives = node.alternatives
    child_lists = [alt.children() for alt in alternatives]
    new_children: list[SqlNode] = []
    for position in range(len(child_lists[0])):
        column = [children[position] for children in child_lists]
        if all(child == column[0] for child in column):
            new_children.append(column[0])
        else:
            # An ANY in the column contributes its alternatives, so the new
            # ANY never nests one (see spliced_alternatives).
            new_children.append(AnyNode(alternatives=spliced_alternatives(column)))
    return alternatives[0].with_children(new_children)


def can_factor(node: AnyNode) -> bool:
    """True when :func:`factor_common_root` applies to this ANY node."""
    return _factor_refusal(node) is None


# --------------------------------------------------------------------------- #
# Rule registry
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class Transformation:
    """A concrete transformation instance: a rule applied at a choice node."""

    rule: str
    choice_id: str
    apply: Callable[[SqlNode], SqlNode]

    def __call__(self, tree: SqlNode) -> SqlNode:
        return self.apply(tree)

    def describe(self) -> str:
        return f"{self.rule}@{self.choice_id}"


def applicable_transformations(tree: SqlNode) -> list[Transformation]:
    """Enumerate every (rule, choice node) pair applicable to ``tree``."""
    transformations: list[Transformation] = []
    for node in collect_choice_nodes(tree):
        if isinstance(node, AnyNode) and can_factor(node):
            transformations.append(
                Transformation(
                    rule="factor_common_root",
                    choice_id=node.choice_id,
                    apply=lambda t, cid=node.choice_id: factor_common_root(t, cid),
                )
            )
    return transformations
