"""Difftree node model.

A *Difftree* is a generalization of a SQL AST (Section 2 of the paper): it is
an AST whose nodes may additionally be **choice nodes** that encode structural
variations the user can control through the interface:

* :class:`AnyNode` — chooses exactly one of its child subtrees ("ANY" in the
  paper, e.g. Figure 3's choice between two predicates or two operands).
* :class:`OptNode` — toggles the presence of its single child subtree ("OPT",
  e.g. Figure 4's optional WHERE clause and the V3 toggle of the case study).

Choice nodes are themselves :class:`~repro.sql.ast_nodes.SqlNode` subclasses so
the whole Difftree reuses the AST's uniform tree protocol (walk, children,
with_children).  Every choice node carries a stable ``choice_id`` used by

* bindings (choice id → selected alternative / on-off) when instantiating a
  concrete query,
* the interaction mapping (choice id → widget or visualization interaction).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import DifftreeError
from repro.sql.ast_nodes import ColumnRef, Literal, SqlNode

#: One process-wide counter, never reset: the catalog's tree memo holds trees
#: built by earlier generations, and a fresh choice node must never take an id
#: one of them carries.
_CHOICE_COUNTER = itertools.count(1)


def _next_choice_id(prefix: str) -> str:
    return f"{prefix}{next(_CHOICE_COUNTER)}"


@dataclass(frozen=True)
class ChoiceNode(SqlNode):
    """Base class of ANY / OPT choice nodes."""

    choice_id: str = field(default="", compare=False)

    @property
    def kind(self) -> str:
        return type(self).__name__


@dataclass(frozen=True)
class AnyNode(ChoiceNode):
    """A choice node that selects exactly one of its alternatives."""

    alternatives: list[SqlNode] = field(default_factory=list)
    choice_id: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.choice_id:
            object.__setattr__(self, "choice_id", _next_choice_id("any_"))
        if len(self.alternatives) < 1:
            raise DifftreeError("AnyNode requires at least one alternative")

    @property
    def cardinality(self) -> int:
        return len(self.alternatives)

    def is_literal_choice(self) -> bool:
        """True when every alternative is a plain literal."""
        return all(isinstance(alt, Literal) for alt in self.alternatives)

    def is_numeric_literal_choice(self) -> bool:
        """True when every alternative is a numeric literal."""
        return all(
            isinstance(alt, Literal) and isinstance(alt.value, (int, float)) and not isinstance(alt.value, bool)
            for alt in self.alternatives
        )

    def is_column_choice(self) -> bool:
        """True when every alternative is a column reference."""
        return all(isinstance(alt, ColumnRef) for alt in self.alternatives)

    def literal_values(self) -> list[object]:
        """The literal values of the alternatives (requires is_literal_choice)."""
        if not self.is_literal_choice():
            raise DifftreeError(f"Choice node {self.choice_id} is not a literal choice")
        return [alt.value for alt in self.alternatives]  # type: ignore[union-attr]


@dataclass(frozen=True)
class OptNode(ChoiceNode):
    """A choice node that toggles the presence of its child subtree."""

    child: SqlNode = field(default=None)  # type: ignore[assignment]
    default_on: bool = True
    choice_id: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.choice_id:
            object.__setattr__(self, "choice_id", _next_choice_id("opt_"))
        if self.child is None:
            raise DifftreeError("OptNode requires a child subtree")


def is_choice_node(node: SqlNode) -> bool:
    """Return True when ``node`` is an ANY or OPT choice node."""
    return isinstance(node, ChoiceNode)


def collect_choice_nodes(tree: SqlNode) -> tuple[ChoiceNode, ...]:
    """All choice nodes of a Difftree in pre-order.

    Memoized as a tuple on the frozen node, like ``SqlNode.children()``: the
    mapping, cost and interface layers ask for the same trees' choice nodes
    tens of thousands of times per search.  The memo is not a dataclass
    field, so ``with_children`` / ``dataclasses.replace`` build nodes
    without it, and a pickle round trip carries it along with the very
    nodes it lists.
    """
    try:
        return tree._repro_choice_nodes  # type: ignore[attr-defined]
    except AttributeError:
        pass
    choices = tuple(node for node in tree.walk() if isinstance(node, ChoiceNode))
    object.__setattr__(tree, "_repro_choice_nodes", choices)
    return choices


def choice_node_by_id(tree: SqlNode, choice_id: str) -> ChoiceNode:
    """Find a choice node by id; raises DifftreeError when absent."""
    for node in collect_choice_nodes(tree):
        if node.choice_id == choice_id:
            return node
    raise DifftreeError(f"No choice node with id {choice_id!r}")


def iter_parents(tree: SqlNode) -> Iterator[tuple[SqlNode, SqlNode]]:
    """Yield (parent, child) pairs over the whole tree."""
    for node in tree.walk():
        for child in node.children():
            yield node, child


def parent_of(tree: SqlNode, target: SqlNode) -> SqlNode | None:
    """Return the parent of ``target`` within ``tree`` (identity comparison)."""
    for parent, child in iter_parents(tree):
        if child is target:
            return parent
    return None


def count_static_nodes(tree: SqlNode) -> int:
    """Number of non-choice nodes in the Difftree."""
    return sum(1 for node in tree.walk() if not isinstance(node, ChoiceNode))


def count_choice_nodes(tree: SqlNode) -> int:
    """Number of choice nodes in the Difftree."""
    return sum(1 for node in tree.walk() if isinstance(node, ChoiceNode))
