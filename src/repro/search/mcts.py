"""Monte Carlo Tree Search over Difftree forests.

PI2 explores the enormous space of Difftree structures with MCTS (Coulom
2006), balancing exploitation of good structures with exploration of new ones
(Section 2, step 4).  This implementation uses the standard UCT selection
rule.  Rewards are derived from the interface cost: lower cost → higher
reward, normalized as ``1 / (1 + cost)`` so the reward stays in (0, 1].

The searcher keeps the best (lowest-cost) interface seen anywhere — including
during rollouts — which is what the pipeline returns.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from repro.difftree.builder import DifftreeForest
from repro.errors import SearchError
from repro.search.space import Action, SearchResult, SearchSpace

#: Default exploration constant of the UCT rule.
DEFAULT_EXPLORATION = 1.2


@dataclass
class MctsNode:
    """One node of the MCTS tree: a forest state plus visit statistics.

    A node does not point to its parent (backpropagation follows the path
    that selection walked), so the tree has no reference cycle.
    """

    forest: DifftreeForest
    action_from_parent: Action | None = None
    children: list["MctsNode"] = field(default_factory=list)
    untried_actions: list[Action] | None = None
    visits: int = 0
    total_reward: float = 0.0
    depth: int = 0

    def is_fully_expanded(self) -> bool:
        return self.untried_actions is not None and not self.untried_actions

    def mean_reward(self) -> float:
        if self.visits == 0:
            return 0.0
        return self.total_reward / self.visits

    def uct_score(self, exploration: float, parent_visits: int) -> float:
        if self.visits == 0:
            return float("inf")
        exploit = self.mean_reward()
        explore = exploration * math.sqrt(math.log(parent_visits) / self.visits)
        return exploit + explore


class MctsSearcher:
    """UCT Monte Carlo Tree Search over the interface-generation search space."""

    def __init__(
        self,
        space: SearchSpace,
        iterations: int = 60,
        rollout_depth: int = 2,
        max_depth: int = 6,
        exploration: float = DEFAULT_EXPLORATION,
        seed: int = 0,
    ) -> None:
        if iterations < 1:
            raise SearchError("MCTS requires at least one iteration")
        self.space = space
        self.iterations = iterations
        self.rollout_depth = rollout_depth
        self.max_depth = max_depth
        self.exploration = exploration
        self.rng = random.Random(seed)
        self.best_forest: DifftreeForest | None = None
        self.best_cost = float("inf")
        self.best_trace: list[str] = []

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def search(self) -> SearchResult:
        root = MctsNode(forest=self.space.initial_state, depth=0)
        self._observe(root.forest, [])

        for _ in range(self.iterations):
            path, trace = self._select(root)
            node, trace = self._expand(path[-1], trace)
            if node is not path[-1]:
                path.append(node)
            reward = self._rollout(node, trace)
            self._backpropagate(path, reward)

        assert self.best_forest is not None
        result = self.space.result(self.best_forest, strategy="mcts", action_trace=self.best_trace)
        return result

    # ------------------------------------------------------------------ #
    # MCTS phases
    # ------------------------------------------------------------------ #

    def _select(self, node: MctsNode) -> tuple[list[MctsNode], list[str]]:
        """The path from ``node`` down the UCT choices, and its action trace."""
        path = [node]
        trace: list[str] = []
        while node.is_fully_expanded() and node.children:
            visits = node.visits
            node = max(node.children, key=lambda child: child.uct_score(self.exploration, visits))
            path.append(node)
            if node.action_from_parent is not None:
                trace.append(node.action_from_parent.description)
        return path, trace

    def _expand(self, node: MctsNode, trace: list[str]) -> tuple[MctsNode, list[str]]:
        if node.depth >= self.max_depth:
            return node, trace
        if node.untried_actions is None:
            node.untried_actions = self.space.actions(node.forest)
            self.rng.shuffle(node.untried_actions)
            self.space.stats.states_expanded += 1
        if not node.untried_actions:
            return node, trace
        action = node.untried_actions.pop()
        child_forest = self.space.apply(node.forest, action)
        child = MctsNode(
            forest=child_forest,
            action_from_parent=action,
            depth=node.depth + 1,
        )
        node.children.append(child)
        child_trace = trace + [action.description]
        self._observe(child_forest, child_trace)
        return child, child_trace

    def _rollout(self, node: MctsNode, trace: list[str]) -> float:
        forest = node.forest
        rollout_trace = list(trace)
        for _ in range(self.rollout_depth):
            actions = self.space.actions(forest)
            if not actions:
                break
            action = self.rng.choice(actions)
            forest = self.space.apply(forest, action)
            rollout_trace.append(action.description)
            self._observe(forest, rollout_trace)
        return 1.0 / (1.0 + self.space.evaluate(forest).total)

    def _backpropagate(self, path: list[MctsNode], reward: float) -> None:
        for node in path:
            node.visits += 1
            node.total_reward += reward

    # ------------------------------------------------------------------ #
    # Best-state tracking
    # ------------------------------------------------------------------ #

    def _observe(self, forest: DifftreeForest, trace: list[str]) -> None:
        cost = self.space.evaluate(forest).total
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_forest = forest
            self.best_trace = list(trace)


def mcts_search(
    space: SearchSpace,
    iterations: int = 60,
    rollout_depth: int = 2,
    max_depth: int = 6,
    exploration: float = DEFAULT_EXPLORATION,
    seed: int = 0,
) -> SearchResult:
    """Convenience wrapper running one MCTS search."""
    searcher = MctsSearcher(
        space,
        iterations=iterations,
        rollout_depth=rollout_depth,
        max_depth=max_depth,
        exploration=exploration,
        seed=seed,
    )
    return searcher.search()
