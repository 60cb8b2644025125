"""Greedy hill-climbing baseline over the interface search space.

At every step the searcher evaluates all neighbours of the current state and
moves to the cheapest one, stopping when no neighbour improves the cost.  It
is the natural ablation baseline for MCTS: cheaper per step, but it gets stuck
in local minima when an improvement requires a temporarily worse intermediate
state (e.g. a merge that only pays off after a subsequent factoring).
"""

from __future__ import annotations

from repro.search.space import SearchResult, SearchSpace


def greedy_search(space: SearchSpace, max_steps: int = 12) -> SearchResult:
    """Run greedy hill climbing from the space's initial state."""
    current = space.initial_state
    current_cost = space.evaluate(current).total
    trace: list[str] = []

    for _ in range(max_steps):
        best_action = None
        best_forest = None
        best_cost = current_cost
        for action in space.actions(current):
            candidate = space.apply(current, action)
            cost = space.evaluate(candidate).total
            if cost < best_cost:
                best_cost = cost
                best_action = action
                best_forest = candidate
        if best_action is None or best_forest is None:
            break
        current = best_forest
        current_cost = best_cost
        trace.append(best_action.description)
        space.stats.states_expanded += 1

    return space.result(current, strategy="greedy", action_trace=trace)
