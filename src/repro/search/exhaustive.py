"""Bounded exhaustive enumeration over the interface search space.

Breadth-first enumeration of every state reachable within ``max_depth``
actions (capped at ``max_states`` distinct states).  It is the ground-truth
baseline for small query logs: MCTS should find interfaces of (nearly) the
same cost while evaluating far fewer candidates — which is exactly the shape
the search-ablation benchmark reports.
"""

from __future__ import annotations

from collections import deque

from repro.search.space import SearchResult, SearchSpace


def exhaustive_search(
    space: SearchSpace, max_depth: int = 3, max_states: int = 400
) -> SearchResult:
    """Enumerate all states up to ``max_depth`` actions and return the cheapest."""
    initial = space.initial_state
    best_forest = initial
    best_cost = space.evaluate(initial).total
    best_trace: list[str] = []

    visited = {initial.signature()}
    queue: deque[tuple[object, int, list[str]]] = deque([(initial, 0, [])])
    explored = 0

    while queue and explored < max_states:
        forest, depth, trace = queue.popleft()
        if depth >= max_depth:
            continue
        for action in space.actions(forest):  # type: ignore[arg-type]
            candidate = space.apply(forest, action)  # type: ignore[arg-type]
            signature = candidate.signature()
            if signature in visited:
                continue
            visited.add(signature)
            explored += 1
            space.stats.states_expanded += 1
            candidate_trace = trace + [action.description]
            cost = space.evaluate(candidate).total
            if cost < best_cost:
                best_cost = cost
                best_forest = candidate
                best_trace = candidate_trace
            queue.append((candidate, depth + 1, candidate_trace))
            if explored >= max_states:
                break

    return space.result(best_forest, strategy="exhaustive", action_trace=best_trace)
