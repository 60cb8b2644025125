"""Beam search over Difftree forests.

A width-``k`` beam sits between greedy hill climbing and bounded exhaustive
enumeration: at every depth it expands *all* actions of the ``k`` best frontier
states, keeps the ``k`` cheapest distinct successors, and remembers the best
state seen anywhere.  Unlike greedy it can cross a temporarily-worse
intermediate state (a merge that only pays off after a subsequent factoring)
as long as that state stays within the beam; unlike exhaustive search its
frontier is bounded, so the work per depth is ``O(k · branching)``.

Beam search is the strategy that benefits most from incremental evaluation:
sibling candidates in one frontier expansion share all but one or two trees
with their parent, so per-tree caches turn a frontier sweep into mostly
O(changed trees) work.  The visited-set keys on the forest's exact identity,
``DifftreeForest.signature()``, as the evaluation memo does, so each distinct
state is evaluated once.

Determinism: candidates are ranked by (cost, discovery order), so a fixed
query log always yields the same interface — there is no randomness at all.
"""

from __future__ import annotations

from repro.errors import SearchError
from repro.search.space import SearchResult, SearchSpace

#: Default number of frontier states kept per depth.
DEFAULT_BEAM_WIDTH = 4


def beam_search(
    space: SearchSpace,
    width: int = DEFAULT_BEAM_WIDTH,
    max_depth: int = 8,
) -> SearchResult:
    """Run beam search from the space's initial state."""
    if width < 1:
        raise SearchError("Beam search requires a beam width of at least 1")
    if max_depth < 0:
        raise SearchError("Beam search requires a non-negative depth")

    initial = space.initial_state
    best_forest = initial
    best_cost = space.evaluate(initial).total
    best_trace: list[str] = []

    visited = {initial.signature()}
    # Frontier entries: (cost, discovery order, forest, trace).
    beam = [(best_cost, 0, initial, [])]

    for _depth in range(max_depth):
        candidates = []
        for _cost, _order, forest, trace in beam:
            space.stats.states_expanded += 1
            for action in space.actions(forest):
                successor = space.apply(forest, action)
                signature = successor.signature()
                if signature in visited:
                    continue
                visited.add(signature)
                cost = space.evaluate(successor).total
                candidates.append((cost, len(candidates), successor, trace + [action.description]))
        if not candidates:
            break
        candidates.sort(key=lambda entry: (entry[0], entry[1]))
        beam = candidates[:width]
        if beam[0][0] < best_cost:
            best_cost, _order, best_forest, best_trace = beam[0]

    return space.result(best_forest, strategy="beam", action_trace=best_trace)
