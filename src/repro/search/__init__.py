"""Search strategies over Difftree forests: MCTS, greedy, beam, exhaustive."""

from repro.search.beam import DEFAULT_BEAM_WIDTH, beam_search
from repro.search.exhaustive import exhaustive_search
from repro.search.greedy import greedy_search
from repro.search.mcts import DEFAULT_EXPLORATION, MctsNode, MctsSearcher, mcts_search
from repro.search.space import Action, SearchResult, SearchSpace, SearchStats

__all__ = [
    "DEFAULT_BEAM_WIDTH",
    "beam_search",
    "exhaustive_search",
    "greedy_search",
    "DEFAULT_EXPLORATION",
    "MctsNode",
    "MctsSearcher",
    "mcts_search",
    "Action",
    "SearchResult",
    "SearchSpace",
    "SearchStats",
]
