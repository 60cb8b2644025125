"""Building Difftree forests from query logs.

PI2 may render a query log as one merged Difftree (one chart whose widgets
re-express every query), as one Difftree per query (a static chart each), or —
most commonly — as a *forest* in between, where structurally similar queries
are clustered and merged while dissimilar ones keep their own tree (the
multi-view interfaces of Figure 5 and of the COVID walkthrough).

The forest also records provenance (which input queries each tree covers),
which the cost model's expressiveness term and the coverage tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import MergeError
from repro.difftree.canonical import canonical_form, queries_share_source, structural_similarity
from repro.difftree.diff import merge_nodes
from repro.difftree.instantiate import covers
from repro.difftree.nodes import collect_choice_nodes
from repro.difftree.signatures import structure_key
from repro.sql.ast_nodes import Select, SqlNode
from repro.sql.parser import parse_select

#: Queries at least this similar are clustered into the same Difftree by default.
DEFAULT_SIMILARITY_THRESHOLD = 0.55


@dataclass
class DifftreeForest:
    """A set of Difftrees jointly covering a query log.

    Attributes:
        trees: the Difftrees (each covers one or more input queries).
        members: for each tree, the indices of the input queries it was built
            from (parallel to ``trees``).
        queries: the canonicalized input queries, in log order.
    """

    trees: list[SqlNode] = field(default_factory=list)
    members: list[list[int]] = field(default_factory=list)
    queries: list[Select] = field(default_factory=list)

    @property
    def tree_count(self) -> int:
        return len(self.trees)

    def choice_count(self) -> int:
        """Total number of choice nodes across all trees."""
        return sum(len(collect_choice_nodes(tree)) for tree in self.trees)

    def queries_for_tree(self, index: int) -> list[Select]:
        return [self.queries[i] for i in self.members[index]]

    def copy(self) -> "DifftreeForest":
        return DifftreeForest(
            trees=list(self.trees),
            members=[list(m) for m in self.members],
            queries=list(self.queries),
        )

    def merge_trees(self, first: int, second: int, merged: SqlNode | None = None) -> "DifftreeForest":
        """A new forest with trees ``first`` and ``second`` merged into one, at ``min(first, second)``.

        The merged tree is ``merged`` when given (the search's merge memo
        passes the tree it built first), else a fresh ``merge_nodes``.
        """
        if first == second:
            raise MergeError("Cannot merge a tree with itself")
        if not (0 <= first < self.tree_count and 0 <= second < self.tree_count):
            raise MergeError(f"Tree indices out of range: {first}, {second}")
        low, high = sorted((first, second))
        merged_tree = merged if merged is not None else merge_nodes(self.trees[low], self.trees[high])
        merged_members = sorted(self.members[low] + self.members[high])
        trees = [tree for i, tree in enumerate(self.trees) if i not in (low, high)]
        members = [m for i, m in enumerate(self.members) if i not in (low, high)]
        trees.insert(low, merged_tree)
        members.insert(low, merged_members)
        return DifftreeForest(trees=trees, members=members, queries=list(self.queries))

    def replace_tree(self, index: int, tree: SqlNode) -> "DifftreeForest":
        """A new forest with one tree replaced (used by transformation steps)."""
        updated = self.copy()
        updated.trees[index] = tree
        return updated

    def covers_all(self) -> bool:
        """True when every input query is expressible by the tree that owns it."""
        return all(covers(tree, self.queries_for_tree(index)) for index, tree in enumerate(self.trees))

    def signature(self) -> tuple:
        """The forest's exact identity: per tree, its members and structure key.

        Two forests share a signature exactly when they cover the same queries
        with the same trees up to a renaming of choice ids (see
        :func:`~repro.difftree.signatures.structure_key`), so merges replayed
        with fresh ids share one entry of the search's evaluation memo and
        visited-sets.  The keys are memoized on the trees, so re-signing a
        forest after an action costs O(trees).
        """
        return tuple((tuple(members), structure_key(tree)) for members, tree in zip(self.members, self.trees))


def parse_query_log(queries: Sequence[str | SqlNode]) -> list[Select]:
    """Parse and canonicalize a query log given as SQL strings or ASTs.

    The canonical form is memoized on each AST, so a log of shared ASTs (the
    pipeline reads its log through the catalog's AST memo) canonicalizes
    each query once.
    """
    parsed: list[Select] = []
    for query in queries:
        if isinstance(query, str):
            ast = parse_select(query)
        elif isinstance(query, Select):
            ast = query
        else:
            raise MergeError(f"Query log entries must be SQL strings or SELECT ASTs, got {type(query).__name__}")
        parsed.append(canonical_form(ast))
    return parsed


def build_forest(
    queries: Sequence[str | SqlNode],
    strategy: str = "clustered",
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
) -> DifftreeForest:
    """Build the initial Difftree forest for a query log.

    Strategies:
        ``per_query`` — one Difftree per query (the static interface of Fig. 2).
        ``merged`` — a single Difftree covering the whole log (Fig. 4).
        ``clustered`` — greedy similarity clustering, then one Difftree per
        cluster (the default starting state for the search).
    """
    parsed = parse_query_log(queries)
    if not parsed:
        raise MergeError("Query log is empty")

    if strategy == "per_query":
        return DifftreeForest(
            trees=list(parsed), members=[[i] for i in range(len(parsed))], queries=parsed
        )

    if strategy == "merged":
        merged: SqlNode = parsed[0]
        for query in parsed[1:]:
            merged = merge_nodes(merged, query)
        return DifftreeForest(
            trees=[merged],
            members=[list(range(len(parsed)))],
            queries=parsed,
        )

    if strategy == "clustered":
        return _build_clustered_forest(parsed, similarity_threshold)

    raise MergeError(f"Unknown forest strategy {strategy!r}")


def _build_clustered_forest(
    parsed: list[Select], similarity_threshold: float
) -> DifftreeForest:
    clusters: list[list[int]] = []
    cluster_trees: list[SqlNode] = []
    for index, query in enumerate(parsed):
        best_cluster = -1
        best_similarity = 0.0
        for cluster_index, representative in enumerate(cluster_trees):
            candidate = parsed[clusters[cluster_index][0]]
            if not queries_share_source(candidate, query):
                continue
            similarity = structural_similarity(representative, query)
            if similarity > best_similarity:
                best_similarity = similarity
                best_cluster = cluster_index
        if best_cluster >= 0 and best_similarity >= similarity_threshold:
            clusters[best_cluster].append(index)
            cluster_trees[best_cluster] = merge_nodes(cluster_trees[best_cluster], query)
        else:
            clusters.append([index])
            cluster_trees.append(query)
    return DifftreeForest(trees=cluster_trees, members=clusters, queries=parsed)


def similarity_matrix(queries: Sequence[str | SqlNode]) -> list[list[float]]:
    """Pairwise structural similarity of the queries in a log (for diagnostics)."""
    parsed = parse_query_log(queries)
    matrix = [[0.0] * len(parsed) for _ in parsed]
    for i, query_a in enumerate(parsed):
        for j, query_b in enumerate(parsed):
            matrix[i][j] = 1.0 if i == j else structural_similarity(query_a, query_b)
    return matrix
