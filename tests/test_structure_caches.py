"""Catalog-lifetime structure caches: exact keys, warm equals cold, bounds, concurrency.

Generation keeps every per-structure fact that never mentions a choice id —
coverage verdicts, tree profiles, chart templates, filter-attribute sets —
in the catalog's ``structure_caches``, so consecutive
generations on one catalog pay for each tree structure once.  That is only
sound when the keys are exact, so this suite checks:

* **exact keys** — signatures tell ``1``, ``1.0`` and ``TRUE`` apart, and the
  profile cache keeps trees apart that differ only in which choice nodes
  share an id (both collapsed before, and both changed outputs);
* **similarity stays label-equal** — clustering and merge eligibility still
  match ``1`` with ``1.0``, as ``merge_nodes`` does;
* **warm equals cold** — on every paper log and search method, a catalog
  that first ran every shorter prefix, the reversed log and the int/float
  twin log generates exactly what a fresh catalog generates, directly, on a
  pinned snapshot and on the process tier's worker path; and every
  evaluation along random action walks on a warm catalog — cost and
  interface — equals a from-scratch evaluation on a fresh catalog;
* **bounds** — every cache stays within its capacity and ``clear_caches()``
  empties all of them;
* **concurrency** — eight threads generating on one catalog under a tiny
  switch interval reproduce the serial fingerprints;
* **one-pass choice contexts** — ``choice_contexts`` equals the per-choice
  helpers it replaced (kept below as the oracle) on every tree the searches
  evaluate and on hand-built corner cases.
"""

from __future__ import annotations

import pickle
import random
import sys
import threading

import pytest

from repro.cost.expressiveness import forest_covered_count
from repro.cost.model import CostModel
from repro.datasets import (
    covid_query_log,
    covid_region_variant_queries,
    load_covid_catalog,
    load_sdss_catalog,
    load_sp500_catalog,
    sdss_extended_query_log,
    sp500_query_log,
    sp500_window_query_log,
)
from repro.difftree.builder import DifftreeForest, build_forest
from repro.difftree.canonical import structural_similarity
from repro.difftree.nodes import AnyNode, ChoiceNode, OptNode, collect_choice_nodes
from repro.difftree.signatures import (
    ExactKey,
    SharedLruDict,
    structural_signature,
    structure_key,
    tree_key,
    tree_signature,
)
from repro.difftree.tree_schema import (
    ChoiceContext,
    TreeProfileCache,
    _alternative_kind,
    _literal_values,
    choice_contexts,
    forest_schema,
    tree_profile,
)
from repro.engine.catalog import Catalog
from repro.mapping import MappingConfig
from repro.pipeline import PipelineConfig, generate_interface
from repro.search.space import SearchSpace
from repro.serving.workers import _run_task, _WorkerState
from repro.sql.ast_nodes import (
    BetweenOp,
    BinaryOp,
    ColumnRef,
    CommonTableExpr,
    FunctionCall,
    InList,
    InSubquery,
    Literal,
    Select,
    SelectItem,
    SetOperation,
    SqlNode,
    SubqueryRef,
    TableRef,
)
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql
from repro.sql.visitor import transform

LOGS = {
    "covid": ("covid", covid_query_log()),
    "covid_v3": ("covid", covid_query_log() + [covid_region_variant_queries()[1]]),
    "sdss_extended": ("sdss", sdss_extended_query_log()),
    "sp500": ("sp500", sp500_query_log()),
    "sp500_window": ("sp500", sp500_window_query_log()),
}
METHODS = ("mcts", "greedy", "beam")
LOADERS = {"covid": load_covid_catalog, "sdss": load_sdss_catalog, "sp500": load_sp500_catalog}
MIXED_LOG = [
    "SELECT date, cases FROM covid_cases WHERE cases > 1000.0",
    "SELECT date, cases FROM covid_cases WHERE cases > 1000",
]


def config(method: str) -> PipelineConfig:
    return PipelineConfig(method=method, seed=7)


def outcome(result) -> tuple:
    return result.interface.fingerprint(), repr(result.total_cost), result.stats.evaluations


def twin(sql: str) -> str:
    """The query with every integer literal written as a float."""

    def floated(node: SqlNode) -> SqlNode | None:
        if isinstance(node, Literal) and type(node.value) is int:
            return Literal(float(node.value))
        return None

    return to_sql(transform(parse_select(sql), floated))


def fresh_catalog(base: Catalog) -> Catalog:
    """A new catalog (every cache empty) over the same immutable tables."""
    catalog = Catalog()
    for name in base.table_names():
        catalog.register(base.table(name))
    return catalog


def literal_choices(first_id: str, second_id: str) -> Select:
    """``SELECT a FROM t WHERE x = ANY(1, 2) AND y = ANY(1, 2)`` with the given choice ids."""

    def compare(column: str, choice_id: str) -> BinaryOp:
        choice = AnyNode(alternatives=[Literal(1), Literal(2)], choice_id=choice_id)
        return BinaryOp(op="=", left=ColumnRef(name=column), right=choice)

    return Select(
        select_items=[SelectItem(expr=ColumnRef(name="a"))],
        from_clause=TableRef("t"),
        where=BinaryOp(op="AND", left=compare("x", first_id), right=compare("y", second_id)),
    )


def single_tree_forest(tree: SqlNode) -> DifftreeForest:
    return DifftreeForest(trees=[tree], members=[[0]], queries=[])


@pytest.fixture(scope="module")
def bases() -> dict[str, Catalog]:
    return {dataset: loader() for dataset, loader in LOADERS.items()}


# --------------------------------------------------------------------------- #
# Exact keys
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "left, right",
    [("cases > 1000", "cases > 1000.0"), ("cases = 1", "cases = TRUE"), ("cases = 1.0", "cases = TRUE")],
)
def test_signatures_tell_literal_types_apart(left, right):
    first = parse_select(f"SELECT date FROM covid_cases WHERE {left}")
    second = parse_select(f"SELECT date FROM covid_cases WHERE {right}")
    assert first == second  # dataclass equality merges the types...
    assert structural_signature(first) != structural_signature(second)  # ...the signatures do not
    assert tree_signature(first) != tree_signature(second)
    assert structure_key(first) != structure_key(second)
    assert tree_key(first) != tree_key(second)


def test_exact_keys_hash_once_compare_by_value_and_survive_pickling():
    value = (("Select", ()), ((("Literal", (("value", ("int", 1)),)), ()),))
    key = ExactKey(value)
    same = ExactKey(tuple(value))
    assert key == same and hash(key) == hash(value)
    assert key != value  # never equal to a bare tuple
    copy = pickle.loads(pickle.dumps(key))
    assert copy == key and hash(copy) == hash(key)
    tree = parse_select("SELECT a FROM t WHERE b > 1")
    assert tree_key(tree) is tree_key(tree)
    assert structure_key(tree) is structure_key(tree)
    assert tree_key(tree) == ExactKey(tree_signature(tree))


def test_structure_key_separates_choice_id_sharing():
    shared, distinct = literal_choices("s", "s"), literal_choices("p", "q")
    assert structural_signature(shared) == structural_signature(distinct)
    assert structure_key(shared) != structure_key(distinct)
    assert structure_key(distinct) == structure_key(literal_choices("d1", "d2"))


def test_profile_cache_keeps_trees_that_share_choice_ids_apart():
    schemas = {"t": Catalog().create_table("t", ["a", "x", "y"], [[1, 1, 2]]).schema()}
    cache = TreeProfileCache()
    shared = literal_choices("s1", "s1")
    cache.put(shared, tree_profile(shared, 0, schemas))
    distinct = literal_choices("d1", "d2")
    (profile,) = forest_schema(single_tree_forest(distinct), schemas, profile_cache=cache).profiles
    assert [context.choice_id for context in profile.choices] == ["d1", "d2"]
    assert profile.choices == tree_profile(distinct, 0, schemas).choices


def test_profile_cache_keeps_literal_types_apart():
    schemas = load_covid_catalog().schemas()
    template = "SELECT date, cases FROM covid_cases WHERE cases > {}"
    integral = build_forest([template.format(1000), template.format(2000)], strategy="merged")
    floating = build_forest([template.format("1000.0"), template.format(2000)], strategy="merged")
    cache = TreeProfileCache()
    forest_schema(integral, schemas, profile_cache=cache)
    (profile,) = forest_schema(floating, schemas, profile_cache=cache).profiles
    (values,) = [context.literal_values for context in profile.choices if context.literal_values]
    assert values == (1000.0, 2000)
    assert [type(value) for value in values] == [float, int]


def test_coverage_with_a_memo_equals_coverage_without_one():
    per_query = build_forest(MIXED_LOG, strategy="per_query")
    memo = Catalog().coverage_memo
    assert forest_covered_count(per_query, memo) == 2
    merged = per_query.merge_trees(0, 1)  # label equality merges 1000.0 with 1000
    assert forest_covered_count(merged, None) == 1
    assert forest_covered_count(merged, memo) == 1


@pytest.mark.parametrize("method", METHODS)
def test_a_log_mixing_literal_types_keeps_both_trees(method):
    result = generate_interface(MIXED_LOG, load_covid_catalog(), config(method))
    assert result.forest.tree_count == 2
    assert result.total_cost == pytest.approx(2.8)
    assert result.cost.expressiveness == 0.0


def test_similarity_still_matches_literals_by_value():
    """Clustering and merge eligibility compare labels with ``==``, like ``merge_nodes``."""
    query = "SELECT date, cases FROM covid_cases WHERE cases > {} AND deaths < {}"
    integral = parse_select(query.format(1000, 1))
    mixed = parse_select(query.format("1000.0", "TRUE"))  # types mixed at two positions
    assert tree_signature(integral) != tree_signature(mixed)
    assert structural_similarity(integral, mixed) == 1.0
    # The Literal(1.0) of one query still matches the Literal(1) of the other
    # at a different position: 4 shared subtrees instead of 3.
    other = parse_select("SELECT date FROM covid_cases WHERE state = 1.0")
    assert structural_similarity(integral, other) == pytest.approx(2 * 4 / (13 + 7))
    forest = build_forest([query.format(1000, 1), query.format("1000.0", 1), query.format(2000, 1)])
    assert forest.members == [[0, 1, 2]]


def test_profile_views_count_their_own_traffic_and_remap_once_per_tree():
    schemas = {"t": Catalog().create_table("t", ["a", "x", "y"], [[1, 1, 2]]).schema()}
    store = SharedLruDict(8)
    first = TreeProfileCache(store=store)
    second = TreeProfileCache(store=store)
    original = literal_choices("p1", "q1")
    first.put(original, tree_profile(original, 0, schemas))
    replay = literal_choices("p2", "q2")
    remapped = second.get(replay)
    assert [context.choice_id for context in remapped.choices] == ["p2", "q2"]
    assert second.get(replay) is remapped  # the identity path keeps the remap
    assert (first.hits, first.misses, second.hits, second.misses) == (0, 0, 2, 0)
    assert second.get(literal_choices("s", "s")) is None
    assert (second.hits, second.misses) == (2, 1)


# --------------------------------------------------------------------------- #
# Warm equals cold
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def cold(bases):
    """Per (log, method): the outcome on a fresh catalog; plus every tree the searches evaluated."""
    outcomes: dict[tuple[str, str], tuple] = {}
    visited: dict[int, SqlNode] = {}
    evaluate = SearchSpace.evaluate

    def recording(self, forest, *args, **kwargs):
        for tree in forest.trees:
            visited.setdefault(id(tree), tree)
        return evaluate(self, forest, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SearchSpace, "evaluate", recording)
        for name, (dataset, log) in LOGS.items():
            for method in METHODS:
                result = generate_interface(log, fresh_catalog(bases[dataset]), config(method))
                outcomes[name, method] = outcome(result)
    return outcomes, list(visited.values())


def warm_up(run, log: list[str], method: str) -> None:
    """Every shorter prefix, the reversed log and the int/float twin log."""
    for length in range(1, len(log)):
        run(log[:length], config(method))
    run(log[::-1], config(method))
    run([twin(sql) for sql in log], config(method))


def assert_bounded(caches) -> None:
    for name, cache in caches.caches().items():
        assert len(cache) <= cache.capacity, name


@pytest.mark.parametrize("method", METHODS)
def test_a_warm_catalog_generates_what_a_fresh_one_does(bases, cold, method):
    outcomes, _ = cold
    warm = {dataset: fresh_catalog(base) for dataset, base in bases.items()}
    for name, (dataset, log) in LOGS.items():
        catalog = warm[dataset]
        warm_up(lambda queries, conf: generate_interface(queries, catalog, conf), log, method)
        assert outcome(generate_interface(log, catalog, config(method))) == outcomes[name, method], name
        pinned = catalog.snapshot()
        assert outcome(generate_interface(log, pinned, config(method))) == outcomes[name, method], name
    for catalog in warm.values():
        caches = catalog.structure_caches
        assert_bounded(caches)
        assert all(len(cache) > 0 for cache in caches.caches().values())
        assert caches.profiles.hits > 0 and caches.charts.hits > 0
        catalog.clear_caches()
        assert all(len(cache) == 0 for cache in caches.caches().values())


def test_the_worker_path_generates_what_a_fresh_catalog_does(bases, cold):
    outcomes, _ = cold
    state = _WorkerState()
    for name, (dataset, log) in LOGS.items():
        base = bases[dataset]
        key = (base.catalog_id, base.data_version())
        snapshot = state.lookup(key) or state.admit(key, pickle.dumps(base.snapshot()))
        assert snapshot.structure_caches is state.structure_caches
        for method in METHODS:
            warm_up(lambda queries, conf: _run_task("generate", snapshot, (queries, conf)), log, method)
            result = _run_task("generate", snapshot, (log, config(method)))
            assert outcome(result) == outcomes[name, method], f"{name}/{method}"
    assert state.structure_caches is not bases["covid"].structure_caches
    assert_bounded(state.structure_caches)


def search_space(catalog, log: list[str]) -> SearchSpace:
    """A search that keeps every structure cache in ``catalog``'s, as generation does."""
    return SearchSpace(
        queries=log,
        table_schemas=catalog.schemas(),
        mapping_config=MappingConfig(),
        cost_model=CostModel(caches=catalog.structure_caches),
        catalog=catalog,
    )


def facts(evaluation) -> tuple:
    return evaluation.cost.as_dict(), evaluation.interface.fingerprint()


@pytest.fixture(scope="module")
def warmed(bases) -> dict[str, Catalog]:
    """Per log: a catalog that ran ``warm_up`` under mcts."""
    catalogs = {}
    for name, (dataset, log) in LOGS.items():
        catalog = catalogs[name] = fresh_catalog(bases[dataset])
        warm_up(lambda queries, conf: generate_interface(queries, catalog, conf), log, "mcts")
    return catalogs


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(LOGS))
def test_each_evaluation_on_a_warm_catalog_matches_a_fresh_catalog(bases, warmed, name, seed):
    """Random action walks: cost and interface at every step."""
    dataset, log = LOGS[name]
    warm = warmed[name]
    caches = warm.structure_caches
    hits_before = {cache: getattr(caches, cache).hits for cache in ("profiles", "charts")}
    space = search_space(warm, log)
    rng = random.Random(seed)
    forest = space.initial_state
    steps = 0
    for _ in range(5):
        actions = space.actions(forest)
        if not actions:
            break
        action = rng.choice(actions)
        forest = space.apply(forest, action)
        space._cache.clear()  # evaluate afresh, through the warm structure caches
        incremental = space.evaluate(forest, changed=action.touched)
        scratch = search_space(fresh_catalog(bases[dataset]), log).evaluate(forest)
        assert facts(incremental) == facts(scratch), f"{name}, seed {seed}, step {steps}"
        steps += 1
    assert steps > 0
    for cache, hits in hits_before.items():
        assert getattr(caches, cache).hits > hits, cache  # the warm catalog answered


def test_concurrent_generations_on_one_catalog_match_serial_ones(bases):
    jobs = [
        (covid_query_log()[:length], PipelineConfig(method=method, seed=length))
        for length in (3, 4, 5, 6)
        for method in ("greedy", "mcts")
    ]
    serial = [
        outcome(generate_interface(log, fresh_catalog(bases["covid"]), conf)) for log, conf in jobs
    ]
    shared = fresh_catalog(bases["covid"])
    results: list[tuple | None] = [None] * len(jobs)
    errors: list[BaseException] = []

    def run(index: int) -> None:
        try:
            log, conf = jobs[index]
            generate_interface(log[::-1], shared, conf)
            results[index] = outcome(generate_interface(log, shared, conf))
        except BaseException as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(index,)) for index in range(len(jobs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert results == serial
    assert_bounded(shared.structure_caches)


# --------------------------------------------------------------------------- #
# One-pass choice contexts against the per-choice helpers they replaced
# --------------------------------------------------------------------------- #


def oracle_clause(root: Select, target: ChoiceNode) -> str:
    """The clause of the nearest enclosing SELECT that contains ``target``."""
    owner = root
    for node in root.walk():
        if isinstance(node, Select) and any(descendant is target for descendant in node.walk()):
            owner = node
    slots: list[tuple[str, list[SqlNode]]] = [
        ("select", list(owner.select_items)),
        ("from", [owner.from_clause] if owner.from_clause is not None else []),
        ("where", [owner.where] if owner.where is not None else []),
        ("group_by", list(owner.group_by)),
        ("having", [owner.having] if owner.having is not None else []),
        ("order_by", list(owner.order_by)),
        ("cte", list(owner.ctes)),
    ]
    for clause, nodes in slots:
        for node in nodes:
            if node is target or any(descendant is target for descendant in node.walk()):
                return clause
    return "select"


def oracle_comparison(tree: SqlNode, target: ChoiceNode) -> tuple:
    """(attribute, operator, range position) of the comparison enclosing ``target``."""
    for node in tree.walk():
        if isinstance(node, BinaryOp) and node.op in ("=", "<>", "<", "<=", ">", ">="):
            if node.right is target and isinstance(node.left, ColumnRef):
                return node.left.name, node.op, None
            if node.left is target and isinstance(node.right, ColumnRef):
                return node.right.name, node.op, None
        if isinstance(node, BetweenOp) and isinstance(node.expr, ColumnRef):
            if node.low is target:
                return node.expr.name, "between", "low"
            if node.high is target:
                return node.expr.name, "between", "high"
        if isinstance(node, (InList, InSubquery)) and isinstance(node.expr, ColumnRef):
            if any(child is target for child in node.children()):
                return node.expr.name, "in", None
        if isinstance(node, FunctionCall):
            if any(arg is target for arg in node.args):
                return None, node.lower_name, None
    return None, None, None


def oracle_partners(tree: SqlNode) -> dict[str, tuple[str, str]]:
    """Pair up low/high choices of the same BETWEEN: choice_id -> (partner, position)."""
    partners: dict[str, tuple[str, str]] = {}
    for node in tree.walk():
        if isinstance(node, BetweenOp) and isinstance(node.low, ChoiceNode) and isinstance(node.high, ChoiceNode):
            partners[node.low.choice_id] = (node.high.choice_id, "low")
            partners[node.high.choice_id] = (node.low.choice_id, "high")
    return partners


def oracle_contexts(tree: SqlNode) -> list[ChoiceContext]:
    """``choice_contexts`` as it was: one re-walk of the tree per helper per choice."""
    choices = collect_choice_nodes(tree)
    root = tree if isinstance(tree, Select) else None
    raw = {choice.choice_id: oracle_comparison(tree, choice) for choice in choices}
    partners = oracle_partners(tree)
    contexts = []
    for choice in choices:
        attribute, operator, position = raw[choice.choice_id]
        partner_id, partner_position = partners.get(choice.choice_id, (None, None))
        alternative_kind = _alternative_kind(choice)
        contexts.append(
            ChoiceContext(
                choice_id=choice.choice_id,
                kind="opt" if isinstance(choice, OptNode) else "any",
                cardinality=2 if isinstance(choice, OptNode) else choice.cardinality,
                alternative_kind=alternative_kind,
                clause=oracle_clause(root, choice) if root is not None else "select",
                target_attribute=attribute,
                comparison_op=operator,
                literal_values=_literal_values(choice),
                range_partner=partner_id,
                range_position=partner_position or position,
                wraps_subquery=alternative_kind == "subquery",
                wraps_predicate=alternative_kind in ("predicate", "subquery"),
            )
        )
    return contexts


def test_one_pass_contexts_match_the_helpers_on_every_searched_tree(cold):
    _, trees = cold
    with_choices = [tree for tree in trees if collect_choice_nodes(tree)]
    assert len(with_choices) > 200
    for tree in trees:
        assert choice_contexts(tree) == oracle_contexts(tree)


def _any(*alternatives: SqlNode, choice_id: str = "") -> AnyNode:
    return AnyNode(alternatives=list(alternatives), choice_id=choice_id)


def _select(where: SqlNode | None = None, **fields) -> Select:
    fields.setdefault("select_items", [SelectItem(expr=ColumnRef(name="a"))])
    fields.setdefault("from_clause", TableRef("t"))
    return Select(where=where, **fields)


def _hand_built() -> dict[str, SqlNode]:
    shared = _any(Literal(1), Literal(2), choice_id="shared")
    inner = _select(where=BinaryOp(op=">", left=ColumnRef(name="y"), right=shared))
    return {
        "one object at two positions": _select(
            where=BinaryOp(op="=", left=ColumnRef(name="x"), right=shared),
            select_items=[SelectItem(expr=FunctionCall(name="abs", args=[shared]))],
            from_clause=SubqueryRef(query=inner, alias="s"),
            order_by=[],
        ),
        "a CTE's query": _select(
            from_clause=TableRef("c"),
            ctes=[CommonTableExpr(name="c", query=_any(_select(), _select(where=ColumnRef(name="b"))))],
        ),
        "BETWEEN over two ANY bounds": _select(
            where=BetweenOp(
                expr=ColumnRef(name="x"),
                low=_any(Literal(1), Literal(2)),
                high=_any(Literal(8), Literal(9)),
            )
        ),
        "choices in function arguments": _select(
            select_items=[
                SelectItem(
                    expr=FunctionCall(name="strftime", args=[_any(Literal("%Y"), Literal("%m")), ColumnRef("d")])
                )
            ],
            where=InList(expr=ColumnRef(name="x"), items=[_any(Literal(1), Literal(2)), Literal(3)]),
        ),
        "a non-SELECT root": SetOperation(
            op="UNION",
            left=_select(where=BinaryOp(op="<", left=_any(Literal(1), Literal(2)), right=ColumnRef(name="x"))),
            right=_select(where=OptNode(child=BinaryOp(op="=", left=ColumnRef(name="y"), right=Literal(3)))),
        ),
    }


@pytest.mark.parametrize("case", sorted(_hand_built()))
def test_one_pass_contexts_match_the_helpers_on_hand_built_trees(case):
    tree = _hand_built()[case]
    contexts = choice_contexts(tree)
    assert contexts and contexts == oracle_contexts(tree)
