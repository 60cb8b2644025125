"""Differential tests for the target-directed coverage check.

``cost.expressiveness.tree_covered_count`` answers "can this Difftree express
that query?" by narrowing every choice node's domain toward the target,
enumerating only the narrowed product and verifying each binding with
``instantiate`` + ``canonical_sql``.  Verification never invents a match, so
the risk is an unsound narrowing that hides one.  This suite keeps the
exhaustive check as an oracle — enumerate *every* binding, instantiate,
canonicalize, test set membership — and asserts the two agree on:

* (a) every (tree, member query) pair that seeded mcts / greedy / beam
  searches visit over the five paper logs and the 10–14-query
  ``synthetic_covid_log`` logs;
* (b) hand-picked fall-out shapes: OPT inside an AND chain, OPT around a
  SELECT item, ANY over ORDER BY items (instantiation drops non-``OrderItem``
  entries), ANY over FROM tables with qualified columns, literal alternatives
  ``1`` / ``1.0`` / ``TRUE``, bindings that raise ``BindingError``, and trees
  at exactly 256 and 257 bindings (the enumeration cap);
* (c) a hypothesis property over small random logs, checking every tree of
  randomly merged and transformed forests against *every* query of the log,
  so uncovered pairs are exercised as much as covered ones.

Seed policy mirrors the other differential suites: searches and the
property are seeded from ``COVERAGE_DIFFERENTIAL_SEED`` (default 20261017),
and ``DIFFERENTIAL_QUERY_COUNT`` (default 200 in tier-1; CI runs 600 per push
and 5000 nightly) sets the budget.  At 600 and above the searches also run
greedy and beam on the synthetic logs, with one more search seed per further
600; the property runs ``budget // 4`` examples.  A mismatch names the tree,
the query and both answers, and ends with a reproduce line::

    COVERAGE_DIFFERENTIAL_SEED=<seed> PYTHONPATH=src python -m pytest tests/test_coverage_differential.py
"""

from __future__ import annotations

import os
import random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis import seed as hypothesis_seed

import repro.cost.expressiveness as expressiveness
from repro.cost.expressiveness import BINDING_SPACE_CAP, tree_covered_count
from repro.datasets import (
    covid_query_log,
    covid_region_variant_queries,
    load_covid_catalog,
    load_sdss_catalog,
    load_sp500_catalog,
    sdss_extended_query_log,
    sp500_query_log,
    sp500_window_query_log,
    synthetic_covid_log,
)
from repro.difftree.builder import build_forest
from repro.difftree.canonical import canonical_sql, canonicalize
from repro.difftree.instantiate import (
    binding_space_size,
    enumerate_bindings,
    instantiate,
    narrowed_domains,
)
from repro.difftree.nodes import AnyNode, OptNode
from repro.difftree.signatures import structural_signature
from repro.difftree.transformations import applicable_transformations
from repro.errors import BindingError
from repro.pipeline import PipelineConfig, generate_interface
from repro.sql.ast_nodes import (
    BinaryOp,
    ColumnRef,
    Join,
    Literal,
    OrderItem,
    ScalarSubquery,
    Select,
    SelectItem,
    SetOperation,
    TableRef,
)
from repro.sql.parser import parse_select
from repro.sql.printer import to_sql

SEED = int(os.environ.get("COVERAGE_DIFFERENTIAL_SEED", "20261017"))
BUDGET = int(os.environ.get("DIFFERENTIAL_QUERY_COUNT", "200"))
REPRODUCE = (
    f"reproduce: COVERAGE_DIFFERENTIAL_SEED={SEED} DIFFERENTIAL_QUERY_COUNT={BUDGET} "
    "PYTHONPATH=src python -m pytest tests/test_coverage_differential.py"
)

PAPER_LOGS = {
    "covid": ("covid", covid_query_log()),
    "covid_v3": ("covid", covid_query_log() + [covid_region_variant_queries()[1]]),
    "sdss_extended": ("sdss", sdss_extended_query_log()),
    "sp500": ("sp500", sp500_query_log()),
    "sp500_window": ("sp500", sp500_window_query_log()),
}
SYNTHETIC_SIZES = (10, 11, 12, 13, 14)
METHODS = ("mcts", "greedy", "beam")


# --------------------------------------------------------------------------- #
# The oracle and the comparison
# --------------------------------------------------------------------------- #


class ExhaustiveOracle:
    """Coverage by brute force: the canonical SQL of every binding's query.

    Candidate sets are cached per tree object, so the oracle answers for the
    exact tree it is given (no structural sharing of any kind).
    """

    def __init__(self) -> None:
        self._candidates: dict[int, tuple[object, frozenset[str] | None]] = {}

    def covered(self, tree, query) -> bool:
        entry = self._candidates.get(id(tree))
        if entry is None or entry[0] is not tree:
            entry = (tree, self._candidate_sqls(tree))
            self._candidates[id(tree)] = entry
        candidates = entry[1]
        return candidates is not None and canonical_sql(query) in candidates

    @staticmethod
    def _candidate_sqls(tree) -> frozenset[str] | None:
        if binding_space_size(tree) > BINDING_SPACE_CAP:
            return None
        rendered = set()
        for bindings in enumerate_bindings(tree):
            try:
                rendered.add(canonical_sql(instantiate(tree, bindings)))
            except Exception:  # noqa: BLE001 - the pre-narrowing check skipped these too
                continue
        return frozenset(rendered)


def narrowed_covered(tree, query) -> bool:
    """The production check on one pair, with no cache."""
    return tree_covered_count(tree, SimpleNamespace(queries=[query]), [0]) == 1


def describe(node) -> str:
    try:
        return to_sql(node)
    except Exception:  # noqa: BLE001 - choice nodes do not render as SQL
        return repr(node)[:600]


def mismatches(pairs, oracle: ExhaustiveOracle) -> list[str]:
    found = []
    for tree, query in pairs:
        expected = oracle.covered(tree, query)
        actual = narrowed_covered(tree, query)
        if actual != expected:
            found.append(
                f"oracle={expected} narrowed={actual}\n  tree:  {describe(tree)}\n  query: {to_sql(query)}"
            )
    return found


def assert_no_mismatch(pairs, oracle: ExhaustiveOracle) -> None:
    found = mismatches(pairs, oracle)
    assert not found, (
        f"{len(found)} of {len(pairs)} coverage answers differ from the exhaustive oracle:\n"
        + "\n".join(found[:5])
        + f"\n{REPRODUCE}"
    )


# --------------------------------------------------------------------------- #
# (a) every pair the searches visit
# --------------------------------------------------------------------------- #


def search_jobs():
    """(dataset, log, method, seed) for every search the budget pays for."""
    rng = random.Random(SEED)
    for _ in range(max(1, BUDGET // 600)):
        for dataset, log in PAPER_LOGS.values():
            for method in METHODS:
                yield dataset, log, method, rng.randrange(1 << 16)
        for size in SYNTHETIC_SIZES:
            for method in METHODS if BUDGET >= 600 else ("mcts",):
                yield "covid", synthetic_covid_log(size), method, rng.randrange(1 << 16)


@pytest.fixture(scope="module")
def searched_pairs():
    """Distinct (tree, member query) pairs the cost model checked during the searches."""
    catalogs = {"covid": load_covid_catalog(), "sdss": load_sdss_catalog(), "sp500": load_sp500_catalog()}
    pairs: dict[tuple, tuple] = {}
    original = expressiveness.tree_covered_count

    def recording(tree, forest, member_indices, cache=None):
        signature = structural_signature(tree)
        for index in member_indices:
            query = forest.queries[index]
            pairs.setdefault((signature, canonical_sql(query)), (tree, query))
        return original(tree, forest, member_indices, cache)

    # forest_covered_count looks tree_covered_count up in its module at call
    # time, so patching the module attribute sees every per-tree check.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expressiveness, "tree_covered_count", recording)
        for dataset, log, method, search_seed in search_jobs():
            generate_interface(list(log), catalogs[dataset], PipelineConfig(method=method, seed=search_seed))
    return list(pairs.values())


@pytest.fixture(scope="module")
def search_oracle():
    return ExhaustiveOracle()


def test_searched_pairs_match_the_oracle(searched_pairs, search_oracle):
    assert_no_mismatch(searched_pairs, search_oracle)


def test_searched_pairs_include_uncovered_ones(searched_pairs, search_oracle):
    """Sanity: the searches reach lossy trees, so both answers are exercised."""
    answers = {search_oracle.covered(tree, query) for tree, query in searched_pairs}
    assert len(searched_pairs) > 500
    assert answers == {True, False}


# --------------------------------------------------------------------------- #
# (b) hand-picked fall-out shapes
# --------------------------------------------------------------------------- #


def q(sql: str) -> Select:
    return canonicalize(parse_select(sql))


def col(name: str, table: str | None = None) -> ColumnRef:
    return ColumnRef(name=name, table=table)


def eq(left, right) -> BinaryOp:
    return BinaryOp(op="=", left=left, right=right)


def conj(*terms) -> BinaryOp:
    result = terms[0]
    for term in terms[1:]:
        result = BinaryOp(op="AND", left=result, right=term)
    return result


def select(items, table="t", **slots) -> Select:
    return Select(
        select_items=[
            item if isinstance(item, (SelectItem, AnyNode, OptNode)) else SelectItem(expr=item) for item in items
        ],
        from_clause=TableRef(table) if isinstance(table, str) else table,
        **slots,
    )


ONE = Literal(1)
A = col("a")

#: name -> (tree, [(target SQL, expected coverage)]).  The expectations pin
#: what the exhaustive oracle answers, so a shape cannot silently stop
#: exercising the case it was written for.
SHAPES = {
    "opt inside an AND chain": (
        select([A], where=conj(eq(col("x"), ONE), OptNode(child=eq(col("y"), Literal(2))), eq(col("z"), Literal(3)))),
        [
            ("SELECT a FROM t WHERE x = 1 AND y = 2 AND z = 3", True),
            ("SELECT a FROM t WHERE x = 1 AND z = 3", True),
            ("SELECT a FROM t WHERE x = 1", False),
            ("SELECT a FROM t WHERE y = 2 AND x = 1 AND z = 3", False),
        ],
    ),
    "every conjunct optional": (
        select([A], where=conj(OptNode(child=eq(col("x"), ONE)), OptNode(child=eq(col("y"), Literal(2))))),
        [
            ("SELECT a FROM t", True),
            ("SELECT a FROM t WHERE y = 2", True),
            ("SELECT a FROM t WHERE x = 1 AND y = 2", True),
            ("SELECT a FROM t WHERE x = 2", False),
        ],
    ),
    "opt around a select item": (
        select([A, OptNode(child=SelectItem(expr=col("b")))]),
        [
            ("SELECT a, b FROM t", True),
            ("SELECT a FROM t", True),
            ("SELECT b FROM t", False),
        ],
    ),
    "opt inside a select item": (
        select([A, SelectItem(expr=OptNode(child=col("b")), alias="bee")]),
        [
            ("SELECT a, b AS bee FROM t", True),
            ("SELECT a FROM t", True),
            ("SELECT a, b FROM t", False),
        ],
    ),
    "any over order by items": (
        select([A], order_by=[AnyNode(alternatives=[OrderItem(expr=col("x")), col("y")])]),
        [
            ("SELECT a FROM t ORDER BY x", True),
            # The ColumnRef alternative is not an OrderItem: instantiation
            # drops it, so the query without ORDER BY is expressible.
            ("SELECT a FROM t", True),
            ("SELECT a FROM t ORDER BY y", False),
        ],
    ),
    "opt over a non-order item in order by": (
        select([A], order_by=[OrderItem(expr=col("x")), OptNode(child=col("y"))]),
        [
            ("SELECT a FROM t ORDER BY x", True),
            ("SELECT a FROM t ORDER BY x, y", False),
        ],
    ),
    "any over from tables with qualified columns": (
        select(
            [col("a", "c")],
            table=AnyNode(alternatives=[TableRef("t", alias="c"), TableRef("u", alias="c")]),
            where=eq(col("x", "c"), ONE),
        ),
        [
            ("SELECT a FROM t WHERE x = 1", True),
            ("SELECT c.a FROM u c WHERE c.x = 1", True),
            ("SELECT a FROM v WHERE x = 1", False),
        ],
    ),
    "any over from items keeping qualifiers": (
        select(
            [col("a", "c")],
            table=AnyNode(
                alternatives=[
                    TableRef("t", alias="c"),
                    Join(
                        left=TableRef("t", alias="c"),
                        right=TableRef("u", alias="d"),
                        condition=eq(col("k", "c"), col("k", "d")),
                    ),
                ]
            ),
        ),
        [
            ("SELECT a FROM t", True),
            ("SELECT c.a FROM t c JOIN u d ON c.k = d.k", True),
            ("SELECT a FROM t c JOIN u d ON c.k = d.k", False),
        ],
    ),
    "literal alternatives 1, 1.0 and TRUE": (
        select([A], where=eq(col("x"), AnyNode(alternatives=[Literal(1), Literal(1.0), Literal(True)]))),
        [
            ("SELECT a FROM t WHERE x = 1", True),
            ("SELECT a FROM t WHERE x = 1.0", True),
            ("SELECT a FROM t WHERE x = TRUE", True),
            ("SELECT a FROM t WHERE x = 2", False),
            ("SELECT a FROM t WHERE x = '1'", False),
        ],
    ),
    "bindings raising BindingError: every select item optional": (
        select([OptNode(child=SelectItem(expr=A)), OptNode(child=SelectItem(expr=col("b")))]),
        [
            ("SELECT a FROM t", True),
            ("SELECT a, b FROM t", True),
            ("SELECT c FROM t", False),
        ],
    ),
    "bindings raising BindingError: a dead subquery": (
        # With the second OPT off the comparison vanishes, but its subquery
        # is instantiated first: switching the first OPT off as well empties
        # that subquery's SELECT list and raises.  Only (on, off) yields the
        # target, although ``b`` appears nowhere in it.
        select(
            [A],
            where=conj(
                eq(
                    ScalarSubquery(select([SelectItem(expr=OptNode(child=col("b")))], table="u")),
                    OptNode(child=Literal(5)),
                ),
                eq(col("x"), ONE),
            ),
        ),
        [
            ("SELECT a FROM t WHERE x = 1", True),
            ("SELECT a FROM t WHERE (SELECT b FROM u) = 5 AND x = 1", True),
            ("SELECT a FROM t WHERE x = 2", False),
        ],
    ),
    "bindings raising BindingError: optional root": (
        OptNode(child=select([A])),
        [("SELECT a FROM t", True), ("SELECT b FROM t", False)],
    ),
    "mixed any: choice-free and choice-carrying alternatives": (
        select(
            [A],
            where=AnyNode(
                alternatives=[
                    eq(col("x"), ONE),
                    conj(eq(col("y"), Literal(2)), OptNode(child=eq(col("z"), Literal(3)))),
                ]
            ),
        ),
        [
            ("SELECT a FROM t WHERE x = 1", True),
            ("SELECT a FROM t WHERE y = 2", True),
            ("SELECT a FROM t WHERE y = 2 AND z = 3", True),
            ("SELECT a FROM t WHERE z = 3", False),
        ],
    ),
    "any whose alternative is an AND chain": (
        select(
            [A],
            where=conj(
                AnyNode(alternatives=[conj(eq(col("x"), ONE), eq(col("y"), Literal(2))), eq(col("z"), Literal(3))]),
                eq(col("w"), Literal(4)),
            ),
        ),
        [
            ("SELECT a FROM t WHERE x = 1 AND y = 2 AND w = 4", True),
            ("SELECT a FROM t WHERE z = 3 AND w = 4", True),
            ("SELECT a FROM t WHERE x = 1 AND w = 4", False),
        ],
    ),
    "any in group by and select list": (
        select(
            [AnyNode(alternatives=[SelectItem(expr=col("p")), SelectItem(expr=col("q"))]), SelectItem(expr=col("n"))],
            group_by=[AnyNode(alternatives=[col("p"), col("q")])],
        ),
        [
            ("SELECT p, n FROM t GROUP BY p", True),
            ("SELECT p, n FROM t GROUP BY q", True),
            ("SELECT r, n FROM t GROUP BY p", False),
        ],
    ),
}

_SHARED = AnyNode(alternatives=[Literal(1), Literal(2)])
SHAPES["one choice node reached twice"] = (
    # Both positions bind the same choice id, so they always agree.
    select([A], where=conj(eq(col("x"), _SHARED), eq(col("y"), _SHARED))),
    [
        ("SELECT a FROM t WHERE x = 1 AND y = 1", True),
        ("SELECT a FROM t WHERE x = 2 AND y = 2", True),
        ("SELECT a FROM t WHERE x = 1 AND y = 2", False),
    ],
)
SHAPES["two choice nodes sharing one id"] = (
    # One binding drives both nodes; the second is dead when its OPT is off,
    # so narrowing it alone would pin the shared id to the wrong value.
    select(
        [A],
        where=conj(
            eq(col("x"), AnyNode(alternatives=[Literal(1), Literal(2)], choice_id="shared")),
            OptNode(child=eq(col("y"), AnyNode(alternatives=[Literal(3), Literal(4)], choice_id="shared"))),
        ),
    ),
    [
        ("SELECT a FROM t WHERE x = 2", True),
        ("SELECT a FROM t WHERE x = 2 AND y = 4", True),
        ("SELECT a FROM t WHERE x = 2 AND y = 3", False),
    ],
)


def _literal_any(count: int) -> Select:
    return select([A], where=eq(col("x"), AnyNode(alternatives=[Literal(value) for value in range(count)])))


def _opt_chain(count: int) -> Select:
    return select([A], where=conj(*(OptNode(child=eq(col(f"c{index}"), ONE)) for index in range(count))))


SHAPES["exactly 256 bindings (one ANY)"] = (_literal_any(256), [("SELECT a FROM t WHERE x = 255", True)])
SHAPES["257 bindings (one ANY) exceed the cap"] = (_literal_any(257), [("SELECT a FROM t WHERE x = 255", False)])
SHAPES["exactly 256 bindings (eight OPTs)"] = (_opt_chain(8), [("SELECT a FROM t WHERE c3 = 1 AND c7 = 1", True)])


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_fall_out_shape_matches_the_oracle(name):
    tree, targets = SHAPES[name]
    oracle = ExhaustiveOracle()
    for sql, expected in targets:
        query = q(sql)
        assert oracle.covered(tree, query) is expected, f"{name}: oracle answer for {sql!r} moved"
        assert narrowed_covered(tree, query) is expected, f"{name}: narrowed answer for {sql!r}\n{REPRODUCE}"


def test_set_operation_root():
    arm = select([A], where=eq(col("x"), AnyNode(alternatives=[Literal(1), Literal(2)])))
    other = select([col("b")], table="u", where=OptNode(child=eq(col("y"), ONE)))
    tree = SetOperation(op="UNION", left=arm, right=other)
    oracle = ExhaustiveOracle()
    targets = [
        SetOperation(op="UNION", left=q("SELECT a FROM t WHERE x = 2"), right=q("SELECT b FROM u")),
        SetOperation(op="UNION", left=q("SELECT a FROM t WHERE x = 1"), right=q("SELECT b FROM u WHERE y = 1")),
        SetOperation(op="UNION", left=q("SELECT a FROM t WHERE x = 3"), right=q("SELECT b FROM u")),
    ]
    answers = [oracle.covered(tree, target) for target in targets]
    assert answers == [True, True, False]
    assert [narrowed_covered(tree, target) for target in targets] == answers


def test_the_fall_out_shapes_really_raise():
    """The BindingError shapes must keep raising for some binding, or they test nothing."""
    for name in (
        "bindings raising BindingError: every select item optional",
        "bindings raising BindingError: a dead subquery",
    ):
        tree, _ = SHAPES[name]
        raised = 0
        for bindings in enumerate_bindings(tree):
            try:
                instantiate(tree, bindings)
            except BindingError:
                raised += 1
        assert raised, name


def test_narrowing_enumerates_fewer_bindings():
    """The point of narrowing: a literal slider is settled by one binding."""
    tree = _literal_any(200)
    domains = narrowed_domains(tree, q("SELECT a FROM t WHERE x = 150"))
    assert list(domains.values()) == [[150]]


# --------------------------------------------------------------------------- #
# (c) hypothesis: small random logs
# --------------------------------------------------------------------------- #

COLUMNS = ("p", "a", "b")
literal_sql = st.sampled_from(["1", "2", "1.0", "2.5", "TRUE", "FALSE", "'x'", "'y'", "-3"])


@st.composite
def query_sql(draw) -> str:
    table, alias = draw(st.sampled_from([("t", None), ("t", "r"), ("u", None)]))

    def column(name: str) -> str:
        return f"{alias}.{name}" if alias and draw(st.booleans()) else name

    key = draw(st.sampled_from(COLUMNS))
    aggregate = draw(st.booleans())
    items = [column(key)]
    if aggregate:
        items.append(draw(st.sampled_from(["count(*)", f"sum({column('b')})", f"avg({column('a')}) AS m"])))
    elif draw(st.booleans()):
        items.append(column(draw(st.sampled_from(COLUMNS))))
    sql = f"SELECT {', '.join(items)} FROM {table}" + (f" {alias}" if alias else "")
    conjuncts = draw(
        st.lists(
            st.builds(
                lambda name, op, value: f"{column(name)} {op} {value}",
                st.sampled_from(COLUMNS),
                st.sampled_from(["=", "<", ">="]),
                literal_sql,
            ),
            max_size=3,
        )
    )
    if conjuncts:
        sql += " WHERE " + " AND ".join(conjuncts)
    if aggregate:
        sql += f" GROUP BY {column(key)}"
    if draw(st.booleans()):
        sql += f" ORDER BY {column(key)}" + draw(st.sampled_from(["", " DESC"]))
    return sql


@settings(
    max_examples=max(10, BUDGET // 4),
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@hypothesis_seed(SEED)
@given(st.lists(query_sql(), min_size=2, max_size=4), st.randoms(use_true_random=False))
def test_random_logs_match_the_oracle(log, rng):
    forest = build_forest(log, strategy=rng.choice(["clustered", "per_query", "merged"]))
    # A short random walk of merges and transformations, as a search takes.
    for _ in range(rng.randrange(4)):
        transformations = [
            (index, transformation)
            for index, tree in enumerate(forest.trees)
            for transformation in applicable_transformations(tree)
        ]
        if forest.tree_count > 1 and (not transformations or rng.random() < 0.6):
            first, second = rng.sample(range(forest.tree_count), 2)
            forest = forest.merge_trees(first, second)
        elif transformations:
            index, transformation = rng.choice(transformations)
            forest = forest.replace_tree(index, transformation(forest.trees[index]))
    pairs = [(tree, query) for tree in forest.trees for query in forest.queries]
    assert_no_mismatch(pairs, ExhaustiveOracle())

