"""The catalog-scoped coverage memo: exact keys, lifetime and warm-vs-cold identity.

Coverage verdicts ("can this Difftree express that query?") depend on the
tree's structure and the query text only, so the catalog keeps them in one
bounded, thread-safe memo that outlives a single ``generate_interface`` call:

* the key is ``(structural signature, choice-id sharing pattern, canonical
  target SQL)`` — the sharing pattern keeps two trees apart that differ only
  in which choice nodes share an id;
* a catalog and all its snapshots share one memo; ``clear_caches()`` empties
  it; an unpickled snapshot starts with an empty one, and a process-tier
  worker attaches one memo per process;
* a generation on a warm catalog produces exactly what a fresh catalog
  produces — same interface fingerprint, total cost and evaluation count.
"""

from __future__ import annotations

import importlib
import pickle
import sys
import threading
from types import SimpleNamespace

import pytest

from repro.cost.expressiveness import tree_covered_count
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
    synthetic_covid_log,
)
from repro.difftree.nodes import AnyNode
from repro.difftree.signatures import (
    COVERAGE_MEMO_CAPACITY,
    LruDict,
    SharedLruDict,
    StructureCaches,
    choice_sharing,
    structural_signature,
)
from repro.engine.catalog import Catalog
from repro.pipeline import PipelineConfig, generate_interface
from repro.serving.workers import _WorkerState
from repro.sql.ast_nodes import BinaryOp, ColumnRef, Literal, Select, SelectItem, TableRef
from repro.sql.parser import parse_select

#: The module object (``repro.difftree.instantiate`` as an attribute is the function).
INSTANTIATE = importlib.import_module("repro.difftree.instantiate")

PAPER_LOGS = {
    "covid": ("covid", covid_query_log()),
    "covid_v3": ("covid", covid_query_log() + [covid_region_variant_queries()[1]]),
    "sdss_extended": ("sdss", sdss_extended_query_log()),
    "sp500": ("sp500", sp500_query_log()),
    "sp500_window": ("sp500", sp500_window_query_log()),
}
METHODS = ("mcts", "greedy", "beam")
LOADERS = {"covid": load_covid_catalog, "sdss": load_sdss_catalog, "sp500": load_sp500_catalog}


def two_literal_choices(first_id: str, second_id: str) -> Select:
    """``SELECT a FROM t WHERE x = ANY(1, 2) AND y = ANY(1, 2)`` with the given choice ids."""

    def compare(column: str, choice_id: str) -> BinaryOp:
        choice = AnyNode(alternatives=[Literal(1), Literal(2)], choice_id=choice_id)
        return BinaryOp(op="=", left=ColumnRef(name=column), right=choice)

    return Select(
        select_items=[SelectItem(expr=ColumnRef(name="a"))],
        from_clause=TableRef("t"),
        where=BinaryOp(op="AND", left=compare("x", first_id), right=compare("y", second_id)),
    )


@pytest.fixture()
def count_bindings(monkeypatch):
    """Count every binding the coverage check enumerates (it looks the function up per call)."""
    counted = [0]
    original = INSTANTIATE.enumerate_bindings

    def counting(*args, **kwargs):
        for bindings in original(*args, **kwargs):
            counted[0] += 1
            yield bindings

    monkeypatch.setattr(INSTANTIATE, "enumerate_bindings", counting)
    return counted


# --------------------------------------------------------------------------- #
# The exact key
# --------------------------------------------------------------------------- #


def test_sharing_pattern_is_none_unless_ids_repeat():
    assert choice_sharing(two_literal_choices("p", "q")) is None
    assert choice_sharing(two_literal_choices("s", "s")) == (0, 0)
    assert choice_sharing(parse_select("SELECT a FROM t")) is None


@pytest.mark.parametrize("shared_first", [True, False], ids=["shared-first", "distinct-first"])
def test_trees_differing_only_in_id_sharing_get_their_own_verdicts(shared_first):
    shared = two_literal_choices("s", "s")
    distinct = two_literal_choices("p", "q")
    # Indistinguishable without the sharing pattern.
    assert structural_signature(shared) == structural_signature(distinct)
    forest = SimpleNamespace(queries=[parse_select("SELECT a FROM t WHERE x = 1 AND y = 2")])
    # Uncached: one binding drives both shared nodes, so x = 1 AND y = 2 is out of reach.
    assert tree_covered_count(shared, forest, [0]) == 0
    assert tree_covered_count(distinct, forest, [0]) == 1
    memo = Catalog().coverage_memo
    order = [(shared, 0), (distinct, 1)] if shared_first else [(distinct, 1), (shared, 0)]
    for tree, expected in order + order:
        assert tree_covered_count(tree, forest, [0], memo) == expected
    assert len(memo) == 2


# --------------------------------------------------------------------------- #
# Lifetime
# --------------------------------------------------------------------------- #


def test_catalog_and_its_snapshots_share_one_memo():
    catalog = load_covid_catalog()
    memo = catalog.coverage_memo
    assert catalog.snapshot().coverage_memo is memo
    memo.put(("structure", None, "SELECT 1"), True)
    # Writers move the data version; verdicts depend on structure only.
    catalog.append_rows("covid_cases", [("NY", "2021-12-05", 1)])
    catalog.create_table("extra", ["k"], [[1]])
    catalog.drop("extra")
    snapshot = catalog.snapshot()
    assert snapshot.coverage_memo is memo
    assert memo.get(("structure", None, "SELECT 1")) is True


def test_second_identical_generation_enumerates_no_bindings(count_bindings):
    catalog = load_covid_catalog()
    config = PipelineConfig(method="mcts", seed=3)
    first = generate_interface(covid_query_log(), catalog, config)
    assert count_bindings[0] > 0
    assert len(catalog.coverage_memo) > 0
    count_bindings[0] = 0
    second = generate_interface(covid_query_log(), catalog, config)
    assert count_bindings[0] == 0
    assert second.interface.fingerprint() == first.interface.fingerprint()
    assert second.total_cost == first.total_cost


def test_generation_on_a_snapshot_fills_the_catalog_memo(count_bindings):
    catalog = load_covid_catalog()
    config = PipelineConfig(method="greedy", seed=1)
    generate_interface(covid_query_log()[:3], catalog.snapshot(), config)
    entries = len(catalog.coverage_memo)
    assert entries > 0
    count_bindings[0] = 0
    generate_interface(covid_query_log()[:3], catalog, config)
    assert count_bindings[0] == 0
    assert len(catalog.coverage_memo) == entries


def test_clear_caches_empties_the_memo(count_bindings):
    catalog = load_covid_catalog()
    config = PipelineConfig(method="greedy", seed=1)
    generate_interface(covid_query_log()[:3], catalog, config)
    assert len(catalog.coverage_memo) > 0
    catalog.clear_caches()
    assert len(catalog.coverage_memo) == 0
    count_bindings[0] = 0
    generate_interface(covid_query_log()[:3], catalog, config)
    assert count_bindings[0] > 0


def test_unpickled_snapshot_starts_with_an_empty_memo():
    catalog = load_covid_catalog()
    generate_interface(covid_query_log()[:2], catalog, PipelineConfig(method="greedy"))
    snapshot = catalog.snapshot()
    assert len(snapshot.coverage_memo) > 0
    copy = pickle.loads(pickle.dumps(snapshot))
    assert copy.coverage_memo is not catalog.coverage_memo
    assert isinstance(copy.coverage_memo, SharedLruDict)
    assert len(copy.coverage_memo) == 0


def test_worker_attaches_one_memo_per_process():
    catalog = load_covid_catalog()
    state = _WorkerState()
    first = state.admit((catalog.catalog_id, catalog.data_version()), pickle.dumps(catalog.snapshot()))
    catalog.append_rows("covid_cases", [("NY", "2021-12-05", 1)])
    second = state.admit((catalog.catalog_id, catalog.data_version()), pickle.dumps(catalog.snapshot()))
    assert first.coverage_memo is state.structure_caches.coverage
    assert second.coverage_memo is state.structure_caches.coverage
    assert state.structure_caches.coverage is not catalog.coverage_memo


def test_memo_capacity_is_bounded():
    catalog = Catalog()
    memo = catalog.coverage_memo
    assert memo.capacity == COVERAGE_MEMO_CAPACITY == 4096
    for index in range(COVERAGE_MEMO_CAPACITY + 10):
        memo.put(("structure", None, f"SELECT {index}"), index % 2 == 0)
    assert len(memo) == COVERAGE_MEMO_CAPACITY
    assert memo.stats()["evictions"] == 10
    assert memo.get(("structure", None, "SELECT 0")) is None  # oldest evicted first
    assert memo.get(("structure", None, f"SELECT {COVERAGE_MEMO_CAPACITY + 9}")) is False


def test_shared_memo_survives_concurrent_use():
    """More threads than cores, a tiny switch interval: no error, no lost count."""
    memo = SharedLruDict(64)
    errors: list[BaseException] = []
    threads_count, gets_per_thread = 6, 20000

    def hammer(offset: int) -> None:
        try:
            for index in range(gets_per_thread):
                key = (offset + index) % 200
                if memo.get(key) is None:
                    memo.put(key, True)
                if index % 500 == 0:
                    memo.stats()
                    memo.clear()
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(offset * 37,)) for offset in range(threads_count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(memo) <= 64
    # Every get counted exactly once: an unlocked ``+=`` would lose some.
    assert memo.hits + memo.misses == threads_count * gets_per_thread


def test_cost_model_without_a_memo_keeps_a_private_one():
    first, second = CostModel(), CostModel()
    assert isinstance(first._coverage_cache, LruDict)
    assert first._coverage_cache is not second._coverage_cache
    assert first._coverage_cache.capacity == COVERAGE_MEMO_CAPACITY
    caches = StructureCaches(SharedLruDict)
    assert CostModel(caches=caches)._coverage_cache is caches.coverage


# --------------------------------------------------------------------------- #
# Warm vs cold
# --------------------------------------------------------------------------- #


def fresh_catalog(base: Catalog) -> Catalog:
    """A new catalog (empty caches, empty memo) over the same immutable tables."""
    catalog = Catalog()
    for name in base.table_names():
        catalog.register(base.table(name))
    return catalog


def jobs(method: str):
    """Every paper-log prefix with ``method``, then synthetic covid logs."""
    for dataset, log in PAPER_LOGS.values():
        for length in range(2, len(log) + 1):
            yield dataset, log[:length]
    if method == "mcts":
        for size in (10, 12):
            yield "covid", synthetic_covid_log(size)


def outcome(result) -> tuple:
    return result.interface.fingerprint(), result.total_cost, result.stats.evaluations


@pytest.mark.parametrize("method", METHODS)
def test_warm_generation_matches_a_fresh_catalog(method):
    warm = {dataset: loader() for dataset, loader in LOADERS.items()}
    cold_misses = 0
    for seed, (dataset, log) in enumerate(jobs(method)):
        config = PipelineConfig(method=method, seed=seed)
        fresh = fresh_catalog(warm[dataset])
        cold = generate_interface(log, fresh, config)
        cold_misses += fresh.coverage_memo.misses
        hot = generate_interface(log, warm[dataset], config)
        assert outcome(hot) == outcome(cold), f"{dataset}/{len(log)}q/{method}"
    # The warm catalogs really were warm: later jobs reused earlier verdicts.
    warm_misses = sum(catalog.coverage_memo.misses for catalog in warm.values())
    assert warm_misses < cold_misses
