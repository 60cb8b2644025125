"""Perf P4 — incremental search throughput across strategies.

PR 3 made candidate evaluation O(changed trees): per-tree signatures, cached
profiles / chart templates / widget pieces and signature-keyed coverage
checks.  This bench measures what that buys on synthetic query logs of 10–20
structurally-related queries (the size where the forest is large enough for
incrementality to matter):

* candidates evaluated per second, per strategy (greedy / mcts / beam /
  exhaustive-small),
* per-tree cache hit rates (tree profiles and widget pieces),
* the evaluation-cache hit rate.

Set ``BENCH_SEARCH_JSON=/path/to/BENCH_search.json`` to also write the
measurements as JSON — CI uploads that artifact so the perf trajectory stays
machine-readable.
"""

from __future__ import annotations

import json
import os
import time

from conftest import calibration_ops_per_sec, print_table

from repro.cost import CostModel
from repro.datasets import synthetic_covid_log
from repro.mapping import MappingConfig
from repro.search import (
    SearchSpace,
    beam_search,
    exhaustive_search,
    greedy_search,
    mcts_search,
)

#: Strategy name -> runner; sizes chosen so a full sweep stays CI-friendly.
STRATEGIES = {
    "greedy": lambda space: greedy_search(space, max_steps=12),
    "mcts": lambda space: mcts_search(space, iterations=40, seed=1),
    "beam": lambda space: beam_search(space, width=3, max_depth=6),
    "exhaustive-small": lambda space: exhaustive_search(space, max_depth=2, max_states=120),
}


def run_strategy(catalog, queries, name):
    catalog.clear_caches()
    space = SearchSpace(
        queries=queries,
        table_schemas=catalog.schemas(),
        mapping_config=MappingConfig(name=f"p4-{name}"),
        cost_model=CostModel(),
        catalog=catalog,
    )
    started = time.perf_counter()
    result = STRATEGIES[name](space)
    elapsed = time.perf_counter() - started
    stats = space.stats
    cache_info = space.cache_info()
    distinct = stats.evaluations
    probes = stats.evaluations + stats.cache_hits
    tree_total = stats.tree_evals_reused + stats.tree_evals_computed
    piece_info = cache_info["pieces"]
    piece_lookups = piece_info["hits"] + piece_info["misses"]
    return {
        "strategy": name,
        "queries": len(queries),
        "cost": round(result.total_cost, 3),
        "trees": result.forest.tree_count,
        "elapsed_seconds": elapsed,
        "candidates": distinct,
        "candidates_per_sec": distinct / elapsed if elapsed else 0.0,
        "eval_cache_hit_rate": stats.cache_hits / probes if probes else 0.0,
        "tree_reuse_rate": stats.tree_evals_reused / tree_total if tree_total else 0.0,
        "piece_cache_hit_rate": (
            piece_info["hits"] / piece_lookups if piece_lookups else 0.0
        ),
    }


def sweep(catalog, sizes=(10, 15, 20)):
    measurements = []
    for size in sizes:
        queries = synthetic_covid_log(size)
        for name in STRATEGIES:
            measurements.append(run_strategy(catalog, queries, name))
    return measurements


def _print_tables(measurements):
    print_table(
        "Perf P4: incremental search throughput (synthetic COVID logs)",
        ["Queries", "Strategy", "Latency", "Candidates", "Cand/s", "Cost", "Trees"],
        [
            [
                m["queries"],
                m["strategy"],
                f"{m['elapsed_seconds'] * 1000:.0f} ms",
                m["candidates"],
                f"{m['candidates_per_sec']:.0f}",
                m["cost"],
                m["trees"],
            ]
            for m in measurements
        ],
    )
    print_table(
        "Perf P4: cache effectiveness",
        [
            "Queries",
            "Strategy",
            "Eval-cache",
            "Tree reuse",
            "Widget pieces",
        ],
        [
            [
                m["queries"],
                m["strategy"],
                f"{m['eval_cache_hit_rate'] * 100:.0f}%",
                f"{m['tree_reuse_rate'] * 100:.0f}%",
                f"{m['piece_cache_hit_rate'] * 100:.0f}%",
            ]
            for m in measurements
        ],
    )


def _maybe_write_json(measurements):
    path = os.environ.get("BENCH_SEARCH_JSON")
    if not path:
        return
    payload = {
        "measurements": measurements,
        # Machine-speed score consumed by check_perf_regression.py so the
        # candidates/sec gate compares machine-normalized numbers.
        "calibration_ops_per_sec": calibration_ops_per_sec(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"\nwrote {len(measurements)} measurements to {path}")


def test_perf_search_strategies(benchmark, covid_catalog):
    sizes = (10, 15, 20)
    if os.environ.get("BENCH_SEARCH_SMALL"):
        sizes = (10,)
    measurements = benchmark.pedantic(
        lambda: sweep(covid_catalog, sizes=sizes), rounds=1, iterations=1
    )
    _print_tables(measurements)
    _maybe_write_json(measurements)

    # Interactive-speed gate: every strategy finishes a 20-query log quickly.
    assert all(m["elapsed_seconds"] < 30.0 for m in measurements)
    # Incrementality gate: on the largest log, most per-tree work is reuse.
    largest = [m for m in measurements if m["queries"] == max(s for s in sizes)]
    assert all(m["tree_reuse_rate"] > 0.5 for m in largest if m["strategy"] != "greedy")


def test_perf_search_single(benchmark, covid_catalog):
    """The number pytest-benchmark tracks over time: one beam run at n=10."""
    queries = synthetic_covid_log(10)
    result = benchmark(lambda: run_strategy(covid_catalog, queries, "beam"))
    assert result["cost"] > 0
