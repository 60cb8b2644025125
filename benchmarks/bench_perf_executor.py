"""Perf P3 — physical executor throughput and the canonical-query cache.

Measures the compile-then-run pipeline on the demo workloads: cold execution
(plan + vectorized operators), plan-cache-warm execution, and fully cached
execution through the canonical-query result cache, plus a scan-dominated
workload over a large synthetic SDSS sample that exercises the columnar
storage layer directly (zero-copy scans, fused filters, hash aggregation).

Emits a JSON summary (rows/sec, speedups, hit rate) alongside the usual
tables.  Set ``BENCH_ENGINE_JSON=/path/to/BENCH_engine.json`` to also write
the gateable metrics as JSON — CI compares that file against
``benchmarks/baselines/BENCH_engine.json`` and fails on >25% throughput
regressions (see ``benchmarks/check_perf_regression.py``).
"""

from __future__ import annotations

import json
import os
import random
import time
from typing import Any

from conftest import calibration_ops_per_sec, print_table

from repro.datasets import load_covid_catalog, load_sdss_catalog
from repro.datasets.sdss import SdssConfig, generate_photo_obj
from repro.engine.catalog import Catalog
from repro.engine.options import ExecOptions

#: Shared execution-knob bundles for timed passes: benchmarks always bypass
#: the result cache, and the optimizer comparison additionally disables
#: rewrites.
NO_CACHE = ExecOptions(use_cache=False)
NO_CACHE_NO_OPT = ExecOptions(use_cache=False, optimize=False)

#: Gateable metrics accumulated across this module's tests; every update
#: rewrites the JSON file (when requested) so a partial run still uploads a
#: well-formed artifact.
_ENGINE_JSON: dict[str, Any] = {"benchmark": "engine", "metrics": {}}


def _record_metrics(**metrics: float) -> None:
    _ENGINE_JSON["metrics"].update(metrics)
    path = os.environ.get("BENCH_ENGINE_JSON")
    if not path:
        return
    if "calibration_ops_per_sec" not in _ENGINE_JSON:
        _ENGINE_JSON["calibration_ops_per_sec"] = calibration_ops_per_sec()
    with open(path, "w") as handle:
        json.dump(_ENGINE_JSON, handle, indent=1, sort_keys=True)


def _measure(catalog_loader, queries, repeats=5):
    """Cold vs plan-warm vs result-cached timings for a query workload."""
    catalog = catalog_loader()

    started = time.perf_counter()
    cold_rows = 0
    for sql in queries:
        cold_rows += catalog.execute(sql, NO_CACHE).row_count
    cold = time.perf_counter() - started

    # Plans are now compiled and hot; results still recomputed every time.
    started = time.perf_counter()
    for _ in range(repeats):
        for sql in queries:
            catalog.execute(sql, NO_CACHE).row_count
    plan_warm = (time.perf_counter() - started) / repeats

    # Result cache: first pass stores, subsequent passes hit.
    for sql in queries:
        catalog.execute(sql)
    started = time.perf_counter()
    for _ in range(repeats):
        for sql in queries:
            catalog.execute(sql).row_count
    cached = (time.perf_counter() - started) / repeats

    stats = catalog.cache_stats()
    return {
        "queries": len(queries),
        "result_rows": cold_rows,
        "cold_seconds": cold,
        "plan_warm_seconds": plan_warm,
        "cached_seconds": cached,
        "cold_rows_per_sec": cold_rows / cold if cold else 0.0,
        "cached_rows_per_sec": cold_rows / cached if cached else 0.0,
        "cached_speedup": cold / cached if cached else 0.0,
        "cache_hit_rate": stats["hit_rate"],
        "cache_hits": stats["hits"],
    }


def _report(label, measurement):
    print_table(
        f"Perf P3 ({label}): executor cold vs cached",
        ["Queries", "Cold", "Plan-warm", "Cached", "Speedup", "Hit rate"],
        [
            [
                measurement["queries"],
                f"{measurement['cold_seconds'] * 1000:.1f} ms",
                f"{measurement['plan_warm_seconds'] * 1000:.1f} ms",
                f"{measurement['cached_seconds'] * 1000:.2f} ms",
                f"{measurement['cached_speedup']:.1f}x",
                measurement["cache_hit_rate"],
            ]
        ],
    )
    print(json.dumps({"benchmark": "perf_executor", "workload": label, **measurement}))


def _optimizer_catalog() -> Catalog:
    """A synthetic star-ish schema sized so rewrite wins dominate."""
    rng = random.Random(7)
    catalog = Catalog()
    catalog.create_table(
        "lineitem",
        ["id", "part_id", "supp_id", "qty", "price"],
        [
            [i, rng.randrange(0, 60), rng.randrange(0, 10), rng.randrange(0, 50), rng.randrange(1, 500)]
            for i in range(800)
        ],
    )
    catalog.create_table(
        "part",
        ["id", "name", "cat"],
        [[i, f"part{i}", f"c{i % 5}"] for i in range(60)],
    )
    catalog.create_table(
        "supp",
        ["id", "region"],
        [[i, "east" if i % 3 == 0 else "west"] for i in range(10)],
    )
    return catalog


#: Join/filter workloads where the optimizer should demonstrably win: comma
#: joins it converts to hash joins, filters it pushes below joins, and a
#: three-way region it reorders from table statistics.
OPTIMIZER_WORKLOAD = [
    (
        "comma_join_group_by",
        "SELECT p.cat, count(*) AS n FROM lineitem l, part p "
        "WHERE l.part_id = p.id AND l.qty > 40 GROUP BY p.cat",
    ),
    (
        "filter_pushdown_join",
        "SELECT l.id, l.qty FROM lineitem l JOIN part p ON l.part_id = p.id "
        "WHERE p.cat = 'c1' AND l.qty > 45",
    ),
    (
        "three_way_reorder",
        "SELECT p.cat, sum(l.qty) AS q FROM lineitem l, part p, supp s "
        "WHERE l.part_id = p.id AND l.supp_id = s.id AND s.region = 'east' "
        "GROUP BY p.cat",
    ),
]


def _measure_optimizer(repeats: int = 3):
    catalog = _optimizer_catalog()
    results = []
    for label, sql in OPTIMIZER_WORKLOAD:
        # Warm both compiled-plan cache entries so only execution is timed.
        rows_on = catalog.execute(sql, NO_CACHE).row_count
        rows_off = catalog.execute(sql, NO_CACHE_NO_OPT).row_count
        assert rows_on == rows_off

        started = time.perf_counter()
        for _ in range(repeats):
            catalog.execute(sql, NO_CACHE_NO_OPT)
        unoptimized = (time.perf_counter() - started) / repeats

        started = time.perf_counter()
        for _ in range(repeats):
            catalog.execute(sql, NO_CACHE)
        optimized = (time.perf_counter() - started) / repeats

        results.append(
            {
                "workload": label,
                "rows": rows_on,
                "unoptimized_seconds": unoptimized,
                "optimized_seconds": optimized,
                "speedup": unoptimized / optimized if optimized else 0.0,
            }
        )
    return results


def test_perf_executor_optimizer_on_vs_off(benchmark):
    """The rewrite rules must win >=2x on at least one join/filter workload."""
    results = benchmark.pedantic(_measure_optimizer, rounds=1, iterations=1)
    print_table(
        "Perf P4: logical optimizer on vs off",
        ["Workload", "Rows", "Optimizer off", "Optimizer on", "Speedup"],
        [
            [
                result["workload"],
                result["rows"],
                f"{result['unoptimized_seconds'] * 1000:.1f} ms",
                f"{result['optimized_seconds'] * 1000:.2f} ms",
                f"{result['speedup']:.1f}x",
            ]
            for result in results
        ],
    )
    for result in results:
        print(json.dumps({"benchmark": "perf_optimizer", **result}))
    best = max(result["speedup"] for result in results)
    _record_metrics(optimizer_best_speedup=best)
    assert best >= 2.0, f"expected >=2x on some workload, best was {best:.2f}x"


def test_perf_executor_covid_workload(benchmark, covid_log):
    measurement = benchmark.pedantic(
        lambda: _measure(load_covid_catalog, covid_log), rounds=1, iterations=1
    )
    _report("covid", measurement)
    # Cold throughput is a single unrepeated pass — too noisy to gate, so its
    # key avoids the gated ``_per_sec`` suffix; plan-warm is repeat-averaged.
    _record_metrics(
        covid_cold_rows_per_sec_single_shot=measurement["cold_rows_per_sec"],
        covid_plan_warm_rows_per_sec=(
            measurement["result_rows"] / measurement["plan_warm_seconds"]
            if measurement["plan_warm_seconds"]
            else 0.0
        ),
    )
    assert measurement["cache_hit_rate"] > 0
    assert measurement["cached_seconds"] < measurement["cold_seconds"]


def test_perf_executor_sdss_workload(benchmark, sdss_log):
    measurement = benchmark.pedantic(
        lambda: _measure(load_sdss_catalog, sdss_log), rounds=1, iterations=1
    )
    _report("sdss", measurement)
    _record_metrics(
        sdss_cold_rows_per_sec_single_shot=measurement["cold_rows_per_sec"],
        sdss_plan_warm_rows_per_sec=(
            measurement["result_rows"] / measurement["plan_warm_seconds"]
            if measurement["plan_warm_seconds"]
            else 0.0
        ),
    )
    assert measurement["cache_hit_rate"] > 0
    assert measurement["cached_seconds"] < measurement["cold_seconds"]


# --------------------------------------------------------------------------- #
# Hash join kernel
# --------------------------------------------------------------------------- #

#: An equi-join with a small build side (the 14 state rows) probed by every
#: covid row; under count(*) the plan-warm time is the join kernel's bucket
#: and probe plus its gather of the one key column per side.
HASH_JOIN_SQL = "SELECT count(*) AS n FROM covid_cases c JOIN state_regions r ON c.state = r.state"


def _measure_hash_join(repeats: int = 200, attempts: int = 5):
    catalog = load_covid_catalog()
    probe_rows = catalog.table("covid_cases").row_count
    catalog.execute(HASH_JOIN_SQL, NO_CACHE)  # warm the compiled-plan cache
    # Best of several repeat-averaged attempts, like the scan workload.
    elapsed = float("inf")
    for _attempt in range(attempts):
        started = time.perf_counter()
        for _ in range(repeats):
            catalog.execute(HASH_JOIN_SQL, NO_CACHE)
        elapsed = min(elapsed, (time.perf_counter() - started) / repeats)
    return {
        "probe_rows": probe_rows,
        "build_rows": catalog.table("state_regions").row_count,
        "seconds_per_query": elapsed,
        "probe_rows_per_sec": probe_rows / elapsed if elapsed else 0.0,
    }


def test_perf_executor_hash_join(benchmark):
    """Plan-warm probe throughput of an equi-join with a small build side."""
    measurement = benchmark.pedantic(_measure_hash_join, rounds=1, iterations=1)
    print_table(
        "Perf P3: hash join (covid_cases JOIN state_regions, plan-warm)",
        ["Probe rows", "Build rows", "Per query", "Probe rows/sec"],
        [
            [
                measurement["probe_rows"],
                measurement["build_rows"],
                f"{measurement['seconds_per_query'] * 1000:.2f} ms",
                f"{measurement['probe_rows_per_sec']:,.0f}",
            ]
        ],
    )
    print(json.dumps({"benchmark": "perf_executor", "workload": "hash_join", **measurement}))
    _record_metrics(hash_join_probe_rows_per_sec=measurement["probe_rows_per_sec"])
    assert measurement["probe_rows_per_sec"] > 0


# --------------------------------------------------------------------------- #
# Scan-dominated workload (columnar storage layer)
# --------------------------------------------------------------------------- #

#: Row count of the synthetic SDSS sample the scan workload runs against.
SCAN_TABLE_ROWS = 20_000

#: Filter/aggregate-heavy queries whose cost is dominated by scanning the
#: photoobj columns: range filters, categorical filters, hash aggregation.
SCAN_WORKLOAD = [
    "SELECT ra, dec, r FROM photoobj "
    "WHERE ra BETWEEN 140.0 AND 160.0 AND dec BETWEEN -2.0 AND 6.0",
    "SELECT objid, ra, dec FROM photoobj WHERE r < 18.0",
    "SELECT class, count(*) AS n, avg(r) AS mean_r FROM photoobj GROUP BY class",
    "SELECT ra, dec FROM photoobj WHERE class = 'GALAXY' AND redshift > 0.2",
    "SELECT count(*) AS n FROM photoobj WHERE g < 20.0 AND u > 15.0",
]


def _measure_scan(repeats: int = 5, attempts: int = 3):
    catalog = Catalog()
    table = generate_photo_obj(SdssConfig(object_count=SCAN_TABLE_ROWS))
    catalog.register(table)
    for sql in SCAN_WORKLOAD:
        catalog.execute(sql, NO_CACHE)  # warm the compiled-plan cache
    # Best of several repeat-averaged attempts: this number is gated in CI,
    # so it must not wobble with scheduler noise.
    elapsed = float("inf")
    for _attempt in range(attempts):
        started = time.perf_counter()
        for _ in range(repeats):
            for sql in SCAN_WORKLOAD:
                catalog.execute(sql, NO_CACHE)
        elapsed = min(elapsed, (time.perf_counter() - started) / repeats)
    rows_scanned = SCAN_TABLE_ROWS * len(SCAN_WORKLOAD)
    return {
        "queries": len(SCAN_WORKLOAD),
        "table_rows": SCAN_TABLE_ROWS,
        "seconds_per_pass": elapsed,
        "rows_scanned_per_sec": rows_scanned / elapsed if elapsed else 0.0,
        "table_memory_bytes": table.memory_footprint(),
    }


def test_perf_executor_scan_dominated(benchmark):
    """Plan-warm throughput of the scan/filter/aggregate workload."""
    measurement = benchmark.pedantic(_measure_scan, rounds=1, iterations=1)
    print_table(
        "Perf P3: scan-dominated workload (columnar storage)",
        ["Queries", "Table rows", "Per pass", "Rows scanned/sec", "Table memory"],
        [
            [
                measurement["queries"],
                measurement["table_rows"],
                f"{measurement['seconds_per_pass'] * 1000:.1f} ms",
                f"{measurement['rows_scanned_per_sec']:,.0f}",
                f"{measurement['table_memory_bytes'] / 1024:.0f} KiB",
            ]
        ],
    )
    print(json.dumps({"benchmark": "perf_executor", "workload": "scan_dominated", **measurement}))
    _record_metrics(
        scan_rows_per_sec=measurement["rows_scanned_per_sec"],
        sdss_table_memory_bytes=float(measurement["table_memory_bytes"]),
    )
    assert measurement["rows_scanned_per_sec"] > 0


# --------------------------------------------------------------------------- #
# Index access-path workloads (point lookups and range scans)
# --------------------------------------------------------------------------- #

#: Row count of the synthetic table the index workloads probe.  Large enough
#: that a full scan visibly loses to an index probe (the acceptance bar is a
#: >=10x point-lookup win at >=100k rows).
INDEX_TABLE_ROWS = 100_000

#: Point lookups per timed pass (distinct keys, so the result cache is moot).
POINT_LOOKUP_QUERIES = 20

#: Range scans per timed pass (narrow windows over the ordered column).
RANGE_SCAN_QUERIES = 10


def _index_bench_catalog(indexed: bool) -> Catalog:
    rng = random.Random(20260807)
    catalog = Catalog()
    catalog.create_table(
        "events",
        ["id", "ts", "kind"],
        [[i, rng.randrange(1_000_000), rng.randrange(8)] for i in range(INDEX_TABLE_ROWS)],
    )
    if indexed:
        catalog.create_index("events", "id", "hash")
        catalog.create_index("events", "ts", "ordered")
    return catalog


def _time_workload(catalog: Catalog, queries: list[str], attempts: int = 3) -> float:
    """Best-of-attempts seconds for one pass over ``queries`` (plans warm)."""
    for sql in queries:
        catalog.execute(sql, NO_CACHE)
    elapsed = float("inf")
    for _attempt in range(attempts):
        started = time.perf_counter()
        for sql in queries:
            catalog.execute(sql, NO_CACHE)
        elapsed = min(elapsed, time.perf_counter() - started)
    return elapsed


def _measure_index_access():
    rng = random.Random(0xACCE55)
    point_queries = [
        f"SELECT ts FROM events WHERE id = {rng.randrange(INDEX_TABLE_ROWS)}"
        for _ in range(POINT_LOOKUP_QUERIES)
    ]
    range_queries = []
    for _ in range(RANGE_SCAN_QUERIES):
        low = rng.randrange(990_000)
        range_queries.append(
            f"SELECT id FROM events WHERE ts BETWEEN {low} AND {low + 2_000}"
        )

    indexed = _index_bench_catalog(indexed=True)
    full_scan = _index_bench_catalog(indexed=False)

    # Sanity: both access paths agree before anything is timed.
    for sql in point_queries[:3] + range_queries[:2]:
        assert (
            indexed.execute(sql, NO_CACHE).rows
            == full_scan.execute(sql, NO_CACHE).rows
        ), f"index/scan divergence on {sql}"

    point_indexed = _time_workload(indexed, point_queries)
    point_scan = _time_workload(full_scan, point_queries)
    range_indexed = _time_workload(indexed, range_queries)
    range_scan = _time_workload(full_scan, range_queries)
    return {
        "table_rows": INDEX_TABLE_ROWS,
        "point_queries": len(point_queries),
        "point_indexed_seconds": point_indexed,
        "point_scan_seconds": point_scan,
        "point_speedup": point_scan / point_indexed if point_indexed else 0.0,
        "point_queries_per_sec": (
            len(point_queries) / point_indexed if point_indexed else 0.0
        ),
        "range_queries": len(range_queries),
        "range_indexed_seconds": range_indexed,
        "range_scan_seconds": range_scan,
        "range_speedup": range_scan / range_indexed if range_indexed else 0.0,
        "range_queries_per_sec": (
            len(range_queries) / range_indexed if range_indexed else 0.0
        ),
    }


def test_perf_executor_index_access_paths(benchmark):
    """Index probes must beat full scans: >=10x on point lookups at 100k rows."""
    measurement = benchmark.pedantic(_measure_index_access, rounds=1, iterations=1)
    print_table(
        "Perf P7: index access paths vs full scans",
        ["Workload", "Queries", "Full scan", "Indexed", "Speedup", "Queries/sec"],
        [
            [
                "point lookup (hash)",
                measurement["point_queries"],
                f"{measurement['point_scan_seconds'] * 1000:.1f} ms",
                f"{measurement['point_indexed_seconds'] * 1000:.2f} ms",
                f"{measurement['point_speedup']:.1f}x",
                f"{measurement['point_queries_per_sec']:,.0f}",
            ],
            [
                "range scan (ordered)",
                measurement["range_queries"],
                f"{measurement['range_scan_seconds'] * 1000:.1f} ms",
                f"{measurement['range_indexed_seconds'] * 1000:.2f} ms",
                f"{measurement['range_speedup']:.1f}x",
                f"{measurement['range_queries_per_sec']:,.0f}",
            ],
        ],
    )
    print(json.dumps({"benchmark": "perf_index", **measurement}))
    _record_metrics(
        point_lookup_queries_per_sec=measurement["point_queries_per_sec"],
        point_lookup_speedup=measurement["point_speedup"],
        range_scan_queries_per_sec=measurement["range_queries_per_sec"],
        range_scan_speedup=measurement["range_speedup"],
    )
    assert measurement["point_speedup"] >= 10.0, (
        f"point lookups via hash index must win >=10x over a full scan at "
        f"{INDEX_TABLE_ROWS} rows; got {measurement['point_speedup']:.1f}x"
    )
    assert measurement["range_speedup"] > 1.0

# --------------------------------------------------------------------------- #
# Window-function workloads (partitioned analytics, running frames)
# --------------------------------------------------------------------------- #

#: Row count of the synthetic trades table the window workloads run over.
WINDOW_TABLE_ROWS = 20_000

#: Distinct partition keys (symbols) — enough partitions that the per-spec
#: sort and the per-partition accumulator loops both matter.
WINDOW_SYMBOLS = 40

#: Partitioned window queries: ranking, running aggregates, lag deltas, and a
#: bounded physical frame.  The two ``ORDER BY ts, id`` running-sum/row_number
#: queries share one window spec, so the executor sorts once for both.
WINDOW_WORKLOAD = [
    "SELECT id, row_number() OVER (PARTITION BY sym ORDER BY ts, id) AS rn, "
    "sum(qty) OVER (PARTITION BY sym ORDER BY ts, id) AS running FROM trades",
    "SELECT id, rank() OVER (PARTITION BY sym ORDER BY px DESC, id) AS pos FROM trades",
    "SELECT id, px - lag(px, 1, px) OVER (PARTITION BY sym ORDER BY ts, id) AS dpx "
    "FROM trades",
    "SELECT id, avg(px) OVER (PARTITION BY sym ORDER BY ts, id "
    "ROWS BETWEEN 5 PRECEDING AND CURRENT ROW) AS sma FROM trades",
    "SELECT sym, count(*) AS n, max(qty) AS peak FROM trades GROUP BY sym",
]


def _window_catalog() -> Catalog:
    rng = random.Random(0x5EED)
    catalog = Catalog()
    catalog.create_table(
        "trades",
        ["id", "sym", "ts", "px", "qty"],
        [
            [
                i,
                f"s{rng.randrange(WINDOW_SYMBOLS)}",
                rng.randrange(1_000_000),
                round(rng.uniform(1.0, 500.0), 2),
                rng.randrange(1, 1_000),
            ]
            for i in range(WINDOW_TABLE_ROWS)
        ],
    )
    return catalog


def _measure_windows():
    catalog = _window_catalog()
    elapsed = _time_workload(catalog, WINDOW_WORKLOAD)
    rows_windowed = WINDOW_TABLE_ROWS * (len(WINDOW_WORKLOAD) - 1)  # GROUP BY query aside
    return {
        "queries": len(WINDOW_WORKLOAD),
        "table_rows": WINDOW_TABLE_ROWS,
        "seconds_per_pass": elapsed,
        "window_rows_per_sec": rows_windowed / elapsed if elapsed else 0.0,
    }


def test_perf_executor_window_functions(benchmark):
    """Plan-warm throughput of the partitioned window workload."""
    measurement = benchmark.pedantic(_measure_windows, rounds=1, iterations=1)
    print_table(
        "Perf P9: window functions (partitioned analytics)",
        ["Queries", "Table rows", "Per pass", "Windowed rows/sec"],
        [
            [
                measurement["queries"],
                measurement["table_rows"],
                f"{measurement['seconds_per_pass'] * 1000:.1f} ms",
                f"{measurement['window_rows_per_sec']:,.0f}",
            ]
        ],
    )
    print(json.dumps({"benchmark": "perf_window", **measurement}))
    _record_metrics(window_rows_per_sec=measurement["window_rows_per_sec"])
    assert measurement["window_rows_per_sec"] > 0
