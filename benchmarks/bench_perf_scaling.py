"""Perf P1 — end-to-end generation latency vs number of input queries.

The demo must generate interfaces at interactive speed while the analyst
works.  This bench sweeps the query-log length on the COVID scenario (1 to 7
queries), reporting generation latency and candidates evaluated per log size,
and gates the paper's own workload: generations per second over the growing
prefixes of the covid V3, sdss-extended and sp500 logs, per search method,

* **cold** — the prefixes regenerated in order on a fresh catalog (every
  catalog cache empty), the way a new notebook session starts;
* **warm** — the same prefixes again on that catalog, the way PI2
  regenerates after every query the analyst adds.  A warm sweep replays the
  cold sweep's generations, so the catalog's forest-cost memo answers every
  evaluation: ``generate_<log>_<method>_warm_cost_hit_rate`` (the warm
  sweeps' ``costs_reused / evaluations``) reads 1.0.  The catalog's tree
  memo returns every tree the cold sweep built, so a warm sweep builds none
  (``SearchStats.trees_built``); the bench asserts both.

Each rate divides the generations of sweeps repeated for at least
``MIN_TIMED_SECONDS`` by their total time (a cold sweep gets a fresh catalog
every time, outside the timed region).

Set ``BENCH_GENERATE_JSON=/path/to/BENCH_generate.json`` to write the gated
``generate_*_per_sec`` keys; CI compares them against
``benchmarks/baselines/BENCH_generate.json``.
"""

from __future__ import annotations

import gc
import json
import os
import time

from conftest import calibration_ops_per_sec, print_table

from repro.datasets import sdss_extended_query_log, sp500_query_log
from repro.engine.catalog import Catalog
from repro.interface import LARGE_SCREEN
from repro.pipeline import PipelineConfig, generate_interface

METHODS = ("mcts", "greedy", "beam")
#: Each rate is the best of this many rounds (discards scheduler hiccups).
REPEATS = 5
#: A round repeats its sweep until the sweeps have run this long, so that no
#: gated rate times an interval short enough for scheduler noise to dominate.
MIN_TIMED_SECONDS = 0.1


def sweep_log_sizes(covid_catalog, covid_v3_log):
    measurements = []
    for size in range(1, len(covid_v3_log) + 1):
        queries = covid_v3_log[:size]
        started = time.perf_counter()
        result = generate_interface(
            queries,
            covid_catalog,
            PipelineConfig(
                method="mcts", mcts_iterations=60, seed=1, screen=LARGE_SCREEN, name=f"n={size}"
            ),
        )
        elapsed = time.perf_counter() - started
        measurements.append((size, elapsed, result))
    return measurements


def test_perf_scaling_with_log_size(benchmark, covid_catalog, covid_v3_log):
    measurements = benchmark.pedantic(
        lambda: sweep_log_sizes(covid_catalog, covid_v3_log), rounds=1, iterations=1
    )

    rows = [
        [
            size,
            f"{elapsed * 1000:.0f} ms",
            result.stats.evaluations,
            result.interface.visualization_count,
            result.interface.widget_count + result.interface.interaction_count,
            round(result.total_cost, 2),
            result.stats.tree_evals_reused,
        ]
        for size, elapsed, result in measurements
    ]
    print_table(
        "Perf P1: generation latency vs query-log size (COVID scenario)",
        [
            "Queries",
            "Latency",
            "Candidates",
            "Charts",
            "Interactive components",
            "Cost",
            "Trees reused",
        ],
        rows,
    )

    # The interface grows monotonically richer as queries are added.
    components = [
        result.interface.component_count() for _size, _elapsed, result in measurements
    ]
    assert components == sorted(components)
    # Larger logs require exploring more candidates.
    assert measurements[-1][2].stats.evaluations >= measurements[0][2].stats.evaluations


def test_perf_single_generation(benchmark, covid_catalog, covid_log):
    """The number pytest-benchmark tracks over time: one V2-sized generation."""
    result = benchmark(
        lambda: generate_interface(
            covid_log[:4],
            covid_catalog,
            PipelineConfig(method="greedy", screen=LARGE_SCREEN, name="covid V2"),
        )
    )
    assert result.interface.visualization_count >= 1


def fresh_catalog(base: Catalog) -> Catalog:
    """A new catalog (every cache empty) over the same immutable tables."""
    catalog = Catalog()
    for name in base.table_names():
        catalog.register(base.table(name))
    return catalog


def prefix_sweep(catalog, log, method) -> tuple[float, int, int, int]:
    """(seconds, evaluations, costs reused, trees built) to regenerate every prefix of ``log`` in order."""
    evaluations = reused = built = 0
    started = time.perf_counter()
    for length in range(2, len(log) + 1):
        result = generate_interface(log[:length], catalog, PipelineConfig(method=method, seed=length))
        evaluations += result.stats.evaluations
        reused += result.stats.costs_reused
        built += result.stats.trees_built
    return time.perf_counter() - started, evaluations, reused, built


def sweep_rate(next_catalog, log, method) -> tuple[float, int, float, int, Catalog]:
    """(generations/s, evaluations per sweep, cost hit rate, trees built, last catalog) of repeated sweeps.

    Sweeps repeat until they have run ``MIN_TIMED_SECONDS`` in total; each
    runs on a catalog from ``next_catalog()``, which is not timed.  The hit
    rate is the share of the sweeps' evaluations the forest-cost memo
    answered; trees built are summed over the sweeps.
    """
    seconds, sweeps, evaluations, reused, built = 0.0, 0, set(), 0, 0
    while seconds < MIN_TIMED_SECONDS:
        catalog = next_catalog()
        elapsed, evaluated, reused_now, built_now = prefix_sweep(catalog, log, method)
        seconds += elapsed
        sweeps += 1
        evaluations.add(evaluated)
        reused += reused_now
        built += built_now
    (evaluated,) = evaluations  # the caches a sweep starts with never change its search
    return sweeps * (len(log) - 1) / seconds, evaluated, reused / (sweeps * evaluated), built, catalog


def measure_generation_rates(logs) -> tuple[dict[str, float], float]:
    """(metrics, machine-speed calibration) of the cold and warm sweeps.

    Each rate is the best of ``REPEATS`` rounds.  The rounds go round-robin
    over every (log, method), so a slow spell of a shared host cannot hold
    all of one key's samples, and the calibration is the best of one sample
    taken before every (log, method) of every round: both sides of the
    gate's normalization come from the same stretch of time.
    """
    metrics: dict[str, float] = {}
    calibration = 0.0
    for _ in range(REPEATS):
        for name, (base, log) in logs.items():
            for method in METHODS:
                # A generation builds no reference cycles, so earlier sweeps'
                # catalogs are already freed (0 unreachable objects); the
                # collection resets the collector's allocation counts, so no
                # automatic pass lands inside a timed sweep.
                gc.collect()
                calibration = max(calibration, calibration_ops_per_sec())
                cold, evaluations, _, _, catalog = sweep_rate(lambda: fresh_catalog(base), log, method)
                warm, warm_evaluations, hit_rate, warm_built, _ = sweep_rate(lambda: catalog, log, method)
                assert warm_evaluations == evaluations  # warm caches never change the search
                assert warm_built == 0, f"a warm {name} {method} sweep built {warm_built} trees"
                prefix = f"generate_{name}_{method}"
                for phase, rate in (("cold", cold), ("warm", warm)):
                    key = f"{prefix}_{phase}_per_sec"
                    metrics[key] = max(metrics.get(key, 0.0), rate)
                key = f"{prefix}_warm_cost_hit_rate"
                metrics[key] = min(metrics.get(key, 1.0), hit_rate)
                metrics[f"{prefix}_evaluations"] = evaluations
    return metrics, calibration


def test_perf_generation_gate(covid_catalog, sdss_catalog, sp500_catalog, covid_v3_log):
    logs = {
        "covid_v3": (covid_catalog, covid_v3_log),
        "sdss_extended": (sdss_catalog, sdss_extended_query_log()),
        "sp500": (sp500_catalog, sp500_query_log()),
    }
    metrics, calibration = measure_generation_rates(logs)
    print_table(
        "Perf P1: generations/sec over growing log prefixes (cold = fresh catalog)",
        ["Log", "Method", "Cold gen/s", "Warm gen/s", "Warm cost hits", "Evaluations"],
        [
            [
                name,
                method,
                f"{metrics[f'generate_{name}_{method}_cold_per_sec']:.1f}",
                f"{metrics[f'generate_{name}_{method}_warm_per_sec']:.1f}",
                f"{metrics[f'generate_{name}_{method}_warm_cost_hit_rate']:.3f}",
                metrics[f"generate_{name}_{method}_evaluations"],
            ]
            for name in logs
            for method in METHODS
        ],
    )
    path = os.environ.get("BENCH_GENERATE_JSON")
    if path:
        payload = {"metrics": metrics, "calibration_ops_per_sec": calibration}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        print(f"\nwrote {len(metrics)} metrics to {path}")
    # A warm catalog answers from its structure caches: it must not be slower,
    # and a replayed sweep costs no forest again.
    for name in logs:
        for method in METHODS:
            prefix = f"generate_{name}_{method}"
            assert metrics[f"{prefix}_warm_per_sec"] >= 0.8 * metrics[f"{prefix}_cold_per_sec"]
            assert metrics[f"{prefix}_warm_cost_hit_rate"] == 1.0
