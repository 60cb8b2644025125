"""Perf P5 — multi-session serving throughput and latency under mixed load.

The serving layer (PR 5) runs many sessions concurrently over a
snapshot-isolated catalog; PR 6 adds a process-pool execution tier and an
asyncio frontend.  This bench replays a deterministic mixed
read / write / generate workload (``repro.serving.loadgen``) at increasing
client counts and reports

* sustained operations/sec (gated, higher is better),
* p50 / p95 latency per operation class (p95s gated, lower is better),
* an async storm: 256 simulated users over 4 catalog shards on one event
  loop, which must complete with zero failures,
* a determinism check: interfaces generated by 8 concurrent sessions must be
  identical (modulo gensym choice ids) to the serial pipeline's output —
  in process mode that exercises the full ship-snapshot / generate-in-worker
  path.

Set ``BENCH_SERVING_TIER=process`` to run the whole bench against the
process-pool tier (default ``thread``).  The two tiers write separate
baselines (``BENCH_serving.json`` / ``BENCH_serving_process.json``) and are
gated **within tier only**: a thread-vs-process throughput ratio is not a
stable machine-independent quantity — on a single-core runner (CI included)
process parallelism cannot beat threads no matter how good the tier is — so
the JSON records ``cpu_count`` and leaves cross-tier comparison to humans
reading the artifacts.

Set ``BENCH_SERVING_JSON=/path/to/BENCH_serving.json`` to write the
measurements; CI uploads that artifact and gates it against the matching
baseline under ``benchmarks/baselines/`` via ``check_perf_regression.py``
(throughput divided by the machine-calibration score, latency multiplied
by it).
"""

from __future__ import annotations

import json
import os

import pytest
from conftest import calibration_ops_per_sec, print_table

from repro.datasets import covid_query_log, load_covid_catalog
from repro.pipeline import PipelineConfig, generate_interface
from repro.serving import (
    AsyncInterfaceService,
    AsyncLoadGenerator,
    InterfaceService,
    LoadGenerator,
    ServiceConfig,
    WorkloadMix,
)

#: Client counts swept by the load run (the acceptance floor is 8 sessions).
CLIENT_SWEEP = (1, 4, 8)
#: Operations per sweep point, split evenly across its clients, so every
#: point's gated p95s rest on the same sample counts: 779-810 reads and
#: 209-242 writes per point (at least 10 samples beyond each p95), and
#: 99-107 generates.  At 30 ops per client the 1-client write p95 was the
#: largest of 7 writes and failed the gate on unchanged code.
OPS_PER_SWEEP_POINT = 1120

#: Async storm shape: users multiplexed on one event loop over 4 shards.
STORM_USERS = 256
STORM_OPS_PER_USER = 4
STORM_SHARDS = 4

GENERATION_CONFIG = PipelineConfig(method="greedy", greedy_max_steps=4)

#: Execution tier under test ("thread" | "process"), switched per CI leg.
TIER = os.environ.get("BENCH_SERVING_TIER", "thread")

#: The ivm read/write storm is a separate CI step (``BENCH_IVM_STORM=1``):
#: it *merges* its metrics into an already-written ``BENCH_SERVING_JSON``
#: rather than rewriting it, so it must run after the main thread-tier bench.
IVM_STORM_ENABLED = os.environ.get("BENCH_IVM_STORM") == "1"
IVM_STORM_CLIENTS = 8
#: 3,200 ops (about 1.5 s on a 2-core box): a p95 over roughly 1,000 writes
#: is stable from run to run, where 40 ops per client (a p95 over about 100
#: writes in 0.3 s) moved with the machine more than with the code.
IVM_STORM_OPS_PER_CLIENT = 400

#: Read pool for the ivm storm: filters, projections and group-by aggregates
#: over the append-only covid table — the shapes ``engine/ivm.py`` folds.
#: (The paper log's sorted Q1–Q4 fold too, but its joined Q5 does not, so
#: the storm keeps a pool that is maintainable throughout.)
IVM_READ_QUERIES = [
    "SELECT state, count(*) AS n FROM covid_cases GROUP BY state",
    "SELECT state, sum(cases) AS total FROM covid_cases GROUP BY state",
    "SELECT count(*) AS n FROM covid_cases",
    "SELECT avg(cases) AS a FROM covid_cases WHERE state = 'CA'",
    "SELECT date, max(cases) AS m FROM covid_cases GROUP BY date",
    "SELECT state, date, cases FROM covid_cases WHERE cases > 20000",
]


def service_config(**overrides) -> ServiceConfig:
    base = dict(
        max_workers=8,
        max_sessions=32,
        max_pending=256,
        execution_tier=TIER,
        worker_processes=4,
    )
    base.update(overrides)
    return ServiceConfig(**base)


def build_service() -> InterfaceService:
    return InterfaceService(load_covid_catalog(), service_config())


def build_generator(service: InterfaceService) -> LoadGenerator:
    log = covid_query_log()
    return LoadGenerator(
        service,
        read_queries=log[:6],
        generate_logs=[log[:3], log[1:4]],
        write_table="covid_cases",
        write_row=lambda client, i: [f"Z{client}", f"2021-12-{i % 28 + 1:02d}", i],
        mix=WorkloadMix(read=0.7, write=0.2, generate=0.1),
        generation_config=GENERATION_CONFIG,
        seed=20260727,
    )


def sweep() -> tuple[list[dict], dict]:
    measurements = []
    stats: dict = {}
    for clients in CLIENT_SWEEP:
        with build_service() as service:
            report = build_generator(service).run(
                clients=clients, ops_per_client=OPS_PER_SWEEP_POINT // clients
            )
            # Keep the last (highest-concurrency) run's service counters:
            # snapshot ships, worker cache hits, queue-wait percentiles.
            stats = service.stats_snapshot()
        assert report.failures == [], [op.error for op in report.failures]
        measurements.append(report.as_dict())
    return measurements, stats


def storm() -> tuple[dict, dict]:
    """256 async users over 4 shards; returns (report dict, frontend stats)."""
    frontend = AsyncInterfaceService(
        [load_covid_catalog() for _ in range(STORM_SHARDS)],
        service_config(max_sessions=128, max_pending=1024),
    )
    try:
        log = covid_query_log()
        generator = AsyncLoadGenerator(
            frontend,
            read_queries=log[:6],
            generate_logs=[log[:3], log[1:4]],
            write_table="covid_cases",
            write_row=lambda user, i: [f"Z{user}", f"2021-12-{i % 28 + 1:02d}", i],
            mix=WorkloadMix(read=0.8, write=0.15, generate=0.05),
            generation_config=GENERATION_CONFIG,
            seed=20260727,
        )
        report = generator.run_sync(users=STORM_USERS, ops_per_user=STORM_OPS_PER_USER)
        stats = frontend.stats_snapshot()
    finally:
        frontend.close_sync()
    summary = report.as_dict()
    # ``serving_ops_per_sec`` would flatten to the stuttering
    # ``serving_storm_serving_ops_per_sec``; normalize the key first.
    summary["ops_per_sec"] = summary.pop("serving_ops_per_sec")
    return summary, stats


def degraded_mode() -> dict:
    """Breaker-open serving cost: thread-fallback ops/sec and shed rate.

    Trips the process tier's circuit breaker (cooldown far past the run, so
    it stays open) and replays a small mixed storm: every read/generate is
    served by the in-frontend fallback, and generate-class work sheds at a
    tight watermark.  The numbers land in ``serving_stats`` — recorded so
    the artifact tracks what degradation costs, never gated (degraded-mode
    throughput on a shared runner is exactly the kind of noisy quantity the
    perf gate must not flake on).
    """
    config = service_config(
        max_pending=6,
        shed_watermark=0.5,
        breaker_failure_threshold=1,
        breaker_cooldown_seconds=600.0,
    )
    with InterfaceService(load_covid_catalog(), config) as service:
        service.process_tier.breaker.record_failure()  # trip: degraded mode on
        report = build_generator(service).run(clients=4, ops_per_client=10)
        stats = service.stats_snapshot()
    assert report.failures == [], [op.error for op in report.failures]
    return {
        "degraded_ops_per_second": round(report.ops_per_sec, 2),
        "degraded_requests": stats["degraded"],
        "shed": stats["shed"],
        "shed_rate": round(stats["shed"] / max(1, stats["shed"] + stats["submitted"]), 4),
        "breaker_state": stats["breaker_state"],
        "breaker_trips": stats["breaker_trips"],
    }


def flatten_metrics(measurements: list[dict], storm_summary: dict) -> dict[str, float]:
    """One flat name -> value map (the ``metrics`` shape the perf gate reads).

    Null latencies (an op class with zero samples) are *omitted* rather than
    written as 0.0 — the gate treats a missing baseline key as nothing to
    gate and a 0.0 would read as "infinitely fast".  The seeds are fixed, so
    which keys exist is deterministic per (mix, clients).
    """
    metrics: dict[str, float] = {}
    flat = [(f"serving_c{m['clients']}", m) for m in measurements]
    flat.append(("serving_storm", storm_summary))
    for prefix, measurement in flat:
        for name, value in measurement.items():
            if name != "clients" and isinstance(value, (int, float)):
                metrics[f"{prefix}_{name}"] = float(value)
    return metrics


def _fmt_ms(value: float | None, digits: int = 1) -> str:
    return "—" if value is None else f"{value:.{digits}f} ms"


def _print_tables(measurements: list[dict], storm_summary: dict) -> None:
    print_table(
        f"Perf P5: serving throughput under mixed load (covid catalog, {TIER} tier)",
        ["Clients", "Ops", "Ops/s", "Read p50", "Read p95", "Write p95", "Gen p95"],
        [
            [
                m["clients"],
                m["operations"],
                f"{m['serving_ops_per_sec']:.0f}",
                _fmt_ms(m["read_p50_ms"]),
                _fmt_ms(m["read_p95_ms"]),
                _fmt_ms(m["write_p95_ms"]),
                _fmt_ms(m["generate_p95_ms"], digits=0),
            ]
            for m in measurements
        ],
    )
    print_table(
        f"Perf P5: async storm ({STORM_USERS} users x {STORM_OPS_PER_USER} ops, "
        f"{STORM_SHARDS} shards, {TIER} tier)",
        ["Ops", "Failures", "Ops/s", "Read p95", "Gen p95"],
        [
            [
                storm_summary["operations"],
                storm_summary["failures"],
                f"{storm_summary['ops_per_sec']:.0f}",
                _fmt_ms(storm_summary["read_p95_ms"]),
                _fmt_ms(storm_summary["generate_p95_ms"], digits=0),
            ]
        ],
    )


def _maybe_write_json(
    measurements: list[dict],
    storm_summary: dict,
    sweep_stats: dict,
    storm_stats: dict,
    degraded_stats: dict | None = None,
) -> None:
    path = os.environ.get("BENCH_SERVING_JSON")
    if not path:
        return
    serving_stats = {
        "sweep_c8": {k: v for k, v in sweep_stats.items() if not isinstance(v, list)},
        "storm": {k: v for k, v in storm_stats.items() if not isinstance(v, list)},
    }
    if degraded_stats is not None:
        serving_stats["degraded_mode"] = degraded_stats
    payload = {
        "metrics": flatten_metrics(measurements, storm_summary),
        "measurements": [],
        # Reported, not gated: snapshot ships, worker snapshot-cache hits and
        # queue-wait percentiles (the last two are noisy at sub-ms scale).
        "serving_stats": serving_stats,
        "execution_tier": TIER,
        # Process-vs-thread ratios only mean something with real cores; the
        # gate stays within-tier, and humans reading artifacts need this.
        "cpu_count": os.cpu_count(),
        # Machine-speed score consumed by check_perf_regression.py so the
        # ops/sec and p95 gates compare machine-normalized numbers.
        "calibration_ops_per_sec": calibration_ops_per_sec(),
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"\nwrote {len(measurements) + 1} load measurements to {path} ({TIER} tier)")


def test_perf_serving_mixed_load(benchmark):
    measurements, sweep_stats = benchmark.pedantic(sweep, rounds=1, iterations=1)
    storm_summary, storm_stats = storm()
    # Degraded-mode cost only exists where there is a breaker to trip (the
    # thread tier *is* the fallback, so there is nothing to measure there).
    degraded_stats = degraded_mode() if TIER == "process" else None
    _print_tables(measurements, storm_summary)
    if degraded_stats is not None:
        print_table(
            "Perf P5: degraded mode (breaker open, thread fallback; recorded, not gated)",
            ["Ops/s", "Degraded reqs", "Shed", "Shed rate"],
            [
                [
                    f"{degraded_stats['degraded_ops_per_second']:.0f}",
                    degraded_stats["degraded_requests"],
                    degraded_stats["shed"],
                    f"{degraded_stats['shed_rate']:.2%}",
                ]
            ],
        )
    _maybe_write_json(
        measurements, storm_summary, sweep_stats, storm_stats, degraded_stats
    )

    by_clients = {m["clients"]: m for m in measurements}
    # Acceptance floor: the service sustains 8 concurrent sessions.
    assert by_clients[8]["operations"] == OPS_PER_SWEEP_POINT
    assert by_clients[8]["failures"] == 0
    # Acceptance floor: 256 async users complete with zero failures.
    assert storm_summary["operations"] == STORM_USERS * STORM_OPS_PER_USER
    assert storm_summary["failures"] == 0
    # Sanity ceiling, not a perf gate: read latency includes queue wait
    # behind concurrent generations, so on a slow shared runner p95 can
    # legitimately run high — this only catches the serving layer
    # catastrophically serializing.  The real gates are the calibrated
    # ops/sec and p95 comparisons in check_perf_regression.py.
    read_p95 = by_clients[8]["read_p95_ms"]
    assert read_p95 is not None and read_p95 < 5000.0


def ivm_storm() -> tuple[dict, dict]:
    """Write-heavy mixed storm over the maintainable read pool.

    Every write is an ingest + session refresh, so each writing client's next
    reads probe the cache at a version it has never seen — exactly the case
    the delta-fold plane exists for.  Returns (load report dict, service
    stats) with the catalog's ivm counters attached.
    """
    with InterfaceService(load_covid_catalog(), service_config()) as service:
        generator = LoadGenerator(
            service,
            read_queries=IVM_READ_QUERIES,
            generate_logs=[covid_query_log()[:3]],
            write_table="covid_cases",
            write_row=lambda client, i: [f"Z{client}", f"2021-12-{i % 28 + 1:02d}", i],
            mix=WorkloadMix(read=0.7, write=0.3, generate=0.0),
            generation_config=GENERATION_CONFIG,
            seed=20260807,
        )
        report = generator.run(
            clients=IVM_STORM_CLIENTS, ops_per_client=IVM_STORM_OPS_PER_CLIENT
        )
        stats = service.stats_snapshot()
    assert report.failures == [], [op.error for op in report.failures]
    return report.as_dict(), stats


def ivm_storm_metrics(summary: dict, stats: dict) -> dict[str, float]:
    """Flat ``ivm_storm_*`` metric map (gated keys: hit rate, p95s, ops/sec)."""
    metrics: dict[str, float] = {}
    for name, value in summary.items():
        if isinstance(value, (int, float)):
            metrics[f"ivm_storm_{name}"] = float(value)
    metrics["ivm_storm_hit_rate"] = float(stats["query_cache_effective_hit_rate"])
    # Reported, not gated (no gated suffix): fold/fallback volume for humans
    # reading the artifact.
    metrics["ivm_storm_folds"] = float(stats["ivm_folds"])
    metrics["ivm_storm_fallbacks"] = float(stats["ivm_fallbacks"])
    return metrics


def _merge_ivm_json(metrics: dict[str, float], stats: dict) -> None:
    """Merge the storm's metrics into the bench JSON written by the main run."""
    path = os.environ.get("BENCH_SERVING_JSON")
    if not path:
        return
    payload: dict = {}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload.setdefault("metrics", {}).update(metrics)
    payload.setdefault("serving_stats", {})["ivm_storm"] = {
        k: v for k, v in stats.items() if not isinstance(v, list)
    }
    payload.setdefault("calibration_ops_per_sec", calibration_ops_per_sec())
    payload.setdefault("cpu_count", os.cpu_count())
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"\nmerged {len(metrics)} ivm-storm metrics into {path}")


@pytest.mark.skipif(not IVM_STORM_ENABLED, reason="set BENCH_IVM_STORM=1 to run")
def test_perf_serving_ivm_storm(benchmark):
    """CI acceptance: under a write-heavy storm the maintainable-query pool
    must keep an effective (fold-counting) cache hit rate of at least 80%."""
    summary, stats = benchmark.pedantic(ivm_storm, rounds=1, iterations=1)
    metrics = ivm_storm_metrics(summary, stats)
    print_table(
        "Perf P5: ivm read/write storm (maintainable pool, thread tier)",
        ["Ops", "Ops/s", "Hit rate", "Folds", "Fallbacks", "Read p95", "Write p95"],
        [
            [
                summary["operations"],
                f"{summary['serving_ops_per_sec']:.0f}",
                f"{metrics['ivm_storm_hit_rate']:.2%}",
                int(metrics["ivm_storm_folds"]),
                int(metrics["ivm_storm_fallbacks"]),
                _fmt_ms(summary["read_p95_ms"]),
                _fmt_ms(summary["write_p95_ms"]),
            ]
        ],
    )
    _merge_ivm_json(metrics, stats)

    assert summary["operations"] == IVM_STORM_CLIENTS * IVM_STORM_OPS_PER_CLIENT
    assert summary["failures"] == 0
    # The fold plane must actually fire — a storm answered purely by cold
    # recomputes would still "pass" a latency gate on a fast machine.
    assert metrics["ivm_storm_folds"] > 0
    # Acceptance floor (ISSUE): maintainable-query effective hit rate >= 80%.
    assert metrics["ivm_storm_hit_rate"] >= 0.80, metrics["ivm_storm_hit_rate"]


def test_perf_serving_concurrent_generation_matches_serial(benchmark):
    """8 concurrent sessions generate byte-identical interfaces (mod gensym).

    With ``BENCH_SERVING_TIER=process`` the concurrent side runs the full
    process path — snapshot shipped to workers, generation executed there —
    and must still fingerprint-match the in-process serial pipeline.
    """
    queries = covid_query_log()[:4]
    serial = generate_interface(queries, load_covid_catalog(), GENERATION_CONFIG)
    serial_fingerprint = serial.interface.fingerprint()

    def concurrent_generations():
        with build_service() as service:
            sessions = [service.create_session(f"bench-{i}") for i in range(8)]
            futures = [
                service.submit_generate(s.session_id, queries, GENERATION_CONFIG)
                for s in sessions
            ]
            return [future.result(timeout=300) for future in futures]

    results = benchmark.pedantic(concurrent_generations, rounds=1, iterations=1)
    assert len(results) == 8
    for result in results:
        assert result.cost.as_dict() == serial.cost.as_dict()
        assert result.interface.fingerprint() == serial_fingerprint
