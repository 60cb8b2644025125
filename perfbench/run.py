"""The repository benchmark: one command per workload, checked and reported.

Run from the repository root::

    python3 perfbench/run.py --workload generate --seed 1 --seconds 15 --trace 0

Workloads are ``generate``, ``interact``, ``serve_thread`` and
``serve_process`` (see ``perfbench/README.md`` for why each exists).
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs the workload half the time untraced and half under the layer wrappers
of ``tracing.py`` and reports per-layer metrics plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 0 when every correctness check passed, 1 when one failed, 2 when the
program could not be run at all.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

from pace import Pace

ROOT = Path(__file__).resolve().parent.parent
#: Set-ups per ``--trace 0`` run: at least the first number, then more until
#: the second number of seconds was spent, up to the third.  ``setup_s`` is
#: their median, so a cheap set-up gets enough repeats to be steady.
SETUP_REPEATS = (3, 2.0, 15)
#: Fewest samples beyond a percentile before it is flagged as thin.
MIN_BEYOND = 10
#: The default seed, which tuning used.  A claim is confirmed on
#: HELD_OUT_SEED, which no tuning has seen.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function ``I_x(a, b)`` (Lentz continued fraction)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x))
    tiny = 1e-300
    f = c = 1.0
    d = 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            numerator = 1.0
        elif i % 2 == 0:
            numerator = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            numerator = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + numerator * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + numerator / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0) / a


def percentile(values: list[float], fraction: float) -> tuple[float, int, int]:
    """Harrell-Davis percentile: ``(value, sample count, samples beyond it)``.

    A Beta-weighted mean of the order statistics.  At a hundred samples a
    single order statistic jumps between neighbours that differ by 10-20%;
    this estimator moves far less from run to run.  Weights outside eight
    standard deviations of the Beta distribution are negligible and skipped.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * fraction, (n + 1) * (1 - fraction)
    spread = 8 * math.sqrt(fraction * (1 - fraction) / (n + 2)) * n
    low = max(0, int(fraction * n - spread) - 1)
    high = min(n, int(fraction * n + spread) + 2)
    value = 0.0
    previous = _betainc(a, b, low / n)
    for index in range(low, high):
        current = _betainc(a, b, (index + 1) / n)
        value += (current - previous) * ordered[index]
        previous = current
    beyond = n - bisect.bisect_right(ordered, value)
    return value, n, beyond


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def calibration() -> float | None:
    """The existing machine-speed score (``benchmarks/conftest.py``)."""
    path = ROOT / "benchmarks"
    if not (path / "conftest.py").is_file():
        return None
    sys.path.insert(0, str(path))
    try:
        from conftest import calibration_ops_per_sec
    except ImportError:
        return None
    finally:
        sys.path.remove(str(path))
    return calibration_ops_per_sec()


def end_to_end(workload, run, setups: list[tuple[float, float]]) -> list[tuple[str, str, float, str]]:
    """``(json name, unit, value, human line)`` for every end-to-end metric.

    Times are at reference speed (see ``pace.py``); each line also gives the
    raw wall-clock figure.
    """
    rows = []
    setup, setup_wall = (statistics.median(values) for values in zip(*setups))
    rows.append(
        (
            "setup_s",
            "s",
            setup,
            f"setup_s = {setup:.4f} s (median of {len(setups)} set-ups; wall {setup_wall:.4f} s)",
        )
    )
    ops, ops_wall = (run.completed / run.busy_seconds(scaled) for scaled in (True, False))
    rows.append(
        (
            "ops_per_sec",
            "1/s",
            ops,
            f"ops_per_sec = {ops:.3f} 1/s ({run.completed} completed ops; wall {ops_wall:.3f} 1/s)",
        )
    )
    second_kinds, second_fraction = workload.second
    for (json_name, kinds, fraction), label in zip(
        (
            ("latency_p50_ms", workload.primary, 0.50),
            ("latency_tail_ms", workload.primary, workload.tail),
            ("second_class_ms", second_kinds, second_fraction),
        ),
        workload.names,
    ):
        values = run.latencies(kinds)
        if not values:
            raise RuntimeError(f"no completed ops for {label}")
        value, count, beyond = percentile(values, fraction)
        wall = percentile(run.latencies(kinds, scaled=False), fraction)[0]
        note = "" if beyond >= MIN_BEYOND else f", fewer than {MIN_BEYOND} beyond"
        rows.append(
            (
                json_name,
                "ms",
                value * 1000,
                f"{label} = {value * 1000:.3f} ms (n={count}, beyond={beyond}{note}; "
                f"wall {wall * 1000:.3f} ms) [{json_name}]",
            )
        )
    rss = peak_rss_mb()
    rows.append(("peak_rss_mb", "MB", rss, f"peak_rss_mb = {rss:.1f} MB (frontend process)"))
    return rows


def per_layer(tracer, before, after, run, untraced) -> dict[str, tuple[float, str]]:
    """Every per-layer metric (zero where the workload never reaches a layer)."""
    from tracing import LAYERS

    names = tracer.totals("names")
    metrics: dict[str, tuple[float, str]] = {}

    def span(name: str, *fields: str) -> None:
        calls, busy, self_time = names.get(name, (0, 0.0, 0.0))
        for field in fields:
            if field == "calls":
                metrics[f"{name}.calls"] = (calls, "count")
            elif field == "ms":
                metrics[f"{name}.ms"] = (busy * 1000, "ms")
            else:
                metrics[f"{name}.self_ms"] = (self_time * 1000, "ms")

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    delta = {key: after.get(key, 0) - before.get(key, 0) for key in after}
    search = run.counters
    probes = search.get("evaluations", 0) + search.get("cache_hits", 0)
    trees = search.get("tree_evals_reused", 0) + search.get("tree_evals_computed", 0)
    profiled = (
        search.get("queries_executed", 0)
        + search.get("query_cache_hits", 0)
        + search.get("profile_cache_hits", 0)
    )
    pieces = search.get("piece_hits", 0) + search.get("piece_misses", 0)
    lookups = delta["hits"] + delta["misses"]

    span("search.evaluate", "calls", "ms", "self_ms")
    metrics["search.memo_hit_rate"] = (ratio(search.get("cache_hits", 0), probes), "ratio")
    metrics["search.tree_reuse_rate"] = (ratio(search.get("tree_evals_reused", 0), trees), "ratio")
    span("search.actions", "ms")
    span("search.apply", "ms")
    metrics["search.profile_queries"] = (profiled, "count")
    metrics["search.profile_hit_rate"] = (
        ratio(search.get("query_cache_hits", 0) + search.get("profile_cache_hits", 0), profiled),
        "ratio",
    )
    span("cost.evaluate", "ms", "self_ms")
    span("cost.coverage", "ms")
    metrics["cost.bindings_enumerated"] = (tracer.counters.get("cost.bindings_enumerated", 0), "count")
    span("mapping.map_forest", "ms", "self_ms")
    metrics["mapping.piece_hit_rate"] = (ratio(search.get("piece_hits", 0), pieces), "ratio")
    span("difftree.build_forest", "ms")
    span("difftree.transformations", "ms")
    span("difftree.instantiate", "calls", "ms")
    span("sql.parse", "calls", "ms")
    span("engine.cache_identity", "calls", "ms")
    metrics["engine.result_hit_rate"] = (ratio(delta["hits"], lookups), "ratio")
    metrics["engine.evictions"] = (delta["evictions"], "count")
    span("engine.plan", "ms")
    span("engine.optimize", "ms")
    span("engine.lower", "ms")
    span("engine.execute", "calls", "ms", "self_ms")
    metrics["engine.ivm_folds"] = (delta["ivm_folds"], "count")
    metrics["engine.ivm_fallbacks"] = (delta["ivm_fallbacks"], "count")
    span("engine.fold", "ms")
    metrics["engine.effective_hit_rate"] = (ratio(delta["hits"] + delta["ivm_folds"], lookups), "ratio")
    span("engine.append_rows", "ms")
    span("interface.event", "ms")
    span("interface.refresh", "ms")
    metrics["serving.queue_wait_p50_ms"] = (after.get("service.frontend_queue_wait_p50_ms", 0.0), "ms")
    metrics["serving.queue_wait_p95_ms"] = (after.get("service.frontend_queue_wait_p95_ms", 0.0), "ms")
    span("serving.session_execute", "ms")
    metrics["serving.rejected"] = (delta.get("service.rejected", 0), "count")
    metrics["serving.shed"] = (delta.get("service.shed", 0), "count")
    span("serving.dispatch_rt", "ms")
    ships = delta.get("service.snapshot_ships", 0)
    metrics["serving.snapshot_ships"] = (ships, "count")
    metrics["serving.ship_ratio"] = (
        ratio(ships, ships + delta.get("service.worker_snapshot_cache_hits", 0)),
        "ratio",
    )
    span("serving.ship", "ms")
    metrics["serving.process_queue_wait_p95_ms"] = (
        after.get("service.process_queue_wait_p95_ms", 0.0),
        "ms",
    )
    metrics["serving.tasks_retried"] = (delta.get("service.tasks_retried", 0), "count")
    layers = tracer.totals("layers")
    for layer in LAYERS:
        calls, busy, self_time = layers.get(layer, (0, 0.0, 0.0))
        metrics[f"layer.{layer}.calls"] = (calls, "count")
        metrics[f"layer.{layer}.busy_ms"] = (busy * 1000, "ms")
        metrics[f"layer.{layer}.self_ms"] = (self_time * 1000, "ms")
    untraced_rate = untraced.completed / untraced.busy_seconds()
    traced_rate = run.completed / run.busy_seconds()
    metrics["trace.untraced_ops_per_sec"] = (untraced_rate, "1/s")
    metrics["trace.traced_ops_per_sec"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (ratio(untraced_rate, traced_rate), "ratio")
    return metrics


def trace_sanity(workload, tracer) -> tuple[str, bool, str]:
    names = tracer.totals("names")
    missing = [name for name in workload.required_spans if not names.get(name, (0,))[0]]
    missing += [name for name in workload.required_counters if not tracer.counters.get(name)]
    return (
        "trace_wrappers_fired",
        not missing,
        f"{len(workload.required_spans) + len(workload.required_counters) - len(missing)}/"
        f"{len(workload.required_spans) + len(workload.required_counters)} layer wrappers "
        "this workload moves fired" + (f"; missing: {missing}" if missing else ""),
    )


def timed_setup(workload):
    """``(state, (reference-speed seconds, wall seconds))`` of one set-up."""
    pace = Pace()
    pace.sample()
    started = time.perf_counter()
    state = workload.setup()
    ended = time.perf_counter()
    pace.sample()
    wall = ended - started
    return state, (wall * pace.factor(started, ended), wall)


def stop_children() -> None:
    """Stop and reap every process this run started, so none outlives it.

    The serve workloads' shutdown already joins their worker processes; this
    also covers workers a failed set-up left behind, and the resource tracker
    that spawning a process starts, which would otherwise exit only after
    this process and never be reaped.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"workload seed; {HELD_OUT_SEED} is held out for confirming a claim",
    )
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from tracing import Tracer, traced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"calibration_ops_per_sec={calibration() or float('nan'):.0f}"
    )

    checks: list[tuple[str, bool, str]] = []
    setups: list[tuple[float, float]] = []
    state = None
    try:
        if not args.trace:
            least, budget, most = SETUP_REPEATS
            while len(setups) < least or (sum(wall for _, wall in setups) < budget and len(setups) < most):
                if state is not None:
                    workload.close(state)
                    state = None
                state, seconds = timed_setup(workload)
                setups.append(seconds)
            run = workload.measure(state, args.seconds, args.seed)
        else:
            # Half the time untraced, half traced, each on a fresh set-up,
            # so a traced run costs what an untraced one does.
            state, _ = timed_setup(workload)
            untraced = workload.measure(state, args.seconds / 2, args.seed)
            workload.close(state)
            state = None
            state, _ = timed_setup(workload)
            tracer = Tracer()
            before = workload.counters(state)
            workload.tracer = tracer
            with traced(tracer, on_search_space=workload.on_search_space):
                run = workload.measure(state, args.seconds / 2, args.seed)
            workload.tracer = None
            after = workload.counters(state)
            checks.append(trace_sanity(workload, tracer))
        checks.extend(workload.check(state, run, args.seed))
    finally:
        if state is not None:
            workload.close(state)

    if args.trace:
        layer_metrics = per_layer(tracer, before, after, run, untraced)
        for name, (value, unit) in layer_metrics.items():
            print(f"layer {name} = {value:.4f} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer_metrics.items()}
    else:
        rows = end_to_end(workload, run, setups)
        for _name, _unit, _value, line in rows:
            print(f"metric {line}")
        metrics = {name: {"value": value, "unit": unit} for name, unit, value, _ in rows}
    rate = run.failed / run.attempted if run.attempted else 0.0
    print(f"metric failure_rate = {rate:.4f} ({run.failed} failed, refused or expired of {run.attempted} attempted)")
    for error in run.errors:
        print(f"error {error}")
    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"check {name} {'ok' if ok else 'FAILED'}: {detail}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
