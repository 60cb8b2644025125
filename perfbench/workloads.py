"""The four workloads: seeded inputs, timed loops and untimed correctness checks.

Every input — query-log prefixes, search seeds, widget events, appended rows,
the serving op sequence — is drawn from the ``--seed`` argument here; the
program only ever sees the generated logs, events and rows.

Each workload has the same shape:

* ``setup()`` builds everything a user waits for before the first op
  (catalogs, interfaces, service and worker processes) and ends with one
  warm-up op, which absorbs lazy imports and is never timed as an op;
* ``measure(state, seconds, seed)`` runs ops back to back (closed loop) until
  ``seconds`` of op time at reference speed (see ``pace.py``) have been
  measured, and returns a :class:`Run`;
* ``check(state, run, seed)`` verifies outputs, untimed, after the loop;
* ``counters(state)`` reads the program's own cumulative counters, which the
  traced run turns into per-layer deltas.
"""

from __future__ import annotations

import datetime
import itertools
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

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
from repro.engine.options import ExecOptions
from repro.interface import InteractionType, WidgetType
from repro.pipeline import PipelineConfig, generate_interface
from repro.serving import InterfaceService, LoadGenerator, ServiceConfig, WorkloadMix

from pace import Pace

#: Client threads and program pool sizes: the benchmark stays within a
#: 2-core box, and the number is fixed so runs on other machines replay the
#: same traffic.
CLIENTS = 2
#: Refusals are ops the program declined; they count as failures.
REFUSALS = ("AdmissionError", "OverloadError")
COLD = ExecOptions(use_cache=False)
#: Wall-time cap on a loop, as a multiple of its requested seconds.
WALL_CAP = 1.5


@dataclass
class Run:
    """What one timed loop measured.

    Times are wall-clock intervals; :class:`~pace.Pace` samples taken in
    between turn them into reference-speed times when reported.
    """

    pace: Pace = field(default_factory=Pace)
    #: Wall time measured.
    seconds: float = 0.0
    #: The same at reference speed, estimated as the loop goes; the loop
    #: stops once it reaches the requested seconds, so a slow phase of the
    #: host does not shrink the sample.
    scaled: float = 0.0
    #: ``(start, end)`` of every measured interval; they sum to ``seconds``.
    windows: list[tuple[float, float]] = field(default_factory=list)
    #: Completed ops as ``(class, wall seconds, start, end)``, where
    #: ``start``/``end`` bound the interval the op ran in.  Failed and
    #: refused ops stay out.
    ops: list[tuple[str, float, float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Workload-specific records the untimed checks need.
    samples: list = field(default_factory=list)
    #: Program-side counters accumulated during the loop (search stats).
    counters: dict[str, float] = field(default_factory=dict)

    def measured(self, start: float, end: float) -> None:
        """Account one measured interval (call after the probe that follows it)."""
        self.windows.append((start, end))
        self.seconds += end - start
        self.scaled += (end - start) * self.pace.factor(start, end)

    def done(self, seconds: float) -> bool:
        """``seconds`` measured at reference speed, or ``WALL_CAP`` times that in wall time."""
        return self.scaled >= seconds or self.seconds >= WALL_CAP * seconds

    def add(self, kind: str, seconds: float, start: float, end: float) -> None:
        self.ops.append((kind, seconds, start, end))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    @property
    def completed(self) -> int:
        return len(self.ops)

    def latencies(self, kinds: tuple[str, ...], scaled: bool = True) -> list[float]:
        """Latencies (seconds) of the given op classes, at reference speed when ``scaled``."""
        return [
            seconds * (self.pace.factor(start, end) if scaled else 1.0)
            for kind, seconds, start, end in self.ops
            if kind in kinds
        ]

    def busy_seconds(self, scaled: bool = True) -> float:
        return sum((end - start) * (self.pace.factor(start, end) if scaled else 1.0) for start, end in self.windows)


def load_catalogs() -> dict:
    return {
        "covid": load_covid_catalog(),
        "sdss": load_sdss_catalog(),
        "sp500": load_sp500_catalog(),
    }


def catalog_counters(catalogs) -> dict[str, float]:
    """Result-cache counters summed over catalogs (cumulative)."""
    totals = {"hits": 0, "misses": 0, "evictions": 0, "ivm_folds": 0, "ivm_fallbacks": 0}
    for catalog in catalogs:
        stats = catalog.cache_stats()
        for key in totals:
            totals[key] += stats.get(key, 0)
    return totals


def _bag(result) -> tuple:
    """Order-insensitive, float-tolerant image of a query result."""

    def cell(value):
        if isinstance(value, float):
            return ("f", float(f"{value:.12g}"))
        return (type(value).__name__, value)

    rows = sorted((tuple(cell(value) for value in row) for row in result.rows), key=repr)
    return tuple(result.columns), tuple(rows)


def same_bag(got, want) -> bool:
    return _bag(got) == _bag(want)


class Workload:
    """Defaults shared by the workloads (see the module docstring)."""

    #: Spans and counters the traced run must see fire on this workload.
    required_spans: tuple[str, ...] = ()
    required_counters: tuple[str, ...] = ()
    #: Receives each search space the pipeline builds during a traced run,
    #: or None when the workload reads nothing from them.
    on_search_space = None
    #: The traced run's tracer (None otherwise).
    tracer = None

    def untraced(self):
        """Keep the benchmark's own untimed work out of the layer spans."""
        return nullcontext() if self.tracer is None else self.tracer.pause()

    def close(self, state) -> None:
        pass


# --------------------------------------------------------------------------- #
# generate
# --------------------------------------------------------------------------- #

#: The paper's logs: name -> (dataset, log).
PAPER_LOGS = {
    "covid": ("covid", covid_query_log()),
    "covid_v3": ("covid", covid_query_log() + [covid_region_variant_queries()[1]]),
    "sdss_extended": ("sdss", sdss_extended_query_log()),
    "sp500": ("sp500", sp500_query_log()),
    "sp500_window": ("sp500", sp500_window_query_log()),
}
METHODS = ("mcts", "greedy", "beam")
#: Wide logs take MCTS only: beam on 20 queries runs for tens of seconds.
WIDE_SIZES = (10, 12, 14)
COVID_STATES = ("NY", "MA", "PA", "NJ", "FL", "TX", "GA", "NC", "IL", "OH", "MI", "CA", "WA", "AZ")
THRESHOLDS = (50, 100, 150, 250, 500, 1000, 2000, 3000, 4000, 8000)
#: Days in the covid data, 2021-09-01 through 2021-12-28.
COVID_DAYS = 119


def _covid_date(day: int) -> str:
    return (datetime.date(2021, 9, 1) + datetime.timedelta(days=day)).isoformat()


def wide_log(rng: random.Random, size: int) -> list[str]:
    """A ``size``-query log over the ``synthetic_covid_log`` templates.

    The analyst widens one investigation: the national aggregate, then
    sliding two-week windows, per-state thresholds, single-state probes and
    one unrelated lookup.  How many queries each template contributes is
    fixed by ``size``; which windows, thresholds and states is seeded.
    """
    body = size - 2
    windows = (body + 2) // 3
    thresholds = (body - windows + 1) // 2
    states = body - windows - thresholds
    queries = ["SELECT date, sum(cases) AS total_cases FROM covid_cases GROUP BY date ORDER BY date"]
    for start in rng.sample(range(COVID_DAYS - 13), windows):
        queries.append(
            "SELECT date, sum(cases) AS total_cases FROM covid_cases "
            f"WHERE date BETWEEN '{_covid_date(start)}' AND '{_covid_date(start + 13)}' "
            "GROUP BY date ORDER BY date"
        )
    for threshold in rng.sample(THRESHOLDS, thresholds):
        queries.append(
            "SELECT date, state, sum(cases) AS cases FROM covid_cases "
            f"WHERE cases > {threshold} GROUP BY date, state ORDER BY date"
        )
    for state in rng.sample(COVID_STATES, states):
        queries.append(f"SELECT date, cases FROM covid_cases WHERE state = '{state}' ORDER BY date")
    queries.append("SELECT state, region FROM state_regions ORDER BY state")
    return queries


@dataclass(frozen=True)
class Job:
    dataset: str
    queries: tuple[str, ...]
    config: PipelineConfig


def generate_jobs(seed: int):
    """Endless job stream, cycle by cycle.

    One cycle regenerates every paper log over its growing prefixes (2..n
    queries) plus one wide log, sessions in seeded order.  The method for a
    (log, prefix) rotates through mcts/greedy/beam from cycle to cycle, and
    the wide-log size through 10/12/14, so any three consecutive cycles hold
    every combination once.  The rotation is the same for every seed: the
    seed moves session order, search seeds and wide-log contents, never the
    mix, which keeps runs with different seeds comparable.
    """
    rng = random.Random(seed)
    for cycle in itertools.count():
        sessions = [*PAPER_LOGS, "wide"]
        rng.shuffle(sessions)
        for name in sessions:
            if name == "wide":
                size = WIDE_SIZES[cycle % len(WIDE_SIZES)]
                config = PipelineConfig(method="mcts", seed=rng.randrange(1 << 16))
                yield Job("covid", tuple(wide_log(rng, size)), config)
                continue
            dataset, log = PAPER_LOGS[name]
            for length in range(2, len(log) + 1):
                method = METHODS[(length + cycle) % len(METHODS)]
                config = PipelineConfig(method=method, seed=rng.randrange(1 << 16))
                yield Job(dataset, tuple(log[:length]), config)


class Generate(Workload):
    """1 client regenerating interfaces as query logs grow; one catalog per dataset."""

    names = ("generate_p50_ms", "generate_p90_ms", "mcts_generate_p50_ms")
    primary = METHODS
    tail = 0.90
    #: MCTS, the default search, over paper and wide logs alike.
    second = (("mcts",), 0.50)
    required_spans = (
        "search.evaluate",
        "search.actions",
        "search.apply",
        "cost.evaluate",
        "cost.coverage",
        "mapping.map_forest",
        "difftree.build_forest",
        "difftree.transformations",
        "difftree.instantiate",
        "sql.parse",
    )
    required_counters = ("cost.bindings_enumerated",)

    def __init__(self) -> None:
        #: Search spaces built by the pipeline, filled only by the traced run.
        self.spaces: list = []
        self.on_search_space = self.spaces.append

    def setup(self):
        catalogs = load_catalogs()
        generate_interface(covid_query_log(), catalogs["covid"], PipelineConfig(seed=0))
        return catalogs

    def measure(self, catalogs, seconds: float, seed: int) -> Run:
        run = Run()
        totals = run.counters
        run.pace.sample()
        for job in generate_jobs(seed):
            if run.done(seconds):
                break
            run.attempted += 1
            started = time.perf_counter()
            try:
                result = generate_interface(list(job.queries), catalogs[job.dataset], job.config)
            except Exception as exc:  # noqa: BLE001 - counted, the run goes on
                ended = time.perf_counter()
                run.pace.tick()
                run.measured(started, ended)
                run.fail(f"{type(exc).__name__}: {exc}")
                continue
            ended = time.perf_counter()
            run.pace.tick()
            run.measured(started, ended)
            run.add(job.config.method, ended - started, started, ended)
            # Checked here, untimed, so the loop keeps no interface alive: a
            # growing heap would slow later ops through the garbage collector.
            with self.untraced():
                covered = result.forest.covers_all()
            run.samples.append((job, covered, result.interface.fingerprint()))
            stats = result.stats
            for name in (
                "evaluations",
                "cache_hits",
                "tree_evals_reused",
                "tree_evals_computed",
                "queries_executed",
                "query_cache_hits",
                "profile_cache_hits",
            ):
                totals[name] = totals.get(name, 0) + getattr(stats, name)
            for space in self.spaces:
                pieces = space.cache_info()["pieces"]
                totals["piece_hits"] = totals.get("piece_hits", 0) + pieces["hits"]
                totals["piece_misses"] = totals.get("piece_misses", 0) + pieces["misses"]
            self.spaces.clear()
        run.pace.sample()
        return run

    def check(self, catalogs, run: Run, seed: int) -> list[tuple[str, bool, str]]:
        uncovered = [
            f"{job.dataset}/{len(job.queries)}q/{job.config.method}"
            for job, covered, _ in run.samples
            if not covered
        ]
        checks = [
            (
                "coverage",
                not uncovered,
                f"{len(run.samples) - len(uncovered)}/{len(run.samples)} interfaces express "
                f"every input query" + (f"; missing: {uncovered[:3]}" if uncovered else ""),
            )
        ]
        # Determinism: one sampled job per method, regenerated with its seed.
        rng = random.Random(seed + 1)
        by_method: dict[str, list] = {}
        for job, _, fingerprint in run.samples:
            by_method.setdefault(job.config.method, []).append((job, fingerprint))
        differing = []
        for method in sorted(by_method):
            job, fingerprint = rng.choice(by_method[method])
            again = generate_interface(list(job.queries), catalogs[job.dataset], job.config)
            if again.interface.fingerprint() != fingerprint:
                differing.append(f"{job.dataset}/{len(job.queries)}q/{method}")
        checks.append(
            (
                "determinism",
                bool(by_method) and not differing,
                f"{len(by_method)} regenerations match their first fingerprint"
                + (f"; differing: {differing}" if differing else ""),
            )
        )
        return checks

    def counters(self, catalogs) -> dict[str, float]:
        return catalog_counters(catalogs.values())


# --------------------------------------------------------------------------- #
# interact
# --------------------------------------------------------------------------- #

#: (dataset, paper log) of each interface generated at setup.
INTERACT_LOGS = (
    ("covid", "covid_v3"),
    ("sdss", "sdss_extended"),
    ("sp500", "sp500"),
    ("sp500", "sp500_window"),
)
#: One sampled event in this many is checked against a cold execution.
CHECK_EVERY = 200


@dataclass
class Live:
    catalogs: dict
    discrete: list  # (state, widget)
    brushes: list  # (state, interaction)
    pan_zooms: list  # (state, interaction)
    toggles: list  # (state, widget) switched on before continuous events


class Interact(Workload):
    """1 client replaying widget and chart events on generated interfaces.

    The first half of the measured time sends discrete events (toggles, radio
    and button options), which revisit a few states and so stay inside the
    result cache.  The second half sends continuous events (brush, pan/zoom)
    with fresh ranges, whose distinct queries outnumber the result and plan
    caches, so most of them pay plan, optimize, lower and execute.
    """

    names = ("event_p50_ms", "event_p99_ms", "continuous_event_p95_ms")
    primary = ("discrete", "continuous")
    tail = 0.99
    second = (("continuous",), 0.95)
    required_spans = (
        "difftree.instantiate",
        "engine.cache_identity",
        "engine.plan",
        "engine.optimize",
        "engine.lower",
        "engine.execute",
        "interface.event",
        "interface.refresh",
    )

    def setup(self) -> Live:
        catalogs = load_catalogs()
        live = Live(catalogs, [], [], [], [])
        for dataset, log_name in INTERACT_LOGS:
            result = generate_interface(
                PAPER_LOGS[log_name][1], catalogs[dataset], PipelineConfig(method="mcts", seed=1)
            )
            state = result.start_session(catalogs[dataset])
            state.refresh_all()
            for widget in result.interface.widgets:
                if widget.is_boolean():
                    live.discrete.append((state, widget))
                    live.toggles.append((state, widget))
                elif widget.options and widget.widget_type not in (
                    WidgetType.SLIDER,
                    WidgetType.RANGE_SLIDER,
                    WidgetType.DATE_RANGE,
                ):
                    live.discrete.append((state, widget))
            for interaction in result.interface.interactions:
                if interaction.interaction_type is InteractionType.BRUSH_X and dataset == "covid":
                    live.brushes.append((state, interaction))
                elif interaction.interaction_type is InteractionType.PAN_ZOOM:
                    live.pan_zooms.append((state, interaction))
        missing = [
            name
            for name, found in (
                ("discrete widgets", live.discrete),
                ("covid brush", live.brushes),
                ("sdss pan/zoom", live.pan_zooms),
            )
            if not found
        ]
        if missing:
            raise RuntimeError(f"generated interfaces lack {', '.join(missing)}")
        return live

    def _discrete_event(self, live: Live, rng: random.Random):
        state, widget = rng.choice(live.discrete)
        if widget.is_boolean():
            value = rng.random() < 0.5
        else:
            value = rng.randrange(len(widget.options))
        return state, lambda: state.set_widget(widget.widget_id, value)

    def _continuous_event(self, live: Live, rng: random.Random):
        if rng.random() < 0.5:
            state, brush = rng.choice(live.brushes)
            start = rng.randrange(COVID_DAYS - 3)
            end = min(COVID_DAYS - 1, start + rng.randrange(3, 40))
            low, high = _covid_date(start), _covid_date(end)
            return state, lambda: state.apply_brush(brush.interaction_id, low, high)
        state, pan_zoom = rng.choice(live.pan_zooms)
        ra = rng.uniform(120.0, 200.0)
        dec = rng.uniform(-4.0, 40.0)
        x_range = (round(ra, 3), round(ra + rng.uniform(5.0, 40.0), 3))
        y_range = (round(dec, 3), round(dec + rng.uniform(2.0, 20.0), 3))
        return state, lambda: state.apply_pan_zoom(pan_zoom.interaction_id, x_range, y_range)

    def measure(self, live: Live, seconds: float, seed: int) -> Run:
        run = Run()
        rng = random.Random(seed)
        sampler = random.Random(seed + 1)
        run.pace.sample()
        for kind, until in (("discrete", seconds / 2), ("continuous", seconds)):
            if kind == "continuous":
                # The covid brush only reaches the SQL once its filter is on.
                for state, widget in live.toggles:
                    state.set_widget(widget.widget_id, True)
            make = self._discrete_event if kind == "discrete" else self._continuous_event
            while not run.done(until):
                state, event = make(live, rng)
                run.attempted += 1
                started = time.perf_counter()
                try:
                    event()
                    results = state.refresh_all()
                except Exception as exc:  # noqa: BLE001 - counted, the run goes on
                    ended = time.perf_counter()
                    run.pace.tick()
                    run.measured(started, ended)
                    run.fail(f"{type(exc).__name__}: {exc}")
                    continue
                ended = time.perf_counter()
                run.pace.tick()
                run.measured(started, ended)
                run.add(kind, ended - started, started, ended)
                if sampler.randrange(CHECK_EVERY) == 0:
                    with self.untraced():
                        run.samples.append(
                            [
                                (state.catalog, state.current_query(vis.tree_index), results[vis.vis_id])
                                for vis in state.interface.visualizations
                            ]
                        )
        run.pace.sample()
        return run

    def check(self, live: Live, run: Run, seed: int) -> list[tuple[str, bool, str]]:
        compared = wrong = 0
        for sample in run.samples:
            for catalog, query, result in sample:
                compared += 1
                if not same_bag(result, catalog.execute(query, COLD)):
                    wrong += 1
        return [
            (
                "events_match_cold",
                bool(compared) and not wrong,
                f"{compared - wrong}/{compared} chart results of {len(run.samples)} sampled "
                "events equal a cold uncached execution",
            )
        ]

    def counters(self, live: Live) -> dict[str, float]:
        return catalog_counters(live.catalogs.values())


# --------------------------------------------------------------------------- #
# serve_thread / serve_process
# --------------------------------------------------------------------------- #

#: Filters, projections and group-by aggregates the IVM plane can fold.
IVM_READ_POOL = (
    "SELECT state, count(*) AS n FROM covid_cases GROUP BY state",
    "SELECT state, sum(cases) AS total FROM covid_cases GROUP BY state",
    "SELECT count(*) AS n FROM covid_cases",
    "SELECT avg(cases) AS a FROM covid_cases WHERE state = 'CA'",
    "SELECT date, max(cases) AS m FROM covid_cases GROUP BY date",
    "SELECT state, date, cases FROM covid_cases WHERE cases > 20000",
)
READ_POOL = (*covid_query_log(), *IVM_READ_POOL)
GENERATE_LOGS = tuple(tuple(covid_query_log()[start:end]) for start, end in ((0, 2), (0, 3), (1, 4), (0, 4)))
GREEDY = PipelineConfig(method="greedy", greedy_max_steps=4)
MIX = WorkloadMix(read=0.7, write=0.2, generate=0.1)
#: Ops per client per LoadGenerator round; rounds repeat until time is up.
OPS_PER_ROUND = 25


def _row_factory(seed: int, round_index: int):
    def row(client: int, sequence: int) -> list:
        rng = random.Random(f"{seed}/{round_index}/{client}/{sequence}")
        return [rng.choice(COVID_STATES), _covid_date(rng.randrange(COVID_DAYS)), rng.randrange(5000)]

    return row


class Serve(Workload):
    """2 LoadGenerator clients: 70% reads, 20% ingest+refresh, 10% greedy generates."""

    names = ("read_p50_ms", "read_p95_ms", "write_p95_ms")
    primary = ("read",)
    tail = 0.95
    second = (("write",), 0.95)

    def __init__(self, tier: str) -> None:
        self.tier = tier
        tier_spans = ("serving.dispatch_rt", "serving.ship") if tier == "process" else ("engine.execute", "engine.fold")
        self.required_spans = ("engine.cache_identity", "engine.append_rows", "serving.session_execute", *tier_spans)

    def setup(self) -> InterfaceService:
        service = InterfaceService(
            load_covid_catalog(),
            ServiceConfig(
                max_workers=CLIENTS,
                profile_workers=CLIENTS,
                max_sessions=4 * CLIENTS,
                max_pending=64,
                execution_tier=self.tier,
                worker_processes=CLIENTS,
            ),
        )
        try:
            session = service.create_session("warm-up")
            service.execute(session.session_id, READ_POOL[0])
            service.generate(session.session_id, list(GENERATE_LOGS[0]), GREEDY)
            service.close_session(session.session_id)
        except BaseException:
            service.shutdown()
            raise
        return service

    def measure(self, service: InterfaceService, seconds: float, seed: int) -> Run:
        run = Run()
        run.pace.sample()
        for round_index in itertools.count():
            if run.done(seconds):
                break
            generator = LoadGenerator(
                service,
                read_queries=READ_POOL,
                generate_logs=GENERATE_LOGS,
                write_table="covid_cases",
                write_row=_row_factory(seed, round_index),
                mix=MIX,
                generation_config=GREEDY,
                seed=seed * 1_000_003 + round_index * CLIENTS,
            )
            started = time.perf_counter()
            report = generator.run(clients=CLIENTS, ops_per_client=OPS_PER_ROUND)
            ended = time.perf_counter()
            run.pace.sample()
            run.measured(started, ended)
            for op in report.ops:
                run.attempted += 1
                # LoadGenerator marks refusals ok=True; they are failures here.
                if not op.ok or op.error_type in REFUSALS or op.kind == "session":
                    run.fail(f"{op.kind}: {op.error}")
                else:
                    run.add(op.kind, op.seconds, started, ended)
        return run

    def check(self, service: InterfaceService, run: Run, seed: int) -> list[tuple[str, bool, str]]:
        rng = random.Random(seed + 1)
        session = service.create_session("verify")
        try:
            compared = wrong = 0
            for round_index in range(2):
                # Twice each: the first read misses or folds, the second hits.
                for query in READ_POOL + READ_POOL:
                    got = service.execute(session.session_id, query)
                    compared += 1
                    if not same_bag(got, session.snapshot.execute(query, COLD)):
                        wrong += 1
                # A write between rounds: the second round reads a new version
                # (IVM fold in the thread tier, a re-ship in the process tier).
                service.ingest("covid_cases", [_row_factory(seed, -1)(0, round_index)])
                session.refresh()
            log = list(rng.choice(GENERATE_LOGS))
            served_result = service.generate(session.session_id, log, GREEDY)
            serial = generate_interface(log, session.snapshot, GREEDY)
            same_interface = served_result.interface.fingerprint() == serial.interface.fingerprint()
        finally:
            service.close_session(session.session_id)
        return [
            (
                "reads_match_cold",
                not wrong,
                f"{compared - wrong}/{compared} sampled reads equal cold execution "
                "on the session's pinned snapshot",
            ),
            (
                "generate_matches_serial",
                same_interface,
                f"{self.tier}-tier generation fingerprint "
                + ("equals" if same_interface else "differs from")
                + " the in-process serial pipeline",
            ),
        ]

    def counters(self, service: InterfaceService) -> dict[str, float]:
        totals = catalog_counters([service.catalog])
        totals.update(
            (f"service.{key}", value)
            for key, value in service.stats_snapshot().items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        )
        return totals

    def close(self, service: InterfaceService) -> None:
        service.shutdown()


WORKLOADS = {
    "generate": Generate,
    "interact": Interact,
    "serve_thread": lambda: Serve("thread"),
    "serve_process": lambda: Serve("process"),
}
