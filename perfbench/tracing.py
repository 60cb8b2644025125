"""Span tracing from outside the program: wrappers around each layer's functions.

Nothing under ``src/`` knows about this module.  :func:`traced` patches the
public function of every layer *where its caller looks it up* (a module that
did ``from x import f`` holds its own binding of ``f``, so that binding is the
one replaced), records one span per call, and restores every original on
exit.

A span is ``(name, start, end, parent)``.  Spans are folded into aggregates as
they close, so memory stays flat however long the traced run is:

* ``calls`` — spans closed;
* ``busy`` — wall time inside the function, counting only the outermost span
  when a name nests inside itself (recursion would double-count otherwise);
* ``self`` — a span's duration minus the time its child spans cover.

Each thread keeps its own span stack, so parents are exact under the serving
layer's thread pools.  Work inside spawned worker processes is invisible
here; the process tier shows up only as the dispatch round trip
(``serving.dispatch_rt``) until the program records its own spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager

#: ``(module, class or None, attribute, span name)``.  The module/class pair
#: is where the *caller* resolves the name at call time.
SPAN_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.search.space", "SearchSpace", "evaluate", "search.evaluate"),
    ("repro.search.space", "SearchSpace", "actions", "search.actions"),
    ("repro.search.space", "SearchSpace", "apply", "search.apply"),
    ("repro.cost.model", "CostModel", "evaluate", "cost.evaluate"),
    # CostModel.evaluate imports it from this module at call time.
    ("repro.cost.expressiveness", None, "tree_covered_count", "cost.coverage"),
    ("repro.search.space", None, "map_forest_to_interface", "mapping.map_forest"),
    ("repro.search.space", None, "build_forest", "difftree.build_forest"),
    ("repro.search.space", None, "applicable_transformations", "difftree.transformations"),
    ("repro.difftree.instantiate", None, "instantiate", "difftree.instantiate"),
    ("repro.difftree.tree_schema", None, "instantiate", "difftree.instantiate"),
    ("repro.interface.state", None, "instantiate", "difftree.instantiate"),
    ("repro.engine.catalog", None, "parse", "sql.parse"),
    ("repro.difftree.builder", None, "parse_select", "sql.parse"),
    ("repro.engine.catalog", None, "cache_identity", "engine.cache_identity"),
    ("repro.engine.planner", "Planner", "plan", "engine.plan"),
    ("repro.engine.executor", None, "optimize_plan", "engine.optimize"),
    ("repro.engine.executor", None, "lower_plan", "engine.lower"),
    ("repro.engine.executor", "Executor", "execute", "engine.execute"),
    ("repro.engine.ivm", "DeltaFolder", "fold_to", "engine.fold"),
    ("repro.engine.catalog", "Catalog", "append_rows", "engine.append_rows"),
    ("repro.interface.state", "InterfaceState", "set_widget", "interface.event"),
    ("repro.interface.state", "InterfaceState", "apply_brush", "interface.event"),
    ("repro.interface.state", "InterfaceState", "apply_pan_zoom", "interface.event"),
    ("repro.interface.state", "InterfaceState", "refresh_all", "interface.refresh"),
    ("repro.serving.session", "Session", "execute", "serving.session_execute"),
    # Snapshot pickling (memoized per version) for a ship to a worker.
    ("repro.serving.workers", "ProcessExecutionTier", "_payload_for", "serving.ship"),
)

#: The layers, in the order reports list them.
LAYERS = ("sql", "engine", "difftree", "search", "mapping", "cost", "interface", "serving")


class Tracer:
    """Per-thread span stacks folded into per-name and per-layer aggregates."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._ids = itertools.count(1)
        self.counters: dict[str, int] = {}
        #: Set while the benchmark does untimed work of its own (checks)
        #: between ops; calls made meanwhile are not recorded.
        self.paused = False

    @contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            # Per-thread aggregate tables: no lock on the hot path.
            state = {"stack": [], "names": {}, "layers": {}, "active": {}, "active_layers": {}}
            self._local.state = state
            with self._lock:
                self._tables.append(state)
        return state

    def enter(self, name: str) -> list:
        state = self._state()
        stack = state["stack"]
        parent = stack[-1][1] if stack else 0
        layer = name.split(".", 1)[0]
        active = state["active"]
        active_layers = state["active_layers"]
        frame = [
            name,
            next(self._ids),
            parent,
            layer,
            0.0,
            active.get(name, 0) > 0,
            active_layers.get(layer, 0) > 0,
            time.perf_counter(),
        ]
        active[name] = active.get(name, 0) + 1
        active_layers[layer] = active_layers.get(layer, 0) + 1
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        state = self._state()
        stack = state["stack"]
        stack.pop()
        name, _span_id, _parent, layer, child_time, nested, layer_nested, start = frame
        duration = end - start
        if stack:
            stack[-1][4] += duration
        state["active"][name] -= 1
        state["active_layers"][layer] -= 1
        self._fold(state["names"], name, duration, duration - child_time, nested)
        self._fold(state["layers"], layer, duration, duration - child_time, layer_nested)

    def record(self, name: str, start: float, end: float) -> None:
        """A closed span with no children, parented on the calling thread's open span."""
        state = self._state()
        stack = state["stack"]
        layer = name.split(".", 1)[0]
        duration = end - start
        if stack:
            stack[-1][4] += duration
        nested = state["active"].get(name, 0) > 0
        layer_nested = state["active_layers"].get(layer, 0) > 0
        self._fold(state["names"], name, duration, duration, nested)
        self._fold(state["layers"], layer, duration, duration, layer_nested)

    @staticmethod
    def _fold(table: dict, key: str, duration: float, self_time: float, nested: bool) -> None:
        entry = table.get(key)
        if entry is None:
            entry = table[key] = [0, 0.0, 0.0]
        entry[0] += 1
        if not nested:
            entry[1] += duration
        entry[2] += self_time

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def totals(self, kind: str = "names") -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, busy seconds, self seconds)`` over every thread."""
        merged: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for state in tables:
            for key, (calls, busy, self_time) in state[kind].items():
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += busy
                entry[2] += self_time
        return {key: tuple(entry) for key, entry in merged.items()}


def _span_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(frame)

    return wrapper


def _counting_generator(tracer: Tracer, name: str, fn):
    def counted(iterator):
        produced = 0
        try:
            for item in iterator:
                produced += 1
                yield item
        finally:
            tracer.count(name, produced)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        return iterator if tracer.paused else counted(iterator)

    return wrapper


class _TimedFuture:
    """Future proxy whose ``result()`` closes a submit-to-result span."""

    def __init__(self, tracer: Tracer, name: str, future, started: float) -> None:
        self._tracer = tracer
        self._name = name
        self._future = future
        self._started = started
        self._recorded = False

    def result(self, timeout=None):
        try:
            return self._future.result(timeout)
        finally:
            if not self._recorded:
                self._recorded = True
                self._tracer.record(self._name, self._started, time.perf_counter())

    def __getattr__(self, attribute):
        return getattr(self._future, attribute)


def _round_trip_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        started = time.perf_counter()
        return _TimedFuture(tracer, name, fn(*args, **kwargs), started)

    return wrapper


def _owner(module_name: str, class_name: str | None):
    module = importlib.import_module(module_name)
    return module if class_name is None else getattr(module, class_name)


@contextmanager
def traced(tracer: Tracer, on_search_space=None):
    """Install every wrapper for the duration of the block, then restore.

    ``on_search_space`` receives each :class:`SearchSpace` the pipeline
    builds, so the caller can read its per-tree cache counters afterwards.
    A target that no longer exists raises at once: a renamed function must
    show up as a missing layer, never as a silent zero.
    """
    patches: list[tuple[object, str, object]] = []

    def patch(owner, attribute: str, replacement) -> None:
        patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    try:
        for module_name, class_name, attribute, name in SPAN_TARGETS:
            owner = _owner(module_name, class_name)
            if attribute not in owner.__dict__:
                raise RuntimeError(f"trace target {module_name}.{class_name or ''}.{attribute} is gone")
            patch(owner, attribute, _span_wrapper(tracer, name, owner.__dict__[attribute]))
        instantiate_module = _owner("repro.difftree.instantiate", None)
        patch(
            instantiate_module,
            "enumerate_bindings",
            _counting_generator(tracer, "cost.bindings_enumerated", instantiate_module.enumerate_bindings),
        )
        tier = _owner("repro.serving.workers", "ProcessExecutionTier")
        patch(
            tier,
            "submit_execute",
            _round_trip_wrapper(tracer, "serving.dispatch_rt", tier.__dict__["submit_execute"]),
        )
        if on_search_space is not None:
            pipeline = _owner("repro.pipeline", None)
            space_class = pipeline.SearchSpace

            def capturing_space(*args, **kwargs):
                space = space_class(*args, **kwargs)
                on_search_space(space)
                return space

            patch(pipeline, "SearchSpace", capturing_space)
        yield tracer
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)
