"""Deterministic fault injection for the serving layer.

Fault tolerance that cannot be tested is folklore.  This module turns the
failure modes the serving stack claims to survive — a worker process dying
mid-task, a snapshot payload arriving corrupted or late, the executor
blowing up mid-query — into a **seeded, replayable plan**:

* :class:`FaultPlan` is an immutable description of *which* faults fire and
  *when*, in terms of deterministic per-site ordinals (the Nth dispatch to
  worker ``i``, the Kth snapshot ship, the Mth top-level executor run) plus
  an optional seeded kill *rate* for soak-style chaos runs.
* :class:`FaultInjector` is the runtime: thread-safe ordinal counters plus
  the hooks the serving code calls.  Hooks are injected via config
  (``ServiceConfig.fault_plan`` / ``ProcessExecutionTier(faults=…)``) and
  are **strictly no-op by default** — a tier built without a plan never
  touches this module on the hot path.

Because every fault site is keyed by a counter that advances the same way
on every run (and the only randomness is ``random.Random(plan.seed)``), a
chaos-suite failure reproduces from its seed alone: re-run the same plan
and the same worker dies at the same task.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import ReproError


class InjectedFault(ReproError):
    """An error raised deliberately by the fault-injection plane.

    Distinct from every organic error type so tests can tell "the fault we
    planted" from "a bug the fault uncovered".
    """


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable description of the faults to inject.

    All ordinals are 1-based counts of events *at that site* (per-worker
    dispatches, snapshot ships, top-level executor runs), so a plan reads
    like a script: "kill worker 0 at its 2nd task, corrupt the 1st ship".
    The default instance injects nothing.
    """

    seed: int = 0
    #: worker index → 1-based dispatch ordinals at which the worker process
    #: is killed right before the task is sent to it.
    kill_worker_at_task: Mapping[int, tuple[int, ...]] = field(default_factory=dict)
    #: Probability (seeded) of killing the target worker before any dispatch.
    #: For elevated-rate soak runs; exact victims depend on thread timing,
    #: but the decision stream is reproducible from ``seed``.
    kill_rate: float = 0.0
    #: Milliseconds to sleep before a snapshot ship leaves the frontend.
    delay_ship_ms: float = 0.0
    #: 1-based ship ordinals the delay applies to (``None`` = every ship
    #: when ``delay_ship_ms > 0``).
    delay_ships: frozenset[int] | None = None
    #: 1-based ship ordinals whose payload bytes are flipped in flight (the
    #: CRC is computed before the flip, so the worker must detect it).
    corrupt_ships: frozenset[int] = frozenset()
    #: 1-based top-level executor-run ordinals at which the service
    #: catalog's executor hook raises :class:`InjectedFault`.
    executor_raise_at: frozenset[int] = frozenset()

    def enabled(self) -> bool:
        """True when this plan can fire at least one fault."""
        return bool(
            self.kill_worker_at_task
            or self.kill_rate > 0.0
            or self.delay_ship_ms > 0.0
            or self.corrupt_ships
            or self.executor_raise_at
        )

    def injector(self) -> "FaultInjector":
        """Build the runtime for this plan (fresh counters, fresh RNG)."""
        return FaultInjector(self)


class FaultInjector:
    """Thread-safe runtime counters + hooks for one :class:`FaultPlan`.

    One injector instance is shared by every site of one service (tier
    dispatchers, ship path, executor hook) so ordinals are global per site
    kind, and ``counters()`` gives the chaos suite a single audit trail of
    what actually fired.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._rng = random.Random(plan.seed)
        self._dispatches: dict[int, int] = {}
        self._ships = 0
        self._executes = 0
        self._kills = 0
        self._delays = 0
        self._corruptions = 0
        self._executor_raises = 0

    # ------------------------------------------------------------------ #
    # Hooks (called by serving code when a plan is configured)
    # ------------------------------------------------------------------ #

    def before_dispatch(self, worker_index: int, process: Any) -> None:
        """Maybe kill ``process`` right before a task is sent to it.

        Called by the tier's dispatcher thread with the target worker's
        process handle; the kill lands before the send, so the dispatcher
        observes it as the organic died-mid-task path (EOF on the pipe).
        """
        with self._lock:
            ordinal = self._dispatches.get(worker_index, 0) + 1
            self._dispatches[worker_index] = ordinal
            planned = ordinal in self.plan.kill_worker_at_task.get(worker_index, ())
            if not planned and self.plan.kill_rate > 0.0:
                planned = self._rng.random() < self.plan.kill_rate
            if planned:
                self._kills += 1
        if planned:
            process.kill()
            process.join(timeout=5)

    def on_ship(self, payload: tuple[bytes, int]) -> tuple[bytes, int]:
        """Maybe delay and/or corrupt a snapshot payload in flight.

        Takes and returns the wire form ``(pickled_bytes, crc32)``.  A
        corruption flips one byte of a *copy* while keeping the original
        CRC — exactly what a bad transport would produce — so the worker's
        integrity check must catch it and trigger a re-ship.
        """
        data, crc = payload
        with self._lock:
            self._ships += 1
            ordinal = self._ships
            delay = 0.0
            if self.plan.delay_ship_ms > 0.0 and (
                self.plan.delay_ships is None or ordinal in self.plan.delay_ships
            ):
                delay = self.plan.delay_ship_ms / 1000.0
                self._delays += 1
            corrupt = ordinal in self.plan.corrupt_ships
            if corrupt:
                self._corruptions += 1
        if delay:
            time.sleep(delay)
        if corrupt:
            mangled = bytearray(data)
            mangled[len(mangled) // 2] ^= 0xFF
            return bytes(mangled), crc
        return data, crc

    def executor_hook(self) -> Callable[[], None]:
        """A hook for :attr:`repro.engine.catalog.Catalog.fault_hook`.

        The returned callable counts the top-level executions computed in
        the frontend on the catalogs it is installed on (thread-tier
        execution, degraded-mode fallback; never cache hits, folds or worker
        processes) and raises :class:`InjectedFault` at the planned
        ordinals.
        """

        def hook() -> None:
            with self._lock:
                self._executes += 1
                fire = self._executes in self.plan.executor_raise_at
                if fire:
                    self._executor_raises += 1
            if fire:
                raise InjectedFault(
                    f"Planned executor fault at query ordinal {self._executes}"
                )

        return hook

    # ------------------------------------------------------------------ #
    # Audit
    # ------------------------------------------------------------------ #

    def counters(self) -> dict[str, int]:
        """What actually fired, for chaos-suite assertions and logs."""
        with self._lock:
            return {
                "workers_killed": self._kills,
                "ships_delayed": self._delays,
                "ships_corrupted": self._corruptions,
                "executor_raises": self._executor_raises,
                "dispatches_seen": sum(self._dispatches.values()),
                "ships_seen": self._ships,
                "executes_seen": self._executes,
            }
