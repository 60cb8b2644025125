"""Unified execution options for every query entry point.

:class:`ExecOptions` is the single knob bag accepted by
:meth:`Catalog.execute`, :meth:`CatalogSnapshot.execute`,
:meth:`Session.execute`, :meth:`InterfaceService.submit_execute`, the
process tier's dispatch and the async frontend — one frozen, picklable value
that crosses every layer (including the worker-process pipe) unchanged, so a
new execution knob is added here once instead of being threaded through
every signature.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ExecOptions:
    """How one query executes (never *what* it reads — that is the snapshot).

    Attributes:
        use_cache: Serve and populate the canonical-query result cache.
        optimize: Run the logical-plan rewrite rules.  ``False`` lowers the
            planner's output verbatim (the differential harness's escape
            hatch); unoptimized runs never touch the result cache.
        deadline: Absolute ``time.monotonic()`` instant arming cooperative
            cancellation.  Comparable across processes (CLOCK_MONOTONIC is
            system-wide), so it survives the worker-pipe crossing.
        deadline_ms: Relative budget in milliseconds, resolved to an
            absolute ``deadline`` at submission time by the layer that
            accepts the request (see :meth:`resolved_deadline`).  When both
            are set, the absolute ``deadline`` wins.
    """

    use_cache: bool = True
    optimize: bool = True
    deadline: float | None = None
    deadline_ms: float | None = None

    def resolved_deadline(self) -> float | None:
        """The absolute deadline, resolving a relative budget now if needed."""
        if self.deadline is not None:
            return self.deadline
        if self.deadline_ms is not None:
            return time.monotonic() + self.deadline_ms / 1000.0
        return None

    def pinned(self) -> "ExecOptions":
        """A copy with any relative budget resolved to an absolute deadline.

        Submission layers call this once so queue-drop checks, worker-side
        cancellation and future-wait timeouts all measure the same instant.
        """
        if self.deadline_ms is None:
            return self
        return dataclasses.replace(
            self, deadline=self.resolved_deadline(), deadline_ms=None
        )

    def replace(self, **changes) -> "ExecOptions":
        return dataclasses.replace(self, **changes)


#: Shared default — equivalent to ``ExecOptions()``; callers must not mutate
#: (the dataclass is frozen, so they cannot).
DEFAULT_OPTIONS = ExecOptions()

