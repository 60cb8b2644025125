"""Machine-speed reference for timing on a shared host.

On a host shared with other tenants, the CPU speed a process gets swings by
up to 2x for seconds at a time, and the guest cannot see it: no steal time is
reported and CPU time tracks wall time.  Raw wall times then differ from run
to run by more than any regression bound could tolerate.

So the benchmark times a fixed pure-Python probe (the op mix of
``calibration_ops_per_sec``: a filtered generator sum and a list build)
between ops, and reports each duration rescaled to a reference speed::

    reported = wall * PROBE_REFERENCE_SECONDS / probe

where ``probe`` is the median of the probe samples taken around that
duration.  A slow phase of the host stretches the probe and the op alike and
cancels out; a change that makes the program slower moves the op and not the
probe.  With the reference at 1 ms, reported times are close to wall times on
an uncontended core of a 2-core x86 VM with Python 3.11.
"""

from __future__ import annotations

import bisect
import statistics
import time

PROBE_REFERENCE_SECONDS = 0.001
_PROBE_DATA = list(range(3000))


def probe() -> float:
    """Wall time of one fixed unit of interpreter work (about 1 ms)."""
    started = time.perf_counter()
    for _ in range(5):
        kept = sum(1 for value in _PROBE_DATA if value % 7 and value > 100)
        built = [value + 1 for value in _PROBE_DATA]
    elapsed = time.perf_counter() - started
    if not (kept and built):  # pragma: no cover - keeps the work observable
        raise AssertionError("probe computed nothing")
    return elapsed


class Pace:
    """Probe samples over time, and the speed factor for any interval."""

    def __init__(self, interval: float = 0.1) -> None:
        #: Least wall time between two samples taken by :meth:`tick`.
        self.interval = interval
        self._times: list[float] = []
        self._probes: list[float] = []

    def sample(self) -> None:
        """Record the machine's speed now.

        A first probe warms the caches an op just evicted and is dropped;
        the median of the next three ignores one stretched by an interrupt.
        """
        probe()
        started = time.perf_counter()
        elapsed = statistics.median(probe() for _ in range(3))
        self._times.append((started + time.perf_counter()) / 2)
        self._probes.append(elapsed)

    def tick(self) -> None:
        """Sample when the last sample is older than ``interval``."""
        if not self._times or time.perf_counter() - self._times[-1] >= self.interval:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """``PROBE_REFERENCE_SECONDS / probe`` for the interval ``[start, end]``.

        Uses the samples inside the interval plus two on either side; the
        median keeps one probe hit by an interrupt from skewing an op.
        """
        if not self._probes:
            raise RuntimeError("no speed probe was sampled")
        low = max(0, bisect.bisect_left(self._times, start) - 2)
        high = min(len(self._times), bisect.bisect_right(self._times, end) + 2)
        return PROBE_REFERENCE_SECONDS / statistics.median(self._probes[low:high])
