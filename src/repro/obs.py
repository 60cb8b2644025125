"""Measurement primitives shared by every layer that reports statistics.

:func:`percentile` is the single percentile rule behind the serving layer's
latency and queue-wait figures (``LoadReport``, ``InterfaceService`` and
``ProcessExecutionTier`` stats), so the same samples always yield the same
p50/p95 wherever they are reported.
"""

from __future__ import annotations

from typing import Iterable


def percentile(samples: Iterable[float], fraction: float) -> float | None:
    """Nearest-rank percentile of ``samples``, or ``None`` when there are none.

    Picks the sorted sample at index ``round(fraction * (n - 1))``, clamped to
    ``[0, n - 1]``.  ``None`` rather than ``0.0`` for no samples: an idle
    queue or an op class a mixed workload never rolled has no latency, and
    0.0 would read as "infinitely fast" to anything comparing latencies.
    """
    ordered = sorted(samples)
    if not ordered:
        return None
    index = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[index]
