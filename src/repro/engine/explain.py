"""Structured EXPLAIN output.

:class:`ExplainReport` is what :meth:`Catalog.explain` returns: a ``str``
subclass whose text is byte-for-byte the classic rendering (so every existing
``in``/``==`` assertion and log line keeps working), carrying the individual
sections and the optimizer's access-path decisions as data for programmatic
consumers — dashboards, the serving layer's plan introspection, tests that
should assert on decisions instead of regexp-scraping the prose.
"""

from __future__ import annotations

from typing import Any


class ExplainReport(str):
    """The text of an EXPLAIN plus its sections as attributes.

    Attributes:
        logical: Pre-rewrite logical plan rendering (always present).
        trace: Optimizer trace events as ``(rule, detail)`` pairs (empty when
            the optimizer did not run or applied nothing).
        optimized: Post-rewrite logical plan rendering, or None when the
            report covers only the logical (or unoptimized-physical) view.
        physical: Physical operator tree rendering, or None for logical-only
            reports.
        access_paths: Access-path decisions as dicts — index choices and
            refused indexes — exactly what the ``access_path`` trace lines
            describe, machine-readable.
    """

    logical: str
    trace: tuple[tuple[str, str], ...]
    optimized: str | None
    physical: str | None
    access_paths: tuple[dict[str, Any], ...]

    def __new__(
        cls,
        text: str,
        *,
        logical: str,
        trace: tuple[tuple[str, str], ...] = (),
        optimized: str | None = None,
        physical: str | None = None,
        access_paths: tuple[dict[str, Any], ...] = (),
    ) -> "ExplainReport":
        self = super().__new__(cls, text)
        self.logical = logical
        self.trace = tuple(trace)
        self.optimized = optimized
        self.physical = physical
        self.access_paths = tuple(access_paths)
        return self

    def as_dict(self) -> dict[str, Any]:
        """The report as plain data (JSON-serializable)."""
        return {
            "logical": self.logical,
            "trace": [list(event) for event in self.trace],
            "optimized": self.optimized,
            "physical": self.physical,
            "access_paths": [dict(decision) for decision in self.access_paths],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExplainReport({str.__repr__(self)})"
