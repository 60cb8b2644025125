"""Notebook cell model.

The JupyterLab integration adds a checkbox next to each SQL cell; checked
cells form the query log used for interface generation.  This module models
cells headlessly: a cell holds SQL source, can be executed against the
session's catalog, and tracks whether it is selected for generation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.engine.table import QueryResult
from repro.errors import NotebookError

_CELL_COUNTER = itertools.count(1)


@dataclass
class Cell:
    """One notebook cell containing a SQL query."""

    source: str
    cell_id: str = field(default_factory=lambda: f"cell_{next(_CELL_COUNTER)}")
    selected: bool = False
    execution_count: int = 0
    last_result: QueryResult | None = None
    history: list[str] = field(default_factory=list)

    def edit(self, new_source: str) -> None:
        """Replace the cell's source, archiving the previous version."""
        if new_source.strip() == self.source.strip():
            return
        self.history.append(self.source)
        self.source = new_source

    def select(self, selected: bool = True) -> None:
        """Tick / untick the cell's generation checkbox."""
        self.selected = selected

    def toggle(self) -> bool:
        self.selected = not self.selected
        return self.selected

    def mark_executed(self, result: QueryResult) -> None:
        self.execution_count += 1
        self.last_result = result

    def snapshot(self) -> dict[str, Any]:
        """An immutable description of the cell (used by interface versions)."""
        return {
            "cell_id": self.cell_id,
            "source": self.source,
            "selected": self.selected,
            "execution_count": self.execution_count,
        }

    def validate(self) -> None:
        if not self.source.strip():
            raise NotebookError(f"Cell {self.cell_id} is empty")
