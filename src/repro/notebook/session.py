"""Notebook session: cells + catalog + execution.

A :class:`NotebookSession` is the headless equivalent of a Jupyter notebook
running the xeus-sql-style kernel the paper builds on: it owns an ordered list
of SQL cells, executes them against an in-memory catalog, and exposes the
checkbox selection that feeds the PI2 extension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.engine.catalog import Catalog
from repro.engine.table import QueryResult
from repro.errors import NotebookError
from repro.notebook.cell import Cell


@dataclass
class NotebookSession:
    """An ordered collection of SQL cells bound to one catalog."""

    catalog: Catalog
    cells: list[Cell] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Cell management
    # ------------------------------------------------------------------ #

    def add_cell(self, source: str, selected: bool = False) -> Cell:
        """Append a new SQL cell."""
        cell = Cell(source=source, selected=selected)
        cell.validate()
        self.cells.append(cell)
        return cell

    def add_cells(self, sources: list[str], selected: bool = False) -> list[Cell]:
        return [self.add_cell(source, selected=selected) for source in sources]

    def cell(self, cell_id: str) -> Cell:
        for cell in self.cells:
            if cell.cell_id == cell_id:
                return cell
        raise NotebookError(f"No cell {cell_id!r} in this session")

    def insert_cell(self, index: int, source: str) -> Cell:
        cell = Cell(source=source)
        cell.validate()
        self.cells.insert(index, cell)
        return cell

    def remove_cell(self, cell_id: str) -> None:
        cell = self.cell(cell_id)
        self.cells.remove(cell)

    def edit_cell(self, cell_id: str, new_source: str) -> Cell:
        cell = self.cell(cell_id)
        cell.edit(new_source)
        return cell

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def run_cell(self, cell_id: str) -> QueryResult:
        """Execute one cell against the catalog (the notebook's Run button)."""
        cell = self.cell(cell_id)
        result = self.catalog.execute(cell.source)
        cell.mark_executed(result)
        return result

    def run_all(self) -> list[QueryResult]:
        return [self.run_cell(cell.cell_id) for cell in self.cells]

    # ------------------------------------------------------------------ #
    # Selection (the per-cell checkboxes)
    # ------------------------------------------------------------------ #

    def select_cells(self, cell_ids: list[str]) -> None:
        """Tick exactly the given cells' checkboxes."""
        wanted = set(cell_ids)
        unknown = wanted - {cell.cell_id for cell in self.cells}
        if unknown:
            raise NotebookError(f"Unknown cells: {sorted(unknown)}")
        for cell in self.cells:
            cell.select(cell.cell_id in wanted)

    def selected_cells(self) -> list[Cell]:
        return [cell for cell in self.cells if cell.selected]

    def selected_queries(self) -> list[str]:
        """The query log: sources of the checked cells, in notebook order."""
        return [cell.source for cell in self.selected_cells()]

    def snapshot(self) -> list[dict]:
        """Snapshot of every cell (stored with each interface version)."""
        return [cell.snapshot() for cell in self.cells]
