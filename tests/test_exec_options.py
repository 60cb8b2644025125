"""The unified ExecOptions API: entry points, ExplainReport, package exports.

Covers the contract end to end: one frozen options object accepted by every
execute entry point (catalog, snapshot, session, service, process tier,
async frontend), the removed per-call keywords rejected outright, and
``explain()`` returning structured data whose text is byte-identical to the
classic rendering.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.catalog import Catalog, CatalogSnapshot
from repro.engine.explain import ExplainReport
from repro.engine.options import ExecOptions
from repro.serving import AsyncInterfaceService, InterfaceService, ProcessExecutionTier, Session

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_DIR = REPO_ROOT / "src"


@pytest.fixture()
def catalog() -> Catalog:
    cat = Catalog()
    cat.create_table(
        "items",
        ["id", "kind", "price"],
        [[i, "ab"[i % 2], i * 3] for i in range(2000)],
    )
    cat.create_index("items", "id", "hash")
    return cat


class TestExecOptions:
    def test_frozen_and_defaults(self):
        options = ExecOptions()
        assert options.use_cache and options.optimize
        assert options.deadline is None and options.deadline_ms is None
        with pytest.raises(Exception):
            options.use_cache = False  # type: ignore[misc]

    def test_picklable(self):
        options = ExecOptions(use_cache=False, deadline=123.5)
        assert pickle.loads(pickle.dumps(options)) == options

    def test_pinned_resolves_relative_budget_once(self):
        options = ExecOptions(deadline_ms=50.0)
        pinned = options.pinned()
        assert pinned.deadline is not None and pinned.deadline_ms is None
        # Already-absolute options pin to themselves (no copy).
        assert pinned.pinned() is pinned

    def test_absolute_deadline_wins_over_relative(self):
        options = ExecOptions(deadline=99.0, deadline_ms=1.0)
        assert options.resolved_deadline() == 99.0


class TestEntryPoints:
    SQL = "SELECT kind, count(*) AS n FROM items GROUP BY kind"

    def test_catalog_execute_accepts_options(self, catalog):
        result = catalog.execute(self.SQL, ExecOptions(use_cache=False))
        assert result.row_count == 2

    def test_snapshot_execute_accepts_options(self, catalog):
        snapshot = catalog.snapshot()
        result = snapshot.execute(self.SQL, ExecOptions(use_cache=False))
        assert result.row_count == 2

    def test_session_and_service_thread_tier(self, catalog):
        with InterfaceService(catalog) as service:
            session = service.create_session("opts")
            result = service.execute(
                session.session_id, self.SQL, ExecOptions(use_cache=False)
            )
            assert result.row_count == 2

    def test_service_process_tier_end_to_end(self, catalog):
        from repro.serving import ServiceConfig

        config = ServiceConfig(execution_tier="process", worker_processes=1)
        with InterfaceService(catalog, config) as service:
            session = service.create_session("opts-proc")
            result = service.execute(
                session.session_id, self.SQL, ExecOptions(use_cache=False)
            )
            assert sorted(result.rows) == [("a", 1000), ("b", 1000)]

    def test_unoptimized_run_matches(self, catalog):
        on = catalog.execute(self.SQL, ExecOptions(use_cache=False))
        off = catalog.execute(self.SQL, ExecOptions(use_cache=False, optimize=False))
        assert sorted(on.rows) == sorted(off.rows)


class TestExplainReport:
    def test_report_is_text_compatible(self, catalog):
        report = catalog.explain("SELECT id FROM items WHERE id = 3", physical=True)
        assert isinstance(report, ExplainReport)
        assert isinstance(report, str)
        assert str(report) == report
        assert report.startswith("== Logical plan ==")

    def test_sections_are_structured(self, catalog):
        report = catalog.explain("SELECT id FROM items WHERE id = 3", physical=True)
        assert report.logical and report.physical and report.optimized
        assert all(isinstance(event, tuple) and len(event) == 2 for event in report.trace)
        data = report.as_dict()
        assert set(data) == {"logical", "trace", "optimized", "physical", "access_paths"}

    def test_access_paths_capture_index_choice(self, catalog):
        report = catalog.explain("SELECT id FROM items WHERE id = 3", physical=True)
        chosen = [d for d in report.access_paths if d.get("chosen")]
        assert any(d.get("decision") == "index_scan" for d in chosen)

    def test_logical_only_report(self, catalog):
        report = catalog.explain("SELECT id FROM items")
        assert report.physical is None
        assert report.logical == str(report)


class TestPackageSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_serving_entry_points_exported(self):
        for name in ("InterfaceService", "ServiceConfig", "Session", "ExecOptions",
                     "ExplainReport"):
            assert name in repro.__all__

    def test_import_has_no_cycles(self):
        """A cold ``import repro`` must succeed in a fresh interpreter."""
        proc = subprocess.run(
            [sys.executable, "-c", "import repro; print(len(repro.__all__))"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr


#: Every execute/explain entry point with the per-call keywords it rejects:
#: ExecOptions is the only way to pass an execution knob.
REMOVED_KEYWORDS = {
    Catalog.execute: ("use_cache", "optimize", "deadline"),
    Catalog.explain: ("optimize",),
    CatalogSnapshot.execute: ("use_cache", "optimize", "deadline"),
    Session.execute: ("use_cache", "deadline"),
    InterfaceService.submit_execute: ("use_cache", "deadline_ms"),
    InterfaceService.execute: ("use_cache", "deadline_ms"),
    ProcessExecutionTier.submit_execute: ("use_cache", "deadline"),
    AsyncInterfaceService.execute: ("use_cache", "deadline_ms"),
}


class TestRemovedKeywords:
    @pytest.mark.parametrize(
        ("entry_point", "keyword"),
        [(entry, keyword) for entry, keywords in REMOVED_KEYWORDS.items() for keyword in keywords],
        ids=lambda value: getattr(value, "__qualname__", value),
    )
    def test_entry_point_rejects_removed_keyword(self, entry_point, keyword):
        # Argument binding fails before the body runs, so placeholder
        # positionals stand in for the receiver and its arguments.
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            entry_point(None, None, None, **{keyword: False})
