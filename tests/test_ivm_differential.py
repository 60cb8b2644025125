"""Differential harness for incremental view maintenance: fold vs recompute.

A seeded generator interleaves catalog mutations (copy-on-write append
batches, occasional table replacement, in-place appends, cache clears) with
queries drawn from a fixed pool of maintainable and non-maintainable shapes.
Every query runs twice at the same catalog version:

* through the default warm path (cache + delta folders — ``engine/ivm.py``),
* through ``ExecOptions(use_cache=False)`` (cold recompute, the oracle),

and the two results must be equal as lists, row order included (floats
rounded): folds feed rows in table order and sort them with the cold plan's
own operator, so even ORDER BY ties keep the recompute's order.  The pool
repeats queries across versions on purpose: that is what drives probes
through the fold path instead of cold stores.

Seed policy mirrors ``test_differential_sqlite.py``: the interleaving is
seeded from ``IVM_DIFFERENTIAL_SEED`` (default 20260807) and runs
``DIFFERENTIAL_QUERY_COUNT`` steps (default 200; the nightly CI cron raises
it).  On mismatch the harness delta-debugs the failing *interleaving* —
dropping mutation/query steps while the mismatch persists — and writes the
original + shrunk scenario to ``tests/artifacts/differential/``, which CI
uploads as the failing corpus.  Reproduce locally with::

    IVM_DIFFERENTIAL_SEED=<seed> PYTHONPATH=src python -m pytest tests/test_ivm_differential.py
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Any

import pytest

from repro.engine.catalog import Catalog
from repro.engine.options import ExecOptions

SEED = int(os.environ.get("IVM_DIFFERENTIAL_SEED", "20260807"))
STEP_COUNT = int(os.environ.get("DIFFERENTIAL_QUERY_COUNT", "200"))
ARTIFACT_DIR = Path(__file__).parent / "artifacts" / "differential"

COLD = ExecOptions(use_cache=False)

TABLE = "metrics"
COLUMNS = ["g", "h", "v", "w"]

#: One scenario step: ("append", rows) | ("query", sql) | ("replace", rows)
#: | ("inplace", row) | ("clear",).
Op = tuple


# --------------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------------- #


def _row(rng: random.Random) -> list[Any]:
    return [
        rng.choice(["a", "b", "c", "d", None]),
        rng.choice(["x", "y"]),
        None if rng.random() < 0.2 else rng.randrange(0, 50),
        None if rng.random() < 0.2 else round(rng.uniform(-3.0, 3.0), 3),
    ]


def _rows(rng: random.Random, count: int) -> list[list[Any]]:
    return [_row(rng) for _ in range(count)]


def _predicate(rng: random.Random) -> str:
    choices = [
        f"v > {rng.randrange(0, 40)}",
        f"v < {rng.randrange(10, 50)}",
        f"g = '{rng.choice(['a', 'b', 'c'])}'",
        f"w > {round(rng.uniform(-2.0, 2.0), 2)}",
        "v IS NOT NULL",
    ]
    predicate = rng.choice(choices)
    if rng.random() < 0.3:
        predicate += f" AND {rng.choice(choices)}"
    return predicate


def build_query_pool(rng: random.Random) -> list[str]:
    """A fixed pool of queries the interleaving draws from (repeats drive folds)."""
    aggregates = [
        "count(*)", "count(v)", "sum(v)", "avg(v)", "min(v)", "max(v)",
        "median(v)", "stddev(v)", "count(DISTINCT g)",
    ]
    pool: list[str] = []
    for _ in range(8):  # grouped aggregates (maintainable)
        agg = rng.choice(aggregates)
        keys = rng.choice(["g", "h", "g, h"])
        sql = f"SELECT {keys}, {agg} AS m FROM {TABLE} GROUP BY {keys}"
        if rng.random() < 0.4:
            sql = (
                f"SELECT {keys}, {agg} AS m FROM {TABLE} "
                f"WHERE {_predicate(rng)} GROUP BY {keys}"
            )
        pool.append(sql)
    for _ in range(4):  # global aggregates (maintainable)
        agg = rng.choice(aggregates)
        where = f" WHERE {_predicate(rng)}" if rng.random() < 0.5 else ""
        pool.append(f"SELECT {agg} AS m FROM {TABLE}{where}")
    for _ in range(6):  # scan/filter splices (maintainable)
        items = rng.choice(["*", "g, v", "g, h, v, w", "v, w"])
        where = f" WHERE {_predicate(rng)}" if rng.random() < 0.7 else ""
        pool.append(f"SELECT {items} FROM {TABLE}{where}")
    # Sorted shapes (maintainable): keys are output columns by name, alias
    # or position, ASC/DESC with either NULL placement; the group keys and
    # the nullable v and w make ties and NULLs common.
    for _ in range(4):  # sorted splices
        where = f" WHERE {_predicate(rng)}" if rng.random() < 0.5 else ""
        order = rng.choice(
            ["g", "g DESC, v", "v NULLS FIRST", "2 DESC", "w DESC NULLS LAST, g", "h, 1"]
        )
        pool.append(f"SELECT g, v, w, h FROM {TABLE}{where} ORDER BY {order}")
    for _ in range(4):  # sorted aggregates
        agg = rng.choice(["count(*)", "count(v)", "sum(v)", "min(w)", "max(v)"])
        keys = rng.choice(["g", "h", "g, h"])
        where = f" WHERE {_predicate(rng)}" if rng.random() < 0.4 else ""
        order = rng.choice(["m DESC", "m NULLS FIRST", "1", f"{keys.split(', ')[-1]} DESC, m"])
        pool.append(
            f"SELECT {keys}, {agg} AS m FROM {TABLE}{where} GROUP BY {keys} ORDER BY {order}"
        )
    pool.append(f"SELECT count(*) AS n, sum(v) AS s FROM {TABLE} ORDER BY n")
    # Non-maintainable shapes: the warm path must stay correct through plain
    # version-keyed invalidation while folders churn around them.
    pool.append(f"SELECT g, v FROM {TABLE} WHERE v IS NOT NULL ORDER BY v, g LIMIT 7")
    pool.append(f"SELECT DISTINCT g FROM {TABLE}")
    pool.append(f"SELECT g, count(*) AS n FROM {TABLE} GROUP BY g HAVING count(*) > 2")
    return pool


def build_scenario(rng: random.Random, steps: int) -> list[Op]:
    pool = build_query_pool(rng)
    ops: list[Op] = []
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.30:
            ops.append(("append", _rows(rng, rng.randrange(0, 5))))
        elif roll < 0.32:
            ops.append(("replace", _rows(rng, rng.randrange(1, 6))))
        elif roll < 0.35:
            ops.append(("inplace", _row(rng)))
        elif roll < 0.37:
            ops.append(("clear",))
        else:
            ops.append(("query", rng.choice(pool)))
    return ops


# --------------------------------------------------------------------------- #
# Execution + checking
# --------------------------------------------------------------------------- #


def normalize_rows(rows: list[tuple[Any, ...]]) -> list[tuple[Any, ...]]:
    """Float-tolerant form of a result, in its row order."""

    def norm(value: Any) -> Any:
        if isinstance(value, bool) or value is None:
            return value
        if isinstance(value, (int, float)):
            return round(float(value), 6)
        return value

    return [tuple(norm(v) for v in row) for row in rows]


def fresh_catalog(rng_seed: int) -> Catalog:
    rng = random.Random(rng_seed)
    catalog = Catalog()
    catalog.create_table(TABLE, COLUMNS, _rows(rng, 30))
    return catalog


def check_step(catalog: Catalog, sql: str) -> str | None:
    """Run one query warm and cold at the same version; describe any mismatch."""
    try:
        warm = catalog.execute(sql)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the harness
        return f"warm path raised {type(exc).__name__}: {exc}"
    try:
        cold = catalog.execute(sql, COLD)
    except Exception as exc:  # noqa: BLE001
        return f"cold recompute raised {type(exc).__name__}: {exc}"
    if warm.columns != cold.columns:
        return f"columns disagree: warm={warm.columns} cold={cold.columns}"
    if normalize_rows(warm.rows) != normalize_rows(cold.rows):
        return (
            "fold/recompute disagree: "
            f"warm={normalize_rows(warm.rows)[:4]} cold={normalize_rows(cold.rows)[:4]}"
        )
    return None


def apply_op(catalog: Catalog, op: Op) -> str | None:
    """Apply one scenario step; return a mismatch description for query steps."""
    kind = op[0]
    if kind == "append":
        catalog.append_rows(TABLE, op[1])
    elif kind == "replace":
        catalog.create_table(TABLE, COLUMNS, op[1], replace=True)
    elif kind == "inplace":
        catalog.table(TABLE).append(op[1])
    elif kind == "clear":
        catalog.clear_caches()
    else:
        return check_step(catalog, op[1])
    return None


def replay(ops: list[Op]) -> tuple[int, str] | None:
    """Replay a scenario on a fresh catalog; (step index, reason) on mismatch."""
    catalog = fresh_catalog(SEED)
    for index, op in enumerate(ops):
        reason = apply_op(catalog, op)
        if reason is not None:
            return index, reason
    return None


# --------------------------------------------------------------------------- #
# Scenario shrinking (delta-debugging the interleaving)
# --------------------------------------------------------------------------- #


def failure_category(reason: str | None) -> str | None:
    return None if reason is None else reason.split(":", 1)[0]


def shrink_scenario(ops: list[Op], category: str) -> list[Op]:
    """Shrink a failing interleaving while the same failure class persists."""

    def still_fails(candidate: list[Op]) -> bool:
        outcome = replay(candidate)
        return outcome is not None and failure_category(outcome[1]) == category

    # Phase 1: smallest failing suffix of mutations + the tail (cheap, O(log n)
    # replays would not preserve failures that need early appends, so walk
    # linearly from the front instead).
    start = 0
    while start < len(ops) - 1 and still_fails(ops[start + 1 :]):
        start += 1
    ops = ops[start:]
    # Phase 2: greedy single-step removal to a fixpoint (bounded: shrinking
    # only runs on red, and phase 1 already cut the scenario down).
    changed = True
    while changed and len(ops) <= 64:
        changed = False
        for index in range(len(ops) - 1, -1, -1):
            candidate = ops[:index] + ops[index + 1 :]
            if candidate and still_fails(candidate):
                ops = candidate
                changed = True
                break
    return ops


def _format_op(op: Op) -> str:
    if op[0] == "query":
        return f"QUERY {op[1]};"
    if op[0] in ("append", "replace"):
        return f"{op[0].upper()} {op[1]!r};"
    return f"{op[0].upper()};"


def _write_artifact(seed: int, ops: list[Op], shrunk: list[Op], index: int, reason: str) -> Path:
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / f"ivm_failure_seed{seed}_step{index}.txt"
    path.write_text(
        "-- ivm differential harness failure\n"
        f"-- seed: {seed}  failing step: {index}\n"
        f"-- reason: {reason}\n"
        f"-- shrunk scenario ({len(shrunk)} steps):\n"
        + "\n".join(_format_op(op) for op in shrunk)
        + f"\n-- original scenario ({len(ops)} steps):\n"
        + "\n".join(_format_op(op) for op in ops)
        + "\n"
    )
    return path


# --------------------------------------------------------------------------- #
# The tests
# --------------------------------------------------------------------------- #


def test_interleaved_folds_match_recompute():
    rng = random.Random(SEED)
    ops = build_scenario(rng, STEP_COUNT)
    outcome = replay(ops)
    if outcome is not None:
        index, reason = outcome
        shrunk = shrink_scenario(ops[: index + 1], failure_category(reason))
        path = _write_artifact(SEED, ops[: index + 1], shrunk, index, reason)
        pytest.fail(
            f"ivm differential failure at step {index} (seed {SEED}): {reason}\n"
            f"shrunk to {len(shrunk)} steps -> {path}\n"
            f"reproduce: IVM_DIFFERENTIAL_SEED={SEED} PYTHONPATH=src "
            "python -m pytest tests/test_ivm_differential.py"
        )


@pytest.mark.parametrize(
    "sql",
    [
        f"SELECT g, count(*) AS n FROM {TABLE} GROUP BY g",
        f"SELECT g, count(*) AS n FROM {TABLE} GROUP BY g ORDER BY n DESC",
        f"SELECT g, v FROM {TABLE} WHERE v > 10 ORDER BY g, 2 DESC",
    ],
)
def test_harness_actually_exercises_the_fold_path(sql):
    """Sanity: the scenario distribution drives real folds, not just misses."""
    catalog = fresh_catalog(SEED)
    rng = random.Random(SEED ^ 0xF01D)
    catalog.execute(sql)
    for _ in range(5):
        catalog.append_rows(TABLE, _rows(rng, 3))
        assert check_step(catalog, sql) is None
    assert catalog.cache_stats()["ivm_folds"] == 5
    assert catalog.cache_stats()["ivm_fallbacks"] == 0


def test_shrinker_reduces_an_injected_failure():
    """The delta-debugger itself: a synthetic always-failing step shrinks to
    a minimal scenario that still contains it."""
    rng = random.Random(SEED ^ 0x5EED)
    ops = build_scenario(rng, 30)
    # A query against a table that never exists fails identically on every
    # replay — the shrinker should strip everything else away.
    ops.append(("query", "SELECT missing FROM nowhere"))
    outcome = replay(ops)
    assert outcome is not None
    index, reason = outcome
    assert index == len(ops) - 1
    shrunk = shrink_scenario(ops, failure_category(reason))
    assert len(shrunk) == 1
    assert shrunk[0][0] == "query"
