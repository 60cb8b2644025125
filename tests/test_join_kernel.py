"""In-order oracle for the hash-join kernel (``JoinExec``).

Each ON join is lowered to its physical ``JoinExec`` and run twice on the
same input batches: as lowered, which takes the hash path over the extracted
equi-keys, and with ``left_keys`` / ``right_keys`` cleared, which makes the
nested loop evaluate the full ON condition over the cross product.  The two
runs must give identical rows in identical order: left-major for INNER, LEFT
and FULL, right-major for RIGHT, each outer join's NULL-padded row at the
unmatched row's position, FULL's unmatched right rows last.  The sqlite
differential compares bags, so row order is only pinned here.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.engine.catalog import Catalog
from repro.engine.executor import ExecutionContext, Executor
from repro.engine.plan_nodes import JoinExec
from repro.sql.parser import parse

#: Keys with duplicates on both sides, NULLs, a NULL in one component of the
#: two-column key, and ``1``, ``1.0`` and ``TRUE`` (equal under SQL ``=``).
LEFT_ROWS = [
    [1, "a", 10],
    [2, "b", 20],
    [None, "a", 30],
    [1, None, 40],
    [3, "c", 50],
    [1.0, "a", 60],
    [True, "b", 70],
    [2, "b", 80],
    [9, "z", 90],
]
RIGHT_ROWS = [
    [2, "b", 25],
    [1, "a", 5],
    [None, "a", 15],
    [1, "a", 65],
    [True, "a", 35],
    [1.0, None, 45],
    [3, "d", 55],
    [2, "b", 5],
    [7, "q", 75],
]

JOIN_TYPES = ["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"]

#: ON conditions: one key, two keys, each with a residual conjunct.
CONDITIONS = [
    "l.k = r.k",
    "l.k = r.k AND l.k2 = r.k2",
    "l.k2 = r.k2 AND l.k = r.k",
    "l.k = r.k AND l.v < r.v",
    "l.k = r.k AND l.k2 = r.k2 AND l.v > r.v",
]


class _Fixed:
    """A leaf physical node returning one already-computed batch."""

    def __init__(self, batch) -> None:
        self.batch = batch

    def execute(self, ctx):
        return self.batch


def make_catalog(left_rows=LEFT_ROWS, right_rows=RIGHT_ROWS) -> Catalog:
    catalog = Catalog()
    catalog.create_table("l", ["k", "k2", "v"], left_rows)
    catalog.create_table("r", ["k", "k2", "v"], right_rows)
    return catalog


def hashed_and_nested(catalog: Catalog, sql: str) -> tuple[list, list]:
    """Rows of the query's only ON join, as lowered and as a nested loop.

    Rows are the join's own output: ``l``'s columns, then ``r``'s.
    """
    executor = Executor(catalog, optimize=False)
    joins = [node for node in executor.compile(parse(sql)).walk() if isinstance(node, JoinExec)]
    assert len(joins) == 1
    join = joins[0]
    assert join.left_keys and len(join.left_keys) == len(join.right_keys)
    ctx = ExecutionContext(executor, catalog, {}, None, {})
    left = _Fixed(join.left.execute(ctx))
    right = _Fixed(join.right.execute(ctx))
    hashed = replace(join, left=left, right=right).execute(ctx)
    nested = replace(join, left=left, right=right, left_keys=[], right_keys=[]).execute(ctx)
    return hashed.rows(), nested.rows()


def values(rows: list) -> list:
    """``(l.v, r.v)`` of each joined row."""
    return [(row[2], row[5]) for row in rows]


@pytest.mark.parametrize("join", JOIN_TYPES)
@pytest.mark.parametrize("condition", CONDITIONS)
def test_hash_path_matches_the_nested_loop_in_order(join, condition):
    hashed, nested = hashed_and_nested(
        make_catalog(), f"SELECT * FROM l {join} r ON {condition}"
    )
    assert hashed == nested
    assert hashed  # every shape matches some rows


@pytest.mark.parametrize("join", JOIN_TYPES)
def test_one_two_and_true_are_one_key(join):
    hashed, nested = hashed_and_nested(
        make_catalog(), f"SELECT * FROM l {join} r ON l.k = r.k"
    )
    assert hashed == nested
    ones = [row for row in values(hashed) if row[0] in (10, 40, 60, 70)]
    # Each of the four left rows keyed 1, 1.0 or TRUE meets all four right
    # rows keyed 1, 1.0 or TRUE, in the major side's row order.
    if join == "RIGHT JOIN":
        expected = [(lv, rv) for rv in (5, 65, 35, 45) for lv in (10, 40, 60, 70)]
    else:
        expected = [(lv, rv) for lv in (10, 40, 60, 70) for rv in (5, 65, 35, 45)]
    assert ones == expected


@pytest.mark.parametrize("join", JOIN_TYPES)
def test_a_null_component_never_matches(join):
    hashed, nested = hashed_and_nested(
        make_catalog(), f"SELECT * FROM l {join} r ON l.k = r.k AND l.k2 = r.k2"
    )
    assert hashed == nested
    matched = {row for row in values(hashed) if None not in row}
    # l.v 30 (NULL k) and 40 (NULL k2) and r.v 15 (NULL k) and 45 (NULL k2)
    # appear only padded, never in a matched pair.
    assert not {30, 40} & {row[0] for row in matched}
    assert not {15, 45} & {row[1] for row in matched}


@pytest.mark.parametrize("join", JOIN_TYPES)
def test_outer_padding_sits_at_the_unmatched_row(join):
    hashed, nested = hashed_and_nested(
        make_catalog(), f"SELECT * FROM l {join} r ON l.k = r.k AND l.v < r.v"
    )
    assert hashed == nested
    left_major = [
        (10, 65), (10, 35), (10, 45), (20, 25), (30, None), (40, 65), (40, 45),
        (50, 55), (60, 65), (70, None), (80, None), (90, None),
    ]  # fmt: skip
    expected = {
        "JOIN": [row for row in left_major if None not in row],
        "LEFT JOIN": left_major,
        "RIGHT JOIN": [
            (20, 25), (None, 5), (None, 15), (10, 65), (40, 65), (60, 65),
            (10, 35), (10, 45), (40, 45), (50, 55), (None, 5), (None, 75),
        ],
        "FULL JOIN": left_major + [(None, 5), (None, 15), (None, 5), (None, 75)],
    }  # fmt: skip
    assert values(hashed) == expected[join]


@pytest.mark.parametrize("join", JOIN_TYPES)
@pytest.mark.parametrize("side", ["left", "right"])
def test_an_unhashable_key_falls_back_to_the_nested_loop(join, side):
    # Table.append accepts a list value; the hash path cannot bucket or
    # probe it, so the join evaluates the full condition row by row.
    left_rows = [list(row) for row in LEFT_ROWS]
    right_rows = [list(row) for row in RIGHT_ROWS]
    rows = left_rows if side == "left" else right_rows
    rows.append([[1, 2], "a", 99])
    (right_rows if side == "left" else left_rows).append([[1, 2], "a", 98])
    hashed, nested = hashed_and_nested(
        make_catalog(left_rows, right_rows),
        f"SELECT * FROM l {join} r ON l.k = r.k AND l.k2 = r.k2",
    )
    assert hashed == nested
    assert {(99, 98), (98, 99)} & set(values(hashed))


def test_a_join_with_no_rows_on_one_side():
    catalog = make_catalog(right_rows=[])
    for join in JOIN_TYPES:
        hashed, nested = hashed_and_nested(
            catalog, f"SELECT * FROM l {join} r ON l.k = r.k AND l.k2 = r.k2"
        )
        assert hashed == nested
