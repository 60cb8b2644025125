"""Differential / fuzz harness: the engine against itself and against sqlite3.

A seeded random query generator produces a few hundred SQL statements over
NULL-heavy fixture tables (filters, multi-way joins, group-by/HAVING, CTEs,
derived tables, correlated subqueries, set operations).  Every query runs
three ways:

* through the engine with the logical optimizer **on** (the default path),
* through the engine with the optimizer **off** (verbatim lowering),
* through ``sqlite3`` as an independent oracle,

and all three results must be **bag-equal** (same multiset of rows, compared
positionally with floats rounded).  This machine-checks the optimizer's core
contract — every rewrite preserves results — in the spirit of automated
SQL-equivalence checking.

A second generated suite biases predicates toward *indexed* columns and runs
each query four ways — an index-carrying catalog with the optimizer on
(IndexScan plans) and off (escape hatch), the plain catalog, and sqlite —
extending the same oracle to the access-path selection layer.

Seed policy: the generator is seeded from ``DIFFERENTIAL_SEED`` (default
20260727) and generates ``DIFFERENTIAL_QUERY_COUNT`` queries (default 200; CI
raises it).  A failure report names the seed and query index, so any failure
is reproducible with::

    DIFFERENTIAL_SEED=<seed> PYTHONPATH=src python -m pytest tests/test_differential_sqlite.py

On mismatch the harness *shrinks* the failing query (dropping clauses, legs
and joins while the mismatch persists) and writes the original + shrunk SQL
to ``tests/artifacts/differential/`` — CI uploads that directory as the
failing-query corpus.  See docs/TESTING.md.
"""

from __future__ import annotations

import os
import random
import sqlite3
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Iterator

import pytest

from repro.engine.catalog import Catalog
from repro.engine.options import ExecOptions
from repro.sql.ast_nodes import Join, Select, SetOperation, SqlNode
from repro.sql.parser import parse
from repro.sql.printer import to_sql

SEED = int(os.environ.get("DIFFERENTIAL_SEED", "20260727"))
QUERY_COUNT = int(os.environ.get("DIFFERENTIAL_QUERY_COUNT", "200"))
ARTIFACT_DIR = Path(__file__).parent / "artifacts" / "differential"

# --------------------------------------------------------------------------- #
# Fixture data (NULL-heavy, type-clean per column)
# --------------------------------------------------------------------------- #


def _build_rows(rng: random.Random):
    groups = ["a", "b", "c", "d", None]
    tags = ["red", "green", "blue", "mauve", None, None]
    cats = ["x", "y", "z", None]
    t_rows = [
        (
            i,
            rng.choice(groups),
            rng.choice([None, rng.randrange(0, 100)]) if rng.random() < 0.3 else rng.randrange(0, 100),
            None if rng.random() < 0.25 else round(rng.uniform(-5.0, 5.0), 3),
            rng.choice(tags),
        )
        for i in range(60)
    ]
    s_rows = [
        (
            i,
            None if rng.random() < 0.2 else rng.randrange(0, 75),  # some miss t.id
            None if rng.random() < 0.2 else rng.randrange(0, 500),
            rng.choice(cats),
        )
        for i in range(90)
    ]
    u_rows = [
        (rng.randrange(0, 6), rng.choice(["ab", "cd", "ef"]), rng.randrange(0, 20))
        for _ in range(12)
    ]
    return t_rows, s_rows, u_rows


TABLES = {
    "t": ["id", "grp", "val", "score", "tag"],
    "s": ["sid", "t_id", "amount", "cat"],
    "u": ["k", "label", "num"],
}

#: Secondary indexes the indexed-catalog fixture creates, and the columns the
#: index-biased generator aims its point/range predicates at.
INDEXED_COLUMNS = {
    "t": {"id": "hash", "val": "ordered"},
    "s": {"t_id": "hash", "amount": "ordered"},
}


@pytest.fixture(scope="module")
def oracle_pair():
    """(engine catalog, sqlite connection) over identical data."""
    rng = random.Random(SEED ^ 0xDA7A)
    t_rows, s_rows, u_rows = _build_rows(rng)
    catalog = Catalog()
    catalog.create_table("t", TABLES["t"], t_rows)
    catalog.create_table("s", TABLES["s"], s_rows)
    catalog.create_table("u", TABLES["u"], u_rows)

    connection = sqlite3.connect(":memory:")
    for name, rows in (("t", t_rows), ("s", s_rows), ("u", u_rows)):
        columns = ", ".join(TABLES[name])
        connection.execute(f"CREATE TABLE {name} ({columns})")
        placeholders = ", ".join("?" for _ in TABLES[name])
        connection.executemany(f"INSERT INTO {name} VALUES ({placeholders})", rows)
    yield catalog, connection
    connection.close()


@pytest.fixture(scope="module")
def indexed_catalog():
    """A second catalog over the *identical* rows, with secondary indexes.

    The same seed derivation as ``oracle_pair`` guarantees identical data, so
    the plain catalog / sqlite oracles remain valid for queries run here —
    any divergence is an index or access-path bug, not a data difference.
    """
    rng = random.Random(SEED ^ 0xDA7A)
    t_rows, s_rows, u_rows = _build_rows(rng)
    catalog = Catalog()
    catalog.create_table("t", TABLES["t"], t_rows)
    catalog.create_table("s", TABLES["s"], s_rows)
    catalog.create_table("u", TABLES["u"], u_rows)
    for table, columns in INDEXED_COLUMNS.items():
        for column, kind in columns.items():
            catalog.create_index(table, column, kind)
    return catalog


# --------------------------------------------------------------------------- #
# Result normalization and bag comparison
# --------------------------------------------------------------------------- #


def normalize_rows(rows: list[tuple[Any, ...]]) -> list[tuple[Any, ...]]:
    """Order-insensitive, float-tolerant canonical form of a result."""

    def norm(value: Any) -> Any:
        if value is None:
            return None
        if isinstance(value, bool):
            return round(float(value), 6)
        if isinstance(value, (int, float)):
            return round(float(value), 6)
        return value

    normalized = [tuple(norm(v) for v in row) for row in rows]
    return sorted(normalized, key=repr)


def run_engine(catalog: Catalog, sql: str, optimize: bool) -> list[tuple[Any, ...]]:
    return catalog.execute(sql, ExecOptions(use_cache=False, optimize=optimize)).rows


def run_sqlite(connection: sqlite3.Connection, sql: str) -> list[tuple[Any, ...]]:
    return [tuple(row) for row in connection.execute(sql).fetchall()]


def check_query(catalog: Catalog, connection: sqlite3.Connection, sql: str) -> str | None:
    """Run one query all three ways; return a mismatch description or None.

    Any execution error is reported too: the generator only emits well-typed
    queries, so an error on either side is itself a bug signal.
    """
    try:
        optimized = normalize_rows(run_engine(catalog, sql, optimize=True))
    except Exception as exc:  # noqa: BLE001 - report, don't crash the harness
        return f"engine (optimizer on) raised {type(exc).__name__}: {exc}"
    try:
        verbatim = normalize_rows(run_engine(catalog, sql, optimize=False))
    except Exception as exc:  # noqa: BLE001
        return f"engine (optimizer off) raised {type(exc).__name__}: {exc}"
    try:
        oracle = normalize_rows(run_sqlite(connection, sql))
    except Exception as exc:  # noqa: BLE001
        return f"sqlite oracle raised {type(exc).__name__}: {exc}"
    if optimized != verbatim:
        return (
            "optimizer on/off disagree: "
            f"on={_preview(optimized)} off={_preview(verbatim)}"
        )
    if optimized != oracle:
        return (
            "engine/sqlite disagree: "
            f"engine={_preview(optimized)} sqlite={_preview(oracle)}"
        )
    return None


def _preview(rows: list[tuple[Any, ...]], limit: int = 6) -> str:
    head = ", ".join(repr(row) for row in rows[:limit])
    suffix = f", ... ({len(rows)} rows)" if len(rows) > limit else ""
    return f"[{head}{suffix}]"


# --------------------------------------------------------------------------- #
# Random query generator
# --------------------------------------------------------------------------- #


class QueryGenerator:
    """Generates SQL supported identically by the engine and sqlite3.

    Deliberately avoided constructs (documented divergences, not bugs):
    ``/`` (true vs integer division), ``%`` on negatives, LIMIT (bag
    comparison is order-insensitive), RIGHT/FULL joins (recent sqlite only),
    case-sensitive LIKE (all fixture text is lowercase), EXCEPT/INTERSECT
    ALL (unsupported by sqlite), and mixed-type comparisons.
    """

    def __init__(self, seed: int, index_bias: float = 0.0, window_bias: float = 0.0) -> None:
        self.rng = random.Random(seed)
        #: Probability that a generated predicate is a point-equality /
        #: range / IN / BETWEEN probe on an *indexed* column (see
        #: INDEXED_COLUMNS), steering the fuzz mass onto the access-path
        #: selection and IndexScan execution code.
        self.index_bias = index_bias
        #: Probability that a generated query is a window-function query
        #: (ranking, lag/lead, running aggregates over OVER clauses).
        self.window_bias = window_bias

    # -- helpers --------------------------------------------------------- #

    def choice(self, items):
        return self.rng.choice(items)

    def maybe(self, probability: float) -> bool:
        return self.rng.random() < probability

    def num_col(self, alias: str, table: str) -> str:
        columns = {"t": ["id", "val"], "s": ["sid", "t_id", "amount"], "u": ["k", "num"]}
        return f"{alias}.{self.choice(columns[table])}"

    def text_col(self, alias: str, table: str) -> str:
        columns = {"t": ["grp", "tag"], "s": ["cat"], "u": ["label"]}
        return f"{alias}.{self.choice(columns[table])}"

    def num_literal(self) -> str:
        return str(self.rng.randrange(-10, 120))

    def text_literal(self) -> str:
        return f"'{self.choice(['a', 'b', 'c', 'x', 'y', 'red', 'blue', 'ab', 'zz'])}'"

    # -- expressions ----------------------------------------------------- #

    def num_expr(self, alias: str, table: str, depth: int = 0) -> str:
        roll = self.rng.random()
        if depth > 1 or roll < 0.45:
            return self.num_col(alias, table)
        if roll < 0.6:
            return self.num_literal()
        if roll < 0.7:
            return f"abs({self.num_expr(alias, table, depth + 1)})"
        if roll < 0.8:
            return f"coalesce({self.num_col(alias, table)}, {self.num_literal()})"
        op = self.choice(["+", "-", "*"])
        return (
            f"({self.num_expr(alias, table, depth + 1)} {op} "
            f"{self.num_expr(alias, table, depth + 1)})"
        )

    def indexed_predicate(self, aliases: list[tuple[str, str]]) -> str | None:
        """A point/range/IN/BETWEEN predicate on an indexed column, or None."""
        candidates = [
            (alias, table, column)
            for alias, table in aliases
            for column in INDEXED_COLUMNS.get(table, ())
        ]
        if not candidates:
            return None
        alias, table, column = self.choice(candidates)
        # Probe near the fixture's actual value domains so predicates hit.
        domain = {"id": 60, "val": 100, "t_id": 75, "amount": 500}[column]
        target = f"{alias}.{column}"
        kind = self.rng.randrange(5)
        if kind == 0:
            return f"{target} = {self.rng.randrange(domain)}"
        if kind == 1:
            op = self.choice(["<", "<=", ">", ">="])
            return f"{target} {op} {self.rng.randrange(domain)}"
        if kind == 2:
            low = self.rng.randrange(domain)
            return f"{target} BETWEEN {low} AND {low + self.rng.randrange(1, domain // 3 + 2)}"
        if kind == 3:
            items = ", ".join(
                str(self.rng.randrange(domain)) for _ in range(self.rng.randrange(2, 5))
            )
            return f"{target} IN ({items})"
        # Flipped literal-on-left comparison (the optimizer must normalize).
        op = self.choice(["<", ">", "="])
        return f"{self.rng.randrange(domain)} {op} {target}"

    def predicate(self, aliases: list[tuple[str, str]], depth: int = 0) -> str:
        if self.index_bias and self.rng.random() < self.index_bias:
            biased = self.indexed_predicate(aliases)
            if biased is not None:
                return biased
        alias, table = self.choice(aliases)
        roll = self.rng.random()
        if depth < 2 and roll < 0.25:
            connective = self.choice(["AND", "OR"])
            return (
                f"({self.predicate(aliases, depth + 1)} {connective} "
                f"{self.predicate(aliases, depth + 1)})"
            )
        if depth < 2 and roll < 0.3:
            return f"NOT ({self.predicate(aliases, depth + 1)})"
        kind = self.rng.randrange(8)
        if kind == 0:
            op = self.choice(["=", "<>", "<", "<=", ">", ">="])
            return f"{self.num_expr(alias, table)} {op} {self.num_literal()}"
        if kind == 1:
            op = self.choice(["=", "<>"])
            return f"{self.text_col(alias, table)} {op} {self.text_literal()}"
        if kind == 2:
            low = self.rng.randrange(-5, 60)
            return f"{self.num_col(alias, table)} BETWEEN {low} AND {low + self.rng.randrange(0, 50)}"
        if kind == 3:
            negated = "NOT " if self.maybe(0.3) else ""
            return f"{self.num_col(alias, table)} IS {negated}NULL"
        if kind == 4:
            items = ", ".join(self.num_literal() for _ in range(self.rng.randrange(2, 5)))
            negated = "NOT " if self.maybe(0.25) else ""
            return f"{self.num_col(alias, table)} {negated}IN ({items})"
        if kind == 5:
            pattern = self.choice(["'%a%'", "'r%'", "'%e'", "'__'"])
            return f"{self.text_col(alias, table)} LIKE {pattern}"
        if kind == 6:
            threshold = self.num_literal()
            return (
                f"CASE WHEN {self.num_col(alias, table)} > {threshold} "
                f"THEN 1 ELSE 0 END = 1"
            )
        op = self.choice(["<", ">", "="])
        return f"{self.num_col(alias, table)} {op} {self.num_col(alias, table)}"

    def correlated_exists(self, outer_alias: str) -> str:
        negated = "NOT " if self.maybe(0.3) else ""
        extra = f" AND sx.amount > {self.rng.randrange(0, 400)}" if self.maybe(0.5) else ""
        return (
            f"{negated}EXISTS (SELECT 1 FROM s sx "
            f"WHERE sx.t_id = {outer_alias}.id{extra})"
        )

    # -- FROM clauses ----------------------------------------------------- #

    def from_clause(self) -> tuple[str, list[tuple[str, str]]]:
        roll = self.rng.random()
        if roll < 0.35:
            table = self.choice(["t", "s", "u"])
            alias = table + "0"
            return f"{table} {alias}", [(alias, table)]
        if roll < 0.6:
            join = self.choice(["JOIN", "LEFT JOIN"])
            if self.maybe(0.3):
                # Two equi-keys: the composite-key hash path, with NULL
                # components and duplicate keys on both sides.
                return (
                    f"s s0 {join} s s1 ON s1.t_id = s0.t_id AND s1.cat = s0.cat",
                    [("s0", "s"), ("s1", "s")],
                )
            condition = "s0.t_id = t0.id"
            if self.maybe(0.3):
                condition += f" AND s0.amount > {self.rng.randrange(0, 300)}"
            return f"t t0 {join} s s0 ON {condition}", [("t0", "t"), ("s0", "s")]
        if roll < 0.75:
            # Comma join rescued by a WHERE equality (optimizer fodder).
            return "t t0, s s0", [("t0", "t"), ("s0", "s")]
        if roll < 0.9:
            join = self.choice(["JOIN", "LEFT JOIN"])
            return (
                f"t t0 JOIN s s0 ON s0.t_id = t0.id {join} u u0 ON u0.k = s0.t_id",
                [("t0", "t"), ("s0", "s"), ("u0", "u")],
            )
        return "t t0, s s0, u u0", [("t0", "t"), ("s0", "s"), ("u0", "u")]

    def where_clause(self, aliases: list[tuple[str, str]], comma_join: bool) -> str:
        conjuncts: list[str] = []
        if comma_join and len(aliases) >= 2:
            conjuncts.append("s0.t_id = t0.id")
            if len(aliases) >= 3:
                conjuncts.append("u0.k = s0.t_id")
        if self.maybe(0.8):
            conjuncts.append(self.predicate(aliases))
        if any(table == "t" for _, table in aliases) and self.maybe(0.25):
            conjuncts.append(self.correlated_exists("t0"))
        if any(table == "t" for _, table in aliases) and self.maybe(0.15):
            conjuncts.append("t0.val IN (SELECT u2.num FROM u u2)")
        if not conjuncts:
            return ""
        return " WHERE " + " AND ".join(conjuncts)

    # -- whole queries ---------------------------------------------------- #

    def simple_select(self) -> str:
        from_sql, aliases = self.from_clause()
        comma = "," in from_sql
        columns: list[str] = []
        for index in range(self.rng.randrange(1, 4)):
            alias, table = self.choice(aliases)
            if self.maybe(0.6):
                columns.append(f"{self.num_expr(alias, table)} AS c{index}")
            elif self.maybe(0.5):
                columns.append(f"{self.text_col(alias, table)} AS c{index}")
            else:
                expr = self.choice(
                    [
                        f"lower({self.text_col(alias, table)})",
                        f"length({self.text_col(alias, table)})",
                        f"CASE WHEN {self.num_col(alias, table)} > 40 THEN 'hi' ELSE 'lo' END",
                        f"coalesce({self.text_col(alias, table)}, 'none')",
                    ]
                )
                columns.append(f"{expr} AS c{index}")
        distinct = "DISTINCT " if self.maybe(0.2) else ""
        sql = f"SELECT {distinct}{', '.join(columns)} FROM {from_sql}"
        sql += self.where_clause(aliases, comma)
        if self.maybe(0.3):
            sql += " ORDER BY c0"
        return sql

    def aggregate_select(self) -> str:
        from_sql, aliases = self.from_clause()
        comma = "," in from_sql
        alias, table = self.choice(aliases)
        key_pool = {
            "t": ["t0.grp", "t0.tag"],
            "s": ["s0.cat"],
            "u": ["u0.label", "u0.k"],
        }
        keys: list[str] = []
        for candidate_alias, candidate_table in aliases:
            keys.extend(
                key
                for key in key_pool.get(candidate_table, [])
                if key.startswith(candidate_alias + ".")
            )
        group_keys = self.rng.sample(keys, k=min(len(keys), self.rng.randrange(1, 3)))
        aggregates = [
            self.choice(
                [
                    "count(*)",
                    f"count({self.num_col(alias, table)})",
                    f"count(DISTINCT {self.text_col(alias, table)})",
                    f"sum({self.num_col(alias, table)})",
                    f"avg({self.num_col(alias, table)})",
                    f"min({self.num_col(alias, table)})",
                    f"max({self.num_col(alias, table)})",
                ]
            )
            for _ in range(self.rng.randrange(1, 3))
        ]
        select_list = ", ".join(
            group_keys + [f"{agg} AS a{i}" for i, agg in enumerate(aggregates)]
        )
        sql = f"SELECT {select_list} FROM {from_sql}"
        sql += self.where_clause(aliases, comma)
        sql += " GROUP BY " + ", ".join(group_keys)
        if self.maybe(0.5):
            having = self.choice(
                [
                    "count(*) > 1",
                    "count(*) >= 2",
                    f"{group_keys[0]} IS NOT NULL",
                ]
            )
            sql += f" HAVING {having}"
        return sql

    def cte_select(self) -> str:
        shape = self.rng.randrange(3)
        if shape == 0:
            inner = "SELECT grp AS g, count(*) AS n, sum(val) AS total FROM t GROUP BY grp"
            joined = "SELECT t.id, w.n FROM t JOIN w ON w.g = t.grp"
            key = "g"
        elif shape == 1:
            inner = "SELECT t_id AS fk, count(*) AS n, max(amount) AS top FROM s GROUP BY t_id"
            joined = "SELECT t.id, w.n FROM t JOIN w ON w.fk = t.id"
            key = "fk"
        else:
            inner = f"SELECT id AS fk, val AS n FROM t WHERE val > {self.rng.randrange(0, 80)}"
            joined = "SELECT t.id, w.n FROM t JOIN w ON w.fk = t.id"
            key = "fk"
        if self.maybe(0.5):
            return (
                f"WITH w AS ({inner}) SELECT w.{key}, w.n FROM w "
                f"WHERE w.n > {self.rng.randrange(0, 3)}"
            )
        return f"WITH w AS ({inner}) {joined}"

    def derived_select(self) -> str:
        threshold = self.rng.randrange(0, 80)
        inner = self.choice(
            [
                "SELECT id AS a, val AS v, grp AS g FROM t WHERE val IS NOT NULL",
                f"SELECT sid AS a, amount AS v, cat AS g FROM s WHERE amount > {threshold}",
                "SELECT grp AS g, count(*) AS v, min(id) AS a FROM t GROUP BY grp",
            ]
        )
        outer_pred = self.choice(
            [f"d.v > {self.rng.randrange(0, 90)}", "d.g IS NOT NULL", f"d.a < {self.rng.randrange(10, 60)}"]
        )
        return f"SELECT d.a, d.v FROM ({inner}) d WHERE {outer_pred}"

    def setop_select(self) -> str:
        op = self.choice(["UNION", "UNION ALL", "INTERSECT", "EXCEPT"])
        legs = [
            f"SELECT t0.grp AS g FROM t t0 WHERE {self.predicate([('t0', 't')])}",
            f"SELECT s0.cat AS g FROM s s0 WHERE {self.predicate([('s0', 's')])}",
            "SELECT u0.label AS g FROM u u0",
        ]
        left, right = self.rng.sample(legs, 2)
        return f"{left} {op} {right}"

    def scalar_subquery_select(self) -> str:
        aggregate = self.choice(["avg(val)", "max(val)", "min(val)", "count(*)"])
        return (
            f"SELECT t0.id, t0.val FROM t t0 "
            f"WHERE t0.val > (SELECT {aggregate} FROM t) - {self.rng.randrange(0, 60)}"
        )

    # -- window queries ---------------------------------------------------- #

    #: Per-table column pools for the window generator.  Window *values*
    #: depend on intra-partition order, so every shape whose output is
    #: order-sensitive (row_number, lag/lead, physical ROWS frames) appends
    #: the table's unique key to the OVER's ORDER BY, making the order total
    #: and the result deterministic on both substrates.
    WINDOW_UNIQUE = {"t": "id", "s": "sid"}
    WINDOW_NUM_COLS = {"t": ["val", "score", "id"], "s": ["amount", "sid"]}
    WINDOW_PART_COLS = {"t": ["grp", "tag"], "s": ["cat"]}

    def _window_over(self, alias: str, table: str, *, total: bool, frame: bool) -> str:
        """An OVER (...) clause; ``total`` forces a deterministic total order."""
        parts: list[str] = []
        if self.maybe(0.6):
            part_col = self.choice(self.WINDOW_PART_COLS[table])
            parts.append(f"PARTITION BY {alias}.{part_col}")
        order_col = self.choice(self.WINDOW_NUM_COLS[table])
        direction = " DESC" if self.maybe(0.3) else ""
        order = f"{alias}.{order_col}{direction}"
        unique = self.WINDOW_UNIQUE[table]
        if total and order_col != unique:
            order += f", {alias}.{unique}"
        parts.append(f"ORDER BY {order}")
        clause = " ".join(parts)
        if frame:
            low = self.rng.randrange(0, 4)
            kind = self.rng.randrange(3)
            if kind == 0:
                clause += f" ROWS BETWEEN {low} PRECEDING AND CURRENT ROW"
            elif kind == 1:
                clause += f" ROWS BETWEEN UNBOUNDED PRECEDING AND {low} FOLLOWING"
            else:
                high = self.rng.randrange(0, 3)
                clause += f" ROWS BETWEEN {low} PRECEDING AND {high} FOLLOWING"
        return f"OVER ({clause})"

    def window_item(self, alias: str, table: str, index: int) -> str:
        """One windowed SELECT item, deterministic under bag comparison."""
        col = self.choice([c for c in self.WINDOW_NUM_COLS[table] if c != self.WINDOW_UNIQUE[table]]
                          or self.WINDOW_NUM_COLS[table])
        roll = self.rng.random()
        if roll < 0.25:
            func = self.choice(["row_number()"])
            over = self._window_over(alias, table, total=True, frame=False)
        elif roll < 0.45:
            func = self.choice(["rank()", "dense_rank()"])
            over = self._window_over(alias, table, total=False, frame=False)
        elif roll < 0.65:
            offset = self.rng.randrange(0, 3)
            name = self.choice(["lag", "lead"])
            if self.maybe(0.5):
                func = f"{name}({alias}.{col}, {offset}, {self.rng.randrange(0, 9)})"
            else:
                func = f"{name}({alias}.{col}, {offset})"
            over = self._window_over(alias, table, total=True, frame=False)
        else:
            agg = self.choice(["sum", "avg", "min", "max", "count"])
            func = f"{agg}({alias}.{col})"
            use_frame = self.maybe(0.45)
            # Default frames are peer-extended (ties share the running
            # value), so ties are safe; physical frames need a total order.
            over = self._window_over(alias, table, total=use_frame, frame=use_frame)
        return f"{func} {over} AS w{index}"

    def window_select(self) -> str:
        table = self.choice(["t", "s"])
        alias = table + "0"
        unique = self.WINDOW_UNIQUE[table]
        roll = self.rng.random()
        if roll < 0.15:
            # Window over a derived table: the classic top-N-per-group shell,
            # plus an outer predicate that must stop at the window boundary.
            inner_items = ", ".join(
                [f"{alias}.{unique} AS k0", f"{alias}.{self.choice(self.WINDOW_PART_COLS[table])} AS g0",
                 self.window_item(alias, table, 1)]
            )
            inner = f"SELECT {inner_items} FROM {table} {alias}"
            outer_pred = self.choice(
                [f"d.w1 <= {self.rng.randrange(1, 8)}", "d.g0 IS NOT NULL",
                 f"d.k0 < {self.rng.randrange(20, 70)}"]
            )
            return f"SELECT d.k0, d.w1 FROM ({inner}) d WHERE {outer_pred}"
        if roll < 0.25:
            # Window over GROUP BY output: ranking groups by an aggregate.
            return (
                "SELECT grp, count(*) AS n, "
                "rank() OVER (ORDER BY count(*) DESC, grp) AS pos "
                "FROM t GROUP BY grp"
            )
        items = [f"{alias}.{unique} AS k0"]
        for index in range(1, self.rng.randrange(2, 4)):
            items.append(self.window_item(alias, table, index))
        sql = f"SELECT {', '.join(items)} FROM {table} {alias}"
        if self.maybe(0.5):
            sql += f" WHERE {self.predicate([(alias, table)])}"
        return sql

    def generate(self) -> str:
        if self.window_bias and self.rng.random() < self.window_bias:
            return self.window_select()
        roll = self.rng.random()
        if roll < 0.3:
            return self.simple_select()
        if roll < 0.55:
            return self.aggregate_select()
        if roll < 0.7:
            return self.cte_select()
        if roll < 0.8:
            return self.derived_select()
        if roll < 0.92:
            return self.setop_select()
        return self.scalar_subquery_select()


# --------------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------------- #


def _from_variants(node: SqlNode | None) -> Iterator[SqlNode]:
    if isinstance(node, Join):
        yield node.left
        yield node.right


def _reductions(node: SqlNode) -> Iterator[SqlNode]:
    """Candidate simplifications of a query AST, most aggressive first."""
    if isinstance(node, SetOperation):
        yield node.left
        yield node.right
        for leg_name in ("left", "right"):
            for reduced in _reductions(getattr(node, leg_name)):
                yield replace(node, **{leg_name: reduced})
        return
    if not isinstance(node, Select):
        return
    for variant in _from_variants(node.from_clause):
        yield replace(node, from_clause=variant)
    if node.where is not None:
        yield replace(node, where=None)
    if node.having is not None:
        yield replace(node, having=None)
    if node.ctes:
        yield replace(node, ctes=[])
    if node.order_by:
        yield replace(node, order_by=[])
    if node.distinct:
        yield replace(node, distinct=False)
    if node.group_by:
        yield replace(node, group_by=[], having=None)
    if len(node.select_items) > 1:
        for index in range(len(node.select_items)):
            items = node.select_items[:index] + node.select_items[index + 1 :]
            yield replace(node, select_items=items)


def failure_category(reason: str | None) -> str | None:
    """The failure class of a check result ('mismatch kind' or 'who raised').

    Shrinking must preserve the category: a reduction that turns a result
    mismatch into (say) an unknown-column error found a *different* problem —
    usually one the reduction itself introduced — and must be rejected.
    """
    if reason is None:
        return None
    return reason.split(":", 1)[0]


def shrink_query(sql: str, still_fails: Callable[[str], bool]) -> str:
    """Greedy fixpoint shrink: keep any reduction that still reproduces."""
    try:
        node = parse(sql)
    except Exception:  # noqa: BLE001 - unparseable means nothing to shrink
        return sql
    changed = True
    while changed:
        changed = False
        for candidate in _reductions(node):
            try:
                candidate_sql = to_sql(candidate)
            except Exception:  # noqa: BLE001
                continue
            if still_fails(candidate_sql):
                node = candidate
                changed = True
                break
    return to_sql(node)


def _write_artifact(seed: int, index: int, sql: str, shrunk: str, reason: str) -> Path:
    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    path = ARTIFACT_DIR / f"failure_seed{seed}_q{index}.sql"
    path.write_text(
        "-- differential harness failure\n"
        f"-- seed: {seed}  query index: {index}\n"
        f"-- reason: {reason}\n"
        f"-- original:\n{sql};\n"
        f"-- shrunk:\n{shrunk};\n"
    )
    return path


# --------------------------------------------------------------------------- #
# The tests
# --------------------------------------------------------------------------- #


def test_fixture_tables_agree(oracle_pair):
    """Sanity: both substrates hold identical data before fuzzing."""
    catalog, connection = oracle_pair
    for name, columns in TABLES.items():
        sql = f"SELECT {', '.join(columns)} FROM {name}"
        engine_rows = normalize_rows(run_engine(catalog, sql, optimize=True))
        sqlite_rows = normalize_rows(run_sqlite(connection, sql))
        assert engine_rows == sqlite_rows, f"fixture table {name} differs"


def test_generated_queries_differential(oracle_pair):
    catalog, connection = oracle_pair
    generator = QueryGenerator(SEED)
    failures: list[str] = []
    for index in range(QUERY_COUNT):
        sql = generator.generate()
        reason = check_query(catalog, connection, sql)
        if reason is None:
            continue
        category = failure_category(reason)
        shrunk = shrink_query(
            sql,
            lambda candidate: failure_category(check_query(catalog, connection, candidate))
            == category,
        )
        shrunk_reason = check_query(catalog, connection, shrunk) or reason
        path = _write_artifact(SEED, index, sql, shrunk, shrunk_reason)
        failures.append(
            f"query #{index} (seed {SEED}):\n  shrunk: {shrunk}\n"
            f"  reason: {shrunk_reason}\n  corpus: {path}"
        )
        if len(failures) >= 5:
            break
    assert not failures, (
        f"{len(failures)} differential failure(s):\n" + "\n".join(failures)
    )


def test_generated_queries_differential_indexed(oracle_pair, indexed_catalog):
    """Index-biased fuzzing: indexed catalog (optimizer on AND off) vs the
    plain catalog vs sqlite, all bag-equal.

    Four-way check per query: the optimizer-on run over the indexed catalog
    exercises IndexScan plans, the optimizer-off run proves the escape hatch
    ignores indexes, and the plain catalog + sqlite pin down ground truth.
    """
    plain_catalog, connection = oracle_pair
    generator = QueryGenerator(SEED ^ 0x1D38, index_bias=0.45)
    failures: list[str] = []
    for index in range(QUERY_COUNT):
        sql = generator.generate()
        runs = {}
        try:
            runs["indexed-on"] = normalize_rows(run_engine(indexed_catalog, sql, optimize=True))
            runs["indexed-off"] = normalize_rows(run_engine(indexed_catalog, sql, optimize=False))
            runs["plain"] = normalize_rows(run_engine(plain_catalog, sql, optimize=True))
            runs["sqlite"] = normalize_rows(run_sqlite(connection, sql))
        except Exception as exc:  # noqa: BLE001 - report, don't crash the harness
            failures.append(f"query #{index}: {sql}\n  raised {type(exc).__name__}: {exc}")
        else:
            baseline = runs["sqlite"]
            for label, rows in runs.items():
                if rows != baseline:
                    failures.append(
                        f"query #{index}: {sql}\n  {label} disagrees with sqlite: "
                        f"{_preview(rows)} vs {_preview(baseline)}"
                    )
                    break
        if len(failures) >= 5:
            break
    assert not failures, (
        f"{len(failures)} indexed differential failure(s):\n" + "\n".join(failures)
    )


def test_generated_queries_differential_windows(oracle_pair):
    """Window-biased fuzzing: OVER clauses vs sqlite, optimizer on and off.

    Every window query runs three ways (engine optimized, engine verbatim,
    sqlite) and must be bag-equal — gating the window compile path, the
    shared-spec sort, frame evaluation, and the window-boundary pushdown
    legality rules from day one.  Order-sensitive shapes embed a unique key
    in the OVER's ORDER BY so results are deterministic on both substrates.
    """
    catalog, connection = oracle_pair
    generator = QueryGenerator(SEED ^ 0x57D0, window_bias=0.7)
    failures: list[str] = []
    for index in range(QUERY_COUNT):
        sql = generator.generate()
        reason = check_query(catalog, connection, sql)
        if reason is None:
            continue
        category = failure_category(reason)
        shrunk = shrink_query(
            sql,
            lambda candidate: failure_category(check_query(catalog, connection, candidate))
            == category,
        )
        shrunk_reason = check_query(catalog, connection, shrunk) or reason
        path = _write_artifact(SEED, index, sql, shrunk, shrunk_reason)
        failures.append(
            f"window query #{index} (seed {SEED}):\n  shrunk: {shrunk}\n"
            f"  reason: {shrunk_reason}\n  corpus: {path}"
        )
        if len(failures) >= 5:
            break
    assert not failures, (
        f"{len(failures)} window differential failure(s):\n" + "\n".join(failures)
    )


def test_known_hard_window_queries_differential(oracle_pair):
    """Hand-picked window shapes pinning the semantics corners to sqlite."""
    catalog, connection = oracle_pair
    queries = [
        # Default frame with ORDER BY: peers share the running value.
        "SELECT id, sum(val) OVER (ORDER BY grp, id) AS r FROM t",
        "SELECT id, sum(val) OVER (ORDER BY val) AS r FROM t",
        # No ORDER BY: the whole partition is the frame.
        "SELECT id, count(val) OVER (PARTITION BY grp) AS n FROM t",
        "SELECT id, sum(val) OVER () AS total FROM t",
        # NULL order keys must sort exactly as sqlite sorts them.
        "SELECT id, rank() OVER (ORDER BY val) AS r FROM t",
        "SELECT id, dense_rank() OVER (ORDER BY score DESC) AS r FROM t",
        "SELECT id, row_number() OVER (PARTITION BY tag ORDER BY val, id) AS r FROM t",
        # lag/lead beyond partition bounds: NULL and explicit-default fill.
        "SELECT id, lag(val, 2) OVER (PARTITION BY grp ORDER BY id) AS p FROM t",
        "SELECT id, lead(val, 3, -1) OVER (PARTITION BY grp ORDER BY id) AS p FROM t",
        "SELECT id, lag(val, 0) OVER (ORDER BY id) AS p FROM t",
        # Physical frames, including shrinking and empty frames.
        "SELECT id, avg(val) OVER (ORDER BY id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS m FROM t",
        "SELECT id, max(val) OVER (ORDER BY id ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS m FROM t",
        "SELECT id, min(val) OVER (PARTITION BY grp ORDER BY id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 FOLLOWING) AS m FROM t",
        # Two windows sharing one spec (single sort) plus a distinct spec.
        "SELECT id, row_number() OVER (PARTITION BY grp ORDER BY val, id) AS r, "
        "sum(val) OVER (PARTITION BY grp ORDER BY val, id) AS s, "
        "count(*) OVER (PARTITION BY tag) AS n FROM t",
        # Window over GROUP BY aggregates.
        "SELECT grp, count(*) AS n, rank() OVER (ORDER BY count(*) DESC, grp) AS pos "
        "FROM t GROUP BY grp",
        # Window inside a derived table with boundary-crossing predicates.
        "SELECT d.k, d.r FROM (SELECT id AS k, grp AS g, "
        "row_number() OVER (PARTITION BY grp ORDER BY val, id) AS r FROM t) d "
        "WHERE d.r <= 3 AND d.g = 'a'",
        # Window referenced by the query-level ORDER BY.
        "SELECT id, rank() OVER (ORDER BY val, id) AS r FROM t ORDER BY r, id",
    ]
    failures = []
    for sql in queries:
        reason = check_query(catalog, connection, sql)
        if reason is not None:
            failures.append(f"{sql}\n  -> {reason}")
    assert not failures, "hard window-query differential failures:\n" + "\n\n".join(failures)


def test_known_hard_queries_differential(oracle_pair):
    """Hand-picked shapes that exercise every rewrite rule's legality edge."""
    catalog, connection = oracle_pair
    queries = [
        # Cross join rescued by WHERE equality (pushdown + join conversion).
        "SELECT t0.id, s0.amount FROM t t0, s s0 WHERE s0.t_id = t0.id AND t0.val > 50",
        # Three-way comma join (reorder + pruning + hash joins).
        "SELECT t0.grp, u0.label FROM t t0, s s0, u u0 "
        "WHERE s0.t_id = t0.id AND u0.k = s0.t_id AND s0.amount > 100",
        # LEFT join: right-side WHERE predicate must NOT be pushed below.
        "SELECT t0.id, s0.amount FROM t t0 LEFT JOIN s s0 ON s0.t_id = t0.id "
        "WHERE s0.amount > 200",
        # LEFT join: right-side ON predicate must be pushed (matching only).
        "SELECT t0.id, s0.amount FROM t t0 LEFT JOIN s s0 "
        "ON s0.t_id = t0.id AND s0.amount > 200 WHERE t0.val IS NOT NULL",
        # HAVING split: group-key conjunct pushable, aggregate conjunct not.
        "SELECT grp, count(*) AS n FROM t GROUP BY grp "
        "HAVING grp IS NOT NULL AND count(*) > 5",
        # Derived-table pushdown through projection renames.
        "SELECT d.a FROM (SELECT id AS a, val AS v FROM t) d WHERE d.v > 60",
        # Derived aggregate: outer filter on aggregate output stays outside.
        "SELECT d.g FROM (SELECT grp AS g, count(*) AS n FROM t GROUP BY grp) d "
        "WHERE d.n > 8",
        # Correlated subquery in WHERE under the optimizer.
        "SELECT t0.id FROM t t0 WHERE EXISTS "
        "(SELECT 1 FROM s sx WHERE sx.t_id = t0.id AND sx.amount > 250)",
        # NULL-heavy anti-join flavoured filter.
        "SELECT t0.id FROM t t0 WHERE NOT EXISTS "
        "(SELECT 1 FROM s sx WHERE sx.t_id = t0.id)",
        # IN subquery with NULLs on both sides.
        "SELECT t0.id FROM t t0 WHERE t0.val IN (SELECT u0.num FROM u u0)",
        # Set operations with NULL rows.
        "SELECT grp FROM t INTERSECT SELECT cat FROM s",
        "SELECT grp FROM t EXCEPT SELECT cat FROM s",
        "SELECT grp FROM t UNION SELECT cat FROM s",
        # CTE + join + aggregate over the CTE.
        "WITH w AS (SELECT grp AS g, count(*) AS n FROM t GROUP BY grp) "
        "SELECT t.id, w.n FROM t JOIN w ON w.g = t.grp WHERE w.n > 5",
        # Constant folding and trivial predicate elimination.
        "SELECT id FROM t WHERE 1 + 1 = 2 AND val > 10 + 20",
        "SELECT id FROM t WHERE 1 = 2 AND val > 0",
        # OR chains are never split.
        "SELECT id FROM t WHERE val > 90 OR grp = 'a' OR tag IS NULL",
    ]
    failures = []
    for sql in queries:
        reason = check_query(catalog, connection, sql)
        if reason is not None:
            failures.append(f"{sql}\n  -> {reason}")
    assert not failures, "hard-query differential failures:\n" + "\n\n".join(failures)
