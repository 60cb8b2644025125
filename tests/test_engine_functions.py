"""Tests for scalar functions and aggregate accumulators."""

from __future__ import annotations

import functools
import math
import operator

import pytest

from repro.errors import ExecutionError
from repro.engine.aggregates import is_aggregate_function, make_accumulator
from repro.engine.catalog import Catalog
from repro.engine.functions import call_scalar_function, is_scalar_function


class TestScalarFunctions:
    @pytest.mark.parametrize(
        "name,args,expected",
        [
            ("abs", [-3], 3),
            ("round", [3.456, 1], 3.5),
            ("floor", [2.7], 2),
            ("ceil", [2.1], 3),
            ("sqrt", [16], 4.0),
            ("power", [2, 10], 1024.0),
            ("mod", [10, 3], 1),
            ("sign", [-5], -1),
            ("lower", ["AbC"], "abc"),
            ("upper", ["abc"], "ABC"),
            ("length", ["hello"], 5),
            ("trim", ["  hi  "], "hi"),
            ("substr", ["abcdef", 2, 3], "bcd"),
            ("replace", ["aXbX", "X", "-"], "a-b-"),
            ("left", ["abcdef", 2], "ab"),
            ("right", ["abcdef", 2], "ef"),
            ("coalesce", [None, None, 7], 7),
            ("nullif", [5, 5], None),
            ("ifnull", [None, 3], 3),
            ("date", ["2021-12-01T10:00:00"], "2021-12-01"),
            ("year", ["2021-12-01"], 2021),
            ("month", ["2021-12-01"], 12),
            ("day", ["2021-12-25"], 25),
            ("strftime", ["%Y-%m", "2021-12-25"], "2021-12"),
            ("date_trunc", ["month", "2021-12-25"], "2021-12-01"),
            ("concat", ["a", None, "b"], "ab"),
        ],
    )
    def test_function_values(self, name, args, expected):
        assert call_scalar_function(name, args) == expected

    def test_null_propagation(self):
        assert call_scalar_function("abs", [None]) is None
        assert call_scalar_function("lower", [None]) is None

    def test_unknown_function_raises(self):
        with pytest.raises(ExecutionError):
            call_scalar_function("not_a_function", [1])

    def test_bad_arguments_raise_execution_error(self):
        with pytest.raises(ExecutionError):
            call_scalar_function("sqrt", [-1])

    def test_is_scalar_function(self):
        assert is_scalar_function("LOWER")
        assert not is_scalar_function("count")


class TestAggregates:
    def run(self, name, values, **kwargs):
        acc = make_accumulator(name, **kwargs)
        for value in values:
            acc.add(value)
        return acc.result()

    def test_count_ignores_nulls(self):
        assert self.run("count", [1, None, 2]) == 2

    def test_count_star_counts_rows(self):
        acc = make_accumulator("count", is_star=True)
        for _ in range(5):
            acc.add(1)
        assert acc.result() == 5
        assert acc.counts_rows is True

    def test_sum_and_empty_sum(self):
        assert self.run("sum", [1, 2, 3]) == 6
        assert self.run("sum", []) is None
        assert self.run("sum", [None]) is None

    def test_avg(self):
        assert self.run("avg", [2, 4, None]) == 3.0
        assert self.run("avg", []) is None

    def test_min_max(self):
        assert self.run("min", [3, 1, None, 2]) == 1
        assert self.run("max", [3, 1, None, 2]) == 3

    def test_variance_and_stddev(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        variance = self.run("variance", values)
        stddev = self.run("stddev", values)
        assert variance == pytest.approx(4.571428, rel=1e-5)
        assert stddev == pytest.approx(math.sqrt(variance))

    def test_variance_requires_two_values(self):
        assert self.run("variance", [1.0]) is None

    def test_median_odd_and_even(self):
        assert self.run("median", [5, 1, 3]) == 3
        assert self.run("median", [1, 2, 3, 4]) == 2.5
        assert self.run("median", []) is None

    def test_distinct_wrapper(self):
        assert self.run("count", [1, 1, 2, 2, 3], distinct=True) == 3
        assert self.run("sum", [5, 5, 5], distinct=True) == 5

    def test_float_sum_and_avg_fold_left_to_right(self):
        """Ten 0.1s: what sqlite and a row-wise fold give, on every interpreter.

        The builtin ``sum()`` compensates on Python 3.12 and returns 1.0.
        """
        tenths = [0.1] * 10
        folded = functools.reduce(operator.add, tenths)
        assert folded != 1.0
        for entry in ("add", "add_many"):
            total, mean = make_accumulator("sum"), make_accumulator("avg")
            for acc in (total, mean):
                if entry == "add":
                    for value in tenths:
                        acc.add(value)
                else:
                    acc.add_many(tenths[:3])
                    acc.add_many(tenths[3:])
            assert (total.result(), mean.result()) == (folded, folded / 10), entry
        catalog = Catalog()
        catalog.create_table("t", ["g", "x"], [[index % 2, 0.1] for index in range(20)])
        scalar = catalog.execute("SELECT sum(x) AS s, avg(x) AS a FROM t WHERE g = 0").rows
        grouped = catalog.execute("SELECT g, sum(x) AS s, avg(x) AS a FROM t GROUP BY g ORDER BY g").rows
        assert scalar == [(folded, folded / 10)]
        assert grouped == [(0, folded, folded / 10), (1, folded, folded / 10)]

    def test_int_sums_stay_exact_ints(self):
        acc = make_accumulator("sum")
        acc.add_many([2**60, 1, 2**60])
        assert acc.result() == 2**61 + 1 and type(acc.result()) is int

    def test_unknown_aggregate_raises(self):
        with pytest.raises(ExecutionError):
            make_accumulator("frobnicate")

    def test_is_aggregate_function(self):
        assert is_aggregate_function("AVG")
        assert not is_aggregate_function("lower")
