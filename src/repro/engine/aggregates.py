"""Aggregate function implementations used by the GROUP BY operator.

Each aggregate is an accumulator object with ``add(value)`` / ``result()``;
the executor instantiates one accumulator per (group, aggregate expression)
pair.  NULLs are ignored by every aggregate except ``count(*)``, following
standard SQL semantics.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.errors import ExecutionError


def _int_sum(values: list[Any]) -> int | None:
    """``sum(values)`` when every value is an ``int``, else None.

    ``sum()`` is exact on ints, but on floats it is no left-to-right fold:
    Python 3.12 adds them with compensation, so ``SUM`` and ``AVG`` would
    round differently per interpreter (and differently from sqlite).  They
    fold every other batch themselves.  A batch with a float sums to a float.
    """
    if type(values[0]) is not int:
        return None
    total = sum(values)
    return total if type(total) is int else None


class Accumulator:
    """Base class for aggregate accumulators."""

    #: When True the accumulator receives a value for every row, including
    #: rows where the argument expression is NULL (used by count(*)).
    counts_rows = False

    def add(self, value: Any) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def add_many(self, values: Iterable[Any]) -> None:
        """Accumulate a whole column slice (vectorized entry point).

        Subclasses override this with batch-level fast paths; the default
        simply loops, so every accumulator stays usable from both the
        row-wise and the vectorized execution paths.
        """
        add = self.add
        for value in values:
            add(value)

    def result(self) -> Any:  # pragma: no cover - interface
        raise NotImplementedError


class CountAccumulator(Accumulator):
    """``count(expr)`` — number of non-NULL values."""

    def __init__(self) -> None:
        self._count = 0

    def add(self, value: Any) -> None:
        if value is not None:
            self._count += 1

    def add_many(self, values: Iterable[Any]) -> None:
        self._count += sum(1 for value in values if value is not None)

    def result(self) -> int:
        return self._count


class CountStarAccumulator(Accumulator):
    """``count(*)`` — number of rows."""

    counts_rows = True

    def __init__(self) -> None:
        self._count = 0

    def add(self, value: Any) -> None:
        self._count += 1

    def add_many(self, values: Iterable[Any]) -> None:
        try:
            self._count += len(values)  # type: ignore[arg-type]
        except TypeError:
            self._count += sum(1 for _ in values)

    def result(self) -> int:
        return self._count


class SumAccumulator(Accumulator):
    """``sum(expr)`` — NULL for an empty input."""

    def __init__(self) -> None:
        self._total: float | int | None = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._total is None:
            self._total = value
        else:
            self._total += value

    def add_many(self, values: Iterable[Any]) -> None:
        filtered = [value for value in values if value is not None]
        if not filtered:
            return
        partial = _int_sum(filtered)
        if partial is not None:
            self._total = partial if self._total is None else self._total + partial
            return
        # Floats (and non-numeric '+', e.g. string concatenation) fold left to
        # right from the running total, exactly as row-wise ``add`` does.
        remaining = iter(filtered)
        total = next(remaining) if self._total is None else self._total
        for value in remaining:
            total += value
        self._total = total

    def result(self) -> Any:
        return self._total


class AvgAccumulator(Accumulator):
    """``avg(expr)`` — arithmetic mean of non-NULL values."""

    def __init__(self) -> None:
        self._total = 0.0
        self._count = 0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self._total += value
        self._count += 1

    def add_many(self, values: Iterable[Any]) -> None:
        filtered = [value for value in values if value is not None]
        if not filtered:
            return
        partial = _int_sum(filtered)
        if partial is not None:
            self._total += partial
        else:
            total = self._total
            for value in filtered:
                total += value
            self._total = total
        self._count += len(filtered)

    def result(self) -> float | None:
        if self._count == 0:
            return None
        return self._total / self._count


class MinAccumulator(Accumulator):
    """``min(expr)``."""

    def __init__(self) -> None:
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._value is None or value < self._value:
            self._value = value

    def add_many(self, values: Iterable[Any]) -> None:
        filtered = [value for value in values if value is not None]
        if not filtered:
            return
        smallest = min(filtered)
        if self._value is None or smallest < self._value:
            self._value = smallest

    def result(self) -> Any:
        return self._value


class MaxAccumulator(Accumulator):
    """``max(expr)``."""

    def __init__(self) -> None:
        self._value: Any = None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self._value is None or value > self._value:
            self._value = value

    def add_many(self, values: Iterable[Any]) -> None:
        filtered = [value for value in values if value is not None]
        if not filtered:
            return
        largest = max(filtered)
        if self._value is None or largest > self._value:
            self._value = largest

    def result(self) -> Any:
        return self._value


class VarianceAccumulator(Accumulator):
    """Sample variance via Welford's online algorithm."""

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: Any) -> None:
        if value is None:
            return
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)

    def result(self) -> float | None:
        if self._count < 2:
            return None
        return self._m2 / (self._count - 1)


class StddevAccumulator(VarianceAccumulator):
    """Sample standard deviation."""

    def result(self) -> float | None:
        variance = super().result()
        if variance is None:
            return None
        return math.sqrt(variance)


class MedianAccumulator(Accumulator):
    """Median of non-NULL values (interpolated for even counts)."""

    def __init__(self) -> None:
        self._values: list[Any] = []

    def add(self, value: Any) -> None:
        if value is not None:
            self._values.append(value)

    def add_many(self, values: Iterable[Any]) -> None:
        self._values.extend(value for value in values if value is not None)

    def result(self) -> float | None:
        if not self._values:
            return None
        ordered = sorted(self._values)
        count = len(ordered)
        middle = count // 2
        if count % 2 == 1:
            return ordered[middle]
        return (ordered[middle - 1] + ordered[middle]) / 2


class DistinctAccumulator(Accumulator):
    """Wraps another accumulator, feeding it each distinct value once."""

    def __init__(self, inner: Accumulator) -> None:
        self._inner = inner
        self._seen: set[Any] = set()

    def add(self, value: Any) -> None:
        if value is None:
            return
        key = value
        if key in self._seen:
            return
        self._seen.add(key)
        self._inner.add(value)

    def add_many(self, values: Iterable[Any]) -> None:
        seen = self._seen
        inner_add = self._inner.add
        for value in values:
            if value is None or value in seen:
                continue
            seen.add(value)
            inner_add(value)

    def result(self) -> Any:
        return self._inner.result()


_AGGREGATE_FACTORIES: dict[str, type[Accumulator]] = {
    "count": CountAccumulator,
    "sum": SumAccumulator,
    "avg": AvgAccumulator,
    "min": MinAccumulator,
    "max": MaxAccumulator,
    "stddev": StddevAccumulator,
    "variance": VarianceAccumulator,
    "median": MedianAccumulator,
}


def make_accumulator(name: str, is_star: bool = False, distinct: bool = False) -> Accumulator:
    """Create the accumulator for an aggregate call.

    Args:
        name: Aggregate function name (case-insensitive).
        is_star: True for ``count(*)``.
        distinct: True for ``agg(DISTINCT expr)``.
    """
    lowered = name.lower()
    if lowered == "count" and is_star:
        return CountStarAccumulator()
    factory = _AGGREGATE_FACTORIES.get(lowered)
    if factory is None:
        raise ExecutionError(f"Unknown aggregate function {name!r}")
    accumulator = factory()
    if distinct:
        return DistinctAccumulator(accumulator)
    return accumulator


def is_aggregate_function(name: str) -> bool:
    """Return True when ``name`` names a supported aggregate."""
    return name.lower() in _AGGREGATE_FACTORIES
