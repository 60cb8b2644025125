"""Secondary column indexes: hash (point) and ordered (range) access paths.

Both index kinds follow the same *segmented* layout, chosen so that indexes
obey the two contracts the rest of the storage layer already lives by:

* **O(1)-amortized maintenance on append** — exactly like the
  :class:`~repro.engine.column.ColumnStats` fold-forward protocol.  New
  entries land in a small mutable *tail*; when the tail grows past a bound
  (or the column is cloned/pickled) it is *sealed* into an immutable segment.
  Sealing uses logarithmic merging (a new segment absorbs older segments of
  comparable size), so every entry is re-merged O(log n) times over the
  index's lifetime and no append ever pays an O(n) rebuild.
* **Sharing across copy-on-write clones** — sealed segments are immutable by
  contract and are *shared* between a column and its clones (the serving
  layer clones every table on the copy-on-write write path).  ``clone()``
  seals the tail and hands the sealed-segment tuple to the copy; afterwards
  each side appends into its own private tail and merges into fresh
  containers, never mutating a shared segment.

Concurrency: the composite ``(segments, tail)`` state lives in a single slot
that is read once per lookup and replaced atomically by ``seal()``, so
sealing (which the snapshot-shipping path triggers on live, shared tables)
is safe against concurrent readers.  In-place ``add`` concurrent with
readers is unsupported, matching the engine-wide table mutation contract
(see :meth:`~repro.engine.table.Table.freeze`).

Degradation mirrors the statistics blocks: values that break an index's
invariant (unhashable values for the hash index, pairwise-incomparable
mixtures for the ordered index) *poison* it — lookups then return ``None``
and the executor falls back to the full scan, so a poisoned index can never
produce wrong answers.  ``covered`` counts the rows folded in; an index
whose coverage disagrees with the column length (it cannot under normal
operation, but the executor checks anyway) is treated as absent.

Lookups return row positions in **ascending order** — the same order a
sequential scan visits rows — so an index scan is row-order-equivalent to
the filter it replaces.  Segments cover contiguous, monotonically increasing
row ranges (only time-adjacent segments are ever merged), which keeps the
concatenation of per-segment matches globally sorted without a final sort.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, Sequence

from repro.errors import EngineError

HASH = "hash"
ORDERED = "ordered"

#: Index kinds accepted by ``Column.create_index`` / ``Table.create_index``.
INDEX_KINDS = (HASH, ORDERED)

#: Entries the ordered index buffers before sealing the tail into a sorted
#: segment.  Lookups scan the tail linearly, so this bounds the non-bisected
#: slice of every range lookup; appends pay the O(t log t) sort once per
#: ``ORDERED_TAIL_LIMIT`` entries (amortized O(log) per append).
ORDERED_TAIL_LIMIT = 1024

#: Sentinel for an unbounded end of a range lookup (``None`` is a legal SQL
#: literal and must not double as "no bound").
UNBOUNDED = object()


class ColumnIndex:
    """Shared shape of both index kinds (segments tuple + mutable tail).

    ``_state`` is ``(segments, tail)`` — or ``None`` once the index is
    poisoned.  It is the *only* mutable reference lookups read, captured once
    per lookup, so ``seal()`` can atomically publish a new state under live
    readers.  ``covered`` counts every row folded in (NULLs included), which
    lets the executor cheaply verify the index spans the whole column.
    """

    __slots__ = ("_state", "covered")

    kind: str = ""

    def __init__(self) -> None:
        self._state: tuple[tuple, Any] | None = ((), self._empty_tail())
        self.covered = 0

    # -- construction ---------------------------------------------------- #

    @classmethod
    def build(cls, values: Iterable[Any]) -> "ColumnIndex":
        """Build an index over existing values (one pass, then one seal)."""
        index = cls()
        for position, value in enumerate(values):
            index.add(value, position)
        index.seal()
        return index

    # -- maintenance ----------------------------------------------------- #

    def add(self, value: Any, position: int) -> None:
        """Fold one appended value in (O(1) amortized; never raises).

        A value the index cannot hold poisons the whole index instead of
        raising, so ``Column.append`` stays exception-free no matter what is
        appended — there is no partially-folded state to observe afterwards.
        """
        self.covered += 1
        state = self._state
        if state is None or value is None:
            return
        try:
            self._add_to_tail(state[1], value, position)
        except TypeError:
            self.poison()

    def seal(self) -> None:
        """Fold the tail into the sealed segments (atomic publish).

        Idempotent and cheap when the tail is empty.  Called by ``clone``
        (so clones share only immutable segments), by ``Table.warm_stats``
        before snapshot pickling (so workers receive sealed segments), and
        internally when a tail outgrows its bound.
        """
        state = self._state
        if state is None:
            return
        segments, tail = state
        if not self._tail_len(tail):
            return
        try:
            new_segments = self._push_segment(list(segments), self._seal_tail(tail))
        except TypeError:
            self.poison()
            return
        self._state = (tuple(new_segments), self._empty_tail())

    def poison(self) -> None:
        """Drop all structures; lookups return None from now on."""
        self._state = None

    def clone(self) -> "ColumnIndex":
        """A copy sharing the sealed (immutable) segments — never a rebuild."""
        self.seal()
        other = type(self)()
        state = self._state
        other._state = None if state is None else (state[0], self._empty_tail())
        other.covered = self.covered
        return other

    # -- introspection --------------------------------------------------- #

    @property
    def poisoned(self) -> bool:
        return self._state is None

    @property
    def segments(self) -> tuple:
        """The sealed segment tuple (read-only; shared across clones)."""
        state = self._state
        return () if state is None else state[0]

    @property
    def tail_size(self) -> int:
        state = self._state
        return 0 if state is None else self._tail_len(state[1])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(poisoned={self.poisoned}, "
            f"segments={len(self.segments)}, tail={self.tail_size}, "
            f"covered={self.covered})"
        )

    # -- logarithmic segment merging ------------------------------------- #

    def _push_segment(self, segments: list, new_segment) -> list:
        """Append a sealed segment, merging comparable-size predecessors.

        Only *time-adjacent* segments merge, so each segment keeps covering
        a contiguous row range and per-segment matches concatenate in global
        row order.  The geometric size rule bounds total merge work at
        O(log n) re-merges per entry.
        """
        while segments and self._segment_len(segments[-1]) < 2 * self._segment_len(new_segment):
            new_segment = self._merge_segments(segments.pop(), new_segment)
        segments.append(new_segment)
        return segments

    # -- kind-specific hooks --------------------------------------------- #

    def _empty_tail(self):  # pragma: no cover - interface
        raise NotImplementedError

    def _tail_len(self, tail) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def _add_to_tail(self, tail, value, position) -> None:  # pragma: no cover
        raise NotImplementedError

    def _seal_tail(self, tail):  # pragma: no cover - interface
        raise NotImplementedError

    def _segment_len(self, segment) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def _merge_segments(self, older, newer):  # pragma: no cover - interface
        raise NotImplementedError


class HashIndex(ColumnIndex):
    """Point-lookup index: value -> ascending row positions.

    Segments are plain dicts mapping each non-null value to the list of row
    positions holding it.  Unhashable values poison the index (the same
    values poison the statistics distinct set).  Equality uses Python ``==``
    through dict lookup, matching the vectorized evaluator's ``=`` exactly
    (``1 == 1.0 == True`` collapse identically in both).
    """

    __slots__ = ()

    kind = HASH

    # -- hooks ----------------------------------------------------------- #

    def _empty_tail(self) -> dict:
        return {}

    def _tail_len(self, tail: dict) -> int:
        return len(tail)

    def _add_to_tail(self, tail: dict, value: Any, position: int) -> None:
        postings = tail.get(value)
        if postings is None:
            tail[value] = [position]
        else:
            postings.append(position)

    def _seal_tail(self, tail: dict) -> dict:
        return tail  # the dict itself seals; a fresh tail replaces it

    def _segment_len(self, segment: dict) -> int:
        return len(segment)

    def _merge_segments(self, older: dict, newer: dict) -> dict:
        merged = {key: list(postings) for key, postings in older.items()}
        for key, postings in newer.items():
            existing = merged.get(key)
            if existing is None:
                merged[key] = list(postings)
            else:
                existing.extend(postings)  # older rows < newer rows: stays sorted
        return merged

    # -- lookups --------------------------------------------------------- #

    def lookup_eq(self, value: Any) -> list[int] | None:
        """Ascending positions of rows equal to ``value`` (None: fall back)."""
        state = self._state
        if state is None or value is None:
            return None
        segments, tail = state
        out: list[int] = []
        try:
            for segment in segments:
                postings = segment.get(value)
                if postings:
                    out.extend(postings)
            postings = tail.get(value)
        except TypeError:  # unhashable probe value
            return None
        if postings:
            out.extend(postings)
        return out

    def lookup_in(self, values: Sequence[Any]) -> list[int] | None:
        """Ascending positions of rows equal to any of ``values``."""
        out: list[int] = []
        for value in values:
            matches = self.lookup_eq(value)
            if matches is None:
                return None
            out.extend(matches)
        if len(values) > 1:
            return sorted(set(out))  # IN lists may repeat values
        return out


class OrderedIndex(ColumnIndex):
    """Range index: sorted-key segments probed with ``bisect``.

    Each sealed segment is a ``(keys, rows)`` pair sorted by ``(key, row)``;
    a range lookup bisects every segment, sorts each segment's (small) match
    slice by row, and scans the bounded tail linearly.  Pairwise-incomparable
    value mixtures poison the index at seal/merge time — the same mixtures
    poison the min/max range statistic.
    """

    __slots__ = ()

    kind = ORDERED

    # -- hooks ----------------------------------------------------------- #

    def _empty_tail(self) -> list:
        return []

    def _tail_len(self, tail: list) -> int:
        return len(tail)

    def _add_to_tail(self, tail: list, value: Any, position: int) -> None:
        tail.append((value, position))
        if len(tail) >= ORDERED_TAIL_LIMIT:
            self.seal()

    def _seal_tail(self, tail: list) -> tuple[list, list]:
        ordered = sorted(tail)  # raises TypeError on mixed-type keys -> poison
        return [key for key, _ in ordered], [row for _, row in ordered]

    def _segment_len(self, segment: tuple[list, list]) -> int:
        return len(segment[0])

    def _merge_segments(
        self, older: tuple[list, list], newer: tuple[list, list]
    ) -> tuple[list, list]:
        old_keys, old_rows = older
        new_keys, new_rows = newer
        keys: list[Any] = []
        rows: list[int] = []
        i = j = 0
        old_len, new_len = len(old_keys), len(new_keys)
        while i < old_len and j < new_len:
            if new_keys[j] < old_keys[i]:  # TypeError on mixed types -> poison
                keys.append(new_keys[j])
                rows.append(new_rows[j])
                j += 1
            else:
                keys.append(old_keys[i])
                rows.append(old_rows[i])
                i += 1
        if i < old_len:
            keys.extend(old_keys[i:])
            rows.extend(old_rows[i:])
        if j < new_len:
            keys.extend(new_keys[j:])
            rows.extend(new_rows[j:])
        return keys, rows

    # -- lookups --------------------------------------------------------- #

    def lookup_eq(self, value: Any) -> list[int] | None:
        return self.lookup_range(value, value, True, True)

    def lookup_range(
        self,
        low: Any = UNBOUNDED,
        high: Any = UNBOUNDED,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> list[int] | None:
        """Ascending positions of rows within the bounds (None: fall back).

        Bounds use :data:`UNBOUNDED` for open ends; a ``None`` bound always
        yields no matches (SQL comparisons against NULL select nothing).
        """
        state = self._state
        if state is None:
            return None
        if (low is None) or (high is None):
            return []
        segments, tail = state
        out: list[int] = []
        try:
            for keys, rows in segments:
                if low is UNBOUNDED:
                    lo = 0
                elif low_inclusive:
                    lo = bisect_left(keys, low)
                else:
                    lo = bisect_right(keys, low)
                if high is UNBOUNDED:
                    hi = len(keys)
                elif high_inclusive:
                    hi = bisect_right(keys, high)
                else:
                    hi = bisect_left(keys, high)
                if lo < hi:
                    out.extend(sorted(rows[lo:hi]))
            for value, row in tail:  # bounded by ORDERED_TAIL_LIMIT
                if low is not UNBOUNDED:
                    if low_inclusive:
                        if value < low:
                            continue
                    elif value <= low:
                        continue
                if high is not UNBOUNDED:
                    if high_inclusive:
                        if value > high:
                            continue
                    elif value >= high:
                        continue
                out.append(row)
        except TypeError:  # probe value incomparable with stored keys
            return None
        return out


_INDEX_CLASSES = {HASH: HashIndex, ORDERED: OrderedIndex}


def build_index(kind: str, values: Iterable[Any]) -> ColumnIndex:
    """Build a fresh index of ``kind`` over ``values``."""
    cls = _INDEX_CLASSES.get(kind)
    if cls is None:
        raise EngineError(f"Unknown index kind {kind!r} (expected one of {INDEX_KINDS})")
    return cls.build(values)
