"""Compressed result sets — answers that stay in range form.

The whole query engine practises the paper's late materialisation:
candidates live as cacheline *ranges* until the very end.  ``RowSet``
extends that discipline past the kernels and into the answer itself.
A query's natural output is

* a list of sorted disjoint half-open ``[start, stop)`` **id ranges**
  (the cachelines the innermask proved fully qualifying), plus
* a sorted **exception chunk** of sparse ids (the survivors of the
  per-value false-positive checks on partial cachelines).

Expanding that into a flat ``int64`` id array multiplies the footprint
by orders of magnitude for high-selectivity answers (a 10% answer over
2M rows is ~200k ids — 1.6 MB — versus a handful of range endpoints)
and costs a bulk ``arange`` per query.  ``RowSet`` keeps the compact
form and supports the operations consumers actually need — counting,
membership, intersection, union, difference — directly on the
endpoints, in O(ranges + exceptions) instead of O(ids).  The range
form is also what aggregate pushdown consumes: ``SUM``/``MIN``/``MAX``
over a row set's ranges come from per-cacheline pre-aggregates
(:func:`repro.core.aggregates.aggregate_rowset`) without expanding
anything.  Materialised ids appear only when :meth:`to_ids` is forced
(and :class:`~repro.index_base.QueryResult` memoises that).

Invariants (constructor-checked cheaply, property-tested thoroughly):

* ``starts``/``stops`` are parallel ``int64`` arrays of non-empty,
  sorted, disjoint (possibly abutting) ranges;
* ``extras`` is a sorted ``int64`` array of distinct ids, none of which
  falls inside any range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ranges import (
    difference_ranges,
    expand_ranges,
    ids_to_ranges,
    intersect_ranges,
    merge_sorted_disjoint,
    union_ranges,
)

__all__ = ["RowSet"]

_I64 = np.int64


def _as_i64(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=_I64)


_EMPTY = np.empty(0, dtype=_I64)


@dataclass(frozen=True, eq=False)
class RowSet:
    """A sorted id set held as disjoint ranges plus a sparse exception chunk.

    Attributes
    ----------
    starts, stops:
        Parallel ``int64`` endpoints of sorted disjoint half-open id
        ranges — typically the fully-qualifying cacheline spans of an
        imprint answer.
    extras:
        Sorted distinct ``int64`` ids outside every range — typically
        the ids that survived per-value checks on partial cachelines.
    """

    starts: np.ndarray
    stops: np.ndarray
    extras: np.ndarray

    def __post_init__(self) -> None:
        starts = _as_i64(self.starts)
        stops = _as_i64(self.stops)
        extras = _as_i64(self.extras)
        if not starts.shape == stops.shape:
            raise ValueError(
                f"starts/stops must be parallel, got shapes "
                f"{starts.shape}, {stops.shape}"
            )
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "stops", stops)
        object.__setattr__(self, "extras", extras)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "RowSet":
        return cls(_EMPTY, _EMPTY, _EMPTY)

    @classmethod
    def from_ranges(cls, starts, stops, extras=None) -> "RowSet":
        return cls(starts, stops, _EMPTY if extras is None else extras)

    @classmethod
    def from_ids(cls, ids) -> "RowSet":
        """Compress a sorted distinct id array into runs.

        Maximal runs of consecutive ids become ranges; everything is a
        (length-1) range, so no ids land in ``extras`` — the result is
        as compact as the input allows.
        """
        starts, stops = ids_to_ranges(ids)
        return cls(starts, stops, _EMPTY)

    # ------------------------------------------------------------------
    # cheap (O(ranges + extras)) observers
    # ------------------------------------------------------------------
    @property
    def n_ranges(self) -> int:
        return int(self.starts.shape[0])

    @property
    def n_extras(self) -> int:
        return int(self.extras.shape[0])

    def count(self) -> int:
        """Number of ids in the set — without materialising any."""
        return int((self.stops - self.starts).sum()) + self.n_extras

    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        return self.starts.size > 0 or self.extras.size > 0

    @property
    def nbytes(self) -> int:
        """Compact footprint: endpoints + exceptions, never the ids."""
        return int(self.starts.nbytes + self.stops.nbytes + self.extras.nbytes)

    @property
    def memo_nbytes(self) -> int:
        """Bytes of the rank arrays positional access memoises (0 until
        the first :meth:`slice_rows` that needs them)."""
        cache = self.__dict__.get("_rank_cache")
        return 0 if cache is None else sum(int(a.nbytes) for a in cache)

    def in_ranges(self, ids) -> np.ndarray:
        """Boolean mask: which of ``ids`` fall inside a range."""
        ids = _as_i64(ids)
        if self.starts.size == 0:
            return np.zeros(ids.shape, dtype=bool)
        slot = np.searchsorted(self.starts, ids, side="right") - 1
        return (slot >= 0) & (ids < self.stops[np.maximum(slot, 0)])

    def contains_many(self, ids) -> np.ndarray:
        """Boolean mask: which of ``ids`` are members (ranges or extras)."""
        ids = _as_i64(ids)
        hit = self.in_ranges(ids)
        if self.extras.size:
            pos = np.searchsorted(self.extras, ids)
            pos_ok = pos < self.extras.size
            hit = hit | (pos_ok & (self.extras[np.minimum(pos, self.extras.size - 1)] == ids))
        return hit

    def contains(self, value_id: int) -> bool:
        """Membership test in O(log(ranges + extras))."""
        return bool(self.contains_many(np.array([value_id], dtype=_I64))[0])

    # ------------------------------------------------------------------
    # set algebra (stays in compressed domain)
    # ------------------------------------------------------------------
    def intersect(self, other: "RowSet") -> "RowSet":
        """Set intersection via interval algebra — no id expansion."""
        starts, stops, _, _ = intersect_ranges(
            self.starts, self.stops, other.starts, other.stops
        )
        # Extras of one side surviving into the intersection: mine that
        # the other side contains, plus the other's that fall in *my
        # ranges* (its extras inside my extras were already counted).
        mine = self.extras[other.contains_many(self.extras)]
        theirs = other.extras[self.in_ranges(other.extras)]
        return RowSet(starts, stops, merge_sorted_disjoint(mine, theirs))

    def union(self, other: "RowSet") -> "RowSet":
        """Set union via interval algebra — no id expansion."""
        starts, stops = union_ranges(
            np.concatenate([self.starts, other.starts]),
            np.concatenate([self.stops, other.stops]),
        )
        extras = np.union1d(self.extras, other.extras)
        if extras.size and starts.size:
            slot = np.searchsorted(starts, extras, side="right") - 1
            covered = (slot >= 0) & (extras < stops[np.maximum(slot, 0)])
            extras = extras[~covered]
        return RowSet(starts, stops, extras)

    def difference(self, other: "RowSet") -> "RowSet":
        """Ids of ``self`` not in ``other`` (compressed domain).

        Extras of ``other`` punch single-id holes into my ranges; the
        pieces stay ranges (length-1 where necessary), so the result is
        still O(ranges + extras of both).
        """
        starts, stops, _ = difference_ranges(
            self.starts, self.stops, other.starts, other.stops
        )
        holes = other.extras
        if holes.size and starts.size:
            starts, stops, _ = difference_ranges(starts, stops, holes, holes + 1)
        extras = self.extras[~other.contains_many(self.extras)]
        return RowSet(starts, stops, extras)

    # ------------------------------------------------------------------
    # paged consumption — positional (rank) access in O(k)
    # ------------------------------------------------------------------
    def _ranks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rank arrays for positional access, computed once and cached.

        ``rank`` of an id is its position in the merged sorted id order
        (ranges and extras interleave).  Returns

        * ``range_first`` — rank of each range's first id,
        * ``extra_rank``  — rank of each extra id,
        * ``lens_cum``    — exclusive prefix sum of range lengths.

        All three are O(ranges + extras) ``searchsorted``/``cumsum``
        arithmetic; no ids are materialised.  Cached on the instance
        (the arrays are immutable, so the cache can never go stale).
        """
        cache = self.__dict__.get("_rank_cache")
        if cache is None:
            lens_cum = np.zeros(self.starts.size + 1, dtype=_I64)
            np.cumsum(self.stops - self.starts, out=lens_cum[1:])
            # Extras never fall inside ranges, so an extra is preceded by
            # exactly the ranges whose stop is <= the extra, and a range
            # is preceded by exactly the extras below its start.
            range_first = lens_cum[:-1] + np.searchsorted(self.extras, self.starts)
            ranges_before = np.searchsorted(self.stops, self.extras, side="right")
            extra_rank = np.arange(self.extras.size, dtype=_I64) + lens_cum[
                ranges_before
            ]
            cache = (range_first, extra_rank, lens_cum)
            object.__setattr__(self, "_rank_cache", cache)
        return cache

    def slice_rows(self, start: int, stop: int | None = None) -> "RowSet":
        """The sub-set holding ids with rank in ``[start, stop)``.

        Positional (not id-value) slicing: ``slice_rows(100, 200)`` is
        the second page of 100 ids.  O(output ranges + log) — ranges are
        clipped, never expanded, so paging a ten-million-id answer for
        its first 100 ids costs 100 ids of work, not ten million.
        Out-of-bounds positions clamp like Python slicing.
        """
        total = self.count()
        start = max(0, min(int(start), total))
        stop = total if stop is None else max(start, min(int(stop), total))
        if start == 0 and stop == total:
            return self
        if start == stop:
            return RowSet.empty()
        range_first, extra_rank, lens_cum = self._ranks()
        lens = self.stops - self.starts
        first = int(np.searchsorted(range_first + lens, start, side="right"))
        last = int(np.searchsorted(range_first, stop, side="left"))
        if last > first:
            starts = self.starts[first:last].copy()
            stops = self.stops[first:last].copy()
            starts[0] += max(0, start - int(range_first[first]))
            overshoot = int(range_first[last - 1] + lens[last - 1]) - stop
            stops[-1] -= max(0, overshoot)
        else:
            starts = stops = _EMPTY
        j0 = int(np.searchsorted(extra_rank, start, side="left"))
        j1 = int(np.searchsorted(extra_rank, stop, side="left"))
        return RowSet(starts, stops, self.extras[j0:j1])

    # ------------------------------------------------------------------
    # materialisation (the only O(ids) operation)
    # ------------------------------------------------------------------
    def to_ids(self) -> np.ndarray:
        """The sorted flat ``int64`` id array (forces materialisation)."""
        expanded = expand_ranges(self.starts, self.stops)
        if self.extras.size == 0:
            return expanded
        # Ranges and extras are disjoint and individually sorted.
        return merge_sorted_disjoint(expanded, self.extras)

    def validate(self) -> None:
        """Check every invariant (tests; not on any hot path)."""
        starts, stops, extras = self.starts, self.stops, self.extras
        if np.any(starts >= stops):
            raise ValueError("empty or inverted ranges")
        if np.any(starts[1:] < stops[:-1]):
            raise ValueError("ranges overlap or are unsorted")
        if np.any(np.diff(extras) <= 0):
            raise ValueError("extras not strictly sorted")
        if np.any(self.in_ranges(extras)):
            raise ValueError("extras overlap ranges")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RowSet(ranges={self.n_ranges}, extras={self.n_extras}, "
            f"count={self.count()}, {self.nbytes} B)"
        )
