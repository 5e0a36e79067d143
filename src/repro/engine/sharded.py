"""Cacheline-aligned shards of one imprint index, walked lazily.

The paper's Section 7 observes that imprints partition cleanly over
cacheline-aligned slices; ``core/parallel.py`` exploits that for
*construction*.  This module slices the compressed index the same way
for *streaming consumption*: :class:`ShardedColumnImprints` is a
:class:`~repro.core.index.ColumnImprints` whose ``page``/``iter_chunks``
walk the shards in order and run the compressed-domain kernel one
shard at a time, so the first page costs one shard's mask pass, not
the whole column's.  Every other query is the inherited unsharded
kernel, so ids and Figure 11 counters are the plain index's by
construction.

Correctness is the whole design: the shards are *views sliced out of
the one global compressed index*, not independently built indexes.
Independently compressed shards would cut vector runs at shard
boundaries and change the stored vectors; slicing the global
dictionary preserves them bit-for-bit, so a shard-walked page is
bit-identical to the same slice of the unsharded answer —
differential-tested property.

Shard geometry invariants:

* every shard boundary is a cacheline boundary (a cacheline split
  across shards would need its imprint vector in two places);
* interior shards cover whole cachelines; only the last shard may end
  on a ragged tail, exactly like the unsharded column;
* per-shard answers are locally sorted and shards are disjoint and
  ordered, so the global id stream is a plain concatenation — no final
  sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..index_base import QueryStats
from ..predicate import RangePredicate
from ..storage.column import Column
from ..core.builder import ImprintsData
from ..core.dictionary import CachelineDictionary
from ..core.index import ColumnImprints
from ..core.masks import cached_masks
from ..core.parallel import partition_bounds
from ..core.query import _overlay_state, ranges_for_masks, take_from_ranges
from ..core.ranges import CandidateRanges

__all__ = ["ImprintShard", "ShardedColumnImprints", "slice_imprints"]

_U64 = np.uint64
_LOW64 = (1 << 64) - 1


@dataclass(frozen=True, eq=False)
class ImprintShard:
    """One cacheline-aligned slice of a compressed imprint index.

    Attributes
    ----------
    cl_start, cl_stop:
        Global half-open cacheline interval the shard covers.
    value_start, value_stop:
        The same interval in value-id space (``value_stop`` is clamped
        to the column length on the last shard).
    data:
        Shard-local :class:`ImprintsData`: the global stored vectors of
        the interval (a zero-copy slice) with a re-based dictionary, so
        every compressed-domain kernel runs on it unchanged.
    """

    cl_start: int
    cl_stop: int
    value_start: int
    value_stop: int
    data: ImprintsData

    @property
    def n_cachelines(self) -> int:
        return self.cl_stop - self.cl_start


def slice_imprints(data: ImprintsData, n_shards: int) -> list[ImprintShard]:
    """Cut one compressed index into cacheline-aligned shard views.

    Stored rows are never copied or re-compressed — each shard
    references a contiguous slice of the global vector array, and a run
    crossing a shard boundary contributes a clipped dictionary entry to
    both sides.  Cost is O(stored rows), independent of the number of
    cachelines.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    vpc = data.values_per_cacheline
    bounds = partition_bounds(data.n_values, vpc, n_shards)
    span_starts, span_stops = data.dictionary.row_cacheline_spans()
    shards: list[ImprintShard] = []
    for value_start, value_stop in bounds:
        cl_start = value_start // vpc
        cl_stop = -(-value_stop // vpc)
        first = int(np.searchsorted(span_stops, cl_start, side="right"))
        last = int(np.searchsorted(span_starts, cl_stop, side="left"))
        starts = np.maximum(span_starts[first:last], cl_start)
        stops = np.minimum(span_stops[first:last], cl_stop)
        lengths = stops - starts
        dictionary = CachelineDictionary(
            counts=lengths.astype(np.uint32), repeats=lengths > 1
        )
        shard_data = ImprintsData(
            imprints=data.imprints[first:last],
            dictionary=dictionary,
            histogram=data.histogram,
            n_values=value_stop - value_start,
            values_per_cacheline=vpc,
        )
        shards.append(
            ImprintShard(
                cl_start=cl_start,
                cl_stop=cl_stop,
                value_start=value_start,
                value_stop=value_stop,
                data=shard_data,
            )
        )
    return shards


class ShardedColumnImprints(ColumnImprints):
    """A column imprints index that streams its answers shard by shard.

    Construction, appends, the saturation overlay, the rebuild policy
    and every query, aggregate and top-k are the inherited
    :class:`ColumnImprints` ones.  Only :meth:`page` and
    :meth:`iter_chunks` differ: they walk cacheline-aligned shard views
    lazily in shard order, so a consumer that stops early never runs
    the mask kernel over the shards past its stopping point.

    Parameters
    ----------
    column:
        The column to index.
    n_shards:
        Number of cacheline-aligned shards.
    **imprint_kwargs:
        Forwarded to :class:`ColumnImprints` (``max_bins``,
        ``sample_size``, ``rng``, ...), so a sharded and an unsharded
        index built with the same arguments share the same binning.
    """

    def __init__(self, column: Column, n_shards: int, **imprint_kwargs) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        super().__init__(column, **imprint_kwargs)
        self._n_shards = n_shards
        # Shard views are sliced out of the index snapshot and rebuilt
        # only when that snapshot changes (append/rebuild); per-shard
        # overlay prework additionally tracks the version counter
        # (updates mutate the overlay without a new snapshot).
        self._shards: list[ImprintShard] | None = None
        self._shards_data: ImprintsData | None = None
        self._overlay_states: list | None = None
        self._states_version = -1

    @property
    def shards(self) -> list[ImprintShard]:
        """Current shard views (re-sliced after every new snapshot)."""
        data = self.data
        if self._shards is None or self._shards_data is not data:
            self._shards = slice_imprints(data, self._n_shards)
            self._shards_data = data
            self._overlay_states = None
        return self._shards

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def _shard_overlay_states(self) -> list:
        """Per-shard overlay prework, cached until the index mutates.

        The version is read *before* the overlay snapshot and the
        states are stamped with it, so a ``note_update`` racing this
        rebuild can only leave a stamp that is already stale — the next
        walk sees the mismatch and rebuilds, never serving prework that
        silently misses an update.  (Full mutate-while-serving
        synchronisation is the caller's job, as everywhere else in the
        library.)
        """
        shards = self.shards  # may invalidate _overlay_states
        if self._overlay_states is None or self._states_version != self.version:
            version = self.version
            overlay = dict(self._overlay)
            states = []
            for shard in shards:
                local = {
                    line - shard.cl_start: bits
                    for line, bits in overlay.items()
                    if shard.cl_start <= line < shard.cl_stop
                }
                states.append(
                    _overlay_state(shard.data, local) if local else None
                )
            self._overlay_states = states
            self._states_version = version
        return self._overlay_states

    def _shard_candidates(
        self, i: int, predicate: RangePredicate
    ) -> CandidateRanges:
        """One shard's candidate ranges (compressed domain, no values).

        The unit of lazy streaming: runs the mask kernel for shard
        ``i`` only — false-positive weeding is deferred to
        :func:`~repro.core.query.take_from_ranges`, which checks values
        just for the cachelines a page actually consumes.
        """
        data = self.data
        mask, innermask = cached_masks(data.histogram, predicate)
        if mask == 0 or data.n_cachelines == 0:
            empty = np.empty(0, dtype=np.int64)
            return CandidateRanges(
                empty, empty, np.empty(0, dtype=bool), QueryStats()
            )
        return ranges_for_masks(
            self.shards[i].data,
            _U64(mask),
            _U64(~innermask & _LOW64),
            QueryStats(),
            overlay_state=self._shard_overlay_states()[i],
        )

    def iter_chunks(self, predicate: RangePredicate, size: int):
        """Stream the global answer as ``size``-id chunks, shard by shard.

        Shards are evaluated *lazily in shard order*: the first chunk
        costs one shard's mask kernel plus O(size) materialisation, and
        shards (or candidate ranges) past the consumer's stopping point
        are never touched at all — the top-k consumption shape.  No
        full per-shard (let alone global) id array is ever built.
        Chunks concatenate bit-identical to ``query(predicate).ids``.
        The stream is version-guarded like a cursor: mutating the index
        mid-iteration raises
        :class:`~repro.core.cursor.StaleCursorError` instead of
        silently yielding ids that mix two snapshots.
        """
        from ..core.cursor import StaleCursorError

        if size < 1:
            raise ValueError(f"chunk size must be >= 1, got {size}")
        version = self.version
        values = self.column.values
        pending: list[np.ndarray] = []
        buffered = 0
        for i in range(len(self.shards)):
            if self.version != version:
                raise StaleCursorError(
                    version, self.version, what="chunk stream"
                )
            shard = self.shards[i]
            ranges = self._shard_candidates(i, predicate)
            local_values = values[shard.value_start : shard.value_stop]
            segment = offset = 0
            while segment < ranges.n_ranges:
                if self.version != version:
                    raise StaleCursorError(
                        version, self.version, what="chunk stream"
                    )
                ids, segment, offset = take_from_ranges(
                    shard.data,
                    local_values,
                    predicate.matches,
                    ranges,
                    segment,
                    offset,
                    size,
                )
                if ids.shape[0] == 0:
                    continue
                pending.append(ids + shard.value_start)
                buffered += int(ids.shape[0])
                if buffered >= size:
                    merged = np.concatenate(pending)
                    for lo in range(0, merged.shape[0] - size + 1, size):
                        yield merged[lo : lo + size]
                    tail = merged[merged.shape[0] - (merged.shape[0] % size) :]
                    pending = [tail] if tail.size else []
                    buffered = int(tail.shape[0])
        if buffered:
            yield np.concatenate(pending) if len(pending) > 1 else pending[0]

    def page(self, predicate: RangePredicate, limit: int, cursor=None):
        """One page of the global answer: ``(ids_chunk, next_cursor)``.

        Cursor-resumable streaming over the shard walk: the cursor
        records ``(shard, candidate-range index, intra-range offset)``
        plus the index version, so successive pages pick up exactly
        where the previous one stopped — shards before the cursor are
        not re-evaluated, candidate ranges after the page are not
        materialised yet.  A cursor taken before an ``append``/
        ``note_update``/``rebuild`` raises
        :class:`~repro.core.cursor.StaleCursorError`.
        """
        from ..core.cursor import PageCursor

        if limit < 1:
            raise ValueError(f"page limit must be >= 1, got {limit}")
        version = self.version
        if cursor is None:
            shard_i = segment = offset = rank = 0
        else:
            cursor = PageCursor.parse(cursor)
            cursor.check_kind("shard")
            cursor.check_version(version)
            shard_i, segment, offset, rank = (
                cursor.shard,
                cursor.segment,
                cursor.offset,
                cursor.rank,
            )
        n_shards = len(self.shards)
        values = self.column.values
        chunks: list[np.ndarray] = []
        taken = 0
        while shard_i < n_shards and taken < limit:
            shard = self.shards[shard_i]
            ranges = self._shard_candidates(shard_i, predicate)
            ids, segment, offset = take_from_ranges(
                shard.data,
                values[shard.value_start : shard.value_stop],
                predicate.matches,
                ranges,
                segment,
                offset,
                limit - taken,
            )
            if ids.shape[0]:
                chunks.append(ids + shard.value_start)
                taken += int(ids.shape[0])
            if segment >= ranges.n_ranges:
                shard_i += 1
                segment = offset = 0
        ids = (
            np.concatenate(chunks)
            if len(chunks) > 1
            else (chunks[0] if chunks else np.empty(0, dtype=np.int64))
        )
        if shard_i >= n_shards:
            return ids, None
        return ids, PageCursor(
            rank=rank + taken,
            segment=segment,
            offset=offset,
            shard=shard_i,
            version=version,
            kind="shard",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedColumnImprints(column={self.column.name or '<anonymous>'}, "
            f"rows={len(self.column)}, shards={self._n_shards})"
        )
