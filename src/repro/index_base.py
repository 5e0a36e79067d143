"""The secondary-index contract and its instrumentation.

Every index in the evaluation — imprints, zonemap, WAH bitmap and the
sequential-scan baseline — implements :class:`SecondaryIndex`, so the
benchmark harness can sweep them interchangeably.  The contract mirrors
the paper's experimental framing:

* :meth:`SecondaryIndex.query` returns a result whose ``.ids`` is a
  *sorted id list* (positions, not values — late materialisation);
  imprint paths keep the answer in compressed
  :class:`~repro.core.rowset.RowSet` form (id ranges + exception chunk)
  and only expand when ``.ids`` is forced;
* every query also produces a :class:`QueryStats` record with the
  implementation-independent counters of Figure 11 (index probes, value
  comparisons) plus the memory-traffic counters the cost model converts
  into simulated time;
* :meth:`SecondaryIndex.aggregate` (and the ``count``/``sum``/``min``/
  ``max`` conveniences) answers dashboard aggregations over a
  predicate; indexes that keep a
  :class:`~repro.core.aggregates.CachelineAggregates` sidecar push the
  aggregation down onto per-cacheline pre-aggregates so full ranges of
  the answer never touch values;
* :attr:`SecondaryIndex.nbytes` is the storage-overhead number of
  Figures 5–7.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .predicate import RangePredicate
from .storage.column import Column

__all__ = ["QueryStats", "QueryResult", "SecondaryIndex"]


@dataclass
class QueryStats:
    """Counters collected while answering one query.

    Attributes
    ----------
    index_probes:
        Paper Figure 11 (top): how many index units were examined —
        imprint vectors for imprints (a repeat entry counts once),
        zones for zonemaps, compressed words for WAH.
    value_comparisons:
        Paper Figure 11 (bottom): values inspected while weeding out
        false positives (the scan inspects every value).
    cachelines_fetched:
        Column cachelines actually loaded — the memory traffic the
        imprint index exists to avoid.
    ids_materialized:
        Size of the produced id list.
    full_cachelines:
        Cachelines the innermask proved fully qualifying (no value
        checks needed).
    partial_cachelines:
        Cachelines that required per-value false-positive checks.
    index_bytes_read:
        Bytes of index structure scanned (vectors + dictionary for
        imprints, min/max arrays for zonemaps, words for WAH).
    decode_units:
        Decompression work units — for WAH, the number of 31-bit groups
        materialised while expanding fills and merging bin vectors into
        the id-aligned result bitmap.  This is the per-group CPU work
        the paper blames for WAH losing to scans in main memory; it is
        proportional to logical (uncompressed) bitmap length, not to
        the compressed word count counted by ``index_probes``.
    """

    index_probes: int = 0
    value_comparisons: int = 0
    cachelines_fetched: int = 0
    ids_materialized: int = 0
    full_cachelines: int = 0
    partial_cachelines: int = 0
    index_bytes_read: int = 0
    decode_units: int = 0

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate another query's counters (for workload totals)."""
        self.index_probes += other.index_probes
        self.value_comparisons += other.value_comparisons
        self.cachelines_fetched += other.cachelines_fetched
        self.ids_materialized += other.ids_materialized
        self.full_cachelines += other.full_cachelines
        self.partial_cachelines += other.partial_cachelines
        self.index_bytes_read += other.index_bytes_read
        self.decode_units += other.decode_units
        return self


class QueryResult:
    """A query answer (lazily materialised) plus its instrumentation.

    Two construction forms:

    * ``QueryResult(ids=array)`` — the classic eager form, used by the
      scalar references and the baseline indexes (zonemap, WAH, scan);
    * ``QueryResult(rowset=RowSet)`` — the compact form every imprint
      path produces: the answer as sorted disjoint id ranges plus a
      sparse exception chunk (:class:`repro.core.rowset.RowSet`).

    ``.ids`` always returns the sorted flat ``int64`` array — computed
    once from the row set and memoised, bit-identical to what the eager
    paths used to build.  Everything that does *not* need flat ids
    (:meth:`count`, :meth:`contains`, :meth:`intersect`, :meth:`union`,
    the :meth:`aggregate` pushdown, cache accounting via
    :attr:`nbytes`) runs on the compressed form in O(ranges), so
    count-only, aggregate-only and cached high-selectivity traffic
    never pays the O(ids) expansion.
    """

    __slots__ = (
        "stats",
        "_ids",
        "_rowset",
        "_on_materialize",
        "_count",
        "_version",
    )

    def __init__(
        self,
        ids: np.ndarray | None = None,
        stats: QueryStats | None = None,
        rowset=None,
        version: int | None = None,
    ) -> None:
        if (ids is None) == (rowset is None):
            raise ValueError("provide exactly one of ids= or rowset=")
        self._ids = ids
        self._rowset = rowset
        self._on_materialize = None
        self._count = None
        self._version = version
        self.stats = stats if stats is not None else QueryStats()

    # ------------------------------------------------------------------
    # materialisation (lazy, memoised)
    # ------------------------------------------------------------------
    @property
    def ids(self) -> np.ndarray:
        """The sorted id array; first access materialises and memoises."""
        if self._ids is None:
            ids = self._rowset.to_ids()
            # Lazy results may be shared through serving caches; the
            # memoised array is shared with every consumer, so it must
            # never be written through.
            ids.setflags(write=False)
            self._ids = ids
            self._recharge()
        return self._ids

    @property
    def pinned_nbytes(self) -> int:
        """Everything the result holds: the compact row set, the rank
        arrays positional access memoised on it, and the memoised ids."""
        pinned = 0 if self._ids is None else int(self._ids.nbytes)
        if self._rowset is not None:
            pinned += self._rowset.nbytes + self._rowset.memo_nbytes
        return pinned

    def on_materialize(self, callback) -> None:
        """Register a hook fired whenever :attr:`pinned_nbytes` grows.

        It grows when ``.ids`` is first forced and when a page, chunk or
        top-k read first memoises the row set's rank arrays; the
        callback receives the new total.  Serving caches use this to
        re-weight their entries
        (:meth:`repro.engine.cache.LRUCache.reweight`) so a byte budget
        keeps tracking reality once consumers expand a cached answer.
        Fires immediately if the result already pins more than its
        compact form; replaces any previously registered hook.
        """
        self._on_materialize = callback
        if self.pinned_nbytes != self.nbytes:
            callback(self.pinned_nbytes)

    def _recharge(self) -> None:
        if self._on_materialize is not None:
            self._on_materialize(self.pinned_nbytes)

    def _slice(self, start: int, stop: int):
        """``RowSet.slice_rows``, re-charging the hook if it memoised
        the rank arrays."""
        memo = self._rowset.memo_nbytes
        rows = self._rowset.slice_rows(start, stop)
        if self._rowset.memo_nbytes != memo:
            self._recharge()
        return rows

    @property
    def is_materialized(self) -> bool:
        """Whether the flat id array has been forced yet."""
        return self._ids is not None

    @property
    def row_set(self):
        """The answer as a compressed :class:`~repro.core.rowset.RowSet`.

        Eagerly-constructed results are compressed on first access
        (sorted distinct ids always round-trip losslessly).
        """
        if self._rowset is None:
            from .core.rowset import RowSet

            self._rowset = RowSet.from_ids(self._ids)
        return self._rowset

    # ------------------------------------------------------------------
    # O(ranges) observers — no id expansion
    # ------------------------------------------------------------------
    def count(self) -> int:
        """Answer size without materialising ids (computed once).

        The memo matters both ways: a lazy result's count comes off the
        range endpoints exactly once instead of re-walking them per
        call, and a result whose ``.ids`` was already forced reuses the
        frozen array's length rather than falling back to the row set.
        """
        if self._count is None:
            if self._ids is not None:
                self._count = int(self._ids.shape[0])
            else:
                self._count = self._rowset.count()
        return self._count

    @property
    def n_ids(self) -> int:
        return self.count()

    def contains(self, value_id: int) -> bool:
        """Membership test in O(log(ranges)) — no id expansion."""
        if self._ids is not None and self._rowset is None:
            position = int(np.searchsorted(self._ids, value_id))
            return position < self._ids.shape[0] and bool(
                self._ids[position] == value_id
            )
        return self._rowset.contains(value_id)

    @property
    def nbytes(self) -> int:
        """Compact footprint: range endpoints + exceptions when lazy,
        the id array only when the result was built eagerly.  This is
        the weight serving caches account with, so a byte budget holds
        orders of magnitude more high-selectivity answers."""
        if self._rowset is not None:
            return self._rowset.nbytes
        return int(self._ids.nbytes)

    def selectivity(self, n_rows: int) -> float:
        """Fraction of the column the answer covers."""
        if n_rows <= 0:
            return 0.0
        return self.n_ids / n_rows

    # ------------------------------------------------------------------
    # streaming consumption — pages and chunks, O(k) per page
    # ------------------------------------------------------------------
    @property
    def version(self) -> int | None:
        """The producing index's mutation counter, if stamped.

        Page cursors carry this stamp; serving a cursor against an
        answer with a different stamp raises
        :class:`~repro.core.cursor.StaleCursorError` instead of quietly
        mixing two snapshots.  ``None`` for results whose producer does
        not version its data (eager baseline indexes).
        """
        return self._version

    def stamp_version(self, version: int | None) -> "QueryResult":
        """Stamp the producing index version (returns ``self``)."""
        self._version = version
        return self

    def page(self, limit: int, cursor=None):
        """One page of the sorted id list: ``(ids_chunk, next_cursor)``.

        ``LIMIT``/``OFFSET`` consumption without materialising the
        answer: the chunk is expanded lazily from the compressed row
        set in O(limit + log), so "first 100 rows" of a
        million-id answer costs 100 ids of work.  ``cursor`` is
        ``None`` for the first page, thereafter the
        :class:`~repro.core.cursor.PageCursor` (or its encoded token)
        returned by the previous call.  ``next_cursor`` is ``None``
        once the answer is exhausted.  A cursor stamped with a
        different index version raises
        :class:`~repro.core.cursor.StaleCursorError`.
        """
        from .core.cursor import PageCursor

        if limit < 1:
            raise ValueError(f"page limit must be >= 1, got {limit}")
        if cursor is None:
            rank = 0
        else:
            cursor = PageCursor.parse(cursor)
            cursor.check_kind("result")
            cursor.check_version(self._version)
            rank = cursor.rank
        total = self.count()
        stop = min(rank + limit, total)
        if self._ids is not None:
            chunk = self._ids[rank:stop]
        else:
            chunk = self._slice(rank, stop).to_ids()
        if stop >= total:
            return chunk, None
        # Results address position by rank alone (slice_rows seeks in
        # O(log ranges)); the candidate-walk fields stay zero.
        return chunk, PageCursor(
            rank=stop, version=self._version, kind="result"
        )

    def iter_chunks(self, size: int):
        """Stream the sorted ids as arrays of ``size`` ids each.

        Slices the compressed form like :meth:`RowSet.iter_chunks
        <repro.core.rowset.RowSet.iter_chunks>` (eagerly-built results
        just slice their id array): O(size) per chunk, the flat array
        is never built, an empty answer yields nothing.
        """
        if size < 1:
            raise ValueError(f"chunk size must be >= 1, got {size}")
        if self._ids is not None:
            for lo in range(0, self._ids.shape[0], size):
                yield self._ids[lo : lo + size]
            return
        total = self.count()
        for lo in range(0, total, size):
            yield self._slice(lo, min(lo + size, total)).to_ids()

    def first_k(self, k: int) -> np.ndarray:
        """The first ``k`` ids in O(k) — top-k without materialisation."""
        if self._ids is not None:
            return self._ids[: max(k, 0)]
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return self._slice(0, k).to_ids()

    # ------------------------------------------------------------------
    # aggregate pushdown (no id expansion on range-shaped answers)
    # ------------------------------------------------------------------
    def aggregate(self, op: str, values, aggregates=None):
        """``COUNT``/``SUM``/``MIN``/``MAX`` of the answered ids.

        ``values`` is the indexed column's backing array; ``aggregates``
        is an optional per-cacheline pre-aggregate sidecar
        (:class:`~repro.core.aggregates.CachelineAggregates`).  With the
        sidecar, full id ranges of the answer are aggregated from the
        pre-aggregates — prefix-sum O(1) per range for ``SUM`` — and
        only the sparse exception chunk scans values; without it, the
        ids are gathered and reduced (the baseline-index path).  Returns
        a Python scalar (``None`` for ``min``/``max`` of an empty
        answer); never materialises ``.ids`` on the sidecar path.
        """
        if op == "count":
            return self.count()
        from .core.aggregates import aggregate_rowset

        return aggregate_rowset(self.row_set, values, op, aggregates)

    def sum(self, values, aggregates=None):
        """``SUM(values[ids])`` — see :meth:`aggregate`."""
        return self.aggregate("sum", values, aggregates)

    def min(self, values, aggregates=None):
        """``MIN(values[ids])`` (``None`` if empty) — see :meth:`aggregate`."""
        return self.aggregate("min", values, aggregates)

    def max(self, values, aggregates=None):
        """``MAX(values[ids])`` (``None`` if empty) — see :meth:`aggregate`."""
        return self.aggregate("max", values, aggregates)

    # ------------------------------------------------------------------
    # compressed-domain combination
    # ------------------------------------------------------------------
    def intersect(self, other: "QueryResult") -> "QueryResult":
        """AND of two answers via interval algebra (no id expansion)."""
        stats = QueryStats()
        stats.merge(self.stats)
        stats.merge(other.stats)
        combined = self.row_set.intersect(other.row_set)
        stats.ids_materialized = combined.count()
        return QueryResult(rowset=combined, stats=stats)

    def union(self, other: "QueryResult") -> "QueryResult":
        """OR of two answers via interval algebra (no id expansion)."""
        stats = QueryStats()
        stats.merge(self.stats)
        stats.merge(other.stats)
        combined = self.row_set.union(other.row_set)
        stats.ids_materialized = combined.count()
        return QueryResult(rowset=combined, stats=stats)

    # ------------------------------------------------------------------
    # sharing
    # ------------------------------------------------------------------
    def freeze(self) -> "QueryResult":
        """Mark the underlying arrays read-only (shared-cache hygiene).

        Does *not* force materialisation: the compact arrays are frozen
        now; a later memoised ``.ids`` array is frozen when built.
        """
        if self._rowset is not None:
            for array in (
                self._rowset.starts,
                self._rowset.stops,
                self._rowset.extras,
            ):
                array.setflags(write=False)
        if self._ids is not None:
            self._ids.setflags(write=False)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        form = "ids" if self._rowset is None else (
            "lazy+ids" if self._ids is not None else "lazy"
        )
        return f"QueryResult(n_ids={self.count()}, form={form})"


class SecondaryIndex(ABC):
    """Common interface of all secondary indexes in the evaluation."""

    #: Short name used in benchmark tables ("imprints", "zonemap", ...).
    kind: str = "abstract"

    def __init__(self, column: Column) -> None:
        self.column = column
        #: Mutation counter.  Every index bumps it on append/update/
        #: delete/rebuild; answers are stamped with it so version-keyed
        #: caches and page cursors invalidate on any mutation.  Baseline
        #: indexes share this counter discipline with imprints, which is
        #: what lets the planner swap backends under a versioned LRU.
        self.version = 0
        #: Attached GROUP BY columns, by name
        #: (:class:`~repro.storage.dictionary_encoding.GroupColumn`).
        self._group_columns: dict[str, "GroupColumn"] = {}

    # ------------------------------------------------------------------
    # the contract
    # ------------------------------------------------------------------
    @abstractmethod
    def query(self, predicate: RangePredicate) -> QueryResult:
        """Sorted ids of the values satisfying ``predicate``."""

    @property
    @abstractmethod
    def nbytes(self) -> int:
        """Total index size in bytes (Figures 5–7)."""

    # ------------------------------------------------------------------
    # shared conveniences
    # ------------------------------------------------------------------
    @property
    def overhead(self) -> float:
        """Index size as a fraction of the indexed column's size."""
        column_bytes = self.column.nbytes
        if column_bytes == 0:
            return 0.0
        return self.nbytes / column_bytes

    def query_range(
        self,
        low,
        high,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> QueryResult:
        """Range query with explicit bound inclusivity."""
        predicate = RangePredicate.range(
            low,
            high,
            self.column.ctype,
            low_inclusive=low_inclusive,
            high_inclusive=high_inclusive,
        )
        return self.query(predicate)

    def query_point(self, value) -> QueryResult:
        """Point query ``v == value``."""
        return self.query(RangePredicate.point(value, self.column.ctype))

    def count(self, predicate: RangePredicate) -> int:
        """``COUNT(*)`` of a predicate — never materialises id arrays.

        For imprint indexes the answer comes straight off the compact
        :class:`~repro.core.rowset.RowSet` in O(ranges); eager baseline
        indexes simply measure their id list.
        """
        return self.query(predicate).count()

    def first_page(self, predicate: RangePredicate, limit: int):
        """``(count, ids, cursor)``: the answer size plus its first page.

        Equal to ``query(predicate).count()`` and
        ``query(predicate).page(limit)``: ``cursor`` is the rank cursor
        :meth:`QueryResult.page` hands out (``None`` when the page holds
        the whole answer), so a consumer resumes it against the cached
        full answer.  This default runs one :meth:`query`;
        :class:`~repro.core.index.ColumnImprints` never builds the
        answer (one scan of the covering span or one candidate pass).
        """
        result = self.query(predicate)
        ids, cursor = result.page(limit)
        return result.count(), ids, cursor

    # ------------------------------------------------------------------
    # aggregate pushdown
    # ------------------------------------------------------------------
    @property
    def cacheline_aggregates(self):
        """The per-cacheline pre-aggregate sidecar, if the index keeps
        one (:class:`~repro.core.aggregates.CachelineAggregates`).

        ``None`` here in the base class: baseline indexes aggregate by
        gathering values.  :class:`~repro.core.index.ColumnImprints`
        overrides this with a lazily built, incrementally maintained
        sidecar.
        """
        return None

    def aggregate(self, predicate: RangePredicate, op: str):
        """``COUNT``/``SUM``/``MIN``/``MAX`` of values satisfying a predicate.

        Runs the index's query kernel, then aggregates the compressed
        answer through :meth:`QueryResult.aggregate` using the
        :attr:`cacheline_aggregates` sidecar when present — full
        cacheline ranges of the answer never touch values.  Returns a
        Python scalar (``None`` for ``min``/``max`` of an empty answer).
        """
        result = self.query(predicate)
        if op == "count":
            return result.count()
        return result.aggregate(op, self.column.values, self.cacheline_aggregates)

    def sum(self, predicate: RangePredicate):
        """``SUM`` of values satisfying ``predicate`` — see :meth:`aggregate`."""
        return self.aggregate(predicate, "sum")

    def min(self, predicate: RangePredicate):
        """``MIN`` of values satisfying ``predicate`` (``None`` if empty)."""
        return self.aggregate(predicate, "min")

    def max(self, predicate: RangePredicate):
        """``MAX`` of values satisfying ``predicate`` (``None`` if empty)."""
        return self.aggregate(predicate, "max")

    def avg(self, predicate: RangePredicate):
        """``AVG`` of values satisfying ``predicate`` (``None`` if empty)."""
        return self.aggregate(predicate, "avg")

    def var(self, predicate: RangePredicate):
        """Population variance of qualifying values (``None`` if empty)."""
        return self.aggregate(predicate, "var")

    def std(self, predicate: RangePredicate):
        """Population stddev of qualifying values (``None`` if empty)."""
        return self.aggregate(predicate, "std")

    # ------------------------------------------------------------------
    # GROUP BY / top-k pushdown
    # ------------------------------------------------------------------
    def attach_group_column(self, name: str, group) -> None:
        """Register a GROUP BY column riding next to the indexed values.

        ``group`` is a :class:`~repro.storage.dictionary_encoding
        .GroupColumn` (or anything accepted by
        ``GroupColumn.from_labels`` / ``from_codes``): one group label
        per row, append-stable codes.  Its length must match the column
        at every :meth:`aggregate_grouped` call — append the group in
        lockstep with the values.
        """
        from .storage.dictionary_encoding import GroupColumn

        if not isinstance(group, GroupColumn):
            array = np.asarray(group)
            if array.dtype.kind in "iu":
                group = GroupColumn.from_codes(array)
            else:
                group = GroupColumn.from_labels(list(group))
        self._group_columns[name] = group

    def group_column(self, name: str):
        """The attached :class:`GroupColumn`, or a clear error."""
        try:
            return self._group_columns[name]
        except KeyError:
            known = sorted(self._group_columns)
            raise ValueError(
                f"no group column {name!r} attached; known: {known}"
            ) from None

    @property
    def group_column_names(self) -> list[str]:
        return sorted(self._group_columns)

    def append_group(self, name: str, labels=None, codes=None) -> None:
        """Append group rows in lockstep with a column append."""
        group = self.group_column(name)
        if (labels is None) == (codes is None):
            raise ValueError("provide exactly one of labels= or codes=")
        if labels is not None:
            group.append_labels(labels)
        else:
            group.append_codes(codes)

    def _check_group_aligned(self, name: str):
        group = self.group_column(name)
        if len(group) != len(self.column):
            raise ValueError(
                f"group column {name!r} has {len(group)} rows but the "
                f"indexed column has {len(self.column)}; append the "
                "group in lockstep (append_group)"
            )
        return group

    def aggregate_grouped(self, predicate: RangePredicate, op: str, group_by: str):
        """Grouped ``COUNT``/``SUM``/``AVG`` of qualifying values.

        Returns ``{group_key: value}`` with only the groups actually
        present in the answer (``{}`` when nothing qualifies).  Keys
        are the group column's labels when it has them, raw int codes
        otherwise.  The base implementation gathers codes and values
        through the materialised ids — the baseline-backend path;
        :class:`~repro.core.index.ColumnImprints` overrides it with
        per-cacheline group-histogram pushdown.
        """
        from .core.aggregates import finalize_grouped, grouped_gathered

        group = self._check_group_aligned(group_by)
        ids = self.query(predicate).ids
        counts, sums = grouped_gathered(
            group.codes[ids],
            self.column.values[ids],
            group.n_groups,
            with_sums=op != "count",
        )
        return group.render(finalize_grouped(op, counts, sums))

    def top_k(self, predicate: RangePredicate, k: int) -> list:
        """The ``k`` largest qualifying values, descending (``[]`` when
        nothing qualifies).  The base implementation gathers through the
        materialised ids; imprint indexes prune whole cachelines via
        their sidecar maxima instead.
        """
        from .core.aggregates import topk_gathered

        if k <= 0:
            return []
        ids = self.query(predicate).ids
        return topk_gathered(self.column.values[ids], k)

    def query_batch(self, predicates) -> list[QueryResult]:
        """Answer many predicates; one result per predicate, in order.

        The base implementation just loops :meth:`query`.  Indexes that
        can share work across a batch (column imprints share the
        stored-vector pass) override this with a fused kernel, so
        serving loops can always call ``query_batch`` and get whatever
        batching the index supports.
        """
        return [self.query(predicate) for predicate in predicates]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(column={self.column.name or '<anonymous>'}, "
            f"rows={len(self.column)}, {self.nbytes} B)"
        )
