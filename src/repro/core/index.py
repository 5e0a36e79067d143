"""``ColumnImprints`` — the public secondary index of this library.

Ties the pieces together: histogram binning (Algorithm 2), streaming
construction with cacheline-dictionary compression (Algorithm 1),
mask-based range queries (Algorithm 3), and the Section 4 update
behaviours:

* **appends** (4.1) feed the streaming builder — no stored vector is
  revisited, only the trailing partial cacheline and trailing run are
  re-emitted on the next snapshot;
* **in-place updates** (4.2) set extra bits for the affected cacheline
  (kept in an overlay so the compressed store stays immutable), slowly
  *saturating* the index;
* **deletions** are simply ignored by the imprint — the value check
  weeds the stale id out only if the caller re-checks values, so the
  delta structure (:class:`repro.storage.delta.DeltaColumn`) is the
  intended companion;
* a rebuild policy watches saturation and overflow-bin pressure and
  raises :attr:`needs_rebuild` when the index degraded enough that the
  paper would "disregard the entire secondary index and rebuild it
  during the next query scan".
"""

from __future__ import annotations

import numpy as np

from ..index_base import QueryResult, SecondaryIndex
from ..predicate import RangePredicate
from ..storage.column import Column
from .aggregates import (
    CachelineAggregates,
    GroupedAggregates,
    aggregate_candidates,
    finalize_grouped,
    grouped_candidates,
    topk_candidates,
)
from .binning import DEFAULT_SAMPLE_SIZE, MAX_BINS, Histogram, binning
from .builder import ImprintsBuilder, ImprintsData
from .cursor import PageCursor
from .dictionary import MAX_CNT
from .query import (
    dense_span_or_ranges,
    first_ids_of_ranges,
    first_page_of_span,
    query_ranges,
    query_vectorized,
)
from .ranges import CandidateRanges

__all__ = ["ColumnImprints"]


class ColumnImprints(SecondaryIndex):
    """Cache-conscious secondary index over one column.

    Parameters
    ----------
    column:
        The column to index.
    max_bins:
        Histogram width cap (the paper's 64; 8/16/32 for ablations).
    sample_size:
        Binning sample size (the paper's 2048).
    rng:
        Generator for the binning sample; defaults to a fixed seed so
        index construction is reproducible.
    max_cnt:
        Cacheline-dictionary counter limit (``2^24``; injectable for
        compression-splitting tests).
    saturation_threshold:
        Allowed *increase* of the average imprint-vector fill fraction
        over the freshly built index before :attr:`needs_rebuild` turns
        on.  (Relative to the build-time baseline because a perfectly
        healthy index over wide-spread data already fills a sizable
        share of its bits.)

    Examples
    --------
    >>> import numpy as np
    >>> from repro.storage import Column
    >>> column = Column(np.arange(10_000, dtype=np.int32), name="demo")
    >>> index = ColumnImprints(column)
    >>> result = index.query_range(100, 200)
    >>> list(result.ids) == list(range(100, 200))
    True
    """

    kind = "imprints"

    def __init__(
        self,
        column: Column,
        max_bins: int = MAX_BINS,
        sample_size: int = DEFAULT_SAMPLE_SIZE,
        rng: np.random.Generator | None = None,
        max_cnt: int = MAX_CNT,
        saturation_threshold: float = 0.5,
        histogram: Histogram | None = None,
    ) -> None:
        super().__init__(column)
        if not 0.0 < saturation_threshold <= 1.0:
            raise ValueError(
                f"saturation_threshold must be in (0, 1], got {saturation_threshold}"
            )
        self.saturation_threshold = saturation_threshold
        self._max_bins = max_bins
        self._sample_size = sample_size
        self._max_cnt = max_cnt
        self.histogram = histogram if histogram is not None else binning(
            column, max_bins=max_bins, sample_size=sample_size, rng=rng
        )
        self._builder = ImprintsBuilder(
            self.histogram, column.values_per_cacheline, max_cnt=max_cnt
        )
        self._builder.feed(column.values)
        self._data: ImprintsData | None = None
        # Aggregate-pushdown sidecar (per-cacheline count/sum/min/max);
        # built on first aggregate and then maintained incrementally
        # through appends and updates.
        self._aggregates: CachelineAggregates | None = None
        # GROUP BY pushdown sidecars (per attached group column), built
        # lazily and synchronised on demand; dirty cachelines from
        # in-place updates are flushed at the next grouped aggregate.
        self._grouped: dict[str, GroupedAggregates] = {}
        self._grouped_dirty: dict[str, set[int]] = {}
        # Saturation overlay: cacheline -> extra bits set by updates.
        self._overlay: dict[int, int] = {}
        # Cached overlay prework (sorted lines + overlaid vectors) and
        # overlay popcount; rebuilt lazily after updates/appends instead
        # of on every query.
        self._overlay_state: tuple[np.ndarray, np.ndarray] | None = None
        self._overlay_popcount = 0
        #: Monotonic mutation counter — bumped by every append, update,
        #: delete and rebuild.  Serving layers key result caches on it.
        self.version = 0
        self._n_updates = 0
        self._n_appended = 0
        self._appended_overflow = 0
        self._baseline_saturation = self.saturation

    # ------------------------------------------------------------------
    # materialisation
    # ------------------------------------------------------------------
    @property
    def data(self) -> ImprintsData:
        """The current compressed index (snapshot, cached)."""
        if self._data is None:
            self._data = self._builder.snapshot()
        return self._data

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    @property
    def bins(self) -> int:
        return self.histogram.bins

    @property
    def cacheline_aggregates(self) -> CachelineAggregates:
        """The aggregate-pushdown sidecar (built lazily, then maintained).

        Per-cacheline ``count``/``sum``/``min``/``max`` plus a
        prefix-sum table, so :meth:`~repro.index_base.SecondaryIndex.
        aggregate` answers ``SUM``/``MIN``/``MAX`` over the full
        cacheline ranges of a query answer without touching values.
        Once built, :meth:`append` and :meth:`note_update` keep it
        current alongside the imprint (the values it summarises do not
        depend on the binning, so :meth:`rebuild` leaves it intact).
        """
        if self._aggregates is None:
            self._aggregates = CachelineAggregates(
                self.column.values, self.column.values_per_cacheline
            )
        return self._aggregates

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def overlay_state(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The saturation overlay as sorted lines + overlaid vectors.

        The mask-independent prework every compressed-domain kernel
        needs (sort, stored-row lookup, bit OR) — cached on the index
        and rebuilt lazily after :meth:`note_update`, :meth:`append` or
        :meth:`rebuild` instead of on every query.
        """
        if not self._overlay:
            return None
        if self._overlay_state is None:
            data = self.data
            lines = sorted(self._overlay)
            bits = np.fromiter(
                (self._overlay[line] for line in lines),
                dtype=np.uint64,
                count=len(lines),
            )
            lines = np.asarray(lines, dtype=np.int64)
            keep = lines < data.n_cachelines
            rows = data.dictionary.rows_of_cachelines(lines[keep])
            self._overlay_state = (
                lines[keep],
                data.imprints[rows] | bits[keep],
            )
        return self._overlay_state

    def query(self, predicate: RangePredicate) -> QueryResult:
        """Answer a range predicate (lazy compressed result).

        The result is :class:`~repro.core.rowset.RowSet`-backed: full
        cacheline runs stay id ranges and only checked survivors are
        stored sparsely, so ``result.count()`` / ``contains`` /
        ``intersect`` / ``union`` are O(ranges); ``result.ids`` forces
        (and memoises) the paper's sorted id list.  The result is
        stamped with the index :attr:`version`, so page cursors taken
        from it invalidate cleanly when the column mutates.
        """
        return query_vectorized(
            self.data,
            self.column.values,
            predicate,
            overlay_state=self.overlay_state(),
        ).stamp_version(self.version)

    # ------------------------------------------------------------------
    # first pages — lazy materialisation off candidate ranges
    # ------------------------------------------------------------------
    def page(self, predicate: RangePredicate, limit: int):
        """``(ids, cursor)``: the answer's first ``limit`` ids, lazily.

        One candidate pass, then the
        :func:`~repro.core.query.first_ids_of_ranges` walk for
        ``limit + 1`` ids: no count and no answer are built, and the
        extra id decides whether a rank cursor comes back (``None``
        when the page holds the whole answer).  Equal to
        ``query(predicate).page(limit)``, cursor token included, so the
        next page resumes against the full answer.
        """
        if limit < 1:
            raise ValueError(f"page limit must be >= 1, got {limit}")
        version = self.version
        ids = first_ids_of_ranges(
            self.data,
            self.column.values,
            predicate.matches,
            self.candidate_ranges(predicate),
            limit + 1,
        )
        if ids.shape[0] <= limit:
            return ids, None
        return ids[:limit], PageCursor(rank=limit, version=version)

    def first_page(self, predicate: RangePredicate, limit: int):
        """``(count, ids, cursor)`` without building the answer.

        One stored-vector test decides the side
        (:func:`~repro.core.query.dense_span_or_ranges`).  On the dense
        side one pass over the covering span gives the count and the
        first ids, and neither candidate ranges nor the aggregate
        sidecar are built.  On the sparse side the same candidate ranges
        feed the ``COUNT`` pushdown and the
        :func:`~repro.core.query.first_ids_of_ranges` walk.  Equal to the
        base :meth:`~repro.index_base.SecondaryIndex.first_page`,
        including the rank cursor, so the page resumes against the full
        answer.
        """
        if limit < 1:
            raise ValueError(f"page limit must be >= 1, got {limit}")
        version = self.version
        values = self.column.values
        span, ranges = self._dense_span_or_ranges(predicate)
        if span is not None:
            count, ids = first_page_of_span(
                values, predicate.matches, span, limit
            )
        else:
            count = aggregate_candidates(
                ranges, values, predicate, self.cacheline_aggregates, "count"
            )
            ids = first_ids_of_ranges(
                self.data, values, predicate.matches, ranges, limit
            )
        if ids.shape[0] >= count:
            return count, ids, None
        return count, ids, PageCursor(rank=int(ids.shape[0]), version=version)

    def aggregate(self, predicate: RangePredicate, op: str):
        """``COUNT``/``SUM``/``MIN``/``MAX`` pushdown (fused kernel).

        Overrides the generic query-then-aggregate sequence with
        :func:`~repro.core.aggregates.aggregate_candidates`: the
        compressed-domain candidate ranges feed the per-cacheline
        pre-aggregates directly (prefix-sum O(1) range ``SUM``),
        partial candidates are refined through the sidecar's exact
        per-cacheline bounds (sharper than the bin-resolution
        innermask), and only lines straddling a predicate bound touch
        values — no id list, no :class:`RowSet`, no re-gather.  A
        ``COUNT`` takes the dense side of :meth:`first_page`'s decision
        when the stored-vector test picks it: one pass over the
        covering span, no ranges, no sidecar.
        """
        if op != "count":
            ranges = self.candidate_ranges(predicate)
        else:
            span, ranges = self._dense_span_or_ranges(predicate)
            if span is not None:
                return predicate.count(self.column.values[span[0] : span[1]])
        return aggregate_candidates(
            ranges,
            self.column.values,
            predicate,
            self.cacheline_aggregates,
            op,
        )

    def attach_group_column(self, name: str, group) -> None:
        """Attach a GROUP BY column (see the base class); a sidecar
        built over a column previously attached under ``name`` goes."""
        super().attach_group_column(name, group)
        self._grouped.pop(name, None)
        self._grouped_dirty.pop(name, None)

    def grouped_aggregates(self, name: str) -> GroupedAggregates:
        """The GROUP BY pushdown sidecar for one attached group column.

        Block-granular tables (a running per-group count and sum every
        :data:`~repro.core.aggregates.BLOCK_LINES` cachelines), built
        lazily on first use, then synchronised on demand: appended rows
        extend the tables from the trailing partial block (after
        widening the group domain if new codes arrived), and blocks
        touched by in-place value updates are recomputed.  Like
        :attr:`cacheline_aggregates`, it summarises values — not bins —
        so it survives :meth:`rebuild`.
        """
        group = self._check_group_aligned(name)
        sidecar = self._grouped.get(name)
        if sidecar is None:
            sidecar = GroupedAggregates(
                group.codes,
                self.column.values,
                group.n_groups,
                self.column.values_per_cacheline,
            )
            self._grouped[name] = sidecar
            self._grouped_dirty[name] = set()
            return sidecar
        sidecar.widen(group.n_groups)
        if sidecar.n_values < len(self.column):
            sidecar.append(group.codes, self.column.values)
        dirty = self._grouped_dirty.get(name)
        if dirty:
            for line in dirty:
                sidecar.update_line(line, group.codes, self.column.values)
            dirty.clear()
        return sidecar

    def aggregate_grouped(self, predicate: RangePredicate, op: str, group_by: str):
        """Grouped ``COUNT``/``SUM``/``AVG`` pushdown (fused kernel).

        Overrides the gather fallback with
        :func:`~repro.core.aggregates.grouped_candidates`: candidate
        ranges feed the block tables directly, so grouped answers never
        materialise row ids — only each range's ragged lines and the
        cachelines straddling a predicate bound gather codes and values.
        """
        group = self._check_group_aligned(group_by)
        counts, sums = grouped_candidates(
            self.candidate_ranges(predicate),
            self.column.values,
            group.codes,
            predicate,
            self.cacheline_aggregates,
            self.grouped_aggregates(group_by),
            op,
        )
        return group.render(finalize_grouped(op, counts, sums))

    def top_k(self, predicate: RangePredicate, k: int) -> list:
        """ORDER-BY-value top-k pushdown (extrema-ordered pruning).

        Visits fully-qualifying candidate cachelines in descending
        order of their sidecar maxima and stops as soon as no remaining
        line can beat the running k-th value — see
        :func:`~repro.core.aggregates.topk_candidates`.
        """
        return topk_candidates(
            self.candidate_ranges(predicate),
            self.column.values,
            predicate,
            self.cacheline_aggregates,
            k,
        )

    def candidate_ranges(self, predicate: RangePredicate) -> CandidateRanges:
        """Late materialisation in the compressed domain (Section 3).

        Qualifying cachelines as contiguous ``[start, stop)`` ranges —
        O(stored vectors) output, the form
        :func:`repro.core.conjunction.conjunctive_query` merge-joins
        before fetching any values.
        """
        return query_ranges(
            self.data, predicate, overlay_state=self.overlay_state()
        )

    def _dense_span_or_ranges(self, predicate: RangePredicate):
        return dense_span_or_ranges(
            self.data, predicate, overlay_state=self.overlay_state()
        )

    # ------------------------------------------------------------------
    # updates (Section 4)
    # ------------------------------------------------------------------
    def append(self, values) -> None:
        """Append values to the column and extend the imprints (4.1)."""
        values = self.column.ctype.cast(values)
        if values.size == 0:
            return
        self.column = self.column.appended(values)
        self._builder.feed(values)
        self._data = None
        if self._aggregates is not None:
            # Same discipline as the imprint builder: only the trailing
            # partial cacheline is recomputed, new lines are appended.
            self._aggregates.append(self.column.values)
        # The overlay prework binds cachelines to stored rows of the
        # *current* snapshot; a new snapshot invalidates the mapping.
        self._overlay_state = None
        self.version += 1
        self._n_appended += int(values.size)
        appended_bins = self.histogram.get_bins(values)
        self._appended_overflow += int(
            np.count_nonzero(
                (appended_bins == 0) | (appended_bins == self.histogram.bins - 1)
            )
        )

    def note_update(self, value_id: int, new_value) -> None:
        """Record an in-place update: saturate the cacheline's imprint.

        The old value's bit cannot be cleared (other values in the
        cacheline may share the bin), so the imprint only ever gains
        bits — the saturation effect Section 4.2 describes.  The column
        itself is updated too, so value checks see the new value.
        """
        if not 0 <= value_id < len(self.column):
            raise IndexError(
                f"value id {value_id} out of range [0, {len(self.column)})"
            )
        self.column = self.column.with_value(value_id, new_value)
        cacheline = self.column.geometry.cacheline_of(value_id)
        if self._aggregates is not None:
            self._aggregates.update_line(cacheline, self.column.values)
        for dirty in self._grouped_dirty.values():
            dirty.add(cacheline)
        new_bit = 1 << self.histogram.get_bin(new_value)
        old_bits = self._overlay.get(cacheline, 0)
        new_bits = old_bits | new_bit
        if new_bits != old_bits:
            self._overlay[cacheline] = new_bits
            self._overlay_popcount += (
                new_bits.bit_count() - old_bits.bit_count()
            )
            self._overlay_state = None
        self.version += 1
        self._n_updates += 1

    def note_delete(self, value_id: int) -> None:
        """Record a deletion: imprints ignore it (false positives are
        weeded by the value check / delta merge)."""
        if not 0 <= value_id < len(self.column):
            raise IndexError(
                f"value id {value_id} out of range [0, {len(self.column)})"
            )
        self.version += 1
        self._n_updates += 1

    # ------------------------------------------------------------------
    # rebuild policy
    # ------------------------------------------------------------------
    @property
    def saturation(self) -> float:
        """Average fill fraction of the (overlaid) imprint vectors."""
        data = self.data
        if data.imprints.shape[0] == 0:
            return 0.0
        fill = float(np.bitwise_count(data.imprints).mean())
        if self._overlay:
            # Incrementally maintained popcount — no per-query walk over
            # the overlay dict.
            fill += self._overlay_popcount / data.dictionary.n_cachelines
        return fill / self.histogram.bins

    @property
    def append_overflow_fraction(self) -> float:
        """Share of appended values that landed in the overflow bins.

        Appends with a "dramatically different value distribution"
        (Section 4.1) pile up in the first/last bins and destroy the
        imprint's selectivity there; this is the detector.
        """
        if self._n_appended == 0:
            return 0.0
        return self._appended_overflow / self._n_appended

    @property
    def needs_rebuild(self) -> bool:
        """Whether the paper's rebuild-on-next-scan policy should fire."""
        if self.saturation - self._baseline_saturation > self.saturation_threshold:
            return True
        # More than half the appended values overflowing means the
        # binning no longer reflects the data distribution.
        return self._n_appended > len(self.column) // 4 and (
            self.append_overflow_fraction > 0.5
        )

    def rebuild(self, rng: np.random.Generator | None = None) -> None:
        """Re-bin and re-imprint from the current column (cheap: one
        scan, per Section 4.2 it can ride along a regular query scan)."""
        self.histogram = binning(
            self.column,
            max_bins=self._max_bins,
            sample_size=self._sample_size,
            rng=rng,
        )
        self._builder = ImprintsBuilder(
            self.histogram, self.column.values_per_cacheline, max_cnt=self._max_cnt
        )
        self._builder.feed(self.column.values)
        self._data = None
        # The aggregate sidecar summarises values, not bins — a re-bin
        # leaves it valid, so it deliberately survives the rebuild.
        self._overlay.clear()
        self._overlay_state = None
        self._overlay_popcount = 0
        self.version += 1
        self._n_updates = 0
        self._n_appended = 0
        self._appended_overflow = 0
        self._baseline_saturation = self.saturation
