"""Range-query evaluation over imprints — the paper's Algorithm 3.

Two implementations again:

* :func:`query_scalar` walks the cacheline dictionary exactly like the
  pseudocode — per entry, per imprint vector, per id — and is the
  differential-testing reference.
* the production path operates **in the compressed domain**: the
  mask/innermask tests run once per *stored* vector (O(stored vectors),
  not O(cachelines)); each qualifying vector maps onto a contiguous
  ``[start, stop)`` cacheline interval through the dictionary's cached
  run boundaries; and ids are materialised from those intervals with
  bulk ``arange`` arithmetic only at the very end.  The dictionary is
  never expanded — a run of a million identical cachelines costs one
  mask test and one interval, exactly the saving the paper's cacheline
  dictionary exists to provide.

:func:`query_ranges` is the compressed-domain candidate kernel and
returns :class:`~repro.core.ranges.CandidateRanges`.
:func:`dense_span_or_ranges` decides from the same stored-vector test
whether a count or a first page scans the candidates' covering span
once instead of building ranges (:func:`first_page_of_span`), and
:func:`first_ids_of_ranges` walks candidate ranges for a first page
without building the answer.

All production paths return their answer as a lazy compressed
:class:`~repro.core.rowset.RowSet`-backed result — full cacheline runs
stay id *ranges*, only checked survivors are stored as sparse ids —
plus the instrumentation counters of Figure 11.  Forcing
``result.ids`` yields the paper's sorted id list, bit-identical to
:func:`query_scalar`.
"""

from __future__ import annotations

import numpy as np

from ..index_base import QueryResult, QueryStats
from ..predicate import RangePredicate
from .builder import ImprintsData
from .masks import cached_masks, make_masks
from .ranges import (
    CandidateRanges,
    coalesce_ranges,
    difference_ranges,
    expand_ranges,
)
from .rowset import RowSet

__all__ = [
    "query_scalar",
    "query_vectorized",
    "query_ranges",
    "ranges_for_masks",
    "dense_span_or_ranges",
    "first_page_of_span",
    "DENSE_SHARE",
    "materialize_ranges",
    "first_ids_of_ranges",
    "FIRST_WINDOW",
]

_U64 = np.uint64
_LOW64 = (1 << 64) - 1


# ----------------------------------------------------------------------
# scalar reference (Algorithm 3, line by line)
# ----------------------------------------------------------------------
def query_scalar(
    data: ImprintsData,
    values: np.ndarray,
    predicate: RangePredicate,
) -> QueryResult:
    """The paper's ``query()`` with explicit loops (ground truth)."""
    mask, innermask = make_masks(data.histogram, predicate)
    stats = QueryStats()
    if mask == 0:
        return QueryResult(ids=np.empty(0, dtype=np.int64), stats=stats)

    vpc = data.values_per_cacheline
    n = data.n_values
    counts = data.dictionary.counts
    repeats = data.dictionary.repeats
    imprints = data.imprints
    not_inner = ~innermask  # python int bitwise complement; & keeps it finite

    res: list[int] = []
    i_cnt = 0  # imprint (stored vector) cursor
    cache_cnt = 0  # cacheline cursor

    def emit(id_start: int, id_stop: int, check: bool) -> None:
        nonlocal stats
        id_stop = min(id_stop, n)
        if check:
            stats.partial_cachelines += (id_stop - id_start + vpc - 1) // vpc
            stats.cachelines_fetched += (id_stop - id_start + vpc - 1) // vpc
            for value_id in range(id_start, id_stop):
                stats.value_comparisons += 1
                if predicate.matches_one(values[value_id]):
                    res.append(value_id)
        else:
            stats.full_cachelines += (id_stop - id_start + vpc - 1) // vpc
            res.extend(range(id_start, id_stop))

    for entry in range(data.dictionary.n_entries):
        cnt = int(counts[entry])
        if not repeats[entry]:
            for j in range(i_cnt, i_cnt + cnt):
                stats.index_probes += 1
                imprint = int(imprints[j])
                if imprint & mask:
                    emit(
                        cache_cnt * vpc,
                        (cache_cnt + 1) * vpc,
                        check=(imprint & not_inner) != 0,
                    )
                cache_cnt += 1
            i_cnt += cnt
        else:
            stats.index_probes += 1
            imprint = int(imprints[i_cnt])
            if imprint & mask:
                emit(
                    cache_cnt * vpc,
                    (cache_cnt + cnt) * vpc,
                    check=(imprint & not_inner) != 0,
                )
            i_cnt += 1
            cache_cnt += cnt

    stats.ids_materialized = len(res)
    stats.index_bytes_read = data.nbytes
    return QueryResult(ids=np.array(res, dtype=np.int64), stats=stats)


# ----------------------------------------------------------------------
# compressed-domain candidate kernel
# ----------------------------------------------------------------------
def _empty_ranges(stats: QueryStats) -> CandidateRanges:
    empty = np.empty(0, dtype=np.int64)
    return CandidateRanges(empty, empty, np.empty(0, dtype=bool), stats)


def fresh_query_stats(data: ImprintsData) -> QueryStats:
    """The counter preamble every compressed-domain kernel starts from."""
    stats = QueryStats()
    stats.index_probes = data.dictionary.n_imprint_rows
    stats.index_bytes_read = data.nbytes
    return stats


def _patch_overlay(
    state: tuple[np.ndarray, np.ndarray],
    mask64: np.uint64,
    not_inner64: np.uint64,
    starts: np.ndarray,
    stops: np.ndarray,
    full: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-test overlaid cachelines and splice them into the ranges.

    Saturation bits (Section 4.2) only ever *add* bits, so an overlaid
    cacheline can newly hit or lose its full flag, never un-hit.  The
    patch-up is vectorised: carve every overlaid cacheline out of the
    base ranges (splitting its run), then merge back the overlaid lines
    that pass the re-test as unit ranges with their own flags.
    """
    lines, vectors = state
    if lines.size == 0:
        return starts, stops, full
    overlaid_hit = (vectors & mask64) != 0
    overlaid_full = overlaid_hit & ((vectors & not_inner64) == 0)

    base_starts, base_stops, source = difference_ranges(
        starts, stops, lines, lines + 1
    )
    base_full = full[source]
    add_starts = lines[overlaid_hit]
    merged_starts = np.concatenate([base_starts, add_starts])
    merged_stops = np.concatenate([base_stops, add_starts + 1])
    merged_full = np.concatenate([base_full, overlaid_full[overlaid_hit]])
    order = np.argsort(merged_starts, kind="stable")
    return merged_starts[order], merged_stops[order], merged_full[order]


def _test_vectors(data: ImprintsData, mask: int, innermask: int):
    """Algorithm 3's one stored-vector test, shared by every kernel.

    Returns ``(stats, test)``: the fresh counters and ``test =
    (mask64, not_inner64, hit_rows, full_rows)``, the 64-bit masks and
    each stored vector's hit and full flag.  ``test`` is ``None`` when
    nothing can qualify (an empty mask or a column without cachelines),
    the early return every caller takes with the same counters.
    """
    stats = fresh_query_stats(data)
    if mask == 0 or data.n_cachelines == 0:
        return stats, None
    mask64 = _U64(mask)
    # Complement within 64 bits: the stored vectors never set bits
    # beyond the histogram width, so the high bits are immaterial.
    not_inner64 = _U64(~innermask & _LOW64)
    vectors = data.imprints
    hit_rows = (vectors & mask64) != 0
    full_rows = hit_rows & ((vectors & not_inner64) == 0)
    return stats, (mask64, not_inner64, hit_rows, full_rows)


def ranges_for_masks(
    data: ImprintsData,
    stats: QueryStats,
    mask64: np.uint64,
    not_inner64: np.uint64,
    hit_rows: np.ndarray,
    full_rows: np.ndarray,
    overlay_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> CandidateRanges:
    """The run-level kernel shared by every compressed-domain path.

    Maps the stored vectors the test hit (``hit_rows``, full where
    ``full_rows``) to their cacheline intervals via the dictionary's
    cached run boundaries, re-tests the saturation overlay's lines
    against the masks and coalesces.
    """
    span_starts, span_stops = data.dictionary.row_cacheline_spans()
    hits = np.flatnonzero(hit_rows)
    starts = span_starts[hits]
    stops = span_stops[hits]
    full = full_rows[hits]
    if overlay_state is not None:
        starts, stops, full = _patch_overlay(
            overlay_state, mask64, not_inner64, starts, stops, full
        )
    starts, stops, full = coalesce_ranges(starts, stops, full)
    return CandidateRanges(starts, stops, full, stats)


def query_ranges(
    data: ImprintsData,
    predicate: RangePredicate,
    overlay_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> CandidateRanges:
    """Candidate cacheline *ranges* for a predicate (compressed domain).

    One mask/innermask test per stored vector; qualifying vectors map to
    their ``[start, stop)`` cacheline intervals via the dictionary's
    cached run boundaries.  ``overlay_state`` is the index's cached
    saturation overlay (:meth:`~repro.core.index.ColumnImprints.
    overlay_state`): extra imprint bits set by in-place updates
    (Section 4.2), whose cachelines are re-tested individually.
    """
    stats, test = _test_vectors(
        data, *cached_masks(data.histogram, predicate)
    )
    if test is None:
        return _empty_ranges(stats)
    return ranges_for_masks(data, stats, *test, overlay_state=overlay_state)


#: A first page or ``COUNT`` scans the candidates' covering span densely
#: once partial cachelines make up at least this share of it.  Measured
#: on 4M-row int32 columns (16 values per cacheline, 2-vCPU VM): the
#: dense side costs ~10 ns per spanned cacheline.  The sparse side
#: builds the candidate ranges and refines every partial line through
#: the aggregate sidecar: a count costs ~60-90 ns per partial line when
#: the sidecar bounds promote or drop it (clustered data) and ~130 ns
#: when it straddles a predicate bound (uniform data); a first page
#: adds the walk up to where its page fills (:func:`first_ids_of_ranges`),
#: ~60 ns per partial line in all on a random walk and ~150 ns on
#: uniform data.  Break-even is therefore a share of 0.08-0.2 for counts
#: and 0.09-0.18 for first pages.  At 0.1, served page predicates
#: (shares 0.56-1.0 on uniform columns) go dense and clustered
#: dashboard counts (shares <= 0.05) stay sparse.
DENSE_SHARE = 0.1


def _dense_span(
    data: ImprintsData,
    hit_rows: np.ndarray,
    full_rows: np.ndarray,
    mask64: np.uint64,
    overlay_state: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[int, int] | None:
    """The value span ``[lo, hi)`` to scan densely, or ``None``."""
    # Partial cachelines: hit-but-not-full rows weighted by run length.
    dictionary = data.dictionary
    partial_rows = hit_rows & ~full_rows
    if dictionary.n_imprint_rows == dictionary.n_cachelines:  # no repeats
        partial = int(np.count_nonzero(partial_rows))
    else:
        partial = int(dictionary.row_run_lengths()[partial_rows].sum())
    if partial == 0:
        return None
    row_starts, row_stops = dictionary.row_cacheline_spans()
    lo = int(row_starts[hit_rows.argmax()])
    hi = int(row_stops[hit_rows.shape[0] - 1 - hit_rows[::-1].argmax()])
    if overlay_state is not None:
        # An update can make a cacheline qualify that its stored vector
        # does not: widen the span by the overlay's hit lines (sorted).
        lines, vectors = overlay_state
        hit_lines = lines[(vectors & mask64) != 0]
        if hit_lines.shape[0]:
            lo = min(lo, int(hit_lines[0]))
            hi = max(hi, int(hit_lines[-1]) + 1)
    if partial < DENSE_SHARE * (hi - lo):
        return None
    vpc = data.values_per_cacheline
    return lo * vpc, min(hi * vpc, data.n_values)


def dense_span_or_ranges(
    data: ImprintsData,
    predicate: RangePredicate,
    overlay_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[tuple[int, int] | None, CandidateRanges | None]:
    """Decide dense vs. sparse once, before any candidate range exists.

    One stored-vector test gives the hit and full rows.  Their covering
    span (first to last hit cacheline, widened by the saturation
    overlay) holds every qualifying value, so when partial cachelines
    cover at least :data:`DENSE_SHARE` of it, one contiguous pass over
    ``values[lo:hi]`` answers a count or a first page exactly and
    ``(span, None)`` comes back.  Otherwise the candidate ranges are
    built from the same hit and full rows and ``(None, ranges)`` comes
    back, equal to :func:`query_ranges`.
    """
    stats, test = _test_vectors(
        data, *cached_masks(data.histogram, predicate)
    )
    if test is None:
        return None, _empty_ranges(stats)
    mask64, _, hit_rows, full_rows = test
    span = _dense_span(data, hit_rows, full_rows, mask64, overlay_state)
    if span is not None:
        return span, None
    return None, ranges_for_masks(
        data, stats, *test, overlay_state=overlay_state
    )


def first_page_of_span(
    values: np.ndarray, matches, span: tuple[int, int], limit: int
) -> tuple[int, np.ndarray]:
    """``(count, first ids)`` of a dense span in one pass over its values.

    The count comes from one ``matches`` pass over ``values[lo:hi]``;
    the first ``limit`` ids are found by scanning that pass's mask
    forward from ``lo`` in geometrically growing blocks (the first one
    twice the expected reach), so a page never forces the whole answer.
    """
    lo, hi = span
    matched = matches(values[lo:hi])
    count = int(np.count_nonzero(matched))
    need = min(limit, count)
    if need == 0:
        return count, np.empty(0, dtype=np.int64)
    out: list[np.ndarray] = []
    start, block = 0, 2 * need * (hi - lo) // count + 1
    while need:
        found = np.flatnonzero(matched[start : start + block])[:need]
        out.append(found + (lo + start))
        need -= found.shape[0]
        start += block
        block *= 2
    return count, out[0] if len(out) == 1 else np.concatenate(out)


def materialize_ranges(
    data: ImprintsData,
    values: np.ndarray,
    matches,
    ranges: CandidateRanges,
) -> QueryResult:
    """Turn candidate ranges into the answer set (Algorithm 3's end).

    Full ranges stay ranges — they become the :class:`RowSet`'s id
    intervals *without any expansion*.  Partial ranges still get the
    per-value false-positive check through ``matches`` (a boolean-array
    predicate over values — the range test for range queries, set
    membership for IN-lists), and the survivors form the row set's
    sparse exception chunk.  Flat id arrays appear only if a consumer
    later forces ``result.ids``.
    """
    stats = ranges.stats
    if ranges.n_ranges == 0:
        return QueryResult(rowset=RowSet.empty(), stats=stats)

    vpc = data.values_per_cacheline
    n = data.n_values
    full_starts, full_stops, part_starts, part_stops = ranges.split()
    stats.full_cachelines = int((full_stops - full_starts).sum())
    stats.partial_cachelines = int((part_stops - part_starts).sum())
    stats.cachelines_fetched = stats.partial_cachelines

    full_starts = full_starts * vpc
    full_stops = np.minimum(full_stops * vpc, n)
    if part_starts.size:
        candidates = expand_ranges(
            part_starts * vpc, np.minimum(part_stops * vpc, n)
        )
        stats.value_comparisons = int(candidates.shape[0])
        extras = candidates[matches(values[candidates])]
    else:
        extras = np.empty(0, dtype=np.int64)

    rowset = RowSet(full_starts, full_stops, extras)
    stats.ids_materialized = rowset.count()
    return QueryResult(rowset=rowset, stats=stats)


#: Candidate value positions the first window of
#: :func:`first_ids_of_ranges` checks; each later window doubles.
#: ``ColumnImprints.page(p, 100)`` on a 2-vCPU VM (best of 9), first
#: windows of 512 to 16384 positions: 0.20-0.24 ms on 4M clustered rows
#: at 20%, 0.29-0.37 ms on a 4M-row random walk at 20%, 1.78-1.99 ms on
#: 4M uniform rows at 35%, with 4096 lowest or within 0.02 ms of it on
#: each.  Larger windows pay on the first two, where the page fills in
#: a few hundred positions; a narrow predicate on a 400k-row random
#: walk (156 partial ranges, 122 ids) went from 0.23 ms at 512 to 0.16
#: at 4096 and 0.14 at 16384.
FIRST_WINDOW = 4096


def first_ids_of_ranges(
    data: ImprintsData,
    values: np.ndarray,
    matches,
    ranges: CandidateRanges,
    limit: int,
) -> np.ndarray:
    """The answer's first ``limit`` ids, without building the answer.

    The lazy counterpart of :func:`materialize_ranges`.  The candidate
    value positions (every range's values, in id order) are checked in
    windows from position 0: the first :data:`FIRST_WINDOW` positions
    long (at least ``limit``), each later one twice the last, until
    ``limit`` ids are found.  A window may end inside a range, so a
    long run costs one window, not one check of the whole run.  Within
    a window, full ranges emit their ids and partial ranges keep the
    values ``matches`` accepts, exactly as :func:`materialize_ranges`
    does, so the ids equal the first ``limit`` of its answer.
    """
    vpc = data.values_per_cacheline
    starts = ranges.starts * vpc
    stops = np.minimum(ranges.stops * vpc, data.n_values)
    lengths = stops - starts
    ends = np.cumsum(lengths)  # candidate positions up to each range's end
    total = int(ends[-1]) if ends.shape[0] else 0
    found: list[np.ndarray] = []
    need, lo, window = limit, 0, FIRST_WINDOW
    while need > 0 and lo < total:
        hi = min(lo + max(window, need), total)
        # The ranges the window [lo, hi) overlaps, clipped to it.
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi, side="left")) + 1
        window_starts = starts[first:last].copy()
        window_stops = stops[first:last].copy()
        window_starts[0] += lo - (ends[first] - lengths[first])
        window_stops[-1] -= ends[last - 1] - hi
        ids = expand_ranges(window_starts, window_stops)
        keep = np.repeat(ranges.full[first:last], window_stops - window_starts)
        check = np.flatnonzero(~keep)
        keep[check] = matches(values[ids[check]])
        hits = ids[keep][:need]
        found.append(hits)
        need -= hits.shape[0]
        lo, window = hi, 2 * window
    if not found:
        return np.empty(0, dtype=np.int64)
    return found[0] if len(found) == 1 else np.concatenate(found)


def query_vectorized(
    data: ImprintsData,
    values: np.ndarray,
    predicate: RangePredicate,
    overlay_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> QueryResult:
    """Compressed-domain Algorithm 3: ranges, then false-positive weeding."""
    ranges = query_ranges(data, predicate, overlay_state=overlay_state)
    return materialize_ranges(data, values, predicate.matches, ranges)
