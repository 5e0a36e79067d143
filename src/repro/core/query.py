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
:func:`query_cachelines` survives as the exploded per-cacheline view of
the same answer (Section 3's late-materialisation intermediate) for
consumers that want id lists.  :func:`query_batch` shares the stored-
vector pass across many predicates — the traffic-serving shape.
:func:`dense_span_or_ranges` decides from the same stored-vector test
whether a count or a first page scans the candidates' covering span
once instead of building ranges (:func:`first_page_of_span`).

All production paths return their answer as a lazy compressed
:class:`~repro.core.rowset.RowSet`-backed result — full cacheline runs
stay id *ranges*, only checked survivors are stored as sparse ids —
plus the instrumentation counters of Figure 11.  Forcing
``result.ids`` yields the paper's sorted id list, bit-identical to
:func:`query_scalar`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "query_cachelines",
    "query_batch",
    "ranges_for_masks",
    "dense_span_or_ranges",
    "first_page_of_span",
    "DENSE_SHARE",
    "materialize_ranges",
    "take_from_ranges",
    "CachelineCandidates",
]

_U64 = np.uint64
_LOW64 = (1 << 64) - 1
#: Predicates tested per shared pass in :func:`query_batch`; bounds the
#: hit/full matrices at O(chunk x stored vectors) regardless of batch size.
_BATCH_CHUNK = 64


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


def _overlay_state(
    data: ImprintsData, overlay: dict[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Mask-independent overlay prework: sorted lines + overlaid vectors.

    Computed once per batch — the sort, the stored-row lookup and the
    bit OR do not depend on the query mask.
    """
    lines = np.fromiter(overlay.keys(), dtype=np.int64, count=len(overlay))
    bits = np.fromiter(
        (overlay[int(line)] for line in lines), dtype=_U64, count=lines.size
    )
    order = np.argsort(lines, kind="stable")
    lines, bits = lines[order], bits[order]
    keep = lines < data.n_cachelines
    lines = lines[keep]
    rows = data.dictionary.rows_of_cachelines(lines)
    return lines, data.imprints[rows] | bits[keep]


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


def ranges_for_masks(
    data: ImprintsData,
    mask64: np.uint64,
    not_inner64: np.uint64,
    stats: QueryStats,
    overlay: dict[int, int] | None = None,
    hit_rows: np.ndarray | None = None,
    full_rows: np.ndarray | None = None,
    overlay_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> CandidateRanges:
    """The run-level kernel shared by every compressed-domain path.

    Tests each stored vector against the (already built) masks, maps
    hits to their cacheline intervals via the dictionary's cached run
    boundaries, applies the saturation overlay and coalesces.  Callers
    that already computed the per-row hit/full flags or the overlay
    prework (the batch path's shared pass) hand them in instead of
    recomputing per predicate.
    """
    vectors = data.imprints
    if hit_rows is None:
        hit_rows = (vectors & mask64) != 0
    if full_rows is None:
        full_rows = hit_rows & ((vectors & not_inner64) == 0)

    span_starts, span_stops = data.dictionary.row_cacheline_spans()
    hits = np.flatnonzero(hit_rows)
    starts = span_starts[hits]
    stops = span_stops[hits]
    full = full_rows[hits]

    if overlay_state is None and overlay:
        overlay_state = _overlay_state(data, overlay)
    if overlay_state is not None:
        starts, stops, full = _patch_overlay(
            overlay_state, mask64, not_inner64, starts, stops, full
        )
    starts, stops, full = coalesce_ranges(starts, stops, full)
    return CandidateRanges(starts, stops, full, stats)


def query_ranges(
    data: ImprintsData,
    predicate: RangePredicate,
    overlay: dict[int, int] | None = None,
    overlay_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> CandidateRanges:
    """Candidate cacheline *ranges* for a predicate (compressed domain).

    One mask/innermask test per stored vector; qualifying vectors map to
    their ``[start, stop)`` cacheline intervals via the dictionary's
    cached run boundaries.  ``overlay`` optionally maps cacheline
    numbers to extra imprint bits set by in-place updates (Section 4.2
    saturation); overlaid cachelines are re-tested individually.
    Callers that keep the mask-independent overlay prework cached (the
    index does, across queries) hand it in as ``overlay_state``.
    """
    mask, innermask = cached_masks(data.histogram, predicate)
    stats = fresh_query_stats(data)
    if mask == 0 or data.n_cachelines == 0:
        return _empty_ranges(stats)

    # Complement within 64 bits: the stored vectors never set bits
    # beyond the histogram width, so the high bits are immaterial.
    return ranges_for_masks(
        data,
        _U64(mask),
        _U64(~innermask & _LOW64),
        stats,
        overlay,
        overlay_state=overlay_state,
    )


#: A first page or ``COUNT`` scans the candidates' covering span densely
#: once partial cachelines make up at least this share of it.  Measured
#: on 4M-row int32 columns (16 values per cacheline, 2-vCPU VM): the
#: dense side costs ~10 ns per spanned cacheline.  The sparse side
#: builds the candidate ranges and refines every partial line through
#: the aggregate sidecar: a count costs ~60-90 ns per partial line when
#: the sidecar bounds promote or drop it (clustered data) and ~130 ns
#: when it straddles a predicate bound (uniform data); a first page
#: adds the range walk, up to ~370 ns per partial line.  Break-even is
#: therefore a share of 0.03-0.1 for first pages and 0.08-0.2 for
#: counts.  At 0.1, served page predicates (shares 0.56-1.0 on uniform
#: columns) go dense and clustered dashboard counts (shares <= 0.05)
#: stay sparse.
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
    mask, innermask = cached_masks(data.histogram, predicate)
    stats = fresh_query_stats(data)
    if mask == 0 or data.n_cachelines == 0:
        return None, _empty_ranges(stats)
    mask64 = _U64(mask)
    not_inner64 = _U64(~innermask & _LOW64)
    vectors = data.imprints
    hit_rows = (vectors & mask64) != 0
    full_rows = hit_rows & ((vectors & not_inner64) == 0)
    span = _dense_span(data, hit_rows, full_rows, mask64, overlay_state)
    if span is not None:
        return span, None
    return None, ranges_for_masks(
        data,
        mask64,
        not_inner64,
        stats,
        hit_rows=hit_rows,
        full_rows=full_rows,
        overlay_state=overlay_state,
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


def take_from_ranges(
    data: ImprintsData,
    values: np.ndarray,
    matches,
    ranges: CandidateRanges,
    segment: int,
    offset: int,
    limit: int,
) -> tuple[np.ndarray, int, int]:
    """Materialise at most ``limit`` ids from a candidate-range walk.

    The streaming counterpart of :func:`materialize_ranges`: instead of
    weeding *every* partial candidate up front, the walk starts at
    ``(segment, offset)`` — candidate-range index plus intra-range
    offset in value positions, exactly what page cursors persist — and
    stops as soon as ``limit`` ids are collected.  Full ranges emit ids
    by arithmetic; partial ranges check values block by block, so a
    first page touches a handful of cachelines no matter how large the
    full answer is.  Returns ``(ids, segment, offset)`` with the
    position advanced past the last id served (``segment ==
    ranges.n_ranges`` means the walk is exhausted); resuming from a
    returned position re-checks nothing.  Concatenated over a full
    walk, the ids are bit-identical to ``materialize_ranges(...).ids``.
    """
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    vpc = data.values_per_cacheline
    n = data.n_values
    starts, stops, full = ranges.starts, ranges.stops, ranges.full
    n_segments = int(starts.shape[0])
    out: list[np.ndarray] = []
    taken = 0
    while segment < n_segments and taken < limit:
        base = int(starts[segment]) * vpc
        v_start = base + offset
        v_stop = min(int(stops[segment]) * vpc, n)
        if v_start >= v_stop:
            segment += 1
            offset = 0
            continue
        if full[segment]:
            take = min(limit - taken, v_stop - v_start)
            out.append(np.arange(v_start, v_start + take, dtype=np.int64))
            taken += take
            offset += take
        else:
            # One block of value checks: enough positions that a page
            # usually fills in one round, clamped to the range.
            block_stop = min(
                v_start + max(4 * (limit - taken), vpc), v_stop
            )
            survivors = (
                np.flatnonzero(matches(values[v_start:block_stop])) + v_start
            )
            need = limit - taken
            if survivors.shape[0] > need:
                survivors = survivors[:need]
                out.append(survivors)
                taken += need
                offset = int(survivors[-1]) + 1 - base
            else:
                out.append(survivors)
                taken += int(survivors.shape[0])
                offset = block_stop - base
        if base + offset >= v_stop:
            segment += 1
            offset = 0
    ids = (
        np.concatenate(out)
        if len(out) > 1
        else (out[0] if out else np.empty(0, dtype=np.int64))
    )
    return ids, segment, offset


def query_vectorized(
    data: ImprintsData,
    values: np.ndarray,
    predicate: RangePredicate,
    overlay: dict[int, int] | None = None,
    overlay_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> QueryResult:
    """Compressed-domain Algorithm 3: ranges, then false-positive weeding."""
    ranges = query_ranges(data, predicate, overlay, overlay_state=overlay_state)
    return materialize_ranges(data, values, predicate.matches, ranges)


# ----------------------------------------------------------------------
# batched evaluation — one stored-vector pass, many predicates
# ----------------------------------------------------------------------
def query_batch(
    data: ImprintsData,
    values: np.ndarray,
    predicates,
    overlay: dict[int, int] | None = None,
    overlay_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[QueryResult]:
    """Answer many range predicates sharing one pass over the vectors.

    The mask tests for all predicates run as a single 2-D bitwise
    operation over the stored vectors (O(predicates x stored vectors)),
    instead of re-reading the vector array per query; range mapping and
    materialisation then proceed per predicate.  Answers (ids *and*
    stats) are identical to calling :func:`query_vectorized` per
    predicate — this is purely the serving-loop optimisation.
    """
    predicates = list(predicates)
    results: list[QueryResult | None] = [None] * len(predicates)
    if not predicates:
        return []

    masks = np.empty(len(predicates), dtype=_U64)
    inners = np.empty(len(predicates), dtype=_U64)
    active: list[int] = []
    for i, predicate in enumerate(predicates):
        mask, innermask = cached_masks(data.histogram, predicate)
        if mask == 0 or data.n_cachelines == 0:
            # Mirror query_ranges' early return, counters included.
            results[i] = QueryResult(
                ids=np.empty(0, dtype=np.int64), stats=fresh_query_stats(data)
            )
            continue
        masks[len(active)] = _U64(mask)
        inners[len(active)] = _U64(~innermask & _LOW64)
        active.append(i)

    masks = masks[: len(active)]
    inners = inners[: len(active)]
    vectors = data.imprints
    if overlay_state is None and overlay and active:
        overlay_state = _overlay_state(data, overlay)
    # The shared pass: one 2-D bitwise op per chunk of predicates.  The
    # chunk bound keeps the hit/full matrices at O(chunk x stored rows)
    # so batch memory stays flat no matter how many predicates arrive.
    for chunk_start in range(0, len(active), _BATCH_CHUNK):
        chunk = slice(chunk_start, chunk_start + _BATCH_CHUNK)
        hit_rows = (vectors[None, :] & masks[chunk, None]) != 0
        full_rows = hit_rows & ((vectors[None, :] & inners[chunk, None]) == 0)

        for j, i in enumerate(active[chunk]):
            ranges = ranges_for_masks(
                data,
                masks[chunk_start + j],
                inners[chunk_start + j],
                fresh_query_stats(data),
                hit_rows=hit_rows[j],
                full_rows=full_rows[j],
                overlay_state=overlay_state,
            )
            results[i] = materialize_ranges(
                data, values, predicates[i].matches, ranges
            )
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# exploded per-cacheline view (compatibility / Section 3 intermediate)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CachelineCandidates:
    """The late-materialisation intermediate: qualifying cachelines.

    The exploded (one element per cacheline) view of
    :class:`~repro.core.ranges.CandidateRanges` — kept for consumers
    that want flat id lists; the query engine itself stays in ranges.

    Attributes
    ----------
    cachelines:
        Sorted cacheline numbers whose imprint intersects the mask.
    is_full:
        Parallel flags: ``True`` where the innermask proved the whole
        cacheline qualifies (no value check needed).
    stats:
        Probe counters accumulated while producing the candidates.
    """

    cachelines: np.ndarray
    is_full: np.ndarray
    stats: QueryStats

    @property
    def n_candidates(self) -> int:
        return int(self.cachelines.shape[0])

    @classmethod
    def from_ranges(cls, ranges: CandidateRanges) -> "CachelineCandidates":
        cachelines, is_full = ranges.explode()
        return cls(cachelines=cachelines, is_full=is_full, stats=ranges.stats)


def query_cachelines(
    data: ImprintsData,
    predicate: RangePredicate,
    overlay: dict[int, int] | None = None,
    overlay_state: tuple[np.ndarray, np.ndarray] | None = None,
) -> CachelineCandidates:
    """Candidate cachelines for a predicate (no value access at all).

    The exploded view of :func:`query_ranges` — O(candidate cachelines)
    output; prefer the range form for anything performance-sensitive.
    """
    return CachelineCandidates.from_ranges(
        query_ranges(data, predicate, overlay, overlay_state=overlay_state)
    )
