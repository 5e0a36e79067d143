"""Multi-attribute queries with late materialisation (paper Section 3).

When a query carries range predicates over several columns of the same
table, materialising full id lists per predicate and intersecting them
wastes work.  The paper's alternative: run Algorithm 3 per column but
stop at the *cacheline candidate lists*, merge-join those (cachelines
are aligned across columns of a table when the value widths match — and
comparable through id ranges when they don't), and only check values
for cachelines that survived every predicate.

This module implements both strategies so the benefit is measurable:

* :func:`conjunctive_query` — the late-materialisation merge-join;
* :func:`conjunctive_query_eager` — the naive per-column materialise +
  intersect baseline.

Both produce the same sorted id set.  The late paths return lazy
:class:`~repro.core.rowset.RowSet`-backed results: id ranges that were
*full* under every predicate stay ranges (no value checks, no
expansion), and only the remaining candidates are expanded, checked and
kept as the sparse exception chunk.  The accompanying stats expose the
saved value comparisons.
"""

from __future__ import annotations

import numpy as np

from ..index_base import QueryResult, QueryStats
from ..predicate import RangePredicate
from .index import ColumnImprints
from .ranges import (
    CandidateRanges,
    difference_ranges,
    expand_ranges,
    intersect_ranges,
    union_ranges,
)
from .rowset import RowSet

__all__ = [
    "conjunctive_query",
    "conjunctive_query_eager",
    "conjunctive_aggregate",
    "disjunctive_query",
    "candidate_union",
    "candidate_difference",
]


def _intersect_id_ranges(
    indexes: list[ColumnImprints],
    predicates: list[RangePredicate],
    stats: QueryStats,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Id ranges surviving the merge-join of per-column candidates.

    Candidate cachelines are converted to half-open id ranges (columns
    of different widths have different cacheline geometries, so the
    merge happens in id space, the common coordinate system) and
    intersected pairwise, propagating the *full* flags: a surviving
    piece is flagged full only if every predicate's innermask proved
    its whole span — those ids need no value check at all.  Candidates
    are produced lazily, column by column, so probing stops once the
    intersection empties.  Returns ``(starts, stops, all_full)``.
    """
    n_rows = len(indexes[0].column)
    alive: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
    for index, predicate in zip(indexes, predicates):
        ranges = index.candidate_ranges(predicate)
        stats.merge(ranges.stats)
        spans = ranges.id_spans(index.column.values_per_cacheline, n_rows)
        if alive is None:
            alive = (spans[0], spans[1], ranges.full.copy())
        else:
            starts, stops, a_idx, b_idx = intersect_ranges(
                alive[0], alive[1], *spans
            )
            alive = (starts, stops, alive[2][a_idx] & ranges.full[b_idx])
        if alive[0].size == 0:
            break
    if alive is None:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=bool)
    return alive


def conjunctive_query(
    indexes: list[ColumnImprints],
    predicates: list[RangePredicate],
) -> QueryResult:
    """AND of range predicates via candidate merge-join.

    All indexes must cover columns of the same table (equal row counts).
    Id spans full under *every* predicate go straight into the result's
    :class:`RowSet` as ranges — unexpanded and uncheckable by
    construction.  Value checks run only on ids of the remaining
    survivor spans — the "smaller set of qualifying ids" the paper
    expects from combining selective predicates.
    """
    if not indexes or len(indexes) != len(predicates):
        raise ValueError("need one predicate per index, at least one each")
    n_rows = len(indexes[0].column)
    if any(len(ix.column) != n_rows for ix in indexes):
        raise ValueError("conjunctive queries require equally long columns")

    stats = QueryStats()
    starts, stops, all_full = _intersect_id_ranges(indexes, predicates, stats)
    if starts.size == 0:
        stats.ids_materialized = 0
        return QueryResult(rowset=RowSet.empty(), stats=stats)

    # False-positive weeding over the not-fully-proven survivors only.
    pending = expand_ranges(starts[~all_full], stops[~all_full])
    keep = np.ones(pending.shape[0], dtype=bool)
    for index, predicate in zip(indexes, predicates):
        if not keep.any():
            break
        checked = pending[keep]
        stats.value_comparisons += int(checked.shape[0])
        lines = np.unique(index.column.geometry.cachelines_of(checked))
        stats.cachelines_fetched += int(lines.shape[0])
        keep[keep] = predicate.matches(index.column.values[checked])

    rowset = RowSet(starts[all_full], stops[all_full], pending[keep])
    stats.ids_materialized = rowset.count()
    return QueryResult(rowset=rowset, stats=stats)


def conjunctive_aggregate(
    indexes: list[ColumnImprints],
    predicates: list[RangePredicate],
    op: str,
    target: int = 0,
):
    """Aggregate one column over a multi-attribute conjunction.

    ``SUM``/``MIN``/``MAX``/``COUNT`` of ``indexes[target]``'s column
    over the ids satisfying *every* predicate.  The merge-join's
    all-full survivor spans land in the answer's :class:`RowSet` as
    unexpanded id ranges, which feed ``indexes[target]``'s per-cacheline
    pre-aggregates directly — only the checked-survivor exception chunk
    scans the target column's values.
    """
    result = conjunctive_query(indexes, predicates)
    if op == "count":
        return result.count()
    index = indexes[target]
    return result.aggregate(
        op, index.column.values, getattr(index, "cacheline_aggregates", None)
    )


def conjunctive_query_eager(
    indexes: list[ColumnImprints],
    predicates: list[RangePredicate],
) -> QueryResult:
    """Baseline: materialise every predicate fully, then intersect."""
    if not indexes or len(indexes) != len(predicates):
        raise ValueError("need one predicate per index, at least one each")
    stats = QueryStats()
    ids: np.ndarray | None = None
    for index, predicate in zip(indexes, predicates):
        result = index.query(predicate)
        stats.merge(result.stats)
        ids = result.ids if ids is None else np.intersect1d(
            ids, result.ids, assume_unique=True
        )
        if ids.size == 0:
            break
    final = ids if ids is not None else np.empty(0, dtype=np.int64)
    stats.ids_materialized = int(final.shape[0])
    return QueryResult(ids=final, stats=stats)


# ----------------------------------------------------------------------
# inter-column candidate operations (the paper's Section 4.2 deferral:
# "column imprints can cope with inter-column operations, such as
# unions and differences, by first applying them to the cacheline
# dictionaries, such that a candidate list of qualifying cachelines is
# created for both operands")
# ----------------------------------------------------------------------
def _merged_stats(a: CandidateRanges, b: CandidateRanges) -> QueryStats:
    stats = QueryStats()
    stats.merge(a.stats)
    stats.merge(b.stats)
    return stats


def candidate_union(a: CandidateRanges, b: CandidateRanges) -> CandidateRanges:
    """Union of two candidate range sets — pure interval algebra.

    A cacheline covered by a *full* range of either operand is full in
    the union (every one of its values qualifies under that operand's
    predicate); all other covered cachelines stay check-required.
    O(ranges) in and out — no per-cacheline list is ever built.
    """
    full_starts, full_stops = union_ranges(
        np.concatenate([a.starts[a.full], b.starts[b.full]]),
        np.concatenate([a.stops[a.full], b.stops[b.full]]),
    )
    any_starts, any_stops = union_ranges(
        np.concatenate([a.starts, b.starts]),
        np.concatenate([a.stops, b.stops]),
    )
    part_starts, part_stops, _ = difference_ranges(
        any_starts, any_stops, full_starts, full_stops
    )
    starts = np.concatenate([full_starts, part_starts])
    stops = np.concatenate([full_stops, part_stops])
    full = np.zeros(starts.shape[0], dtype=bool)
    full[: full_starts.shape[0]] = True
    order = np.argsort(starts, kind="stable")
    return CandidateRanges(
        starts[order], stops[order], full[order], _merged_stats(a, b)
    )


def candidate_difference(
    a: CandidateRanges, b: CandidateRanges
) -> CandidateRanges:
    """Candidates of ``a`` with ``b``'s cachelines carved out.

    Used for delta-style difference operands: a cacheline that only the
    deletion side touches cannot contribute results.  ``a``'s full
    flags survive on the remaining pieces.  O(ranges), never exploded.
    """
    starts, stops, source = difference_ranges(
        a.starts, a.stops, b.starts, b.stops
    )
    return CandidateRanges(
        starts, stops, a.full[source], _merged_stats(a, b)
    )


def disjunctive_query(
    indexes: list[ColumnImprints],
    predicates: list[RangePredicate],
) -> QueryResult:
    """OR of range predicates over aligned columns (late materialised).

    An id qualifies if *any* predicate accepts its value.  Candidate
    ranges are combined with interval algebra (cheap, index-only): the
    union of everyone's *full* spans is accepted wholesale and stays a
    range in the result's :class:`RowSet`; value checks run once per
    remaining candidate id per predicate, stopping at the first
    acceptance, and the survivors form the sparse exception chunk.
    """
    if not indexes or len(indexes) != len(predicates):
        raise ValueError("need one predicate per index, at least one each")
    n_rows = len(indexes[0].column)
    if any(len(ix.column) != n_rows for ix in indexes):
        raise ValueError("disjunctive queries require equally long columns")

    stats = QueryStats()
    accepted_starts: list[np.ndarray] = []
    accepted_stops: list[np.ndarray] = []
    pending_starts: list[np.ndarray] = []
    pending_stops: list[np.ndarray] = []
    for index, predicate in zip(indexes, predicates):
        ranges = index.candidate_ranges(predicate)
        stats.merge(ranges.stats)
        vpc = index.column.values_per_cacheline
        full_s, full_e, part_s, part_e = ranges.split()
        accepted_starts.append(full_s * vpc)
        accepted_stops.append(np.minimum(full_e * vpc, n_rows))
        pending_starts.append(part_s * vpc)
        pending_stops.append(np.minimum(part_e * vpc, n_rows))

    # Interval algebra over id space: union the full ranges (accepted
    # wholesale), union the partial ranges, and only ids in the latter
    # minus the former need value checks.
    accepted = union_ranges(
        np.concatenate(accepted_starts), np.concatenate(accepted_stops)
    )
    candidate = union_ranges(
        np.concatenate(pending_starts), np.concatenate(pending_stops)
    )
    unresolved_s, unresolved_e, _ = difference_ranges(*candidate, *accepted)
    pending = expand_ranges(unresolved_s, unresolved_e)
    extra_chunks: list[np.ndarray] = []

    # Check unresolved candidates predicate by predicate, dropping ids
    # as soon as one side accepts them.
    for index, predicate in zip(indexes, predicates):
        if pending.size == 0:
            break
        stats.value_comparisons += int(pending.shape[0])
        lines = np.unique(index.column.geometry.cachelines_of(pending))
        stats.cachelines_fetched += int(lines.shape[0])
        hit = predicate.matches(index.column.values[pending])
        extra_chunks.append(pending[hit])
        pending = pending[~hit]

    # The chunks are disjoint (an id leaves ``pending`` on first
    # acceptance) and each is sorted; their union is one sort away and
    # proportional to the *checked* survivors, not the answer.
    if extra_chunks:
        extras = np.sort(np.concatenate(extra_chunks), kind="stable")
    else:
        extras = np.empty(0, dtype=np.int64)
    rowset = RowSet(accepted[0], accepted[1], extras)
    stats.ids_materialized = rowset.count()
    return QueryResult(rowset=rowset, stats=stats)
