"""Candidate ranges — the compressed-domain currency of the query engine.

The cacheline dictionary stores runs of identical imprint vectors once,
so one mask test against a stored vector decides a whole *interval* of
cachelines at a time.  The query kernels therefore speak in half-open
``[start, stop)`` intervals (of cachelines, or of value ids after
scaling by ``values_per_cacheline``) instead of exploded per-cacheline
id arrays: a run of a million identical cachelines is one range, not a
million array elements.

:class:`CandidateRanges` is the late-materialisation intermediate in
this representation.  The module-level set operations —
intersection, union, difference — are what the multi-predicate paths
(:mod:`repro.core.conjunction`) merge-join with; all of them are pure
``searchsorted``/``cumsum`` arithmetic on the interval endpoints, fully
vectorised, and output sorted disjoint intervals again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..index_base import QueryStats

__all__ = [
    "CandidateRanges",
    "expand_ranges",
    "ids_to_ranges",
    "coalesce_ranges",
    "intersect_ranges",
    "union_ranges",
    "difference_ranges",
    "merge_sorted_disjoint",
]

_I64 = np.int64


def _as_i64(values) -> np.ndarray:
    return np.asarray(values, dtype=_I64)


# ----------------------------------------------------------------------
# interval arithmetic (all inputs/outputs are half-open [start, stop))
# ----------------------------------------------------------------------
def expand_ranges(starts, stops) -> np.ndarray:
    """Every integer covered by sorted disjoint ranges, in sorted order.

    The materialisation step: one bulk ``arange`` equivalent built from
    a ``repeat`` + ``cumsum``, no Python-level loop over ranges.
    """
    starts = _as_i64(starts)
    stops = _as_i64(stops)
    if starts.size == 0:
        return np.empty(0, dtype=_I64)
    lengths = stops - starts
    cum = np.cumsum(lengths)
    total = int(cum[-1])
    if total == 0:
        return np.empty(0, dtype=_I64)
    # Position p inside range i holds starts[i] + (p - cum[i-1]), and
    # starts[i] - cum[i-1] == stops[i] - cum[i].
    return np.repeat(stops - cum, lengths) + np.arange(total, dtype=_I64)


def ids_to_ranges(ids) -> tuple[np.ndarray, np.ndarray]:
    """Compress sorted distinct ids into maximal ``[start, stop)`` runs.

    The inverse of :func:`expand_ranges`: every maximal run of
    consecutive ids becomes one half-open range.  O(ids) once, after
    which all set algebra is O(runs).
    """
    ids = _as_i64(ids)
    if ids.size == 0:
        empty = np.empty(0, dtype=_I64)
        return empty, empty.copy()
    new = np.ones(ids.size, dtype=bool)
    new[1:] = np.diff(ids) != 1
    firsts = np.flatnonzero(new)
    starts = ids[firsts]
    stops = np.append(ids[firsts[1:] - 1], ids[-1]) + 1
    return starts, stops


def merge_sorted_disjoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Two-way merge of two sorted arrays with no common elements.

    The materialisation tail of Algorithm 3 combines the id chunk of the
    *full* ranges with the survivors of the *partial* ranges; both are
    already sorted and a cacheline belongs to exactly one kind of range,
    so a linear merge replaces the former ``sort(concatenate(...))``.
    Each element's output slot is its rank in its own array plus its
    rank in the other one — two ``searchsorted`` calls and two scatters,
    no comparison sort.
    """
    a, b = _as_i64(a), _as_i64(b)
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    out = np.empty(a.size + b.size, dtype=_I64)
    pos_b = np.searchsorted(a, b) + np.arange(b.size, dtype=_I64)
    out[pos_b] = b
    mask = np.ones(out.size, dtype=bool)
    mask[pos_b] = False
    out[mask] = a
    return out


def coalesce_ranges(
    starts, stops, flags: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """Merge abutting ranges (only those with equal flags, if given).

    Input must be sorted and disjoint; empty ranges are dropped.
    Returns ``(starts, stops)`` or ``(starts, stops, flags)``.
    """
    starts = _as_i64(starts)
    stops = _as_i64(stops)
    keep = starts < stops
    if not keep.all():
        starts, stops = starts[keep], stops[keep]
        if flags is not None:
            flags = flags[keep]
    if starts.size == 0:
        empty = np.empty(0, dtype=_I64)
        if flags is None:
            return empty, empty
        return empty, empty, np.empty(0, dtype=bool)
    new = np.ones(starts.size, dtype=bool)
    if flags is None:
        new[1:] = starts[1:] != stops[:-1]
    else:
        new[1:] = (starts[1:] != stops[:-1]) | (flags[1:] != flags[:-1])
    firsts = np.flatnonzero(new)
    out_starts = starts[firsts]
    out_stops = np.append(stops[firsts[1:] - 1], stops[-1])
    if flags is None:
        return out_starts, out_stops
    return out_starts, out_stops, flags[firsts]


def intersect_ranges(
    a_starts, a_stops, b_starts, b_stops
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise intersection of two sorted disjoint range lists.

    Returns ``(starts, stops, a_index, b_index)``: each output piece is
    the overlap of ``a[a_index]`` and ``b[b_index]``, so per-range
    payloads (full/partial flags, stored-row numbers) propagate through
    the indices.  Output is sorted and disjoint.
    """
    a_starts, a_stops = _as_i64(a_starts), _as_i64(a_stops)
    b_starts, b_stops = _as_i64(b_starts), _as_i64(b_stops)
    if a_starts.size == 0 or b_starts.size == 0:
        empty = np.empty(0, dtype=_I64)
        return empty, empty.copy(), empty.copy(), empty.copy()
    # b ranges overlapping a[i] are exactly b[lo[i]:hi[i]].
    lo = np.searchsorted(b_stops, a_starts, side="right")
    hi = np.searchsorted(b_starts, a_stops, side="left")
    counts = np.maximum(hi - lo, 0)
    total = int(counts.sum())
    a_idx = np.repeat(np.arange(a_starts.size, dtype=_I64), counts)
    offsets = np.cumsum(counts) - counts
    b_idx = (
        np.arange(total, dtype=_I64)
        - np.repeat(offsets, counts)
        + np.repeat(lo, counts)
    )
    starts = np.maximum(a_starts[a_idx], b_starts[b_idx])
    stops = np.minimum(a_stops[a_idx], b_stops[b_idx])
    keep = starts < stops
    return starts[keep], stops[keep], a_idx[keep], b_idx[keep]


def union_ranges(starts, stops) -> tuple[np.ndarray, np.ndarray]:
    """Union of ranges in any order (overlaps allowed) — sorted disjoint."""
    starts, stops = _as_i64(starts), _as_i64(stops)
    if starts.size == 0:
        return starts.copy(), stops.copy()
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], stops[order]
    reach = np.maximum.accumulate(e)
    new = np.ones(s.size, dtype=bool)
    new[1:] = s[1:] > reach[:-1]
    firsts = np.flatnonzero(new)
    return s[firsts], np.maximum.reduceat(e, firsts)


def difference_ranges(
    a_starts, a_stops, b_starts, b_stops
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a`` minus ``b`` (both sorted disjoint).

    Returns ``(starts, stops, a_index)``; ``a_index`` maps each
    surviving piece back to its source range for flag propagation.
    """
    a_starts, a_stops = _as_i64(a_starts), _as_i64(a_stops)
    b_starts, b_stops = _as_i64(b_starts), _as_i64(b_stops)
    n_a, n_b = a_starts.size, b_starts.size
    if n_a == 0 or n_b == 0:
        return a_starts.copy(), a_stops.copy(), np.arange(n_a, dtype=_I64)
    lo = np.searchsorted(b_stops, a_starts, side="right")
    hi = np.searchsorted(b_starts, a_stops, side="left")
    k = np.maximum(hi - lo, 0)
    # a[i] splits into k[i] + 1 pieces: before the first overlapping b,
    # between consecutive ones, and after the last.
    pieces = k + 1
    total = int(pieces.sum())
    a_idx = np.repeat(np.arange(n_a, dtype=_I64), pieces)
    offsets = np.cumsum(pieces) - pieces
    pos = np.arange(total, dtype=_I64) - np.repeat(offsets, pieces)
    b_lo = np.repeat(lo, pieces)
    starts = np.where(
        pos == 0,
        a_starts[a_idx],
        b_stops[np.clip(b_lo + pos - 1, 0, n_b - 1)],
    )
    stops = np.where(
        pos == np.repeat(k, pieces),
        a_stops[a_idx],
        b_starts[np.clip(b_lo + pos, 0, n_b - 1)],
    )
    starts = np.maximum(starts, a_starts[a_idx])
    stops = np.minimum(stops, a_stops[a_idx])
    keep = starts < stops
    return starts[keep], stops[keep], a_idx[keep]


# ----------------------------------------------------------------------
# the late-materialisation intermediate
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class CandidateRanges:
    """Qualifying cachelines as sorted disjoint ``[start, stop)`` ranges.

    Attributes
    ----------
    starts, stops:
        Parallel ``int64`` arrays of half-open cacheline intervals whose
        imprints intersect the query mask.  Abutting ranges with equal
        flags are coalesced, so length is O(stored vectors), never
        O(cachelines).
    full:
        Parallel flags: ``True`` where the innermask proved every value
        of the range's cachelines qualifies (no value check needed).
    stats:
        Probe counters accumulated while producing the ranges.
    """

    starts: np.ndarray
    stops: np.ndarray
    full: np.ndarray
    stats: QueryStats

    def __post_init__(self) -> None:
        starts = np.ascontiguousarray(self.starts, dtype=_I64)
        stops = np.ascontiguousarray(self.stops, dtype=_I64)
        full = np.ascontiguousarray(self.full, dtype=bool)
        if not starts.shape == stops.shape == full.shape:
            raise ValueError(
                f"starts/stops/full must be parallel, got shapes "
                f"{starts.shape}, {stops.shape}, {full.shape}"
            )
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "stops", stops)
        object.__setattr__(self, "full", full)

    # -- sizes ----------------------------------------------------------
    @property
    def n_ranges(self) -> int:
        return int(self.starts.shape[0])

    @property
    def n_cachelines(self) -> int:
        """Total candidate cachelines covered by the ranges."""
        return int((self.stops - self.starts).sum())

    @property
    def n_full_cachelines(self) -> int:
        return int((self.stops - self.starts)[self.full].sum())

    @property
    def n_partial_cachelines(self) -> int:
        return self.n_cachelines - self.n_full_cachelines

    # -- views ----------------------------------------------------------
    def split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(full_starts, full_stops, partial_starts, partial_stops)``."""
        full = self.full
        return (
            self.starts[full],
            self.stops[full],
            self.starts[~full],
            self.stops[~full],
        )

    def explode(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-cacheline view: ``(cachelines, is_full)``, both sorted.

        Costs O(candidate cachelines); the query kernels never call it.
        """
        lines = expand_ranges(self.starts, self.stops)
        is_full = np.repeat(self.full, self.stops - self.starts)
        return lines, is_full

    def id_spans(
        self, values_per_cacheline: int, n_values: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """All ranges as value-id intervals, clamped to the column end."""
        starts = self.starts * values_per_cacheline
        stops = np.minimum(self.stops * values_per_cacheline, n_values)
        return starts, stops

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CandidateRanges(ranges={self.n_ranges}, "
            f"cachelines={self.n_cachelines}, full={self.n_full_cachelines})"
        )
