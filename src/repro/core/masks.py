"""Query masks — the ``make_masks`` step of the paper's Algorithm 3.

For a range query two bit vectors are derived from the histogram:

* ``mask`` — a bit per histogram bin that *intersects* the query range.
  An imprint vector sharing any bit with ``mask`` marks a candidate
  cacheline.
* ``innermask`` — only the bits of bins lying *entirely inside* the
  query range.  If a candidate imprint has no bits outside the
  innermask, every value in the cacheline qualifies and the per-value
  false-positive check is skipped.

All border comparisons are exact (performed in the column's own number
kind): converting large ``int64`` borders through ``float64`` could
misplace a query bound by one bin and silently drop results, so the
implementation never does that.
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from ..predicate import RangePredicate
from .binning import Histogram
from .bitvec import low_bits_mask

__all__ = ["make_masks", "cached_masks", "edge_bins"]


def _prev_value(histogram: Histogram, bound):
    """Largest domain value strictly below ``bound`` (exact)."""
    if histogram.ctype.is_float:
        import numpy as np

        return float(np.nextafter(np.float64(bound), np.float64(-np.inf)))
    return int(bound) - 1


def edge_bins(histogram: Histogram, predicate: RangePredicate) -> tuple[int, int]:
    """The first and last histogram bins the predicate touches.

    Returns ``(first_bin, last_bin)`` inclusive on both sides, or
    ``(-1, -1)`` for an empty predicate.
    """
    if predicate.is_empty:
        return -1, -1
    first_bin = 0 if predicate.low_unbounded else histogram.get_bin(predicate.low)
    if predicate.high_unbounded:
        last_bin = histogram.bins - 1
    else:
        # The largest value that can satisfy ``v < high`` determines the
        # last touched bin.
        last_bin = histogram.get_bin(_prev_value(histogram, predicate.high))
    return first_bin, last_bin


def make_masks(histogram: Histogram, predicate: RangePredicate) -> tuple[int, int]:
    """Build ``(mask, innermask)`` for a canonical range predicate.

    Bins strictly between the two edge bins are always fully contained
    in the range (their borders lie between the query bounds by
    construction); each edge bin is additionally checked for full
    containment with exact border comparisons, so e.g. a query whose low
    bound coincides with a bin border still gets the inner-bin fast
    path.
    """
    first_bin, last_bin = edge_bins(histogram, predicate)
    if first_bin < 0:
        return 0, 0

    span = low_bits_mask(last_bin - first_bin + 1) << first_bin
    mask = span

    # --- full containment of the low edge bin -------------------------
    if predicate.low_unbounded:
        low_full = first_bin == 0  # bin 0 reaches -inf: contained
    elif first_bin == 0:
        low_full = False  # bin 0 reaches -inf but the query does not
    else:
        lo_border = histogram.borders[first_bin - 1]
        low_full = bool(lo_border >= predicate.low)

    # --- full containment of the high edge bin ------------------------
    if predicate.high_unbounded:
        # The last bin also holds NaN, which only a predicate unbounded
        # on both sides matches.
        high_full = last_bin == histogram.bins - 1 and (
            predicate.low_unbounded or not histogram.ctype.is_float
        )
    elif last_bin == histogram.bins - 1:
        high_full = False  # the last bin is open towards +inf
    else:
        hi_border = histogram.borders[last_bin]
        # Bin values are < hi_border, so hi_border <= high suffices.
        high_full = bool(hi_border <= predicate.high)

    innermask = span
    if not low_full:
        innermask &= ~(1 << first_bin)
    if not high_full:
        innermask &= ~(1 << last_bin)
    # A single-bin query with both edges partial leaves innermask 0.
    innermask &= low_bits_mask(histogram.bins)
    return mask, innermask


# Per-histogram memo of (predicate -> masks).  Keyed weakly so dropping
# an index releases its cache; predicates are tiny frozen dataclasses
# and serve as dict keys directly.  Traffic-serving workloads repeat
# predicates heavily (dashboards, templated queries), and mask
# construction is pure Python bit fiddling — worth never redoing.
_MASK_CACHES: WeakKeyDictionary = WeakKeyDictionary()
_MASK_CACHE_LIMIT = 4096


def cached_masks(
    histogram: Histogram, predicate: RangePredicate
) -> tuple[int, int]:
    """Memoised :func:`make_masks` per ``(histogram, predicate)``."""
    per_histogram = _MASK_CACHES.get(histogram)
    if per_histogram is None:
        per_histogram = {}
        _MASK_CACHES[histogram] = per_histogram
    masks = per_histogram.get(predicate)
    if masks is None:
        if len(per_histogram) >= _MASK_CACHE_LIMIT:
            per_histogram.clear()
        masks = make_masks(histogram, predicate)
        per_histogram[predicate] = masks
    return masks


def describe_masks(histogram: Histogram, predicate: RangePredicate) -> str:
    """Human-readable mask dump used by examples and error reports."""
    from .bitvec import bits_to_str

    mask, innermask = make_masks(histogram, predicate)
    width = histogram.bins
    lines = [
        f"predicate : {predicate}",
        f"mask      : {bits_to_str(mask, width)}",
        f"innermask : {bits_to_str(innermask, width)}",
    ]
    return "\n".join(lines)
