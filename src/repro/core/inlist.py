"""IN-list queries over imprints.

``v IN (a, b, c, ...)`` is the other predicate family the imprint
structure answers naturally: the query mask is the OR of the member
values' bin bits, and — unlike a range — the mask need not be a
contiguous bit run.  A cacheline whose imprint intersects the mask is a
candidate; the value check then tests membership exactly.

The innermask analogue exists too, but only for bins that contain a
*single* domain value which is in the list (possible when the binning
ran in low-cardinality mode); such bins prove their cachelines' hits
without checks.  For general bins the check always runs, because a bin
spans many values and membership of one does not imply the others.
"""

from __future__ import annotations

import numpy as np

from ..index_base import QueryResult
from .builder import ImprintsData
from .index import ColumnImprints
from .query import _test_vectors, materialize_ranges, ranges_for_masks

__all__ = ["in_list_masks", "query_in_list"]


def in_list_masks(data: ImprintsData, members) -> tuple[int, int]:
    """(mask, innermask) for an IN-list.

    ``innermask`` covers only single-value bins whose one value is a
    list member: bin ``k`` (for ``k >= 1``) holds exactly the domain
    value ``borders[k-1]`` when ``borders[k] == borders[k-1] + 1`` in an
    integer domain — the layout Algorithm 2's low-cardinality path
    produces.  Everything else stays check-required.
    """
    histogram = data.histogram
    members = np.unique(np.asarray(members, dtype=histogram.ctype.dtype))
    if members.size == 0:
        return 0, 0
    bins = histogram.get_bins(members)
    mask = 0
    for bin_index in np.unique(bins):
        mask |= 1 << int(bin_index)

    innermask = 0
    if not histogram.ctype.is_float:
        borders = histogram.borders.astype(np.int64)
        member_set = set(int(m) for m in members.tolist())
        for bin_index in np.unique(bins):
            k = int(bin_index)
            if k == 0 or k >= histogram.bins - 1:
                continue  # open-ended overflow bins are never single-valued
            lo = int(borders[k - 1])
            hi = int(borders[k])
            if hi - lo == 1 and lo in member_set:
                innermask |= 1 << k
    return mask, innermask


def query_in_list(index: ColumnImprints, members) -> QueryResult:
    """Answer ``column value IN members`` through the imprint index.

    Compressed-domain kernel: one mask test per *stored* vector, hits
    mapped to contiguous cacheline ranges via the dictionary's cached
    run boundaries (never expanded), membership checks only on values
    of partial ranges.  Saturation overlay bits from in-place updates
    participate the same way as in the range-query path.  Like every
    compressed-domain path the answer is a lazy
    :class:`~repro.core.rowset.RowSet`-backed result — single-value
    inner-bin runs stay id ranges until a caller forces ``.ids``.
    """
    data = index.data
    column = index.column
    # Single-value inner bins: a stored vector fully inside the
    # innermask proves its whole run qualifies wholesale.
    stats, test = _test_vectors(data, *in_list_masks(data, members))
    if test is None:
        return QueryResult(ids=np.empty(0, dtype=np.int64), stats=stats)
    ranges = ranges_for_masks(
        data, stats, *test, overlay_state=index.overlay_state()
    )

    member_array = np.unique(np.asarray(members, dtype=column.ctype.dtype))
    return materialize_ranges(
        data,
        column.values,
        lambda chunk: np.isin(chunk, member_array),
        ranges,
    )
