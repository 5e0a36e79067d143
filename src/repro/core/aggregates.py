"""Aggregate pushdown — per-cacheline pre-aggregates for the dashboard ops.

The paper answers *which ids qualify* at cacheline granularity from the
imprint alone; PR 3's :class:`~repro.core.rowset.RowSet` made ``COUNT``
O(ranges) by keeping the answer in range form.  This module extends the
same discipline to the other dashboard aggregates: a tiny sidecar of
per-cacheline ``count``/``sum``/``min``/``max`` (plus prefix-sum
tables) lets ``SUM``/``MIN``/``MAX`` over a query answer consume full
cacheline ranges *without touching a single value* —

* range ``SUM`` is two prefix-sum lookups per range (O(1) per range);
* range ``MIN``/``MAX`` reduce the per-cacheline extrema arrays
  (O(covered cachelines), a ``values_per_cacheline``-fold saving over
  the values, with no gather);
* only the sparse exception chunk (the checked survivors of partial
  cachelines) and the unaligned heads/tails of ranges are answered from
  the column values.

PR 10 finishes the analytics surface on the same sidecar discipline:

* ``avg``/``var``/``std`` ride a **sum-of-squares lane**
  (``prefix_sumsqs``, maintained in lockstep with ``prefix_sums``) so
  the second moment costs the same O(ranges) as ``SUM`` — an empty
  answer returns ``None``, never a zero division;
* **GROUP BY pushdown** uses :class:`GroupedAggregates` — per-cacheline
  group histograms (group id → count/sum partials) over a
  dictionary-encoded group column, so grouped ``COUNT``/``SUM``/``AVG``
  never materialise row ids and only cachelines genuinely straddling a
  predicate bound gather values;
* **ORDER-BY-value top-k** (:func:`topk_candidates`) orders candidate
  cachelines by their sidecar maxima and prunes every line whose max
  cannot beat the running k-th value, so most fully-qualifying lines
  never gather their values at all.

Layout and size
---------------
:class:`CachelineAggregates` keeps one entry per cacheline: the line's
minimum and maximum at value width, and the running sum and running
sum of squares at 64-bit width.  On an ``int32`` column (16 values a
line) that is 24 bytes a line, 1.5 bytes a row.

:class:`GroupedAggregates` keeps an int64 running count and a 64-bit
running sum per group only every :data:`BLOCK_LINES` cachelines.  A
range's whole blocks are two table rows; its ragged lines, at most
``BLOCK_LINES - 1`` at each end, are answered from their gathered codes
and values.  With 12 groups on an ``int32`` column that is 192 bytes
per 80 rows, 2.4 bytes a row: both sidecars together hold 3.9 bytes a
row, where one int64 group row per cacheline held 13.5.

Both are built and extended :data:`~repro.core.binning.CHUNK_VALUES`
values at a time into tables allocated once at their final size, so no
build or append allocates more than those tables plus a few chunk-sized
temporaries.  They are maintained incrementally through Section 4
updates: appends recompute from the trailing partial cacheline (block)
and extend, and an in-place update recomputes its one cacheline
(block) and patches the running totals after it.

Exactness
---------
``COUNT``/``MIN``/``MAX`` are bit-identical to NumPy reference
aggregation over the materialised ids for every dtype.  ``SUM`` (and
the sum-of-squares lane) is accumulated at 64-bit width
(``int64``/``uint64`` for integer columns, ``float64`` for float
columns).  Integer ``SUM`` is bit-identical to ``np.sum`` over the
gathered values, wraparound included, because modular 64-bit addition
is associative: regrouping per cacheline cannot change the wrapped
result.

Integer ``avg``/``var``/``std`` divide exact totals.  A path keeps its
64-bit lanes only when a bound shows they cannot wrap: the answer's
count times the column's largest magnitude (and times its square, for
the sum-of-squares lane) stays below ``2**63``
(:func:`lanes_hold`; the magnitude is kept in
:attr:`CachelineAggregates.max_abs`, so the check is O(1)).  Otherwise
the path sums the qualifying values as exact Python ints
(:func:`exact_moments`).  Either way the moments come out as the same
exact integers, and :func:`_finalize_moments` turns them into floats
with one formula, ``total_sq / n - mean * mean`` clamped at zero, whose
int divisions are correctly rounded, so integer moments are
bit-identical at every layer.  That formula still cancels: when the
mean dwarfs the spread (int64 nanosecond timestamps, say) ``var``
rounds to ``0.0`` although the exact variance is not zero.

Float sums are deterministic (fixed blocked order) but float addition
is not associative, so they agree with
``np.sum(values[ids], dtype=np.float64)`` only to rounding (~1 ulp per
reassociation); the property tests pin integer results exactly and
float results to a tight relative tolerance.

Non-finite values
-----------------
A running sum that passes a NaN or an infinity stays non-finite, and
the difference of two such prefixes is NaN (``inf - inf``), so one NaN
row would poison every later range sum.  The float lanes therefore sum
finite values only, and each sidecar lists the cachelines holding a NaN
or an infinity (``nonfinite_lines``).  A range covering a listed line
adds that line's non-finite values back — read off its extrema in
:class:`CachelineAggregates` (a NaN makes both NaN, ``+inf`` is the
maximum, ``-inf`` the minimum), gathered in :class:`GroupedAggregates`
— so every sum equals NumPy's over the selected values: finite when
the predicate leaves the NaNs out, NaN over ``everything()`` as
``np.sum`` is.
"""

from __future__ import annotations

import math

import numpy as np

from .binning import CHUNK_VALUES
from .ranges import coalesce_ranges, expand_ranges
from .rowset import RowSet

__all__ = [
    "AGGREGATE_OPS",
    "BLOCK_LINES",
    "MOMENT_OPS",
    "GROUP_OPS",
    "CachelineAggregates",
    "GroupedAggregates",
    "aggregate_rowset",
    "aggregate_candidates",
    "aggregate_identity",
    "candidate_moments",
    "finalize_grouped",
    "grouped_candidates",
    "grouped_gathered",
    "reduce_gathered",
    "topk_candidates",
    "topk_gathered",
]

#: The supported scalar pushdown operations.
AGGREGATE_OPS = ("count", "sum", "min", "max", "avg", "var", "std")

#: The moment-derived subset — answered from (count, sum, sum-of-squares).
MOMENT_OPS = ("avg", "var", "std")

#: The operations supported under GROUP BY pushdown.
GROUP_OPS = ("count", "sum", "avg")

#: Cachelines per :class:`GroupedAggregates` table row.  Each range
#: reads at most ``BLOCK_LINES - 1`` ragged lines at either end from the
#: columns, so this trades sidecar bytes (``16 * n_groups /
#: (BLOCK_LINES * values_per_cacheline)`` a row) against gathered rows
#: per grouped miss.  On perfbench's dashboard column (4M int32 rows,
#: 12 groups; 200 fresh predicates, 2-vCPU VM, timed per predicate
#: against the one-row-per-cacheline tables in one process) grouped
#: count/sum/avg took 0.81-0.92x their median and 0.90-1.05x their p90
#: at 5, against 0.80-0.96x and 0.96-1.18x at 8.  4 was ~3% faster than
#: 5, but its 3.0 bytes a row (plus the leading zero rows) put both
#: sidecars just over 4.5 bytes a row.
BLOCK_LINES = 5

_I64 = np.int64

#: ``bincount`` sums in float64, exact while every partial sum is below this.
_FLOAT_EXACT = 1 << 53


def _sum_dtype(dtype: np.dtype) -> np.dtype:
    """The 64-bit accumulator NumPy itself would use for ``np.sum``
    (floats are widened to ``float64`` for deterministic precision)."""
    if dtype.kind == "f":
        return np.dtype(np.float64)
    if dtype.kind == "u":
        return np.dtype(np.uint64)
    return np.dtype(np.int64)


def _check_op(op: str) -> None:
    if op not in AGGREGATE_OPS:
        raise ValueError(f"unknown aggregate {op!r}; supported: {AGGREGATE_OPS}")


#: Magnitudes a signed 64-bit lane holds are below this.
_LANE_LIMIT = 1 << 63


def _max_abs(lows: np.ndarray, highs: np.ndarray) -> int:
    """Largest magnitude over minima ``lows`` and maxima ``highs`` (one
    array twice for plain values); 0 if empty or float, since float
    lanes never wrap."""
    if lows.shape[0] == 0 or lows.dtype.kind == "f":
        return 0
    return max(-int(lows.min()), int(highs.max()), 0)


def lanes_hold(count: int, max_abs: int, *, squares: bool) -> bool:
    """Whether 64-bit lanes summing ``count`` values of magnitude at
    most ``max_abs`` (or their squares) cannot wrap.

    Below the bound every partial sum fits, so a wrapped prefix-table
    difference is still the exact total."""
    bound = max_abs * max_abs if squares else max_abs
    return count * bound < _LANE_LIMIT


def exact_moments(values: np.ndarray, *, squares: bool):
    """Exact ``(sum, sum of squares)`` of integer values as Python ints
    (``None`` in place of the squares when not requested)."""
    items = values.tolist()
    return sum(items), (sum(v * v for v in items) if squares else None)


def _exact_group_sums(codes: np.ndarray, values: np.ndarray, n_groups: int):
    """Per-group exact Python-int sums, as an object array."""
    sums = [0] * n_groups
    for code, value in zip(codes.tolist(), values.tolist()):
        sums[code] += value
    return np.array(sums, dtype=object)


def _finalize_moments(op: str, count: int, total, total_sq):
    """Derive ``avg``/``var``/``std`` from exact (count, sum, sumsq).

    ``None`` on an empty answer — never a zero division.  Population
    variance (``sumsq/n - mean**2``) clamped at zero against float
    cancellation; exact integer moments give bit-identical float
    results because Python's big-int division is correctly rounded.
    """
    if not count:
        return None
    mean = total / count
    if op == "avg":
        return float(mean)
    var = total_sq / count - mean * mean
    var = var if var > 0.0 else 0.0
    return float(var) if op == "var" else math.sqrt(var)


def _chunk_rows(unit: int) -> int:
    """Rows one build chunk covers: :data:`~repro.core.binning.CHUNK_VALUES`
    rounded down to whole ``unit``-row pieces (at least one)."""
    return max(1, CHUNK_VALUES // unit) * unit


def _running(prefix: np.ndarray, at: int, partials: np.ndarray) -> None:
    """Write the running totals of ``partials`` (summed in place) into
    ``prefix[at + 1:]``, continuing from ``prefix[at]``.

    The carry joins the first partial before one sequential ``cumsum``,
    so a chunked build equals a one-pass build bit for bit, float lanes
    included, and integer lanes wrap as the one pass does."""
    np.add(partials[:1], prefix[at], out=partials[:1])
    np.cumsum(partials, axis=0, out=prefix[at + 1 : at + 1 + partials.shape[0]])


def _nonfinite_lines(values: np.ndarray, vpc: int, first_line: int) -> np.ndarray:
    """Sorted cachelines of ``values`` (a block starting on line
    ``first_line``) holding a NaN or an infinity; empty unless float."""
    if values.dtype.kind != "f":
        return np.empty(0, dtype=_I64)
    odd = np.flatnonzero(~np.isfinite(values))
    return np.unique(odd // vpc) + first_line


def _replace_lines(lines: np.ndarray, lo: int, hi: int, fresh: np.ndarray):
    """Sorted ``lines`` with its entries in ``[lo, hi)`` replaced by
    ``fresh`` (sorted, within ``[lo, hi)``)."""
    return np.concatenate([lines[lines < lo], fresh, lines[lines >= hi]])


def _take_lines(array: np.ndarray, lines: np.ndarray, vpc: int, n: int) -> np.ndarray:
    """``array``'s rows (of the first ``n``) on cachelines ``lines``,
    line after line.

    Whole lines are copied as rows of a ``(lines, vpc)`` view, one short
    copy per line instead of one index per row; the ragged last line
    (when ``n`` is not a multiple of ``vpc``), if listed, comes last."""
    whole = n // vpc
    grid = array[: whole * vpc].reshape(whole, vpc)
    last = lines == whole
    if not last.any():
        return grid.take(lines, axis=0).ravel()
    return np.concatenate(
        [grid.take(lines[~last], axis=0).ravel(), array[whole * vpc : n]]
    )


def _group_sums(cells, values, size: int, sum_dtype: np.dtype) -> np.ndarray:
    """Per-cell sums of ``values`` at ``sum_dtype`` (``cells`` < ``size``).

    One ``bincount``, which adds float64 weights: float sums are float64,
    and integer sums are exact while the lane bound allows it — every
    partial sum (count times largest magnitude) below 2**53.  Beyond
    that, each value splits into its high and low 32-bit halves, whose
    per-cell sums are exact a chunk at a time, and the halves recombine
    in the 64-bit lane, so the sums wrap like ``np.sum``'s accumulator.
    """
    if sum_dtype.kind == "f":
        return np.bincount(cells, weights=values, minlength=size)
    # Values narrower than 64 bits are bounded by their width, so the
    # extrema pass is only needed for wide values or long inputs.
    if values.shape[0] << (8 * values.dtype.itemsize) < _FLOAT_EXACT or (
        values.shape[0] * _max_abs(values, values) < _FLOAT_EXACT
    ):
        return np.bincount(cells, weights=values, minlength=size).astype(sum_dtype)
    out = np.zeros(size, dtype=sum_dtype)
    for at in range(0, values.shape[0], CHUNK_VALUES):
        acc = values[at : at + CHUNK_VALUES].astype(sum_dtype)
        part = cells[at : at + CHUNK_VALUES]
        high = np.bincount(part, weights=acc >> 32, minlength=size)
        low = np.bincount(part, weights=acc & 0xFFFFFFFF, minlength=size)
        out += high.astype(sum_dtype) * (1 << 32) + low.astype(sum_dtype)
    return out


class CachelineAggregates:
    """Per-cacheline ``count``/``sum``/``min``/``max`` of one column.

    The aggregate-pushdown sidecar of a
    :class:`~repro.core.index.ColumnImprints`: one entry per cacheline
    (two extrema at value width plus two 64-bit prefix slots — 24 bytes
    a line, 1.5 bytes a row of an ``int32`` column), trading bounded
    memory for ``SUM``/``MIN``/``MAX``/``AVG``/``VAR`` over full
    cacheline ranges that never touch values.  Built and extended
    :data:`~repro.core.binning.CHUNK_VALUES` values at a time.

    Parameters
    ----------
    values:
        The column's backing array (any supported dtype).
    values_per_cacheline:
        The column's cacheline geometry constant.

    Attributes
    ----------
    mins, maxs:
        Per-cacheline extrema in the column dtype.
    prefix_sums:
        ``prefix_sums[k]`` = sum of cachelines ``[0, k)`` — the O(1)
        range-SUM lookup table (one element longer than the column has
        cachelines).  Per-cacheline sums and counts are *derived*
        (``diff(prefix_sums)``; every line holds ``vpc`` values except
        a ragged tail) rather than stored.
    prefix_sumsqs:
        The sum-of-squares lane — same layout and maintenance as
        ``prefix_sums`` but over ``v*v`` (in the accumulator dtype), so
        ``avg``/``var``/``std`` cost the same two lookups per range.
    nonfinite_lines:
        Sorted cachelines holding a NaN or an infinity (float columns
        only).  Both lanes sum the finite values alone; a range covering
        one of these lines adds its non-finite part back, read off the
        line's extrema (see the module's Non-finite values note).
    max_abs:
        The largest magnitude the column has held (a Python int; 0 on
        float columns).  Raised by every append and update, never
        lowered, so :func:`lanes_hold` can bound the moment lanes in
        O(1).
    """

    def __init__(self, values, values_per_cacheline: int) -> None:
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        if values_per_cacheline <= 0:
            raise ValueError(
                f"values_per_cacheline must be positive, got {values_per_cacheline}"
            )
        self.vpc = int(values_per_cacheline)
        self.value_dtype = values.dtype
        self.sum_dtype = _sum_dtype(values.dtype)
        self.n_values = 0
        self.mins = np.empty(0, dtype=values.dtype)
        self.maxs = np.empty(0, dtype=values.dtype)
        self.prefix_sums = np.zeros(1, dtype=self.sum_dtype)
        self.prefix_sumsqs = np.zeros(1, dtype=self.sum_dtype)
        self.nonfinite_lines = np.empty(0, dtype=_I64)
        self.max_abs = 0
        if values.shape[0]:
            self._recompute_from(values, 0)

    @classmethod
    def from_column(cls, column) -> "CachelineAggregates":
        """The sidecar for a :class:`~repro.storage.column.Column`."""
        return cls(column.values, column.values_per_cacheline)

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def n_cachelines(self) -> int:
        return int(self.mins.shape[0])

    @property
    def nbytes(self) -> int:
        """Sidecar footprint (extrema, both prefix tables and the
        non-finite line list)."""
        return int(
            self.mins.nbytes
            + self.maxs.nbytes
            + self.prefix_sums.nbytes
            + self.prefix_sumsqs.nbytes
            + self.nonfinite_lines.nbytes
        )

    # ------------------------------------------------------------------
    # construction / maintenance
    # ------------------------------------------------------------------
    def _lanes(self, block: np.ndarray, offsets: np.ndarray, first_line: int):
        """Per-line sums and sums of squares of a block that starts on
        cacheline ``first_line``, plus the lines holding a non-finite
        value (left out of both sums)."""
        acc = block.astype(self.sum_dtype)
        nonfinite = _nonfinite_lines(acc, self.vpc, first_line)
        if nonfinite.shape[0]:
            acc[~np.isfinite(acc)] = 0.0
        sums = np.add.reduceat(acc, offsets)
        np.multiply(acc, acc, out=acc)
        return sums, np.add.reduceat(acc, offsets), nonfinite

    def _recompute_from(self, values: np.ndarray, first_line: int) -> None:
        """(Re)build every aggregate from cacheline ``first_line`` on.

        The tables are allocated once at their final size, the lines
        before ``first_line`` are copied, and the rest is reduced
        :data:`~repro.core.binning.CHUNK_VALUES` values at a time: an
        append reduces only the new values, and no step allocates more
        than the new tables plus a few chunk-sized temporaries.
        """
        vpc = self.vpc
        n_lines = -(-values.shape[0] // vpc)
        mins = np.empty(n_lines, dtype=self.value_dtype)
        maxs = np.empty(n_lines, dtype=self.value_dtype)
        sums = np.empty(n_lines + 1, dtype=self.sum_dtype)
        sumsqs = np.empty(n_lines + 1, dtype=self.sum_dtype)
        mins[:first_line] = self.mins[:first_line]
        maxs[:first_line] = self.maxs[:first_line]
        sums[: first_line + 1] = self.prefix_sums[: first_line + 1]
        sumsqs[: first_line + 1] = self.prefix_sumsqs[: first_line + 1]
        nonfinite = [self.nonfinite_lines[self.nonfinite_lines < first_line]]
        step = _chunk_rows(vpc)
        for start in range(first_line * vpc, values.shape[0], step):
            block = values[start : start + step]
            line = start // vpc
            offsets = np.arange(0, block.shape[0], vpc, dtype=np.intp)
            lines = slice(line, line + offsets.shape[0])
            mins[lines] = np.minimum.reduceat(block, offsets)
            maxs[lines] = np.maximum.reduceat(block, offsets)
            line_sums, line_sumsqs, odd = self._lanes(block, offsets, line)
            _running(sums, line, line_sums)
            _running(sumsqs, line, line_sumsqs)
            nonfinite.append(odd)
        self.max_abs = max(
            self.max_abs, _max_abs(mins[first_line:], maxs[first_line:])
        )
        self.mins, self.maxs = mins, maxs
        self.prefix_sums, self.prefix_sumsqs = sums, sumsqs
        self.nonfinite_lines = np.concatenate(nonfinite)
        self.n_values = int(values.shape[0])

    def append(self, values) -> None:
        """Maintain the sidecar through a Section 4.1 append.

        ``values`` is the column's *full* post-append backing array (the
        index already swapped its column).  Only the trailing partial
        cacheline is recomputed; everything before it is copied —
        exactly the imprint builder's append discipline.
        """
        values = np.asarray(values)
        if values.shape[0] < self.n_values:
            raise ValueError(
                f"append cannot shrink the column: {values.shape[0]} < {self.n_values}"
            )
        if values.shape[0] == self.n_values:
            return
        self._recompute_from(values, self.n_values // self.vpc)

    def update_line(self, cacheline: int, values) -> None:
        """Maintain the sidecar through a Section 4.2 in-place update.

        Recomputes the one affected cacheline from the (already
        updated) backing array and patches both prefix tables by the
        sum deltas — O(vpc + cachelines after the line).
        """
        if not 0 <= cacheline < self.n_cachelines:
            raise IndexError(
                f"cacheline {cacheline} out of range [0, {self.n_cachelines})"
            )
        values = np.asarray(values)
        start = cacheline * self.vpc
        block = values[start : min(start + self.vpc, self.n_values)]
        new_sum, new_sumsq, odd = self._lanes(block, np.zeros(1, np.intp), cacheline)
        self.nonfinite_lines = _replace_lines(
            self.nonfinite_lines, cacheline, cacheline + 1, odd
        )
        # The lanes are modular: the (array) deltas wrap the way the
        # sums do, without NumPy's scalar overflow warning.
        line = slice(cacheline, cacheline + 2)
        self.prefix_sums[cacheline + 1 :] += new_sum - np.diff(self.prefix_sums[line])
        self.prefix_sumsqs[cacheline + 1 :] += new_sumsq - np.diff(
            self.prefix_sumsqs[line]
        )
        line = slice(cacheline, cacheline + 1)
        self.mins[line] = block.min()
        self.maxs[line] = block.max()
        self.max_abs = max(self.max_abs, _max_abs(self.mins[line], self.maxs[line]))

    # ------------------------------------------------------------------
    # range reductions (the pushdown kernels)
    # ------------------------------------------------------------------
    def range_sums(
        self, cl_lo: np.ndarray, cl_hi: np.ndarray, *, squares: bool = False
    ) -> np.ndarray:
        """Sum (or sum-of-squares) of cachelines ``[lo_k, hi_k)`` per
        range — O(1) each, plus the non-finite part of any covered
        line that holds a NaN or an infinity."""
        table = self.prefix_sumsqs if squares else self.prefix_sums
        sums = table[cl_hi] - table[cl_lo]
        if self.nonfinite_lines.shape[0]:
            sums = sums + self._nonfinite_sums(cl_lo, cl_hi, squares)
        return sums

    def line_sums(self, lines: np.ndarray, *, squares: bool = False) -> np.ndarray:
        """Per-cacheline sum (or sum-of-squares) for individual lines."""
        return self.range_sums(lines, lines + 1, squares=squares)

    def _nonfinite_sums(self, cl_lo, cl_hi, squares: bool) -> np.ndarray:
        """What the covered non-finite lines add to each range's sum.

        A line's non-finite values are read off its extrema: a NaN
        makes both NaN, ``+inf`` is its maximum and ``-inf`` its
        minimum.  Their sum is NaN, ``±inf`` or both infinities (NaN),
        exactly what ``np.sum`` makes of them next to finite values.
        """
        lines = self.nonfinite_lines
        first = np.searchsorted(lines, cl_lo)
        last = np.searchsorted(lines, cl_hi)
        out = np.zeros(first.shape[0], dtype=np.float64)
        hit = np.flatnonzero(first < last)
        if hit.shape[0] == 0:
            return out
        covered = lines[expand_ranges(first[hit], last[hit])]
        lows, highs = self.mins[covered], self.maxs[covered]
        nan = np.isnan(lows)
        if squares:
            odd = np.where(np.isinf(lows) | np.isinf(highs), np.inf, 0.0)
        else:
            odd = np.where(highs == np.inf, np.inf, 0.0)
            odd += np.where(lows == -np.inf, -np.inf, 0.0)
        odd[nan] = np.nan
        lengths = last[hit] - first[hit]
        out[hit] = np.add.reduceat(odd, np.cumsum(lengths) - lengths)
        return out

    def _range_reduce(self, per_line, ufunc, cl_lo, cl_hi) -> np.ndarray:
        """``ufunc``-reduction of ``per_line[lo_k:hi_k)`` per range.

        All ranges must be non-empty (``lo < hi``), sorted and disjoint.
        The covered entries are gathered compactly first and reduced
        with one ``reduceat`` over their offsets — work proportional to
        the cachelines *covered*, never to the gaps between ranges (an
        interleaved-boundary ``reduceat`` would scan those too).
        """
        lengths = cl_hi - cl_lo
        offsets = np.cumsum(lengths) - lengths
        gathered = per_line[expand_ranges(cl_lo, cl_hi)]
        return ufunc.reduceat(gathered, offsets)

    def range_mins(self, cl_lo, cl_hi) -> np.ndarray:
        return self._range_reduce(self.mins, np.minimum, cl_lo, cl_hi)

    def range_maxs(self, cl_lo, cl_hi) -> np.ndarray:
        return self._range_reduce(self.maxs, np.maximum, cl_lo, cl_hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CachelineAggregates(cachelines={self.n_cachelines}, "
            f"vpc={self.vpc}, {self.nbytes} B)"
        )


class GroupedAggregates:
    """Block-granular group histograms over a dictionary-encoded column.

    The GROUP BY pushdown sidecar: for a group column of small-int codes
    ``0..n_groups-1`` riding next to a value column, two prefix tables
    of shape ``(n_blocks + 1, n_groups)`` hold the running per-group
    count (int64) and value sum (the 64-bit accumulator) of the rows
    before each block of :data:`BLOCK_LINES` cachelines.  A grouped
    ``COUNT``/``SUM``/``AVG`` over a cacheline range reads its whole
    blocks as two table rows and gathers the codes and values of its
    ragged lines — at most ``BLOCK_LINES - 1`` at each end — so no row
    ids are built and only a bounded number of rows per range is read.
    At 12 groups and 16 values a line that is 2.4 bytes a row.

    Built and extended :data:`~repro.core.binning.CHUNK_VALUES` values
    at a time, one ``bincount`` per chunk for the counts and one for the
    sums (exact: see :func:`_group_sums`).  Appends recompute from the
    block holding the first new row; an in-place value update
    recomputes its block and patches the rows after it.  ``widen()``
    grows the group domain in place when appends introduce new codes
    (append-stable dictionaries only ever add codes at the end).
    Non-finite float values are kept out of the sum table and listed
    by line (``nonfinite_lines``), as in :class:`CachelineAggregates`.
    """

    def __init__(self, codes, values, n_groups: int, values_per_cacheline: int) -> None:
        codes = np.asarray(codes)
        values = np.asarray(values)
        if codes.ndim != 1 or values.ndim != 1:
            raise ValueError("codes and values must be 1-D")
        if codes.shape[0] != values.shape[0]:
            raise ValueError(
                f"codes/values length mismatch: {codes.shape[0]} != {values.shape[0]}"
            )
        if n_groups <= 0:
            raise ValueError(f"n_groups must be positive, got {n_groups}")
        if values_per_cacheline <= 0:
            raise ValueError(
                f"values_per_cacheline must be positive, got {values_per_cacheline}"
            )
        self.vpc = int(values_per_cacheline)
        self.block_rows = BLOCK_LINES * self.vpc
        self.n_groups = int(n_groups)
        self.sum_dtype = _sum_dtype(values.dtype)
        self.n_values = 0
        self.prefix_counts = np.zeros((1, self.n_groups), dtype=_I64)
        self.prefix_sums = np.zeros((1, self.n_groups), dtype=self.sum_dtype)
        self.nonfinite_lines = np.empty(0, dtype=_I64)
        if codes.shape[0]:
            self._recompute_from(codes, values, 0)

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def n_cachelines(self) -> int:
        return -(-self.n_values // self.vpc)

    @property
    def n_blocks(self) -> int:
        return int(self.prefix_counts.shape[0]) - 1

    @property
    def nbytes(self) -> int:
        return int(
            self.prefix_counts.nbytes
            + self.prefix_sums.nbytes
            + self.nonfinite_lines.nbytes
        )

    # ------------------------------------------------------------------
    # construction / maintenance
    # ------------------------------------------------------------------
    def _check_codes(self, codes: np.ndarray) -> np.ndarray:
        codes = codes.astype(_I64, copy=False)
        if codes.shape[0] and (
            int(codes.min()) < 0 or int(codes.max()) >= self.n_groups
        ):
            raise ValueError(
                f"group codes must lie in [0, {self.n_groups}); "
                "widen() the sidecar before appending new groups"
            )
        return codes

    def _histograms(self, cells, values, size: int, first_line: int):
        """Per-cell counts and sums of one chunk, plus the lines (from
        ``first_line``) whose non-finite values the sums leave out."""
        weights = values
        nonfinite = _nonfinite_lines(values, self.vpc, first_line)
        if nonfinite.shape[0]:
            weights = np.where(np.isfinite(values), values, 0)
        return (
            np.bincount(cells, minlength=size),
            _group_sums(cells, weights, size, self.sum_dtype),
            nonfinite,
        )

    def _recompute_from(self, codes, values, first_block: int) -> None:
        """(Re)build the tables from block ``first_block`` on, a chunk
        at a time, into tables allocated once at their final size."""
        codes = np.asarray(codes)
        values = np.asarray(values)
        groups, rows = self.n_groups, self.block_rows
        n_blocks = -(-codes.shape[0] // rows)
        counts = np.empty((n_blocks + 1, groups), dtype=_I64)
        sums = np.empty((n_blocks + 1, groups), dtype=self.sum_dtype)
        counts[: first_block + 1] = self.prefix_counts[: first_block + 1]
        sums[: first_block + 1] = self.prefix_sums[: first_block + 1]
        first_line = first_block * BLOCK_LINES
        nonfinite = [self.nonfinite_lines[self.nonfinite_lines < first_line]]
        step = _chunk_rows(rows)
        # Block-major cells: row r of a chunk lands in cell
        # (r // block_rows) * n_groups + code, so a chunk's histograms
        # reshape straight into table rows.
        cell_base = np.repeat(np.arange(step // rows, dtype=_I64) * groups, rows)
        for start in range(first_block * rows, codes.shape[0], step):
            part = self._check_codes(codes[start : start + step])
            block = start // rows
            width = -(-part.shape[0] // rows)
            chunk_counts, chunk_sums, odd = self._histograms(
                cell_base[: part.shape[0]] + part,
                values[start : start + step],
                width * groups,
                start // self.vpc,
            )
            _running(counts, block, chunk_counts.reshape(width, groups))
            _running(sums, block, chunk_sums.reshape(width, groups))
            nonfinite.append(odd)
        self.prefix_counts, self.prefix_sums = counts, sums
        self.nonfinite_lines = np.concatenate(nonfinite)
        self.n_values = int(codes.shape[0])

    def widen(self, n_groups: int) -> None:
        """Grow the group domain (zero-padded columns) for new codes."""
        if n_groups <= self.n_groups:
            return
        pad = ((0, 0), (0, n_groups - self.n_groups))
        self.prefix_counts = np.pad(self.prefix_counts, pad)
        self.prefix_sums = np.pad(self.prefix_sums, pad)
        self.n_groups = int(n_groups)

    def append(self, codes, values) -> None:
        """Maintain the tables through an append (full post-append
        arrays, like :meth:`CachelineAggregates.append`)."""
        codes = np.asarray(codes)
        values = np.asarray(values)
        if codes.shape[0] != values.shape[0]:
            raise ValueError(
                f"codes/values length mismatch: {codes.shape[0]} != {values.shape[0]}"
            )
        if codes.shape[0] < self.n_values:
            raise ValueError(
                f"append cannot shrink the column: {codes.shape[0]} < {self.n_values}"
            )
        if codes.shape[0] == self.n_values:
            return
        self._recompute_from(codes, values, self.n_values // self.block_rows)

    def update_line(self, cacheline: int, codes, values) -> None:
        """Recompute the block holding ``cacheline`` after an in-place
        value update and patch the table rows after it by the per-group
        deltas — O(block + blocks after the line)."""
        if not 0 <= cacheline < self.n_cachelines:
            raise IndexError(
                f"cacheline {cacheline} out of range [0, {self.n_cachelines})"
            )
        block = cacheline // BLOCK_LINES
        start = block * self.block_rows
        stop = min(start + self.block_rows, self.n_values)
        new_counts, new_sums, odd = self._histograms(
            self._check_codes(np.asarray(codes)[start:stop]),
            np.asarray(values)[start:stop],
            self.n_groups,
            block * BLOCK_LINES,
        )
        self.nonfinite_lines = _replace_lines(
            self.nonfinite_lines, block * BLOCK_LINES, (block + 1) * BLOCK_LINES, odd
        )
        after = slice(block + 1, None)
        self.prefix_counts[after] += new_counts - (
            self.prefix_counts[block + 1] - self.prefix_counts[block]
        )
        self.prefix_sums[after] += new_sums - (
            self.prefix_sums[block + 1] - self.prefix_sums[block]
        )

    # ------------------------------------------------------------------
    # range reductions
    # ------------------------------------------------------------------
    def range_groups(self, cl_lo, cl_hi, codes, values=None):
        """Per-group ``(counts, sums)`` over cachelines ``[lo_k, hi_k)``
        summed across all (disjoint) ranges.

        ``codes``/``values`` are the group and value columns the
        sidecar summarises.  Each range's whole blocks are two table
        rows; its ragged lines are read line after line
        (:func:`_take_lines`) and folded in with one ``bincount`` per
        table.  ``sums`` is ``None`` without ``values``.  Integer sums
        wrap like ``np.sum``'s 64-bit accumulator; float sums are
        float64.
        """
        cl_lo = np.asarray(cl_lo, dtype=_I64)
        cl_hi = np.asarray(cl_hi, dtype=_I64)
        codes = np.asarray(codes)
        n_lines = self.n_cachelines
        block_lo = -(-cl_lo // BLOCK_LINES)
        block_hi = np.where(cl_hi >= n_lines, self.n_blocks, cl_hi // BLOCK_LINES)
        whole = block_lo < block_hi
        # A range without a whole block is all ragged: its head is the range.
        head_stop = np.where(whole, block_lo * BLOCK_LINES, cl_hi)
        tail_start = np.where(
            whole, np.minimum(block_hi * BLOCK_LINES, n_lines), cl_hi
        )
        block_lo, block_hi = block_lo[whole], block_hi[whole]
        ragged = expand_ranges(
            np.concatenate([cl_lo, tail_start]), np.concatenate([head_stop, cl_hi])
        )
        gathered = _take_lines(codes, ragged, self.vpc, self.n_values)
        counts = np.add.reduce(
            self.prefix_counts[block_hi] - self.prefix_counts[block_lo], axis=0
        ) + np.bincount(gathered, minlength=self.n_groups)
        if values is None:
            return counts, None
        values = np.asarray(values)
        sums = np.add.reduce(
            self.prefix_sums[block_hi] - self.prefix_sums[block_lo],
            axis=0,
            dtype=self.sum_dtype,
        ) + _group_sums(
            gathered,
            _take_lines(values, ragged, self.vpc, self.n_values),
            self.n_groups,
            self.sum_dtype,
        )
        if self.nonfinite_lines.shape[0]:
            sums = sums + self._nonfinite_sums(
                block_lo * BLOCK_LINES,
                np.minimum(block_hi * BLOCK_LINES, n_lines),
                codes,
                values,
            )
        return counts, sums

    def _nonfinite_sums(self, line_lo, line_hi, codes, values) -> np.ndarray:
        """Per-group sum of the non-finite values of lines
        ``[lo_k, hi_k)``, which the table rows leave out."""
        lines = self.nonfinite_lines
        covered = lines[
            expand_ranges(np.searchsorted(lines, line_lo), np.searchsorted(lines, line_hi))
        ]
        odd = _take_lines(values, covered, self.vpc, self.n_values)
        odd = np.where(np.isfinite(odd), 0.0, odd)
        return np.bincount(
            _take_lines(codes, covered, self.vpc, self.n_values),
            weights=odd,
            minlength=self.n_groups,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GroupedAggregates(cachelines={self.n_cachelines}, "
            f"groups={self.n_groups}, vpc={self.vpc}, {self.nbytes} B)"
        )


# ----------------------------------------------------------------------
# aggregation over compressed answers
# ----------------------------------------------------------------------
def aggregate_identity(op: str, sum_dtype=None):
    """The aggregate of an empty answer: 0 for count/sum, None for
    min/max/avg/var/std (SQL's NULL on empty input)."""
    _check_op(op)
    if op == "count":
        return 0
    if op == "sum":
        dtype = np.dtype(sum_dtype) if sum_dtype is not None else np.dtype(_I64)
        return dtype.type(0).item()
    return None


def reduce_gathered(gathered: np.ndarray, op: str):
    """Aggregate a flat gathered value array.

    The no-sidecar fallback shared by baseline indexes and delta-aware
    answers: ``sum`` accumulates at the 64-bit width matching the
    sidecar semantics, and the moments behind ``avg``/``var``/``std``
    are exact (the module's Exactness note);
    ``min``/``max``/``avg``/``var``/``std`` return ``None`` on empty
    input.
    """
    _check_op(op)
    if op == "count":
        return int(gathered.shape[0])
    if op == "sum":
        return np.add.reduce(
            gathered.astype(_sum_dtype(gathered.dtype), copy=False)
        ).item() if gathered.shape[0] else aggregate_identity(
            "sum", _sum_dtype(gathered.dtype)
        )
    if op in MOMENT_OPS:
        count = int(gathered.shape[0])
        if count == 0:
            return None
        squares = op != "avg"
        if not lanes_hold(count, _max_abs(gathered, gathered), squares=squares):
            return _finalize_moments(
                op, count, *exact_moments(gathered, squares=squares)
            )
        acc = gathered.astype(_sum_dtype(gathered.dtype), copy=False)
        total = np.add.reduce(acc).item()
        total_sq = np.add.reduce(acc * acc).item() if squares else None
        return _finalize_moments(op, count, total, total_sq)
    if gathered.shape[0] == 0:
        return None
    return gathered.min().item() if op == "min" else gathered.max().item()


def topk_gathered(gathered: np.ndarray, k: int) -> list:
    """Top-k values of a flat gathered array, descending — the
    no-sidecar fallback.  ``[]`` on empty input or ``k <= 0``."""
    if k <= 0 or gathered.shape[0] == 0:
        return []
    if gathered.shape[0] > k:
        gathered = np.partition(gathered, gathered.shape[0] - k)[-k:]
    out = np.sort(gathered)[::-1]
    return [value.item() for value in out]


def grouped_gathered(gcodes: np.ndarray, gvalues: np.ndarray, n_groups: int, op: str):
    """Per-group (counts, sums) of gathered codes/values for grouped
    ``op`` — the no-sidecar fallback.  ``sums`` is ``None`` for
    ``count``, and exact Python ints for an integer ``avg`` whose lanes
    may wrap."""
    gcodes = gcodes.astype(_I64, copy=False)
    counts = np.bincount(gcodes, minlength=n_groups)
    if counts.shape[0] > n_groups:
        raise ValueError(f"group code out of range [0, {n_groups})")
    if op == "count":
        return counts, None
    if op == "avg" and not lanes_hold(
        gvalues.shape[0], _max_abs(gvalues, gvalues), squares=False
    ):
        return counts, _exact_group_sums(gcodes, gvalues, n_groups)
    return counts, _group_sums(gcodes, gvalues, n_groups, _sum_dtype(gvalues.dtype))


def finalize_grouped(op: str, counts: np.ndarray, sums) -> dict:
    """Render per-group (counts, sums) partials as ``{code: value}``.

    Only groups actually present (count > 0) appear — SQL GROUP BY
    semantics — so an empty answer is ``{}``, never a zero division.
    """
    if op not in GROUP_OPS:
        raise ValueError(f"unknown grouped aggregate {op!r}; supported: {GROUP_OPS}")
    present = np.flatnonzero(counts)
    if op == "count":
        return {int(g): int(counts[g]) for g in present}
    totals = sums.tolist()
    if op == "sum":
        return {int(g): totals[g] for g in present}
    return {int(g): totals[g] / int(counts[g]) for g in present}


def aggregate_rowset(
    rowset: RowSet,
    values: np.ndarray,
    op: str,
    aggregates: CachelineAggregates | None = None,
):
    """Aggregate the ids of a :class:`RowSet` over ``values``.

    The pushdown kernel shared by every layer: with a sidecar, each id
    range decomposes into an unaligned head, a run of whole cachelines
    and an unaligned tail — the whole-cacheline middle is answered from
    the pre-aggregates (prefix tables for ``SUM``/``AVG``/``VAR``/
    ``STD``, per-cacheline extrema for ``MIN``/``MAX``) and only heads,
    tails and the sparse exception chunk gather column values.  Imprint
    answers have their ranges on cacheline boundaries by construction,
    so typically *no* range contributes a head or tail at all.  Without
    a sidecar the ids are gathered and reduced directly (the
    baseline-index path).

    Returns a Python scalar: ``int`` for ``count`` and integer sums,
    ``float`` for float sums and the moment ops, the column's value
    kind for ``min``/``max``, and ``None`` for ``min``/``max``/``avg``/
    ``var``/``std`` of an empty answer.
    """
    _check_op(op)
    if op == "count":
        return rowset.count()
    values = np.asarray(values)
    if aggregates is None:
        return reduce_gathered(values[rowset.to_ids()], op)

    vpc = aggregates.vpc
    n = aggregates.n_values
    starts, stops, extras = rowset.starts, rowset.stops, rowset.extras

    # Per-range decomposition.  A cacheline c is wholly covered by
    # [start, stop) iff start <= c*vpc and min((c+1)*vpc, n) <= stop —
    # the ragged tail cacheline counts as whole when stop reaches n.
    cl_lo = -(-starts // vpc)  # ceil division
    cl_hi = np.where(stops >= n, aggregates.n_cachelines, stops // vpc)
    cl_hi = np.maximum(cl_hi, cl_lo)
    head_stops = np.minimum(cl_lo * vpc, stops)
    tail_starts = np.minimum(
        np.maximum(np.where(stops >= n, stops, cl_hi * vpc), head_stops), stops
    )

    scanned = values[
        np.concatenate(
            [
                expand_ranges(starts, head_stops),
                expand_ranges(tail_starts, stops),
                extras,
            ]
        )
    ]

    if op == "sum" or op in MOMENT_OPS:

        def _total(squares: bool):
            total = np.add.reduce(
                aggregates.range_sums(cl_lo, cl_hi, squares=squares).astype(
                    aggregates.sum_dtype, copy=False
                )
            )
            if scanned.shape[0]:
                acc = scanned.astype(aggregates.sum_dtype, copy=False)
                if squares:
                    acc = acc * acc
                with np.errstate(over="ignore"):  # modular, as in _candidate_sum
                    total = total + np.add.reduce(acc)
            return aggregates.sum_dtype.type(total).item()

        if op == "sum":
            return _total(False)
        count = rowset.count()
        if count == 0:
            return None
        squares = op != "avg"
        if not lanes_hold(count, aggregates.max_abs, squares=squares):
            return _finalize_moments(
                op,
                count,
                *exact_moments(values[rowset.to_ids()], squares=squares),
            )
        return _finalize_moments(
            op, count, _total(False), _total(True) if squares else None
        )

    pieces = []
    covered = cl_lo < cl_hi
    if covered.any():
        reducer = (
            aggregates.range_mins if op == "min" else aggregates.range_maxs
        )
        per_range = reducer(cl_lo[covered], cl_hi[covered])
        pieces.append(per_range.min() if op == "min" else per_range.max())
    if scanned.shape[0]:
        pieces.append(scanned.min() if op == "min" else scanned.max())
    if not pieces:
        return None
    combined = pieces[0] if len(pieces) == 1 else (
        np.minimum(*pieces) if op == "min" else np.maximum(*pieces)
    )
    return combined.item()


# ----------------------------------------------------------------------
# candidate-range refinement (shared by every fused kernel)
# ----------------------------------------------------------------------
def _refine_partials(ranges, values, predicate, aggregates):
    """Split candidate ranges into answered-from-sidecar vs gathered.

    Returns ``(full_starts, full_stops, promoted, mixed,
    mixed_values, mixed_mask)``: full cacheline ranges, individual
    partial lines **promoted** to fully-qualifying because their exact
    ``[min, max]`` sidecar bounds lie inside the predicate, and — for
    the (sorted) lines genuinely straddling a predicate bound — those
    lines, their values line after line (:func:`_take_lines`), and the
    inline qualification mask.  Lines whose bounds miss the predicate
    are dropped outright.  ``mixed`` / ``mixed_values`` /
    ``mixed_mask`` are ``None`` when no line straddles.
    """
    vpc = aggregates.vpc
    n = aggregates.n_values
    full_starts, full_stops, part_starts, part_stops = ranges.split()

    promoted = np.empty(0, dtype=_I64)
    mixed = mixed_values = mixed_mask = None
    if part_starts.shape[0]:
        lines = expand_ranges(part_starts, part_stops)
        line_mins = aggregates.mins[lines]
        line_maxs = aggregates.maxs[lines]
        inside = np.ones(lines.shape[0], dtype=bool)
        outside = np.zeros(lines.shape[0], dtype=bool)
        if not predicate.low_unbounded:
            inside &= line_mins >= predicate.low
            outside |= line_maxs < predicate.low
        if not predicate.high_unbounded:
            inside &= line_maxs < predicate.high
            outside |= line_mins >= predicate.high
        promoted = lines[inside]
        mixed = lines[~(inside | outside)]
        if mixed.shape[0] == 0:
            mixed = None
        else:
            mixed_values = _take_lines(values, mixed, vpc, n)
            # Inline low <= v < high; the where= reductions downstream
            # then skip the survivor compress entirely.  (Both bounds
            # unbounded cannot reach here: every line would have been
            # promoted.)
            if predicate.low_unbounded:
                mixed_mask = mixed_values < predicate.high
            elif predicate.high_unbounded:
                mixed_mask = mixed_values >= predicate.low
            else:
                mixed_mask = (mixed_values >= predicate.low) & (
                    mixed_values < predicate.high
                )
    return full_starts, full_stops, promoted, mixed, mixed_values, mixed_mask


def _candidate_count(
    aggregates, full_starts, full_stops, promoted, mixed_mask
) -> int:
    vpc = aggregates.vpc
    n = aggregates.n_values
    total = int((np.minimum(full_stops * vpc, n) - full_starts * vpc).sum())
    if promoted.shape[0]:
        total += int(
            (np.minimum(promoted * vpc + vpc, n) - promoted * vpc).sum()
        )
    if mixed_mask is not None:
        total += int(np.count_nonzero(mixed_mask))
    return total


def _qualifying_ids(
    aggregates, full_starts, full_stops, promoted, mixed, mixed_mask
) -> np.ndarray:
    """Every qualifying id of refined candidates (unordered): full
    ranges, promoted lines and the straddling lines' survivors."""
    vpc = aggregates.vpc
    n = aggregates.n_values
    pieces = [
        expand_ranges(full_starts * vpc, np.minimum(full_stops * vpc, n)),
        expand_ranges(promoted * vpc, np.minimum(promoted * vpc + vpc, n)),
    ]
    if mixed is not None:
        # Ascending lines: the rows in the order _take_lines reads them.
        span = expand_ranges(mixed * vpc, np.minimum(mixed * vpc + vpc, n))
        pieces.append(span[mixed_mask])
    return np.concatenate(pieces)


def _candidate_sum(
    aggregates, full_starts, full_stops, promoted, kept, *, squares: bool = False
):
    """Shared SUM/sum-of-squares lane over refined candidates.

    ``kept`` is the flat array of qualifying straddle-line values (or
    ``None``).  Returns a Python scalar in the accumulator dtype."""
    total = np.add.reduce(
        aggregates.range_sums(full_starts, full_stops, squares=squares).astype(
            aggregates.sum_dtype, copy=False
        )
    )
    # The lanes are modular: the scalar adds wrap as the array sums do,
    # so NumPy's scalar overflow warning is noise here.
    with np.errstate(over="ignore"):
        if promoted.shape[0]:
            total = total + np.add.reduce(
                aggregates.line_sums(promoted, squares=squares)
            )
        if kept is not None and kept.shape[0]:
            acc = kept.astype(aggregates.sum_dtype, copy=False)
            if squares:
                acc = acc * acc
            total = total + np.add.reduce(acc)
    return aggregates.sum_dtype.type(total).item()


def candidate_moments(
    ranges, values, predicate, aggregates, *, squares: bool = True
):
    """(count, sum, sum-of-squares) straight off candidate ranges.

    The moment partial behind ``avg``/``var``/``std`` pushdown: same
    refinement as :func:`aggregate_candidates`, one pass over the
    straddling lines, no id list.  ``squares=False`` skips the
    sum-of-squares lane (all ``avg`` needs) and returns ``None`` in its
    place.
    """
    (
        full_starts,
        full_stops,
        promoted,
        mixed,
        mixed_values,
        mixed_mask,
    ) = _refine_partials(ranges, values, predicate, aggregates)
    count = _candidate_count(
        aggregates, full_starts, full_stops, promoted, mixed_mask
    )
    if not lanes_hold(count, aggregates.max_abs, squares=squares):
        ids = _qualifying_ids(
            aggregates, full_starts, full_stops, promoted, mixed, mixed_mask
        )
        return (count, *exact_moments(values[ids], squares=squares))
    kept = mixed_values[mixed_mask] if mixed_values is not None else None
    total = _candidate_sum(aggregates, full_starts, full_stops, promoted, kept)
    total_sq = (
        _candidate_sum(
            aggregates, full_starts, full_stops, promoted, kept, squares=True
        )
        if squares
        else None
    )
    return count, total, total_sq


def aggregate_candidates(ranges, values, predicate, aggregates, op: str):
    """Fused aggregate straight off candidate cacheline ranges.

    The hot path of :meth:`ColumnImprints.aggregate
    <repro.core.index.ColumnImprints.aggregate>`: consumes a
    :class:`~repro.core.ranges.CandidateRanges` (the compressed-domain
    kernel's output) *without ever producing an id list*.  Full ranges
    are answered entirely from the pre-aggregates — their cacheline
    spans index the prefix tables and extrema arrays directly.

    Partial candidate cachelines are first **refined through the
    sidecar's exact per-cacheline bounds**, which are strictly sharper
    than the imprint's bin-resolution innermask: a line whose
    ``[min, max]`` lies inside the predicate is promoted to fully
    qualifying (answered from the pre-aggregates), one whose bounds
    miss the predicate is dropped outright, and only lines genuinely
    straddling a predicate bound gather their values for the
    false-positive check — typically a small constant per answer run
    instead of every bin-level false positive.  (A ``COUNT`` whose
    stored-vector test finds mostly partial lines never gets here: see
    :func:`~repro.core.query.dense_span_or_ranges`.)

    Answers are identical to aggregating the equivalent
    :class:`RowSet` (and therefore to NumPy reference aggregation over
    the forced ids, with the float-``SUM`` rounding caveat in the
    module docstring).
    """
    _check_op(op)
    if op in MOMENT_OPS:
        count, total, total_sq = candidate_moments(
            ranges, values, predicate, aggregates, squares=op != "avg"
        )
        return _finalize_moments(op, count, total, total_sq)

    (
        full_starts,
        full_stops,
        promoted,
        _mixed,
        mixed_values,
        mixed_mask,
    ) = _refine_partials(ranges, values, predicate, aggregates)

    if op == "count":
        return _candidate_count(
            aggregates, full_starts, full_stops, promoted, mixed_mask
        )

    if op == "sum":
        kept = mixed_values[mixed_mask] if mixed_values is not None else None
        return _candidate_sum(
            aggregates, full_starts, full_stops, promoted, kept
        )

    reducer = np.minimum if op == "min" else np.maximum
    pieces = []
    if full_starts.shape[0]:
        ranged = (
            aggregates.range_mins(full_starts, full_stops) if op == "min"
            else aggregates.range_maxs(full_starts, full_stops)
        )
        pieces.append(reducer.reduce(ranged))
    if promoted.shape[0]:
        per_line = (
            aggregates.mins[promoted] if op == "min"
            else aggregates.maxs[promoted]
        )
        pieces.append(reducer.reduce(per_line))
    if mixed_values is not None:
        kept = mixed_values[mixed_mask]
        if kept.shape[0]:
            pieces.append(reducer.reduce(kept))
    if not pieces:
        return None
    result = pieces[0]
    for piece in pieces[1:]:
        result = reducer(result, piece)
    return result.item()


def grouped_candidates(ranges, values, codes, predicate, aggregates, grouped, op):
    """Grouped (counts, sums) partials for grouped ``op`` straight off
    candidate ranges.

    GROUP BY pushdown: full ranges and promoted lines are answered from
    the :class:`GroupedAggregates` tables (two row lookups per range's
    whole blocks, its ragged lines gathered; no ids).  Lines straddling
    a predicate bound fold in their survivors through one ``bincount``
    per table, weighted by the qualification mask, over the codes and
    values read line after line.  Returns per-group arrays of shape
    ``(n_groups,)``, with ``sums`` ``None`` for grouped ``count``.  An
    integer ``avg`` whose sum lanes may wrap (:func:`lanes_hold`)
    gathers its qualifying rows and sums them as exact Python ints
    instead.
    """
    (
        full_starts,
        full_stops,
        promoted,
        mixed,
        mixed_values,
        mixed_mask,
    ) = _refine_partials(ranges, values, predicate, aggregates)
    lookup_starts, lookup_stops = full_starts, full_stops
    if promoted.shape[0]:
        # Promoted lines expand from contiguous partial ranges, so long
        # consecutive runs are the common case; coalescing them turns
        # per-line lookups into a handful of range lookups, folded into
        # the full-range lookup so each table is visited exactly once.
        run_starts, run_stops = coalesce_ranges(promoted, promoted + 1)
        lookup_starts = np.concatenate([full_starts, run_starts])
        lookup_stops = np.concatenate([full_stops, run_stops])
    codes = np.asarray(codes)
    exact = op == "avg" and not lanes_hold(
        _candidate_count(aggregates, full_starts, full_stops, promoted, mixed_mask),
        aggregates.max_abs,
        squares=False,
    )
    counts, sums = grouped.range_groups(
        lookup_starts,
        lookup_stops,
        codes,
        None if op == "count" or exact else values,
    )
    if mixed is not None:
        mixed_codes = _take_lines(codes, mixed, aggregates.vpc, aggregates.n_values)
        counts = counts + np.bincount(
            mixed_codes, weights=mixed_mask, minlength=grouped.n_groups
        ).astype(_I64)
        if sums is not None:
            sums = sums + _group_sums(
                mixed_codes,
                np.where(mixed_mask, mixed_values, 0),
                grouped.n_groups,
                grouped.sum_dtype,
            )
    if exact:
        ids = _qualifying_ids(
            aggregates, full_starts, full_stops, promoted, mixed, mixed_mask
        )
        sums = _exact_group_sums(codes[ids], values[ids], grouped.n_groups)
    return counts, sums


#: Cachelines gathered per pruning round of :func:`topk_candidates`.
_TOPK_CHUNK_LINES = 64


def topk_candidates(ranges, values, predicate, aggregates, k: int) -> list:
    """ORDER-BY-value top-k straight off candidate ranges.

    Fully-qualifying cachelines (full ranges plus promoted lines) are
    visited in **descending order of their sidecar maxima**; once k
    values are in hand, any line whose max cannot beat the running
    k-th value — and every line after it in the ordering — is pruned
    without gathering a single value.  Straddling lines were already
    gathered during refinement, so their qualifying survivors join for
    free.  Returns the k largest qualifying values, descending, as
    Python scalars; ``[]`` when nothing qualifies or ``k <= 0``.
    """
    if k <= 0:
        return []
    vpc = aggregates.vpc
    n = aggregates.n_values
    (
        full_starts,
        full_stops,
        promoted,
        _mixed,
        mixed_values,
        mixed_mask,
    ) = _refine_partials(ranges, values, predicate, aggregates)

    definite = np.concatenate([expand_ranges(full_starts, full_stops), promoted])
    collected = []
    count = 0
    if mixed_values is not None:
        kept = mixed_values[mixed_mask]
        if kept.shape[0]:
            collected.append(kept)
            count = int(kept.shape[0])

    if definite.shape[0]:
        bounds = aggregates.maxs[definite]
        order = np.argsort(bounds, kind="stable")[::-1]
        threshold = None
        if count >= k:
            pool = collected[0] if len(collected) == 1 else np.concatenate(collected)
            threshold = np.partition(pool, pool.shape[0] - k)[pool.shape[0] - k]
        for at in range(0, order.shape[0], _TOPK_CHUNK_LINES):
            chunk = order[at : at + _TOPK_CHUNK_LINES]
            if threshold is not None and bounds[chunk[0]] <= threshold:
                break
            lines = definite[chunk]
            starts = lines * vpc
            collected.append(
                values[expand_ranges(starts, np.minimum(starts + vpc, n))]
            )
            count += int(collected[-1].shape[0])
            if count >= k:
                pool = np.concatenate(collected)
                collected = [pool]
                threshold = np.partition(pool, pool.shape[0] - k)[
                    pool.shape[0] - k
                ]

    if not collected:
        return []
    return topk_gathered(np.concatenate(collected), k)
