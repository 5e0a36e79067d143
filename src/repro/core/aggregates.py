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

The sidecar is built in one vectorised pass (``ufunc.reduceat`` per
cacheline) and maintained incrementally through Section 4 updates:
appends recompute only the trailing partial cacheline and extend, and
an in-place update recomputes its one cacheline.

Exactness
---------
``COUNT``/``MIN``/``MAX`` are bit-identical to NumPy reference
aggregation over the materialised ids for every dtype.  ``SUM`` (and
the sum-of-squares lane) is accumulated at 64-bit width
(``int64``/``uint64`` for integer columns, ``float64`` for float
columns).  Integer sums are bit-identical to ``np.sum`` over the
gathered values because modular 64-bit addition is associative —
regrouping per cacheline cannot change the wrapped result; ``avg`` and
``var`` derived from bit-identical integer moments are therefore
bit-identical floats too.  Float sums are deterministic (fixed blocked
order) but float addition is not associative, so they agree with
``np.sum(values[ids], dtype=np.float64)`` only to rounding (~1 ulp per
reassociation); the property tests pin integer results exactly and
float results to a tight relative tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .ranges import coalesce_ranges, expand_ranges
from .rowset import RowSet

__all__ = [
    "AGGREGATE_OPS",
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

_I64 = np.int64


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


def _finalize_moments(op: str, count: int, total, total_sq):
    """Derive ``avg``/``var``/``std`` from exact (count, sum, sumsq).

    ``None`` on an empty answer — never a zero division.  Population
    variance (``sumsq/n - mean**2``) clamped at zero against float
    cancellation; integer moments give bit-identical float results
    because Python's big-int division is correctly rounded.
    """
    if not count:
        return None
    mean = total / count
    if op == "avg":
        return float(mean)
    var = total_sq / count - mean * mean
    var = var if var > 0.0 else 0.0
    return float(var) if op == "var" else math.sqrt(var)


class CachelineAggregates:
    """Per-cacheline ``count``/``sum``/``min``/``max`` of one column.

    The aggregate-pushdown sidecar of a
    :class:`~repro.core.index.ColumnImprints`: one entry per cacheline
    (two extrema at value width plus two 64-bit prefix slots — under
    half an ``int32`` column), trading bounded memory for
    ``SUM``/``MIN``/``MAX``/``AVG``/``VAR`` over full cacheline ranges
    that never touch values.

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
        """Sidecar footprint (extrema + both prefix tables)."""
        return int(
            self.mins.nbytes
            + self.maxs.nbytes
            + self.prefix_sums.nbytes
            + self.prefix_sumsqs.nbytes
        )

    # ------------------------------------------------------------------
    # construction / maintenance
    # ------------------------------------------------------------------
    def _recompute_from(self, values: np.ndarray, first_line: int) -> None:
        """(Re)build every aggregate from cacheline ``first_line`` on.

        One ``reduceat`` per aggregate over the affected suffix; the
        prefix tables are extended from the last clean entry, so an
        append costs O(appended values), never O(column).
        """
        block = values[first_line * self.vpc :]
        starts = np.arange(0, block.shape[0], self.vpc, dtype=np.intp)
        acc = block.astype(self.sum_dtype, copy=False)
        sums = np.add.reduceat(acc, starts)
        sumsqs = np.add.reduceat(acc * acc, starts)
        self.mins = np.concatenate(
            [self.mins[:first_line], np.minimum.reduceat(block, starts)]
        )
        self.maxs = np.concatenate(
            [self.maxs[:first_line], np.maximum.reduceat(block, starts)]
        )
        self.prefix_sums = np.concatenate(
            [
                self.prefix_sums[: first_line + 1],
                self.prefix_sums[first_line] + np.cumsum(sums, dtype=self.sum_dtype),
            ]
        )
        self.prefix_sumsqs = np.concatenate(
            [
                self.prefix_sumsqs[: first_line + 1],
                self.prefix_sumsqs[first_line]
                + np.cumsum(sumsqs, dtype=self.sum_dtype),
            ]
        )
        self.n_values = int(values.shape[0])

    def append(self, values) -> None:
        """Maintain the sidecar through a Section 4.1 append.

        ``values`` is the column's *full* post-append backing array (the
        index already swapped its column).  Only the trailing partial
        cacheline is recomputed; everything before it is untouched —
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
        acc = block.astype(self.sum_dtype, copy=False)
        new_sum = np.add.reduce(acc)
        new_sumsq = np.add.reduce(acc * acc)
        old_sum = self.prefix_sums[cacheline + 1] - self.prefix_sums[cacheline]
        old_sumsq = (
            self.prefix_sumsqs[cacheline + 1] - self.prefix_sumsqs[cacheline]
        )
        self.prefix_sums[cacheline + 1 :] += new_sum - old_sum
        self.prefix_sumsqs[cacheline + 1 :] += new_sumsq - old_sumsq
        self.mins[cacheline] = block.min()
        self.maxs[cacheline] = block.max()

    # ------------------------------------------------------------------
    # range reductions (the pushdown kernels)
    # ------------------------------------------------------------------
    def range_sums(
        self, cl_lo: np.ndarray, cl_hi: np.ndarray, *, squares: bool = False
    ) -> np.ndarray:
        """Sum (or sum-of-squares) of cachelines ``[lo_k, hi_k)`` per
        range — O(1) each."""
        table = self.prefix_sumsqs if squares else self.prefix_sums
        return table[cl_hi] - table[cl_lo]

    def line_sums(self, lines: np.ndarray, *, squares: bool = False) -> np.ndarray:
        """Per-cacheline sum (or sum-of-squares) for individual lines."""
        table = self.prefix_sumsqs if squares else self.prefix_sums
        return table[lines + 1] - table[lines]

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
    """Per-cacheline group histograms over a dictionary-encoded column.

    The GROUP BY pushdown sidecar: for a group column of small-int codes
    ``0..n_groups-1`` riding next to a value column, two prefix tables
    of shape ``(n_cachelines + 1, n_groups)`` hold the running per-group
    count and per-group value sum of cachelines ``[0, k)``.  A grouped
    ``COUNT``/``SUM``/``AVG`` over full cacheline ranges is then two
    row lookups per range (O(n_groups) each) — no row ids, no gathers —
    and only cachelines genuinely straddling a predicate bound fall
    back to gathering their codes and values.

    Maintenance mirrors :class:`CachelineAggregates`: appends recompute
    from the trailing partial cacheline, an in-place value update
    recomputes its one cacheline.  ``widen()`` grows the group domain
    in place when appends introduce new codes (append-stable
    dictionaries only ever add codes at the end).
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
        self.n_groups = int(n_groups)
        self.sum_dtype = _sum_dtype(values.dtype)
        self.n_values = 0
        self.prefix_counts = np.zeros((1, self.n_groups), dtype=_I64)
        self.prefix_sums = np.zeros((1, self.n_groups), dtype=self.sum_dtype)
        if codes.shape[0]:
            self._recompute_from(codes, values, 0)

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def n_cachelines(self) -> int:
        return int(self.prefix_counts.shape[0]) - 1

    @property
    def nbytes(self) -> int:
        return int(self.prefix_counts.nbytes + self.prefix_sums.nbytes)

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

    def _histograms(self, codes, values) -> tuple[np.ndarray, np.ndarray]:
        """Per-(group, cacheline) counts and sums of a block that starts
        on a cacheline boundary, each shaped ``(n_groups, n_lines)``.

        One ``bincount`` for the counts and one ``np.add.at`` into the
        64-bit accumulator for the sums — O(block), no sort.  Integer
        sums stay exact (no float weights); float sums add up in row
        order.  Group-major cells keep each group's lines contiguous,
        so the prefix sums run along rows.
        """
        n_lines = -(-codes.shape[0] // self.vpc)
        cells = codes * n_lines
        cells += np.repeat(np.arange(n_lines, dtype=_I64), self.vpc)[: codes.shape[0]]
        size = self.n_groups * n_lines
        counts = np.bincount(cells, minlength=size).astype(_I64, copy=False)
        sums = np.zeros(size, dtype=self.sum_dtype)
        np.add.at(sums, cells, values.astype(self.sum_dtype, copy=False))
        return (
            counts.reshape(self.n_groups, n_lines),
            sums.reshape(self.n_groups, n_lines),
        )

    @staticmethod
    def _extended(prefix: np.ndarray, first_line: int, per_line: np.ndarray):
        """``prefix`` up to row ``first_line``, then the running totals
        of the group-major ``per_line`` histograms (summed in place)."""
        np.cumsum(per_line, axis=1, out=per_line)
        out = np.empty(
            (first_line + 1 + per_line.shape[1], prefix.shape[1]),
            dtype=prefix.dtype,
        )
        out[: first_line + 1] = prefix[: first_line + 1]
        np.add(per_line.T, prefix[first_line], out=out[first_line + 1 :])
        return out

    def _recompute_from(self, codes, values, first_line: int) -> None:
        """(Re)build the histograms from cacheline ``first_line`` on —
        O(suffix), never O(column)."""
        start = first_line * self.vpc
        counts, sums = self._histograms(
            self._check_codes(np.asarray(codes)[start:]),
            np.asarray(values)[start:],
        )
        self.prefix_counts = self._extended(self.prefix_counts, first_line, counts)
        self.prefix_sums = self._extended(self.prefix_sums, first_line, sums)
        self.n_values = int(np.asarray(codes).shape[0])

    def widen(self, n_groups: int) -> None:
        """Grow the group domain (zero-padded columns) for new codes."""
        if n_groups <= self.n_groups:
            return
        pad = n_groups - self.n_groups
        self.prefix_counts = np.concatenate(
            [
                self.prefix_counts,
                np.zeros((self.prefix_counts.shape[0], pad), dtype=_I64),
            ],
            axis=1,
        )
        self.prefix_sums = np.concatenate(
            [
                self.prefix_sums,
                np.zeros((self.prefix_sums.shape[0], pad), dtype=self.sum_dtype),
            ],
            axis=1,
        )
        self.n_groups = int(n_groups)

    def append(self, codes, values) -> None:
        """Maintain the histograms through an append (full post-append
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
        self._recompute_from(codes, values, self.n_values // self.vpc)

    def update_line(self, cacheline: int, codes, values) -> None:
        """Recompute one cacheline after an in-place value update and
        patch both prefix tables by the per-group deltas."""
        if not 0 <= cacheline < self.n_cachelines:
            raise IndexError(
                f"cacheline {cacheline} out of range [0, {self.n_cachelines})"
            )
        start = cacheline * self.vpc
        stop = min(start + self.vpc, self.n_values)
        new_counts, new_sums = self._histograms(
            self._check_codes(np.asarray(codes)[start:stop]),
            np.asarray(values)[start:stop],
        )
        old_counts = self.prefix_counts[cacheline + 1] - self.prefix_counts[cacheline]
        old_sums = self.prefix_sums[cacheline + 1] - self.prefix_sums[cacheline]
        self.prefix_counts[cacheline + 1 :] += new_counts[:, 0] - old_counts
        self.prefix_sums[cacheline + 1 :] += new_sums[:, 0] - old_sums

    # ------------------------------------------------------------------
    # range reductions
    # ------------------------------------------------------------------
    def range_group_counts(self, cl_lo, cl_hi) -> np.ndarray:
        """Per-group count over cachelines ``[lo_k, hi_k)`` summed
        across all ranges — shape ``(n_groups,)``."""
        return np.add.reduce(
            self.prefix_counts[cl_hi] - self.prefix_counts[cl_lo], axis=0
        )

    def range_group_sums(self, cl_lo, cl_hi) -> np.ndarray:
        return np.add.reduce(
            self.prefix_sums[cl_hi] - self.prefix_sums[cl_lo],
            axis=0,
            dtype=self.sum_dtype,
        )

    def line_group_counts(self, lines) -> np.ndarray:
        return np.add.reduce(
            self.prefix_counts[lines + 1] - self.prefix_counts[lines], axis=0
        )

    def line_group_sums(self, lines) -> np.ndarray:
        return np.add.reduce(
            self.prefix_sums[lines + 1] - self.prefix_sums[lines],
            axis=0,
            dtype=self.sum_dtype,
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
    answers: ``sum`` (and the moments behind ``avg``/``var``/``std``)
    accumulates at the 64-bit width matching the sidecar semantics;
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
        acc = gathered.astype(_sum_dtype(gathered.dtype), copy=False)
        total = np.add.reduce(acc).item()
        total_sq = np.add.reduce(acc * acc).item() if op != "avg" else None
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


def grouped_gathered(
    gcodes: np.ndarray, gvalues: np.ndarray, n_groups: int, *, with_sums: bool
):
    """Per-group (counts, sums) of gathered codes/values — the
    no-sidecar fallback.  ``sums`` is ``None`` when not requested."""
    counts = np.bincount(
        gcodes.astype(_I64, copy=False), minlength=n_groups
    ).astype(_I64, copy=False)
    if counts.shape[0] > n_groups:
        raise ValueError(f"group code out of range [0, {n_groups})")
    sums = None
    if with_sums:
        sums = np.zeros(n_groups, dtype=_sum_dtype(gvalues.dtype))
        np.add.at(sums, gcodes, gvalues.astype(sums.dtype, copy=False))
    return counts, sums


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
    if op == "sum":
        return {int(g): sums[g].item() for g in present}
    return {int(g): sums[g].item() / int(counts[g]) for g in present}


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
                total = total + np.add.reduce(acc)
            return aggregates.sum_dtype.type(total).item()

        if op == "sum":
            return _total(False)
        count = rowset.count()
        if count == 0:
            return None
        return _finalize_moments(
            op, count, _total(False), _total(True) if op != "avg" else None
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

    Returns ``(full_starts, full_stops, promoted, mixed_span,
    mixed_values, mixed_mask)``: full cacheline ranges, individual
    partial lines **promoted** to fully-qualifying because their exact
    ``[min, max]`` sidecar bounds lie inside the predicate, and — for
    lines genuinely straddling a predicate bound — the flat gathered id
    span, its values, and the inline qualification mask.  Lines whose
    bounds miss the predicate are dropped outright.  ``mixed_span`` /
    ``mixed_values`` / ``mixed_mask`` are ``None`` when no line
    straddles.
    """
    vpc = aggregates.vpc
    n = aggregates.n_values
    full_starts, full_stops, part_starts, part_stops = ranges.split()

    promoted = np.empty(0, dtype=_I64)
    mixed_span = mixed_values = mixed_mask = None
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
        if mixed.shape[0]:
            mixed_ids = mixed * vpc
            mixed_span = expand_ranges(mixed_ids, np.minimum(mixed_ids + vpc, n))
            mixed_values = values[mixed_span]
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
    return full_starts, full_stops, promoted, mixed_span, mixed_values, mixed_mask


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
        _span,
        mixed_values,
        mixed_mask,
    ) = _refine_partials(ranges, values, predicate, aggregates)
    kept = mixed_values[mixed_mask] if mixed_values is not None else None
    count = _candidate_count(
        aggregates, full_starts, full_stops, promoted, mixed_mask
    )
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
        _span,
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


def grouped_candidates(
    ranges, values, codes, predicate, aggregates, grouped, *, with_sums: bool
):
    """Grouped (counts, sums) partials straight off candidate ranges.

    GROUP BY pushdown: full ranges and promoted lines are answered from
    the :class:`GroupedAggregates` prefix tables (two row lookups per
    range, no ids); only lines straddling a predicate bound gather
    their codes and values, and those survivors fold in through one
    ``bincount`` / unbuffered ``add.at``.  Returns per-group arrays of
    shape ``(n_groups,)``, with ``sums`` ``None`` when not requested
    (grouped ``count``).
    """
    (
        full_starts,
        full_stops,
        promoted,
        mixed_span,
        mixed_values,
        mixed_mask,
    ) = _refine_partials(ranges, values, predicate, aggregates)
    if promoted.shape[0]:
        # Promoted lines expand from contiguous partial ranges, so long
        # consecutive runs are the common case; coalescing them turns
        # thousands of per-line prefix-table gathers into a handful of
        # two-row range lookups, folded into the full-range lookup so
        # each prefix table is visited exactly once.
        run_starts, run_stops = coalesce_ranges(promoted, promoted + 1)
        full_starts = np.concatenate([full_starts, run_starts])
        full_stops = np.concatenate([full_stops, run_stops])
    counts = grouped.range_group_counts(full_starts, full_stops)
    sums = (
        grouped.range_group_sums(full_starts, full_stops) if with_sums else None
    )
    if mixed_span is not None:
        kept_ids = mixed_span[mixed_mask]
        if kept_ids.shape[0]:
            kept_codes = np.asarray(codes)[kept_ids].astype(_I64, copy=False)
            counts = counts + np.bincount(
                kept_codes, minlength=grouped.n_groups
            ).astype(_I64, copy=False)
            if with_sums:
                extra = np.zeros(grouped.n_groups, dtype=grouped.sum_dtype)
                np.add.at(
                    extra,
                    kept_codes,
                    mixed_values[mixed_mask].astype(
                        grouped.sum_dtype, copy=False
                    ),
                )
                sums = sums + extra
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
        _span,
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
