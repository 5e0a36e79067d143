"""Histogram binning for imprints — the paper's Algorithm 2.

The histogram divides the column's value domain into at most 64 bins:

* a uniform sample of (at most) 2048 values is drawn, sorted, and
  deduplicated (NaN, which orders with nothing, is dropped and binned
  last);
* if fewer than 64 unique values remain, each gets its own bin and the
  bin count is rounded up to the next power of two in {8, 16, 32, 64}
  (unused borders are padded with the type's MAX, or +inf when the
  sample holds it);
* otherwise 63 borders are picked from the sample at a *fractional*
  stride of ``smp_sz / 62`` (the paper stresses the stride must stay a
  double so the borders spread evenly), approximating an equal-height
  histogram because duplicated values are sampled more often;
* the first bin is open towards the domain minimum and the last towards
  the maximum, so future appends with outlier values still map to a bin
  (Section 4.1's overflow-bin argument).

Bin semantics (Section 2.4): borders are inclusive on the left and
exclusive on the right — a value ``v`` falls into bin ``k`` where
``b[k-1] <= v < b[k]``, bin 0 holds everything below ``b[0]`` and the
last bin everything at or above its left border.

:meth:`Histogram.get_bins` is the vectorised ``get_bin`` every build
runs once per value.  It is the paper's branch-free search (Section
2.5) in array form: the borders sit in an Eytzinger (breadth-first)
tree, and each of the ``log2(bins)`` levels is one gather, one compare
and one index step over a cache-sized chunk of values.  Every value
takes the same path length, so unclustered columns cost what clustered
ones do (``searchsorted`` mispredicts its branches on them).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..storage.column import Column
from ..storage.types import ColumnType

__all__ = [
    "Histogram",
    "sample_column",
    "binning",
    "CHUNK_VALUES",
    "DEFAULT_SAMPLE_SIZE",
    "MAX_BINS",
]

#: The paper samples "not more than 2048" values.
DEFAULT_SAMPLE_SIZE = 2048
#: Imprint vectors never exceed 64 bits.
MAX_BINS = 64
#: The power-of-two bin counts the paper's Algorithm 2 rounds up to.
_BIN_STEPS = (8, 16, 32, 64)
#: Values per chunk of the bin search and of the imprint kernel
#: (:mod:`repro.core.builder`).  A chunk's temporaries (32 KiB of bins,
#: up to 256 KiB each of gathered borders and imprint bits) stay in L2.
#: ``ColumnImprints(...)`` over perfbench's three 4M-row int32 columns
#: (``ts``, ``fare``, ``fares``; 2-vCPU VM, median of 9 builds each)
#: took 73-78 ms at 8 Ki values, 60-62 at 16 Ki, 56-58 at 32 Ki, 59-63
#: at 64 Ki and 69-72 at 128 Ki.
CHUNK_VALUES = 32_768


@dataclass(frozen=True, eq=False)
class Histogram:
    """The binning of one column: border array plus bin count.

    Attributes
    ----------
    borders:
        Array of length ``bins``; ``borders[k]`` is the *right* border of
        bin ``k`` (exclusive), except the last entry which is the type's
        MAX padding and never acts as an exclusive border.  Only
        ``borders[:bins - 1]`` take part in bin search.
    bins:
        Number of bins (8, 16, 32 or 64 — or fewer when ``max_bins`` is
        lowered for ablations).
    ctype:
        The column type, providing the open-ended domain bounds of the
        first and last bins.
    """

    borders: np.ndarray
    bins: int
    ctype: ColumnType
    _search_borders: np.ndarray = field(init=False, repr=False, compare=False)
    _tree: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        borders = np.asarray(self.borders, dtype=self.ctype.dtype)
        if borders.shape != (self.bins,):
            raise ValueError(
                f"expected {self.bins} borders, got shape {borders.shape}"
            )
        search = borders[: self.bins - 1]
        if search.size > 1 and not np.all(search[:-1] <= search[1:]):
            raise ValueError("histogram borders must be non-decreasing")
        object.__setattr__(self, "borders", borders)
        object.__setattr__(self, "_search_borders", search)
        object.__setattr__(self, "_tree", _eytzinger(search))

    # ------------------------------------------------------------------
    # bin lookup
    # ------------------------------------------------------------------
    def get_bins(self, values: np.ndarray) -> np.ndarray:
        """Vectorised ``get_bin``: the bin index of every value.

        The bin is the number of search borders ``<= v``, exactly
        ``np.searchsorted(borders[:bins - 1], v, side="right")``: the
        left-inclusive/right-exclusive rule, NaN in the last bin and
        ±inf where they compare.  Runs :data:`CHUNK_VALUES` values at a
        time, so the only allocation the size of ``values`` is the
        result.
        """
        values = np.asarray(values, dtype=self.ctype.dtype)
        out = np.empty(values.shape, dtype=np.uint8)
        flat, bins = values.reshape(-1), out.reshape(-1)
        for start in range(0, flat.shape[0], CHUNK_VALUES):
            stop = start + CHUNK_VALUES
            self._search(flat[start:stop], bins[start:stop])
        return out

    def _search(self, values: np.ndarray, out: np.ndarray) -> None:
        """One chunk of :meth:`get_bins`, written into ``out`` (uint8).

        ``out`` holds the tree node of every value: the root's
        children are 2 and 3, node ``i``'s are ``2i`` and ``2i + 1``,
        and a value goes right when the node's border is ``<= v``.
        After the last level the node minus the leaf offset is the
        count of borders ``<= v`` in the padded search array.
        """
        tree = self._tree
        m = self._search_borders.shape[0]
        if m == 0:
            out.fill(0)
            return
        levels = m.bit_length()
        right = np.empty(values.shape, dtype=bool)
        step = right.view(np.uint8)
        np.greater_equal(values, tree[1], out=right)
        np.add(step, 2, out=out)
        for _ in range(levels - 1):
            # Nodes stay inside the tree; "wrap" skips the bounds check.
            np.less_equal(tree.take(out, mode="wrap"), values, out=right)
            np.add(out, out, out=out)
            np.add(out, step, out=out)
        np.subtract(out, 1 << levels, out=out)
        if m < (1 << levels) - 1:
            # The padding repeats the last border: clamp its extra hits.
            np.minimum(out, m, out=out)
        if self.ctype.is_float:
            # NaN compares false everywhere; searchsorted sorts it last.
            np.putmask(out, np.isnan(values), m)

    def get_bin(self, value) -> int:
        """Bin index of a single value (``searchsorted``, the reference
        the scalar Algorithm 1 port and the mask construction use)."""
        return int(
            np.searchsorted(
                self._search_borders,
                np.asarray(value, dtype=self.ctype.dtype),
                side="right",
            )
        )

    # ------------------------------------------------------------------
    # bin geometry (used by mask construction)
    # ------------------------------------------------------------------
    def bin_bounds(self, k: int) -> tuple[float, float]:
        """The half-open range ``[lo, hi)`` covered by bin ``k``.

        The first bin's ``lo`` is ``-inf`` and the last bin's ``hi`` is
        ``+inf``: those bins are the overflow bins and absorb any value
        outside the sampled domain.
        """
        if not 0 <= k < self.bins:
            raise IndexError(f"bin {k} out of range [0, {self.bins})")
        lo = float("-inf") if k == 0 else float(self._search_borders[k - 1])
        hi = float("inf") if k == self.bins - 1 else float(self._search_borders[k])
        return lo, hi

    def bounds_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`bin_bounds`: parallel ``(lo, hi)`` arrays."""
        search = self._search_borders.astype(np.float64)
        lo = np.concatenate([[-np.inf], search])
        hi = np.concatenate([search, [np.inf]])
        return lo, hi

    @property
    def imprint_width_bytes(self) -> int:
        """Bytes one imprint vector occupies (bins / 8)."""
        return max(1, self.bins // 8)


def _eytzinger(search: np.ndarray) -> np.ndarray:
    """The sorted search borders as a breadth-first tree (1-based).

    The borders are padded with copies of the last one to a perfect
    tree of ``2^L - 1`` nodes (``L = len(search).bit_length()``); node
    ``k`` at depth ``d`` holds the border of in-order rank
    ``(2(k - 2^d) + 1) 2^(L-1-d)``.  Index 0 is unused.
    """
    m = search.shape[0]
    levels = m.bit_length()
    tree = np.empty(1 << levels, dtype=search.dtype)
    if m == 0:
        return tree
    nodes = np.arange(1, 1 << levels)
    depth = np.array([int(k).bit_length() - 1 for k in nodes])
    rank = (2 * (nodes - (1 << depth)) + 1) << (levels - 1 - depth)
    tree[0] = search[0]
    tree[1:] = search[np.minimum(rank - 1, m - 1)]
    return tree


def sample_column(
    column: Column,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Uniform sample of the column, the paper's ``uni_sample``.

    A column shorter than ``sample_size`` is used in full (sampling with
    replacement would only skew the histogram).  The sample is returned
    unsorted; Algorithm 2 sorts and deduplicates it.
    """
    if sample_size <= 0:
        raise ValueError(f"sample_size must be positive, got {sample_size}")
    n = len(column)
    if n == 0:
        raise ValueError("cannot sample an empty column")
    if n <= sample_size:
        return column.values.copy()
    if rng is None:
        rng = np.random.default_rng(0)
    positions = rng.integers(0, n, size=sample_size)
    return column.values[positions]


def binning(
    column: Column,
    max_bins: int = MAX_BINS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    rng: np.random.Generator | None = None,
) -> Histogram:
    """The paper's ``binning()`` procedure (Algorithm 2), generalised.

    ``max_bins`` defaults to 64 and may be lowered (8/16/32) for the
    bin-count ablation; the structure of the algorithm is unchanged —
    ``max_bins - 2`` interior steps are taken through the sample and the
    final border is the type's MAX padding.
    """
    if max_bins < 2 or max_bins > MAX_BINS:
        raise ValueError(f"max_bins must be within [2, {MAX_BINS}], got {max_bins}")
    ctype = column.ctype

    sample = sample_column(column, sample_size, rng)
    if ctype.is_float:
        # NaN orders with nothing, so it cannot be a border; get_bins
        # puts it in the last bin.
        sample = sample[~np.isnan(sample)]
    unique = np.unique(sample)
    smp_sz = int(unique.shape[0])

    # Padding never sorts below a sampled value (+inf can be one).
    pad = max(ctype.max_value, unique[-1]) if smp_sz else ctype.max_value
    borders = np.full(max_bins, pad, dtype=ctype.dtype)
    if smp_sz < max_bins:
        # Low cardinality: one unique value per bin, bins rounded up to
        # the next power of two (8 at minimum), padding behind.
        borders[:smp_sz] = unique
        bins = max_bins
        for step in _BIN_STEPS:
            if smp_sz < step and step <= max_bins:
                bins = step
                break
    else:
        # High cardinality: walk the sample with a *double* stride so the
        # borders spread evenly over the sample (Algorithm 2 keeps ystep
        # a double for exactly this reason).
        bins = max_bins
        # max_bins == 2 takes no interior step: its one border is the
        # sample's minimum.
        ystep = smp_sz / max(max_bins - 2, 1)
        y = 0.0
        for i in range(max_bins - 1):
            borders[i] = unique[min(int(y), smp_sz - 1)]
            y += ystep
        borders[max_bins - 1] = ctype.max_value

    return Histogram(borders=borders[:bins].copy(), bins=bins, ctype=ctype)
