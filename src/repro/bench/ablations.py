"""Ablation benchmarks for the design choices DESIGN.md calls out.

The paper motivates several constants without sweeping them; these
ablations regenerate the justification:

* **bin count** (8/16/32/64): fewer bins shrink the index but weaken
  pruning; Section 2.4 picks 64 as the cap.  The multi-level / adaptive
  binning of Section 7's future work starts from this trade-off.
* **cacheline size** (32/64/128 bytes per imprint vector): Section 2.3
  ties the vector span to the access granularity of the system.
* **compression on/off**: the cacheline dictionary vs storing one
  vector per cacheline (what Figure 2 compresses away).
* **sample size** (Algorithm 2's 2048): binning quality vs sampling
  cost.
* **get_bin implementations**: Section 2.5's claim that construction
  costs ~3*log2(64) = 18 comparisons per value, and the relative speed
  of the unrolled search vs the loop vs the vectorised branch-free
  level search the builder runs (``Histogram.get_bins``).
"""

from __future__ import annotations

import numpy as np

from ..core import (
    ColumnImprints,
    ComparisonCounter,
    UnrolledGetBin,
    binning,
    get_bin_loop,
)
from ..predicate import RangePredicate
from ..storage.column import Column
from .runner import time_call
from .tables import format_table

__all__ = [
    "bins_ablation_rows",
    "cacheline_ablation_rows",
    "compression_ablation_rows",
    "sample_size_ablation_rows",
    "getbin_rows",
    "render_ablations",
]


def _mixed_column(n: int = 120_000, seed: int = 21) -> Column:
    """Half clustered, half noisy — both compression regimes at once."""
    rng = np.random.default_rng(seed)
    clustered = np.cumsum(rng.normal(0, 30, n // 2)) + 50_000
    noisy = rng.uniform(0, 100_000, n - n // 2)
    return Column(
        np.concatenate([clustered, noisy]).astype(np.int32), name="ablation.mixed"
    )


def _query_cost(index: ColumnImprints, selectivity: float = 0.1) -> tuple[int, int]:
    """(cachelines fetched, comparisons) for a mid-domain query."""
    values = index.column.values
    lo = float(np.quantile(values, 0.45))
    hi = float(np.quantile(values, 0.45 + selectivity))
    result = index.query(RangePredicate.range(lo, hi, index.column.ctype))
    return result.stats.cachelines_fetched, result.stats.value_comparisons


def bins_ablation_rows(n: int = 120_000) -> list[list]:
    """Index size and pruning power across histogram widths."""
    column = _mixed_column(n)
    rows = []
    for bins in (8, 16, 32, 64):
        index, build_s = time_call(ColumnImprints, column, max_bins=bins)
        fetched, comparisons = _query_cost(index)
        rows.append(
            [
                bins,
                index.bins,
                index.nbytes,
                100.0 * index.overhead,
                build_s,
                fetched,
                comparisons,
            ]
        )
    return rows


def cacheline_ablation_rows(n: int = 120_000) -> list[list]:
    """Imprint granularity: one vector per 32/64/128/256 bytes."""
    base = _mixed_column(n)
    rows = []
    for cacheline_bytes in (32, 64, 128, 256):
        column = Column(
            base.values, ctype=base.ctype, name=base.name,
            cacheline_bytes=cacheline_bytes,
        )
        index, build_s = time_call(ColumnImprints, column)
        fetched, comparisons = _query_cost(index)
        rows.append(
            [
                cacheline_bytes,
                column.values_per_cacheline,
                index.nbytes,
                100.0 * index.overhead,
                build_s,
                fetched * cacheline_bytes,  # bytes fetched, comparable
                comparisons,
            ]
        )
    return rows


def compression_ablation_rows(n: int = 120_000) -> list[list]:
    """The cacheline dictionary's contribution to the index size."""
    column = _mixed_column(n)
    rows = []
    index = ColumnImprints(column)
    data = index.data
    uncompressed_vectors = data.n_cachelines * data.histogram.imprint_width_bytes
    compressed = data.imprints_nbytes + data.dictionary_nbytes
    rows.append(
        [
            "clustered+noisy",
            data.n_cachelines,
            int(data.imprints.shape[0]),
            uncompressed_vectors,
            compressed,
            uncompressed_vectors / max(1, compressed),
        ]
    )
    sorted_column = Column(np.sort(column.values), name="ablation.sorted")
    sorted_data = ColumnImprints(sorted_column).data
    rows.append(
        [
            "sorted",
            sorted_data.n_cachelines,
            int(sorted_data.imprints.shape[0]),
            sorted_data.n_cachelines * sorted_data.histogram.imprint_width_bytes,
            sorted_data.imprints_nbytes + sorted_data.dictionary_nbytes,
            (sorted_data.n_cachelines * sorted_data.histogram.imprint_width_bytes)
            / max(1, sorted_data.imprints_nbytes + sorted_data.dictionary_nbytes),
        ]
    )
    rng = np.random.default_rng(5)
    random_column = Column(
        rng.permutation(column.values).astype(np.int32), name="ablation.random"
    )
    random_data = ColumnImprints(random_column).data
    rows.append(
        [
            "shuffled",
            random_data.n_cachelines,
            int(random_data.imprints.shape[0]),
            random_data.n_cachelines * random_data.histogram.imprint_width_bytes,
            random_data.imprints_nbytes + random_data.dictionary_nbytes,
            (random_data.n_cachelines * random_data.histogram.imprint_width_bytes)
            / max(
                1, random_data.imprints_nbytes + random_data.dictionary_nbytes
            ),
        ]
    )
    return rows


def sample_size_ablation_rows(n: int = 120_000) -> list[list]:
    """Binning quality (bin balance) across Algorithm 2 sample sizes."""
    column = _mixed_column(n)
    rows = []
    for sample_size in (64, 256, 1024, 2048, 8192):
        histogram, binning_s = time_call(
            binning, column, sample_size=sample_size,
            rng=np.random.default_rng(3),
        )
        bins_of_values = histogram.get_bins(column.values)
        counts = np.bincount(bins_of_values, minlength=histogram.bins)
        occupied = counts[counts > 0]
        balance = float(occupied.max() / occupied.mean()) if occupied.size else 0.0
        rows.append(
            [sample_size, histogram.bins, binning_s, int(occupied.size), balance]
        )
    return rows


def getbin_rows(n: int = 20_000) -> list[list]:
    """Section 2.5: comparisons/value and relative speed of get_bin."""
    column = _mixed_column(n)
    histogram = binning(column)
    borders = histogram.borders
    values = column.values

    counter = ComparisonCounter()
    for value in values[:1000]:
        get_bin_loop(borders, histogram.bins, value, counter)
    loop_comparisons = counter.count / 1000

    unrolled = UnrolledGetBin(histogram.bins)
    counter.reset()
    for value in values[:1000]:
        unrolled(borders, value, counter)
    unrolled_comparisons = counter.count / 1000

    _, loop_s = time_call(
        lambda: [get_bin_loop(borders, histogram.bins, v) for v in values]
    )
    _, unrolled_s = time_call(lambda: [unrolled(borders, v) for v in values])
    _, vector_s = time_call(histogram.get_bins, values)
    # One comparison per tree level, whatever the value.
    levels = (histogram.bins - 1).bit_length()
    return [
        ["loop binary search", loop_comparisons, loop_s * 1e9 / n],
        ["unrolled (paper 2.5)", unrolled_comparisons, unrolled_s * 1e9 / n],
        ["vectorised level search (get_bins)", levels, vector_s * 1e9 / n],
    ]


def render_ablations() -> str:
    parts = [
        format_table(
            headers=["max bins", "bins", "bytes", "overhead %", "build s",
                     "lines fetched", "comparisons"],
            rows=bins_ablation_rows(),
            title="Ablation: histogram bin count (query selectivity 0.1)",
        ),
        format_table(
            headers=["cacheline B", "vpc", "bytes", "overhead %", "build s",
                     "bytes fetched", "comparisons"],
            rows=cacheline_ablation_rows(),
            title="Ablation: imprint vector granularity",
        ),
        format_table(
            headers=["column", "cachelines", "stored vectors",
                     "uncompressed B", "compressed B", "ratio"],
            rows=compression_ablation_rows(),
            title="Ablation: cacheline-dictionary compression",
        ),
        format_table(
            headers=["sample", "bins", "binning s", "occupied bins",
                     "max/mean bin load"],
            rows=sample_size_ablation_rows(),
            title="Ablation: Algorithm 2 sample size",
        ),
        format_table(
            headers=["implementation", "comparisons/value", "ns/value"],
            rows=getbin_rows(),
            title="Section 2.5: get_bin cost (paper: 18 comparisons/value)",
        ),
    ]
    return "\n\n".join(parts)
