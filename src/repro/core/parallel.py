"""Parallel imprint construction — the paper's Section 7 extension.

"Column imprints can be extended to exploit multi-core platforms during
the construction phase."  The construction splits cleanly:

1. the expensive part — bin lookups and per-cacheline ORs — is
   embarrassingly parallel over cacheline-aligned partitions.  Each
   worker runs the serial builder's chunk kernel
   (:func:`~repro.core.builder.cacheline_vectors`) over its partition;
   NumPy releases the GIL inside it, so plain threads give real speedup;
2. the cheap part — the dictionary pass over the run boundaries — runs
   once over the partitions' vectors in order
   (:func:`~repro.core.builder.compress`), so runs crossing a partition
   boundary merge exactly as in the serial build.

``build_imprints_parallel`` therefore produces output bit-identical to
:class:`~repro.core.builder.ImprintsBuilder` — property-tested — while
parallelising the per-value hot loop of Section 2.5.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..storage.column import Column
from .binning import Histogram
from .builder import ImprintsData, cacheline_vectors, compress
from .dictionary import MAX_CNT

__all__ = ["build_imprints_parallel", "default_workers", "partition_bounds"]


def default_workers(cap: int = 8) -> int:
    """Worker count for cacheline-partitioned thread fan-out.

    NumPy kernels release the GIL, so one thread per core pays off until
    memory bandwidth saturates; the cap keeps thread start-up and result
    stitching from dominating on very wide machines.
    """
    return max(1, min(os.cpu_count() or 1, cap))


def partition_bounds(
    n_values: int, values_per_cacheline: int, n_partitions: int
) -> list[tuple[int, int]]:
    """Cacheline-aligned half-open partitions covering ``[0, n)``.

    Alignment matters: a cacheline split across partitions would OR its
    bits into two different vectors and corrupt the index.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    n_cachelines = -(-n_values // values_per_cacheline)
    per_part = -(-n_cachelines // n_partitions)
    bounds = []
    for part in range(n_partitions):
        start = part * per_part * values_per_cacheline
        stop = min((part + 1) * per_part * values_per_cacheline, n_values)
        if start >= stop:
            break
        bounds.append((start, stop))
    return bounds


def build_imprints_parallel(
    column: Column,
    histogram: Histogram,
    n_workers: int = 4,
    max_cnt: int = MAX_CNT,
) -> ImprintsData:
    """Multi-threaded Algorithm 1 with serial-identical output."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    vpc = column.values_per_cacheline
    values = column.values
    n = values.shape[0]

    def vectors(span: tuple[int, int]) -> np.ndarray:
        return cacheline_vectors(histogram, values[span[0] : span[1]], vpc)

    bounds = partition_bounds(n, vpc, n_workers)
    if len(bounds) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(vectors, bounds))
    else:
        parts = [vectors(span) for span in bounds]
    imprints, dictionary = compress(np.concatenate([np.empty(0, np.uint64), *parts]), max_cnt)
    return ImprintsData(
        imprints=imprints,
        dictionary=dictionary,
        histogram=histogram,
        n_values=int(n),
        values_per_cacheline=vpc,
    )
