"""Shared experiment context: build every index over every column once.

All figure drivers need the same expensive artifacts — the five
datasets, and for every column a zonemap, a WAH bitmap, an imprints
index, creation times and the entropy.  :func:`get_context` builds them
once per (scale, seed) and caches the result for the process, so
running several benchmark files in one pytest session re-uses the work.

The imprints index and the WAH bitmap share one histogram per column
(the paper: "the bins used are identical to those used for the imprints
index").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..core import ColumnImprints, binning, entropy_of_vectors
from ..indexes import SequentialScan, WahBitmapIndex, ZoneMap
from ..storage.column import Column
from ..workloads import Dataset, load_all_datasets

__all__ = [
    "BuiltColumn",
    "BenchContext",
    "get_context",
    "time_call",
    "best_of",
    "METHODS",
]

#: Evaluation order used in every figure.
METHODS = ("scan", "imprints", "zonemap", "wah")


def time_call(fn, *args, repeat: int = 1, **kwargs):
    """Run ``fn`` and return ``(result, best-of-repeat seconds)``."""
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - start)
    return result, best


def best_of(repeats: int, run) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``run()`` (noise floor).

    Unlike :func:`time_call` it drops each result at once, so a timed
    call never runs while the previous answer is still allocated.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


@dataclass
class BuiltColumn:
    """One column with all four access methods and their build costs."""

    dataset: str
    qualified_name: str
    column: Column
    entropy: float
    imprints: ColumnImprints
    zonemap: ZoneMap
    wah: WahBitmapIndex
    scan: SequentialScan
    #: method -> creation seconds (scan has no build, omitted).
    build_seconds: dict[str, float]

    @property
    def itemsize(self) -> int:
        return self.column.ctype.itemsize

    @property
    def type_name(self) -> str:
        return self.column.ctype.name

    def index(self, method: str):
        """Access method by its figure label."""
        try:
            return getattr(self, method)
        except AttributeError:
            raise KeyError(f"unknown method {method!r}; choose from {METHODS}") from None

    def sizes(self) -> dict[str, int]:
        return {
            "imprints": self.imprints.nbytes,
            "zonemap": self.zonemap.nbytes,
            "wah": self.wah.nbytes,
        }


def build_column(dataset_name: str, qualified_name: str, column: Column) -> BuiltColumn:
    """Build all access methods over one column, timing each."""
    import zlib

    stable_seed = zlib.crc32(f"{dataset_name}/{qualified_name}".encode())
    rng = np.random.default_rng(stable_seed)
    histogram, _ = time_call(binning, column, rng=rng)

    imprints, t_imprints = time_call(
        ColumnImprints, column, histogram=histogram
    )
    zonemap, t_zonemap = time_call(ZoneMap, column)
    wah, t_wah = time_call(WahBitmapIndex, column, histogram=histogram)
    scan = SequentialScan(column)
    entropy = entropy_of_vectors(imprints.data.expand_vectors())
    return BuiltColumn(
        dataset=dataset_name,
        qualified_name=qualified_name,
        column=column,
        entropy=entropy,
        imprints=imprints,
        zonemap=zonemap,
        wah=wah,
        scan=scan,
        build_seconds={
            "imprints": t_imprints,
            "zonemap": t_zonemap,
            "wah": t_wah,
        },
    )


@dataclass
class BenchContext:
    """Datasets + built indexes for one (scale, seed)."""

    scale: float
    seed: int
    datasets: list[Dataset]
    built: list[BuiltColumn] = field(default_factory=list)

    def columns_of(self, dataset: str) -> list[BuiltColumn]:
        return [b for b in self.built if b.dataset == dataset]

    def find(self, dataset: str, qualified_name: str) -> BuiltColumn:
        for b in self.built:
            if b.dataset == dataset and b.qualified_name == qualified_name:
                return b
        raise KeyError(f"no built column {dataset}/{qualified_name}")


_CACHE: dict[tuple[float, int], BenchContext] = {}


def get_context(scale: float = 1.0, seed: int = 0) -> BenchContext:
    """Build (or fetch the cached) experiment context."""
    key = (scale, seed)
    if key in _CACHE:
        return _CACHE[key]
    datasets = load_all_datasets(scale=scale, seed=seed)
    context = BenchContext(scale=scale, seed=seed, datasets=datasets)
    for dataset in datasets:
        for entry in dataset:
            context.built.append(
                build_column(dataset.name, entry.qualified_name, entry.column)
            )
    _CACHE[key] = context
    return context
