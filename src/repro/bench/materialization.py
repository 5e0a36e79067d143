"""Materialisation-cost study — eager id arrays vs lazy ``RowSet``s.

The query kernels finish with an answer in compressed form: full
cacheline runs as id *ranges* plus a sparse chunk of checked survivors
(:class:`~repro.core.rowset.RowSet`).  Expanding that into a flat
``int64`` id array is O(ids) work and memory — pure waste for the
large family of consumers that only need a count, a membership probe,
or a set combination.  This study puts a number on the waste: a
selectivity sweep (0.05% – 20%) over a clustered column comparing, per
query,

* ``eager``  — force ``result.ids`` (the pre-RowSet behaviour: every
  answer materialised on the hot path);
* ``lazy``   — ``result.count()`` straight off the range endpoints;
* ``cached`` — ``count()`` on a result already produced once (the
  serving-cache hit shape: the kernel is skipped, and so is the
  expansion).

Every lazily-forced id array is verified bit-identical to the ground
truth before timing.  The machine-readable result lands in
``benchmarks/results/BENCH_materialization.json``.
"""

from __future__ import annotations

import numpy as np

from ..core import ColumnImprints
from ..predicate import RangePredicate
from ..storage import Column
from .runner import best_of
from .studies import stamp
from .tables import format_table

__all__ = [
    "SWEEP_SELECTIVITIES",
    "clustered_sweep",
    "materialization_workload",
    "run_materialization_study",
    "render_materialization_study",
]

#: Fractions of the column each sweep point targets (0.05% – 20%).
SWEEP_SELECTIVITIES = (0.0005, 0.002, 0.01, 0.05, 0.1, 0.2)

DEFAULT_ROWS = 2_000_000
#: The acceptance headline is quoted at this selectivity.
HEADLINE_SELECTIVITY = 0.1


def clustered_sweep(
    rng: np.random.Generator, n_rows: int, selectivities, name: str
) -> tuple[Column, dict[float, RangePredicate]]:
    """A clustered random-walk column plus one range predicate per
    target selectivity, each centred in the sorted value order."""
    values = (np.cumsum(rng.normal(0.0, 30.0, n_rows)) + 50_000.0).astype(
        np.int32
    )
    column = Column(values, name=name)
    sorted_values = np.sort(values)
    predicates: dict[float, RangePredicate] = {}
    for selectivity in selectivities:
        width = max(1, int(selectivity * n_rows))
        position = (n_rows - width) // 2
        low = int(sorted_values[position])
        high = int(sorted_values[min(position + width, n_rows - 1)])
        predicates[selectivity] = RangePredicate.range(
            low, max(high, low + 1), column.ctype
        )
    return column, predicates


def materialization_workload(
    n_rows: int, seed: int = 0
) -> tuple[Column, dict[float, RangePredicate]]:
    """A clustered column plus one range predicate per sweep point."""
    return clustered_sweep(
        np.random.default_rng(seed), n_rows, SWEEP_SELECTIVITIES,
        "bench.materialization",
    )


def run_materialization_study(
    n_rows: int = DEFAULT_ROWS,
    seed: int = 0,
    repeats: int = 7,
    smoke: bool = False,
) -> dict:
    """Sweep selectivities; verify, then time eager vs lazy vs cached.

    Returns a JSON-ready dict with per-point timings, footprints and
    speedups plus the 10%-selectivity headline the acceptance criteria
    quote.
    """
    if smoke:
        n_rows = min(n_rows, 150_000)
        repeats = min(repeats, 3)
    column, predicates = materialization_workload(n_rows, seed=seed)
    index = ColumnImprints(column)
    index.query(predicates[SWEEP_SELECTIVITIES[0]])  # warm masks/snapshot

    sweep = []
    for selectivity, predicate in predicates.items():
        # --- verification (untimed): the lazy result, once forced, is
        # bit-identical to the scan ground truth.
        result = index.query(predicate)
        truth = np.flatnonzero(predicate.matches(column.values)).astype(
            np.int64
        )
        if not np.array_equal(result.ids, truth):
            raise AssertionError(
                f"forced ids differ from ground truth at {selectivity}"
            )
        rowset = result.row_set

        eager_seconds = best_of(
            repeats, lambda p=predicate: index.query(p).ids
        )
        lazy_seconds = best_of(
            repeats, lambda p=predicate: index.query(p).count()
        )
        cached = index.query(predicate)
        cached_seconds = best_of(repeats, cached.count)

        sweep.append(
            {
                "selectivity": selectivity,
                "n_ids": result.count(),
                "n_ranges": rowset.n_ranges,
                "n_extras": rowset.n_extras,
                "rowset_bytes": rowset.nbytes,
                "ids_bytes": int(result.count() * 8),
                "eager_seconds": eager_seconds,
                "lazy_count_seconds": lazy_seconds,
                "cached_count_seconds": cached_seconds,
                "speedup_count_vs_eager": (
                    eager_seconds / lazy_seconds if lazy_seconds > 0 else float("inf")
                ),
                "speedup_cached_vs_eager": (
                    eager_seconds / cached_seconds
                    if cached_seconds > 0
                    else float("inf")
                ),
            }
        )

    headline = next(
        (
            point
            for point in sweep
            if point["selectivity"] == HEADLINE_SELECTIVITY
        ),
        sweep[-1],
    )
    return stamp({
        "experiment": "materialization",
        "config": {
            "n_rows": n_rows,
            "repeats": repeats,
            "selectivities": list(SWEEP_SELECTIVITIES),
        },
        "sweep": sweep,
        "headline": {
            "selectivity": headline["selectivity"],
            "speedup_count_vs_eager": headline["speedup_count_vs_eager"],
            "speedup_cached_vs_eager": headline["speedup_cached_vs_eager"],
            "compression": (
                headline["ids_bytes"] / headline["rowset_bytes"]
                if headline["rowset_bytes"]
                else float("inf")
            ),
        },
        "verified_bit_identical": True,
    }, seed, smoke)


def render_materialization_study(result: dict) -> str:
    """The study as an aligned text table."""
    config = result["config"]
    rows = []
    for point in result["sweep"]:
        rows.append(
            [
                f"{point['selectivity']:.2%}",
                point["n_ids"],
                point["n_ranges"],
                point["n_extras"],
                point["rowset_bytes"],
                f"{point['eager_seconds'] * 1e3:.3f}",
                f"{point['lazy_count_seconds'] * 1e3:.3f}",
                f"{point['speedup_count_vs_eager']:.1f}x",
                f"{point['speedup_cached_vs_eager']:.0f}x",
            ]
        )
    table = format_table(
        headers=[
            "selectivity",
            "ids",
            "ranges",
            "extras",
            "rowset B",
            "eager ms",
            "count ms",
            "count spd",
            "cached spd",
        ],
        rows=rows,
        title=(
            f"materialisation cost: {config['n_rows']:,} rows, "
            f"count-only vs eager id arrays (best of "
            f"{config['repeats']}; forced ids verified bit-identical)"
        ),
    )
    headline = result["headline"]
    footer = (
        f"headline @ {headline['selectivity']:.0%} selectivity: count-only "
        f"{headline['speedup_count_vs_eager']:.1f}x, cache-hit count "
        f"{headline['speedup_cached_vs_eager']:.0f}x faster than eager; "
        f"answer {headline['compression']:.0f}x smaller as RowSet"
    )
    return f"{table}\n{footer}"
