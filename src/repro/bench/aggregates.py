"""Aggregate-pushdown study — pre-aggregates vs materialise-then-reduce.

Dashboard traffic asks ``SUM``/``MIN``/``MAX``/``COUNT`` of a
predicate, not id lists.  Before aggregate pushdown the only way to
answer was *materialise-then-reduce*: run the query, force the flat id
array, gather the values, reduce — O(ids) work and memory per
aggregate.  With the :class:`~repro.core.aggregates.CachelineAggregates`
sidecar the full cacheline ranges of the answer are aggregated from
per-cacheline pre-aggregates (prefix-sum O(1) per range for ``SUM``)
and only the sparse checked-survivor chunk touches values.

This study puts a number on the difference: a selectivity sweep
(0.05% – 20%, the same clustered workload as the materialisation
study) timing, per operation,

* ``pushdown`` — ``index.aggregate(predicate, op)`` (kernel + sidecar);
* ``eager``    — ``reduce(values[index.query(predicate).ids])``, the
  materialise-then-reduce baseline;
* ``cached``   — a repeated ``QueryExecutor.aggregate`` call (the
  versioned-LRU scalar hit serving repeated dashboard traffic).

Every pushdown and executor answer is verified **bit-identical** to
NumPy reference aggregation over the forced ids before any timing.  The
machine-readable result lands in
``benchmarks/results/BENCH_aggregates.json``.
"""

from __future__ import annotations

import numpy as np

from ..core import ColumnImprints
from ..engine import QueryExecutor
from .materialization import SWEEP_SELECTIVITIES, materialization_workload
from .runner import best_of
from .studies import stamp
from .tables import format_table

__all__ = [
    "STUDY_OPS",
    "HEADLINE_SELECTIVITY",
    "run_aggregate_study",
    "render_aggregate_study",
]

#: Operations timed by the study (count rides along for completeness).
STUDY_OPS = ("sum", "min", "max", "count")

#: Twice the materialisation study's column: aggregate pushdown is an
#: asymptotic win (O(ranges + boundary cachelines) vs O(ids)), so the
#: study runs at the scale dashboards actually aggregate over.
DEFAULT_ROWS = 4_000_000
#: The acceptance headline is quoted at this selectivity.
HEADLINE_SELECTIVITY = 0.1


def _reference(values: np.ndarray, ids: np.ndarray, op: str):
    """NumPy reference aggregation over materialised ids."""
    if op == "count":
        return int(ids.shape[0])
    if op == "sum":
        return np.sum(values[ids]).item() if ids.shape[0] else 0
    if ids.shape[0] == 0:
        return None
    return values[ids].min().item() if op == "min" else values[ids].max().item()


def run_aggregate_study(
    n_rows: int = DEFAULT_ROWS,
    seed: int = 0,
    repeats: int = 7,
    smoke: bool = False,
) -> dict:
    """Sweep selectivities; verify bit-identical, then time the modes.

    Returns a JSON-ready dict with per-point, per-op timings and
    speedups, sidecar footprint accounting, and the 10%-selectivity
    headline the acceptance criteria quote.
    """
    if smoke:
        n_rows = min(n_rows, 150_000)
        repeats = min(repeats, 3)
    column, predicates = materialization_workload(n_rows, seed=seed)
    values = column.values
    index = ColumnImprints(column)
    aggregates = index.cacheline_aggregates  # build the sidecar up front
    index.query(predicates[SWEEP_SELECTIVITIES[0]])  # warm masks/snapshot

    executor = QueryExecutor({"bench": index})

    sweep = []
    verified = True
    try:
        for selectivity, predicate in predicates.items():
            result = index.query(predicate)
            ids = result.ids
            point = {
                "selectivity": selectivity,
                "n_ids": int(ids.shape[0]),
                "ops": {},
            }
            for op in STUDY_OPS:
                reference = _reference(values, ids, op)
                # --- verification (untimed): pushdown and the executor
                # scalar path both agree bit-identically with the NumPy
                # reference over forced ids.
                for label, got in (
                    ("pushdown", index.aggregate(predicate, op)),
                    ("executor", executor.aggregate("bench", predicate, op)),
                ):
                    if got != reference:
                        verified = False
                        raise AssertionError(
                            f"{label} {op} at {selectivity}: "
                            f"{got!r} != reference {reference!r}"
                        )

                pushdown_seconds = best_of(
                    repeats, lambda p=predicate, o=op: index.aggregate(p, o)
                )

                def eager(p=predicate, o=op):
                    gathered = values[index.query(p).ids]
                    if o == "count":
                        return gathered.shape[0]
                    if o == "sum":
                        return np.sum(gathered)
                    return gathered.min() if o == "min" else gathered.max()

                eager_seconds = best_of(repeats, eager)
                cached_seconds = best_of(
                    repeats,
                    lambda p=predicate, o=op: executor.aggregate("bench", p, o),
                )
                point["ops"][op] = {
                    "pushdown_seconds": pushdown_seconds,
                    "eager_seconds": eager_seconds,
                    "cached_seconds": cached_seconds,
                    "speedup_vs_eager": (
                        eager_seconds / pushdown_seconds
                        if pushdown_seconds > 0
                        else float("inf")
                    ),
                    "speedup_cached_vs_eager": (
                        eager_seconds / cached_seconds
                        if cached_seconds > 0
                        else float("inf")
                    ),
                }
            sweep.append(point)
    finally:
        executor.close()

    headline_point = next(
        (p for p in sweep if p["selectivity"] == HEADLINE_SELECTIVITY),
        sweep[-1],
    )
    headline = {
        "selectivity": headline_point["selectivity"],
        "speedups_vs_eager": {
            op: headline_point["ops"][op]["speedup_vs_eager"]
            for op in ("sum", "min", "max")
        },
        "min_speedup_vs_eager": min(
            headline_point["ops"][op]["speedup_vs_eager"]
            for op in ("sum", "min", "max")
        ),
        "cached_speedup_sum": headline_point["ops"]["sum"][
            "speedup_cached_vs_eager"
        ],
    }
    return stamp({
        "experiment": "aggregates",
        "config": {
            "n_rows": n_rows,
            "repeats": repeats,
            "selectivities": list(SWEEP_SELECTIVITIES),
            "ops": list(STUDY_OPS),
        },
        "sidecar": {
            "nbytes": aggregates.nbytes,
            "column_nbytes": column.nbytes,
            "overhead": aggregates.nbytes / column.nbytes,
            "n_cachelines": aggregates.n_cachelines,
        },
        "sweep": sweep,
        "headline": headline,
        "verified_bit_identical": verified,
    }, seed, smoke)


def render_aggregate_study(result: dict) -> str:
    """The study as an aligned text table."""
    config = result["config"]
    rows = []
    for point in result["sweep"]:
        ops = point["ops"]
        rows.append(
            [
                f"{point['selectivity']:.2%}",
                point["n_ids"],
                f"{ops['sum']['eager_seconds'] * 1e3:.3f}",
                f"{ops['sum']['pushdown_seconds'] * 1e3:.3f}",
                f"{ops['sum']['speedup_vs_eager']:.1f}x",
                f"{ops['min']['speedup_vs_eager']:.1f}x",
                f"{ops['max']['speedup_vs_eager']:.1f}x",
                f"{ops['count']['speedup_vs_eager']:.1f}x",
                f"{ops['sum']['speedup_cached_vs_eager']:.0f}x",
            ]
        )
    sidecar = result["sidecar"]
    table = format_table(
        headers=[
            "selectivity",
            "ids",
            "eager ms",
            "push ms",
            "SUM spd",
            "MIN spd",
            "MAX spd",
            "COUNT spd",
            "cached spd",
        ],
        rows=rows,
        title=(
            f"aggregate pushdown: {config['n_rows']:,} rows, "
            f"pre-aggregates vs materialise-then-reduce (best of "
            f"{config['repeats']}; all answers verified bit-identical, "
            f"sidecar {100.0 * sidecar['overhead']:.1f}% of column)"
        ),
    )
    headline = result["headline"]
    speedups = headline["speedups_vs_eager"]
    footer = (
        f"headline @ {headline['selectivity']:.0%} selectivity: SUM "
        f"{speedups['sum']:.1f}x, MIN {speedups['min']:.1f}x, MAX "
        f"{speedups['max']:.1f}x vs materialise-then-reduce; executor "
        f"scalar cache hit {headline['cached_speedup_sum']:.0f}x"
    )
    return f"{table}\n{footer}"
