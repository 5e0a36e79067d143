"""Dashboard study — grouped/moment/top-k panels vs materialise-then-group.

A trip-analytics dashboard (the maliva-style workload: fares sliced by
a time/amount range, broken down by region) refreshes a fixed panel
set per filter change:

* the **KPI row** — ``AVG`` and ``VAR`` of the matching fares (the
  sum-of-squares lane answers both from the sidecar at O(ranges));
* the **breakdown chart** — ``COUNT``/``SUM``/``AVG`` grouped by a
  dictionary-encoded region column (per-cacheline group histograms:
  grouped answers never materialise row ids);
* the **leaderboard** — the top-k matching fares (per-cacheline
  extrema ordering prunes cachelines that cannot contribute).

Before aggregate pushdown grew these shapes, every panel had to
*materialise-then-group*: run the query, force the flat id array,
gather values and group codes, reduce with ``bincount``/``partition``
— O(ids) work and memory per panel.  This study replays the dashboard
at a selectivity sweep and times, per panel,

* ``pushdown`` — the index-level grouped/moment/top-k kernels;
* ``eager``    — materialise-then-group over forced ids (the baseline);
* ``cached``   — the repeated ``QueryExecutor`` call (versioned-LRU
  group-dict/scalar hits serving the refresh traffic of an unchanged
  filter).

Every pushdown answer is verified **bit-identical** to NumPy reference
aggregation over the forced ids before any timing — for the index and
the executor.  The integer column makes even ``AVG``/``VAR`` exact: the
moments derive from exact integer ``(count, sum, sumsq)`` and Python's
correctly-rounded big-int division.  The machine-readable result lands
in ``benchmarks/results/BENCH_dashboard.json``.
"""

from __future__ import annotations

import numpy as np

from ..core import ColumnImprints
from ..engine import QueryExecutor
from ..predicate import RangePredicate
from ..storage import Column
from .materialization import clustered_sweep
from .runner import best_of
from .studies import stamp
from .tables import format_table

__all__ = [
    "GROUP_OPS_STUDIED",
    "MOMENT_OPS_STUDIED",
    "SWEEP_SELECTIVITIES",
    "HEADLINE_SELECTIVITY",
    "DEFAULT_ROWS",
    "TOP_K",
    "N_REGIONS",
    "dashboard_workload",
    "run_dashboard_study",
    "render_dashboard_study",
]

#: The breakdown chart's operations.
GROUP_OPS_STUDIED = ("count", "sum", "avg")
#: The KPI row's operations (answered from the sum-of-squares lane).
MOMENT_OPS_STUDIED = ("avg", "var")
#: Fractions of the column each sweep point targets.
SWEEP_SELECTIVITIES = (0.002, 0.01, 0.05, 0.1, 0.2)
#: The acceptance headline is quoted at this selectivity.
HEADLINE_SELECTIVITY = 0.1
#: The acceptance criterion asks for >= 2M rows; 6M keeps the grouped
#: pushdown's fixed per-query cost (imprint kernel + straddle-line
#: refinement) well amortised against the eager path's O(selected ids)
#: gathers, so the headline holds with margin across walk seeds.
DEFAULT_ROWS = 6_000_000
#: Leaderboard depth.
TOP_K = 10
#: Cardinality of the region group column.
N_REGIONS = 12


def dashboard_workload(
    n_rows: int, seed: int = 0
) -> tuple[Column, np.ndarray, dict[float, RangePredicate]]:
    """A clustered trip-fare column, region labels, and sweep predicates.

    Fares are a random walk (clustered, like time-correlated trip
    data); regions are skewed — a few dense urban regions dominate,
    as in the real datasets dashboards slice.
    """
    rng = np.random.default_rng(seed)
    column, predicates = clustered_sweep(
        rng, n_rows, SWEEP_SELECTIVITIES, "bench.dashboard"
    )
    region_names = np.array([f"region-{i:02d}" for i in range(N_REGIONS)])
    weights = 1.0 / np.arange(1, N_REGIONS + 1)  # zipf-ish skew
    codes = rng.choice(N_REGIONS, size=n_rows, p=weights / weights.sum())
    return column, region_names[codes], predicates


def _grouped_reference(values, codes, ids, op: str, labels) -> dict:
    """Exact NumPy reference for one grouped panel over forced ids."""
    out: dict = {}
    selected_codes = codes[ids]
    selected_values = values[ids]
    for code in range(N_REGIONS):
        member = selected_codes == code
        n = int(np.count_nonzero(member))
        if n == 0:
            continue
        if op == "count":
            out[labels[code]] = n
        else:
            total = int(np.sum(selected_values[member].astype(np.int64)))
            out[labels[code]] = total if op == "sum" else total / n
    return out


def _moment_reference(values, ids, op: str):
    """Exact-integer-sum NumPy reference for one KPI."""
    if ids.shape[0] == 0:
        return None
    selected = values[ids].astype(object)
    total, count = int(np.sum(selected)), int(ids.shape[0])
    mean = total / count
    if op == "avg":
        return float(mean)
    var = int(np.sum(selected**2)) / count - mean * mean
    return var if var > 0.0 else 0.0


def run_dashboard_study(
    n_rows: int = DEFAULT_ROWS,
    seed: int = 0,
    repeats: int = 7,
    smoke: bool = False,
) -> dict:
    """Sweep selectivities; verify bit-identical, then time the panels.

    Returns a JSON-ready dict with per-point, per-panel timings and
    speedups, grouped-sidecar footprint accounting, and the
    10%-selectivity headline the acceptance criteria quote.
    """
    if smoke:
        n_rows = min(n_rows, 150_000)
        repeats = min(repeats, 3)
    column, labels, predicates = dashboard_workload(n_rows, seed=seed)
    values = column.values
    index = ColumnImprints(column)
    index.attach_group_column("region", labels)
    group = index.group_column("region")
    codes = group.codes
    region_names = [group.key_of(code) for code in range(N_REGIONS)]
    grouped_sidecar = index.grouped_aggregates("region")  # build up front
    aggregates = index.cacheline_aggregates
    index.query(predicates[SWEEP_SELECTIVITIES[0]])  # warm masks/snapshot

    executor = QueryExecutor({"trips": index})

    sweep = []
    verified = True
    try:
        for selectivity, predicate in predicates.items():
            ids = index.query(predicate).ids
            point = {
                "selectivity": selectivity,
                "n_ids": int(ids.shape[0]),
                "grouped": {},
                "moments": {},
            }

            # --- verification (untimed): every panel, every layer,
            # bit-identical to the NumPy reference over forced ids.
            for op in GROUP_OPS_STUDIED:
                reference = _grouped_reference(
                    values, codes, ids, op, region_names
                )
                for label, got in (
                    ("pushdown", index.aggregate_grouped(predicate, op, "region")),
                    ("executor", executor.aggregate_grouped(
                        "trips", predicate, op, "region"
                    )),
                ):
                    if got != reference:
                        verified = False
                        raise AssertionError(
                            f"grouped {label} {op} at {selectivity}: "
                            f"{got!r} != reference"
                        )
            for op in MOMENT_OPS_STUDIED:
                reference = _moment_reference(values, ids, op)
                for label, got in (
                    ("pushdown", index.aggregate(predicate, op)),
                    ("executor", executor.aggregate("trips", predicate, op)),
                ):
                    if got != reference:
                        verified = False
                        raise AssertionError(
                            f"moment {label} {op} at {selectivity}: "
                            f"{got!r} != reference {reference!r}"
                        )
            topk_reference = [
                int(v) for v in np.sort(values[ids])[::-1][:TOP_K]
            ]
            for label, got in (
                ("pushdown", index.top_k(predicate, TOP_K)),
                ("executor", executor.top_k("trips", predicate, TOP_K)),
            ):
                if got != topk_reference:
                    verified = False
                    raise AssertionError(
                        f"top-k {label} at {selectivity}: {got!r} != reference"
                    )

            # --- timing: pushdown vs materialise-then-group vs cache hit
            for op in GROUP_OPS_STUDIED:
                pushdown_seconds = best_of(
                    repeats,
                    lambda p=predicate, o=op: index.aggregate_grouped(
                        p, o, "region"
                    ),
                )

                def eager(p=predicate, o=op):
                    forced = index.query(p).ids
                    member_codes = codes[forced]
                    counts = np.bincount(member_codes, minlength=N_REGIONS)
                    if o == "count":
                        return counts
                    sums = np.bincount(
                        member_codes,
                        weights=values[forced].astype(np.float64),
                        minlength=N_REGIONS,
                    )
                    if o == "sum":
                        return sums
                    present = counts > 0
                    return sums[present] / counts[present]

                eager_seconds = best_of(repeats, eager)
                cached_seconds = best_of(
                    repeats,
                    lambda p=predicate, o=op: executor.aggregate_grouped(
                        "trips", p, o, "region"
                    ),
                )
                point["grouped"][op] = {
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
            for op in MOMENT_OPS_STUDIED:
                pushdown_seconds = best_of(
                    repeats, lambda p=predicate, o=op: index.aggregate(p, o)
                )

                def eager_moment(p=predicate, o=op):
                    gathered = values[index.query(p).ids].astype(np.float64)
                    return gathered.mean() if o == "avg" else gathered.var()

                eager_seconds = best_of(repeats, eager_moment)
                point["moments"][op] = {
                    "pushdown_seconds": pushdown_seconds,
                    "eager_seconds": eager_seconds,
                    "speedup_vs_eager": (
                        eager_seconds / pushdown_seconds
                        if pushdown_seconds > 0
                        else float("inf")
                    ),
                }
            topk_pushdown = best_of(
                repeats, lambda p=predicate: index.top_k(p, TOP_K)
            )

            def eager_topk(p=predicate):
                gathered = values[index.query(p).ids]
                if gathered.shape[0] > TOP_K:
                    gathered = np.partition(
                        gathered, gathered.shape[0] - TOP_K
                    )[-TOP_K:]
                return np.sort(gathered)[::-1]

            topk_eager = best_of(repeats, eager_topk)
            point["topk"] = {
                "pushdown_seconds": topk_pushdown,
                "eager_seconds": topk_eager,
                "speedup_vs_eager": (
                    topk_eager / topk_pushdown
                    if topk_pushdown > 0
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
        "grouped_speedups_vs_eager": {
            op: headline_point["grouped"][op]["speedup_vs_eager"]
            for op in GROUP_OPS_STUDIED
        },
        "min_grouped_speedup_vs_eager": min(
            headline_point["grouped"][op]["speedup_vs_eager"]
            for op in GROUP_OPS_STUDIED
        ),
        "cached_speedup_grouped_sum": headline_point["grouped"]["sum"][
            "speedup_cached_vs_eager"
        ],
        "moment_speedups_vs_eager": {
            op: headline_point["moments"][op]["speedup_vs_eager"]
            for op in MOMENT_OPS_STUDIED
        },
        "topk_speedup_vs_eager": headline_point["topk"]["speedup_vs_eager"],
    }
    return stamp({
        "experiment": "dashboard",
        "config": {
            "n_rows": n_rows,
            "repeats": repeats,
            "selectivities": list(SWEEP_SELECTIVITIES),
            "group_ops": list(GROUP_OPS_STUDIED),
            "moment_ops": list(MOMENT_OPS_STUDIED),
            "top_k": TOP_K,
            "n_regions": N_REGIONS,
        },
        "sidecar": {
            "grouped_nbytes": grouped_sidecar.nbytes,
            "scalar_nbytes": aggregates.nbytes,
            "column_nbytes": column.nbytes,
            "overhead": (
                (grouped_sidecar.nbytes + aggregates.nbytes) / column.nbytes
            ),
            "n_cachelines": aggregates.n_cachelines,
        },
        "sweep": sweep,
        "headline": headline,
        "verified_bit_identical": verified,
    }, seed, smoke)


def render_dashboard_study(result: dict) -> str:
    """The study as an aligned text table."""
    config = result["config"]
    rows = []
    for point in result["sweep"]:
        grouped = point["grouped"]
        moments = point["moments"]
        rows.append(
            [
                f"{point['selectivity']:.2%}",
                point["n_ids"],
                f"{grouped['sum']['eager_seconds'] * 1e3:.3f}",
                f"{grouped['sum']['pushdown_seconds'] * 1e3:.3f}",
                f"{grouped['count']['speedup_vs_eager']:.1f}x",
                f"{grouped['sum']['speedup_vs_eager']:.1f}x",
                f"{grouped['avg']['speedup_vs_eager']:.1f}x",
                f"{moments['avg']['speedup_vs_eager']:.1f}x",
                f"{moments['var']['speedup_vs_eager']:.1f}x",
                f"{point['topk']['speedup_vs_eager']:.1f}x",
                f"{grouped['sum']['speedup_cached_vs_eager']:.0f}x",
            ]
        )
    sidecar = result["sidecar"]
    table = format_table(
        headers=[
            "selectivity",
            "ids",
            "eager ms",
            "push ms",
            "gCOUNT",
            "gSUM",
            "gAVG",
            "AVG",
            "VAR",
            "TOPK",
            "cached",
        ],
        rows=rows,
        title=(
            f"dashboard panels: {config['n_rows']:,} rows, "
            f"{config['n_regions']} regions, grouped/moment/top-k pushdown "
            f"vs materialise-then-group (best of {config['repeats']}; all "
            f"answers verified bit-identical, sidecars "
            f"{100.0 * sidecar['overhead']:.1f}% of column)"
        ),
    )
    headline = result["headline"]
    grouped_speedups = headline["grouped_speedups_vs_eager"]
    footer = (
        f"headline @ {headline['selectivity']:.0%} selectivity: grouped "
        f"COUNT {grouped_speedups['count']:.1f}x, SUM "
        f"{grouped_speedups['sum']:.1f}x, AVG {grouped_speedups['avg']:.1f}x "
        f"vs materialise-then-group; top-{config['top_k']} "
        f"{headline['topk_speedup_vs_eager']:.1f}x; executor group-cache hit "
        f"{headline['cached_speedup_grouped_sum']:.0f}x"
    )
    return f"{table}\n{footer}"
