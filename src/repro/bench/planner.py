"""Planner study — does self-tuning access-path choice actually pay?

The paper's Section 6.3 cost-model observation (unselective selections
should fall back to a sequential scan) becomes a live claim once the
:class:`~repro.engine.planner.QueryPlanner` routes executor batches.
This study measures it on a mixed stream over two columns chosen so no
single static backend wins everywhere:

* ``clustered`` — a random-walk column where selective range predicates
  touch a handful of cachelines: imprints (and zonemaps) crush a scan;
* ``random``   — an unclustered column where wide predicates make every
  cacheline a partial candidate: the per-line weeding bill exceeds one
  vectorised pass, and the scan wins.

Modes, per segment of the stream:

* ``static:<kind>``  — every query forced through one backend (the
  ``static:imprints`` row is the pre-planner state of the art);
* ``planner``        — the self-tuning planner, free to route per
  predicate, after one untimed warm-up pass (its observation budget).

Every answer of every mode is verified bit-identical against the serial
imprints oracle before any number is reported — plan choice must never
change answers.  The headline invariants the regression gate enforces
on full-size runs: the planner lands within 10% of the best static
backend on *every* segment, and beats ``static:imprints`` outright on
the low-selectivity (wide, unclustered) segment.
"""

from __future__ import annotations

import time

import numpy as np

from ..core import ColumnImprints
from ..engine import MultiBackendIndex, QueryExecutor, QueryPlanner
from ..predicate import RangePredicate
from ..storage import Column
from .studies import stamp
from .tables import format_table

__all__ = [
    "SEGMENTS",
    "planner_workload",
    "run_planner_study",
    "render_planner_study",
]

#: (segment name, column name, target selectivity, relative weight).
#: Weights size each segment's query count off ``queries_per_segment``
#: so the cheap-query segments accumulate enough wall clock to measure.
SEGMENTS = (
    ("clustered-selective", "clustered", 0.0005, 3.0),
    ("clustered-moderate", "clustered", 0.02, 1.0),
    ("random-unselective", "random", 0.35, 0.5),
)

#: Full-size workload the committed baseline is quoted against.
DEFAULT_ROWS = 400_000
DEFAULT_QUERIES_PER_SEGMENT = 64


def planner_workload(
    n_rows: int,
    queries_per_segment: int = DEFAULT_QUERIES_PER_SEGMENT,
    seed: int = 0,
) -> tuple[dict[str, Column], list[tuple[str, str, list[RangePredicate]]]]:
    """Two columns plus per-segment predicate lists (all distinct).

    Predicates are distinct within each segment so the executor's result
    cache cannot answer for the kernels — the study measures access
    paths, not cache hits.
    """
    rng = np.random.default_rng(seed)
    clustered = (np.cumsum(rng.normal(0.0, 30.0, n_rows)) + 50_000.0).astype(
        np.int32
    )
    random_values = rng.integers(0, 100_000, size=n_rows).astype(np.int32)
    columns = {
        "clustered": Column(clustered, name="bench.planner.clustered"),
        "random": Column(random_values, name="bench.planner.random"),
    }
    sorted_values = {
        name: np.sort(column.values) for name, column in columns.items()
    }

    segments: list[tuple[str, str, list[RangePredicate]]] = []
    for segment, column_name, selectivity, weight in SEGMENTS:
        column = columns[column_name]
        ordered = sorted_values[column_name]
        width = max(1, int(selectivity * n_rows))
        n_queries = max(8, int(queries_per_segment * weight))
        positions = rng.integers(0, max(1, n_rows - width), n_queries)
        predicates = []
        for i, position in enumerate(positions):
            low = int(ordered[position])
            high = int(ordered[min(position + width, n_rows - 1)])
            # Nudge by the draw index so every predicate is distinct
            # even when two positions collide — cache-proofing.
            predicates.append(
                RangePredicate.range(
                    low, max(high, low + 1) + (i % 2), column.ctype
                )
            )
        segments.append((segment, column_name, predicates))
    return columns, segments


def _build_executor(
    columns: dict[str, Column],
) -> tuple[QueryExecutor, QueryPlanner]:
    indexes = {
        name: MultiBackendIndex.for_column(column)
        for name, column in columns.items()
    }
    planner = QueryPlanner()
    executor = QueryExecutor(indexes, planner=planner, cache_size=64)
    return executor, planner


def run_planner_study(
    n_rows: int = DEFAULT_ROWS,
    queries_per_segment: int = DEFAULT_QUERIES_PER_SEGMENT,
    seed: int = 0,
    smoke: bool = False,
) -> dict:
    """Verify all modes bit-identical, then time them per segment.

    The planner executor gets one untimed pass over the whole stream
    first — its observation budget, the analogue of the warm structures
    every mode shares.  Static executors carry a planner too (forced
    choices still price and observe), so the per-query planning overhead
    is identical across modes and the comparison isolates the access
    path.  Returns a JSON-ready dict.
    """
    if smoke:
        n_rows = min(n_rows, 80_000)
        queries_per_segment = min(queries_per_segment, 16)
    columns, segments = planner_workload(
        n_rows, queries_per_segment=queries_per_segment, seed=seed
    )

    # The differential oracle: serial imprints per column.
    oracles = {
        name: ColumnImprints(column) for name, column in columns.items()
    }
    expected = {
        segment: [oracles[column_name].query(p).ids for p in predicates]
        for segment, column_name, predicates in segments
    }

    planner_executor, planner = _build_executor(columns)
    # One static mode per backend of the planner's own backend set.
    kinds = tuple(planner_executor.index(next(iter(columns))).backends)
    static_executors = {}
    for kind in kinds:
        executor, static_planner = _build_executor(columns)
        for name in columns:
            static_planner.force(name, kind)
        static_executors[kind] = executor

    def run_segment(executor: QueryExecutor, segment_index: int) -> float:
        segment, column_name, predicates = segments[segment_index]
        executor.clear_cache()
        started = time.perf_counter()
        for future in executor.submit_many(column_name, predicates):
            future.result()
        return time.perf_counter() - started

    try:
        # --- verification pass (untimed): every mode, every predicate,
        # bit-identical ids against the serial imprints oracle.
        verified = True
        for kind, executor in static_executors.items():
            for segment, column_name, predicates in segments:
                answers = executor.map(column_name, predicates)
                for want, got in zip(expected[segment], answers):
                    if not np.array_equal(want, got.ids):
                        raise AssertionError(
                            f"static:{kind} answer differs from the imprints "
                            f"oracle on segment {segment!r}"
                        )
        # The planner's verification doubles as its warm-up, run
        # *sequentially* (one query per batch) so each decision sees the
        # previous one's observation: a whole-segment batch would price
        # all its same-shape predicates before a single wall-clock
        # measurement lands, and exploration would advance one backend
        # per pass instead of converging within the warm-up.
        for segment, column_name, predicates in segments:
            for want, predicate in zip(expected[segment], predicates):
                got = planner_executor.query(column_name, predicate)
                if not np.array_equal(want, got.ids):
                    raise AssertionError(
                        f"planner answer differs from the imprints oracle "
                        f"on segment {segment!r}"
                    )

        # --- timed per-segment passes, best of N with the modes
        # *interleaved* within each round: thermal drift, allocator
        # state and scheduler load change over the run's minutes, and
        # timing one mode's repeats back-to-back would hand whichever
        # mode runs in the quiet window an unearned win.  Cache cleared
        # before each pass; all predicates distinct within a pass, so
        # the kernels do real work every time.
        repeats = 1 if smoke else 4
        segment_rows: dict[str, dict] = {}
        for i, (segment, column_name, predicates) in enumerate(segments):
            static_seconds = {kind: float("inf") for kind in static_executors}
            planner_seconds = float("inf")
            for _ in range(repeats):
                for kind, executor in static_executors.items():
                    static_seconds[kind] = min(
                        static_seconds[kind], run_segment(executor, i)
                    )
                planner_seconds = min(
                    planner_seconds, run_segment(planner_executor, i)
                )
            best_kind = min(static_seconds, key=static_seconds.get)
            segment_rows[segment] = {
                "column": column_name,
                "n_queries": len(predicates),
                "static_seconds": static_seconds,
                "planner_seconds": planner_seconds,
                "best_static": best_kind,
                "best_static_seconds": static_seconds[best_kind],
                "planner_vs_best_static": (
                    planner_seconds / static_seconds[best_kind]
                    if static_seconds[best_kind] > 0
                    else 0.0
                ),
                "speedup_vs_imprints": (
                    static_seconds["imprints"] / planner_seconds
                    if planner_seconds > 0
                    else float("inf")
                ),
            }
    finally:
        for executor in static_executors.values():
            executor.close()
        planner_executor.close()

    low_selectivity = "random-unselective"
    return stamp({
        "experiment": "planner",
        "config": {
            "n_rows": n_rows,
            "queries_per_segment": queries_per_segment,
            "backends": list(kinds),
            "segments": [
                {"name": name, "column": col, "selectivity": sel}
                for name, col, sel, _ in SEGMENTS
            ],
        },
        "segments": segment_rows,
        "headline": {
            "max_planner_vs_best_static": max(
                row["planner_vs_best_static"] for row in segment_rows.values()
            ),
            "low_selectivity_speedup_vs_imprints": segment_rows[
                low_selectivity
            ]["speedup_vs_imprints"],
            "low_selectivity_segment": low_selectivity,
        },
        "planner": planner.stats_payload(),
        "verified_bit_identical": verified,
    }, seed, smoke)


def render_planner_study(result: dict) -> str:
    """The study as an aligned text table."""
    config = result["config"]
    rows = []
    for segment, numbers in result["segments"].items():
        static = numbers["static_seconds"]
        rows.append(
            [
                segment,
                numbers["n_queries"],
                *[f"{static[kind] * 1e3:.1f}" for kind in config["backends"]],
                f"{numbers['planner_seconds'] * 1e3:.1f}",
                numbers["best_static"],
                f"{numbers['planner_vs_best_static']:.2f}x",
                f"{numbers['speedup_vs_imprints']:.2f}x",
            ]
        )
    headline = result["headline"]
    table = format_table(
        headers=[
            "segment",
            "queries",
            *[f"{kind} ms" for kind in config["backends"]],
            "planner ms",
            "best",
            "vs best",
            "vs imprints",
        ],
        rows=rows,
        title=(
            f"Self-tuning planner vs static backends "
            f"({config['n_rows']:,} rows/column, "
            f"verified bit-identical: {result['verified_bit_identical']})"
        ),
    )
    return (
        f"{table}\n"
        f"planner within {headline['max_planner_vs_best_static']:.2f}x of "
        f"the best static backend on every segment; "
        f"{headline['low_selectivity_speedup_vs_imprints']:.2f}x over "
        f"always-imprints on the low-selectivity segment\n"
        f"plans: {result['planner']['plans']}"
    )
