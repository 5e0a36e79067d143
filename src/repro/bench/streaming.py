"""Streaming study — first-page latency vs eager materialisation.

The paper's value proposition is answering queries from the
imprint/cacheline layer without touching more of the column than
necessary; forcing a full ``.ids`` array to serve "first 100 rows"
throws that away.  The streaming pipeline
(:meth:`~repro.index_base.QueryResult.page`,
:meth:`~repro.engine.sharded.ShardedColumnImprints.page`,
:meth:`~repro.engine.executor.QueryExecutor.submit_paged`) expands only
the requested page from the compressed :class:`~repro.core.rowset.RowSet`
— O(page) instead of O(answer).  This study puts a number on the
difference: a selectivity sweep over a clustered column timing, per
point,

* ``eager``          — ``index.query(p).ids`` (kernel + up-front
  false-positive weeding + full O(ids) expansion, the pre-streaming
  way to serve any prefix);
* ``first page``     — ``index.page(p, k)`` (mask kernel + lazy
  materialisation of just the page);
* ``sharded page``   — ``sharded.page(p, k)``: shards evaluated lazily
  in shard order, stopping as soon as the page fills;
* ``executor page``  — ``executor.query_paged(...)`` serving successive
  pages from the versioned LRU without re-running kernels.

First-page latency should be near O(k) — flat across selectivities —
while eager materialisation grows with the answer.  Before timing,
every mode's paged concatenation is verified bit-identical to the
forced ``.ids`` and to a NumPy oracle.  The machine-readable result
lands in ``benchmarks/results/BENCH_streaming.json``.
"""

from __future__ import annotations

import numpy as np

from ..core import ColumnImprints
from ..engine import QueryExecutor, ShardedColumnImprints
from ..predicate import RangePredicate
from ..storage import Column
from .materialization import clustered_sweep
from .runner import best_of
from .studies import stamp
from .tables import format_table

__all__ = [
    "SWEEP_SELECTIVITIES",
    "PAGE_SIZE",
    "streaming_workload",
    "run_streaming_study",
    "render_streaming_study",
]

#: Fractions of the column each sweep point targets (1% – 20%).
SWEEP_SELECTIVITIES = (0.01, 0.05, 0.1, 0.2)

#: Ids per page — the "first 100 rows" shape the acceptance criteria quote.
PAGE_SIZE = 100

DEFAULT_ROWS = 4_000_000
#: The acceptance headline is quoted at this selectivity.
HEADLINE_SELECTIVITY = 0.2


def streaming_workload(
    n_rows: int, seed: int = 0
) -> tuple[Column, dict[float, RangePredicate]]:
    """A clustered column plus one range predicate per sweep point."""
    return clustered_sweep(
        np.random.default_rng(seed), n_rows, SWEEP_SELECTIVITIES,
        "bench.streaming",
    )


def _drain_pages(page_fn) -> np.ndarray:
    """Concatenate a full cursor walk of ``page_fn(cursor) -> (ids, cur)``."""
    chunks, cursor = [], None
    while True:
        ids, cursor = page_fn(cursor)
        chunks.append(ids)
        if cursor is None:
            break
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def run_streaming_study(
    n_rows: int = DEFAULT_ROWS,
    seed: int = 0,
    repeats: int = 7,
    page_size: int = PAGE_SIZE,
    n_shards: int = 4,
    smoke: bool = False,
) -> dict:
    """Sweep selectivities; verify every mode, then time page vs eager.

    Returns a JSON-ready dict with per-point timings and speedups plus
    the 20%-selectivity headline the acceptance criteria quote.
    """
    if smoke:
        n_rows = min(n_rows, 150_000)
        repeats = min(repeats, 3)
    column, predicates = streaming_workload(n_rows, seed=seed)
    serial = ColumnImprints(column)
    sharded = ShardedColumnImprints(column, n_shards=n_shards)
    executor = QueryExecutor({"stream": ColumnImprints(column)})
    serial.query(predicates[SWEEP_SELECTIVITIES[0]])  # warm masks/snapshot

    sweep = []
    try:
        for selectivity, predicate in predicates.items():
            # --- verification (untimed): every paged path concatenates
            # bit-identical to the forced ids and the NumPy oracle.
            oracle = np.flatnonzero(predicate.matches(column.values)).astype(
                np.int64
            )
            forced = serial.query(predicate).ids
            paged_serial = _drain_pages(
                lambda cur, p=predicate: serial.page(p, page_size, cur)
            )
            paged_result = _drain_pages(
                lambda cur, res=serial.query(predicate): res.page(
                    page_size, cur
                )
            )
            paged_sharded = _drain_pages(
                lambda cur, p=predicate: sharded.page(p, page_size, cur)
            )
            chunked_sharded = list(sharded.iter_chunks(predicate, page_size))
            chunked_sharded = (
                np.concatenate(chunked_sharded)
                if chunked_sharded
                else np.empty(0, dtype=np.int64)
            )
            paged_executor = _drain_pages(
                lambda cur, p=predicate: executor.query_paged(
                    "stream", p, page_size, cur
                )
            )
            for name, got in (
                ("forced ids", forced),
                ("serial pages", paged_serial),
                ("result pages", paged_result),
                ("sharded pages", paged_sharded),
                ("sharded chunks", chunked_sharded),
                ("executor pages", paged_executor),
            ):
                if not np.array_equal(got, oracle):
                    raise AssertionError(
                        f"{name} differ from oracle at {selectivity}"
                    )

            # --- timings: each eager / first-page call re-runs the
            # kernel (a fresh result per call); the executor rides its
            # versioned LRU — the serving-cache page shape.
            eager_seconds = best_of(
                repeats, lambda p=predicate: serial.query(p).ids
            )
            first_page_seconds = best_of(
                repeats, lambda p=predicate: serial.page(p, page_size)
            )
            sharded_page_seconds = best_of(
                repeats, lambda p=predicate: sharded.page(p, page_size)
            )
            executor_page_seconds = best_of(
                repeats,
                lambda p=predicate: executor.query_paged(
                    "stream", p, page_size
                ),
            )

            result = serial.query(predicate)
            sweep.append(
                {
                    "selectivity": selectivity,
                    "n_ids": result.count(),
                    "n_ranges": result.row_set.n_ranges,
                    "eager_seconds": eager_seconds,
                    "first_page_seconds": first_page_seconds,
                    "sharded_page_seconds": sharded_page_seconds,
                    "executor_page_seconds": executor_page_seconds,
                    "speedup_first_page_vs_eager": (
                        eager_seconds / first_page_seconds
                        if first_page_seconds > 0
                        else float("inf")
                    ),
                    "speedup_sharded_page_vs_eager": (
                        eager_seconds / sharded_page_seconds
                        if sharded_page_seconds > 0
                        else float("inf")
                    ),
                    "speedup_executor_page_vs_eager": (
                        eager_seconds / executor_page_seconds
                        if executor_page_seconds > 0
                        else float("inf")
                    ),
                }
            )
    finally:
        executor.close()

    headline = next(
        (
            point
            for point in sweep
            if point["selectivity"] == HEADLINE_SELECTIVITY
        ),
        sweep[-1],
    )
    return stamp({
        "experiment": "streaming",
        "config": {
            "n_rows": n_rows,
            "repeats": repeats,
            "page_size": page_size,
            "n_shards": n_shards,
            "selectivities": list(SWEEP_SELECTIVITIES),
        },
        "sweep": sweep,
        "headline": {
            "selectivity": headline["selectivity"],
            "speedup_first_page_vs_eager": headline[
                "speedup_first_page_vs_eager"
            ],
            "speedup_sharded_page_vs_eager": headline[
                "speedup_sharded_page_vs_eager"
            ],
            "speedup_executor_page_vs_eager": headline[
                "speedup_executor_page_vs_eager"
            ],
        },
        "verified_bit_identical": True,
    }, seed, smoke)


def render_streaming_study(result: dict) -> str:
    """The study as an aligned text table."""
    config = result["config"]
    rows = []
    for point in result["sweep"]:
        rows.append(
            [
                f"{point['selectivity']:.0%}",
                point["n_ids"],
                f"{point['eager_seconds'] * 1e3:.3f}",
                f"{point['first_page_seconds'] * 1e3:.3f}",
                f"{point['sharded_page_seconds'] * 1e3:.3f}",
                f"{point['executor_page_seconds'] * 1e3:.3f}",
                f"{point['speedup_first_page_vs_eager']:.1f}x",
                f"{point['speedup_executor_page_vs_eager']:.0f}x",
            ]
        )
    table = format_table(
        headers=[
            "selectivity",
            "ids",
            "eager ms",
            "page ms",
            "sharded ms",
            "executor ms",
            "page spd",
            "exec spd",
        ],
        rows=rows,
        title=(
            f"streaming: first {config['page_size']} ids vs eager "
            f"materialisation, {config['n_rows']:,} rows (best of "
            f"{config['repeats']}; paged output verified bit-identical "
            f"across serial/sharded/executor)"
        ),
    )
    headline = result["headline"]
    footer = (
        f"headline @ {headline['selectivity']:.0%} selectivity: first page "
        f"{headline['speedup_first_page_vs_eager']:.1f}x, lazy sharded "
        f"{headline['speedup_sharded_page_vs_eager']:.1f}x, executor "
        f"cache-served {headline['speedup_executor_page_vs_eager']:.0f}x "
        f"faster than eager ids"
    )
    return f"{table}\n{footer}"
