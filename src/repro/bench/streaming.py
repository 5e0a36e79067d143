"""Streaming study — first-page latency vs eager materialisation.

The paper's value proposition is answering queries from the
imprint/cacheline layer without touching more of the column than
necessary; forcing a full ``.ids`` array to serve "first 100 rows"
throws that away.  ``/page`` serves its first page from the index's
lazy :meth:`~repro.core.index.ColumnImprints.page` (candidate ranges,
then only the page's ids) and every later page from the cached full
answer (:meth:`~repro.index_base.QueryResult.page`, O(page) off the
compressed :class:`~repro.core.rowset.RowSet`), both through
:meth:`~repro.engine.executor.QueryExecutor.submit_paged`.  This study
puts a number on the difference: a selectivity sweep over a clustered
column timing, per point,

* ``eager``          — ``index.query(p).ids`` (kernel + up-front
  false-positive weeding + full O(ids) expansion, the pre-streaming
  way to serve any prefix);
* ``first page``     — ``index.page(p, k)`` (mask kernel + lazy
  materialisation of just the page, no count): ``/page``'s first page;
* ``executor page``  — ``executor.query_paged(...)`` serving a repeated
  first page from the versioned LRU without re-running kernels.

First-page latency should be near O(k) — flat across selectivities —
while eager materialisation grows with the answer.  Before timing,
every served page shape is verified against a NumPy oracle: the index
first page and its cursor token against ``query(p).page(k)``, the
count-carrying ``first_page``, and full cursor walks over the result
and through the executor.  The machine-readable result lands in
``benchmarks/results/BENCH_streaming.json``.
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


def _token(cursor) -> str | None:
    return None if cursor is None else cursor.encode()


def run_streaming_study(
    n_rows: int = DEFAULT_ROWS,
    seed: int = 0,
    repeats: int = 7,
    page_size: int = PAGE_SIZE,
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
    executor = QueryExecutor({"stream": ColumnImprints(column)})
    serial.query(predicates[SWEEP_SELECTIVITIES[0]])  # warm masks/snapshot

    sweep = []
    try:
        for selectivity, predicate in predicates.items():
            # --- verification (untimed): every served page shape equals
            # the NumPy oracle.
            oracle = np.flatnonzero(predicate.matches(column.values)).astype(
                np.int64
            )
            want_ids, want_cursor = serial.query(predicate).page(page_size)
            page_ids, page_cursor = serial.page(predicate, page_size)
            count, first_ids, first_cursor = serial.first_page(
                predicate, page_size
            )
            if not (
                np.array_equal(want_ids, oracle[:page_size])
                and np.array_equal(page_ids, want_ids)
                and np.array_equal(first_ids, want_ids)
                and count == oracle.shape[0]
                and _token(page_cursor)
                == _token(first_cursor)
                == _token(want_cursor)
            ):
                raise AssertionError(
                    f"first pages differ from oracle at {selectivity}"
                )
            paged_result = _drain_pages(
                lambda cur, res=serial.query(predicate): res.page(
                    page_size, cur
                )
            )
            paged_executor = _drain_pages(
                lambda cur, p=predicate: executor.query_paged(
                    "stream", p, page_size, cur
                )
            )
            for name, got in (
                ("forced ids", serial.query(predicate).ids),
                ("result pages", paged_result),
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
                    "executor_page_seconds": executor_page_seconds,
                    "speedup_first_page_vs_eager": (
                        eager_seconds / first_page_seconds
                        if first_page_seconds > 0
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
            "selectivities": list(SWEEP_SELECTIVITIES),
        },
        "sweep": sweep,
        "headline": {
            "selectivity": headline["selectivity"],
            "speedup_first_page_vs_eager": headline[
                "speedup_first_page_vs_eager"
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
            "executor ms",
            "page spd",
            "exec spd",
        ],
        rows=rows,
        title=(
            f"streaming: first {config['page_size']} ids vs eager "
            f"materialisation, {config['n_rows']:,} rows (best of "
            f"{config['repeats']}; served pages verified against the "
            f"oracle)"
        ),
    )
    headline = result["headline"]
    footer = (
        f"headline @ {headline['selectivity']:.0%} selectivity: first page "
        f"{headline['speedup_first_page_vs_eager']:.1f}x, executor "
        f"cache-served {headline['speedup_executor_page_vs_eager']:.0f}x "
        f"faster than eager ids"
    )
    return f"{table}\n{footer}"
