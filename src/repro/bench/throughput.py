"""Serving-throughput study — the execution engine's headline number.

The paper evaluates single-query latency; a serving system is judged on
*queries per second* under concurrent, repetitive traffic.  This study
replays a mixed-selectivity predicate stream (a pool of distinct
range predicates sampled with a hot set, the shape of dashboard and
templated-query traffic) through three execution modes over the same
column:

* ``serial``   — per-query :meth:`ColumnImprints.query` calls, the
  PR-1 state of the art and the baseline;
* ``sharded``  — per-query :class:`ShardedColumnImprints` evaluation,
  the guard that the shard class never answers slower than serial;
* ``executor`` — the full serving stack: :class:`QueryExecutor`
  micro-batching the stream into shared ``query_batch`` passes over the
  sharded index, coalescing duplicate in-flight predicates and caching
  hot results in the version-keyed LRU.

Every answer of every mode is verified bit-identical (ids and stats)
against the serial baseline before any number is reported.
"""

from __future__ import annotations

import time

import numpy as np

from ..core import ColumnImprints
from ..engine import QueryExecutor, ShardedColumnImprints
from ..predicate import RangePredicate
from ..storage import Column
from .studies import stamp
from .tables import format_table

__all__ = [
    "throughput_workload",
    "run_throughput_study",
    "render_throughput_study",
]

#: Target selectivities mixed into the predicate pool (fraction of rows).
SELECTIVITIES = (0.0005, 0.005, 0.02, 0.1)

#: Full-size workload the headline numbers are quoted against.
DEFAULT_ROWS = 2_000_000
DEFAULT_QUERIES = 1536


def throughput_workload(
    n_rows: int,
    n_queries: int = 1536,
    pool_size: int = 256,
    hot_size: int = 16,
    hot_fraction: float = 0.85,
    seed: int = 0,
) -> tuple[Column, list[RangePredicate]]:
    """A clustered column plus a repetitive mixed-selectivity stream.

    The pool holds ``pool_size`` distinct predicates spread evenly over
    :data:`SELECTIVITIES`; the stream of ``n_queries`` draws from a
    ``hot_size``-wide hot set with probability ``hot_fraction`` and
    uniformly from the whole pool otherwise — the skew serving-layer
    caches exist for, while the cold tail keeps the kernels honest.
    """
    rng = np.random.default_rng(seed)
    values = (np.cumsum(rng.normal(0.0, 30.0, n_rows)) + 50_000.0).astype(
        np.int32
    )
    column = Column(values, name="bench.throughput")
    sorted_values = np.sort(values)

    pool: list[RangePredicate] = []
    per_class = -(-pool_size // len(SELECTIVITIES))
    for selectivity in SELECTIVITIES:
        width = max(1, int(selectivity * n_rows))
        positions = rng.integers(0, max(1, n_rows - width), per_class)
        for position in positions:
            low = int(sorted_values[position])
            high = int(sorted_values[min(position + width, n_rows - 1)])
            pool.append(
                RangePredicate.range(low, max(high, low + 1), column.ctype)
            )
    pool = pool[:pool_size]

    hot = rng.choice(len(pool), size=min(hot_size, len(pool)), replace=False)
    stream = [
        pool[int(rng.choice(hot))]
        if rng.random() < hot_fraction
        else pool[int(rng.integers(0, len(pool)))]
        for _ in range(n_queries)
    ]
    return column, stream


def _verify(reference, results, mode: str) -> None:
    for i, (expected, got) in enumerate(zip(reference, results)):
        if not np.array_equal(expected.ids, got.ids):
            raise AssertionError(
                f"{mode} answer #{i} differs from serial: "
                f"{got.n_ids} ids vs {expected.n_ids}"
            )
        if expected.stats != got.stats:
            raise AssertionError(
                f"{mode} stats #{i} differ from serial: "
                f"{got.stats} vs {expected.stats}"
            )


def run_throughput_study(
    n_rows: int = DEFAULT_ROWS,
    n_shards: int = 4,
    n_workers: int = 4,
    n_queries: int = DEFAULT_QUERIES,
    seed: int = 0,
    smoke: bool = False,
) -> dict:
    """Replay the stream through all three modes; verify, then time.

    An untimed verification pass first proves every mode bit-identical
    to the serial baseline (ids *and* stats) and warms the one-time
    structures every mode shares (imprint snapshot, cached run
    boundaries, masks, column pages).  The executor's *result* cache is
    then cleared, so the timed window measures the serving architecture
    doing real work: hot predicates are answered from cache only after
    the engine computed them once inside the window, the cold tail
    keeps hitting the batched kernels, and duplicate in-flight
    submissions coalesce.  ``smoke`` shrinks the workload for CI
    wall-clock budgets while exercising every code path.  Returns a
    JSON-ready dict.
    """
    if smoke:
        n_rows = min(n_rows, 150_000)
        n_queries = min(n_queries, 240)
    column, stream = throughput_workload(n_rows, n_queries=n_queries, seed=seed)

    serial_index = ColumnImprints(column)
    sharded_index = ShardedColumnImprints(column, n_shards=n_shards)
    engine_index = ShardedColumnImprints(column, n_shards=n_shards)
    executor = QueryExecutor(
        {"c": engine_index},
        max_batch=128,
        cache_size=1024,
        n_workers=n_workers,
    )
    with executor:
        # --- verification pass (untimed): every mode, every predicate,
        # bit-identical ids *and* stats against the serial baseline.
        reference = [serial_index.query(predicate) for predicate in stream]
        _verify(reference, [sharded_index.query(p) for p in stream], "sharded")
        _verify(reference, executor.map("c", stream), "executor")
        del reference

        # --- timed serving loops, identical warm structures, cold
        # result cache.
        started = time.perf_counter()
        for predicate in stream:
            serial_index.query(predicate)
        serial_seconds = time.perf_counter() - started

        started = time.perf_counter()
        for predicate in stream:
            sharded_index.query(predicate)
        sharded_seconds = time.perf_counter() - started

        executor.clear_cache()
        executor.stats.reset()
        started = time.perf_counter()
        for future in executor.submit_many("c", stream):
            future.result()
        executor_seconds = time.perf_counter() - started
        executor_stats = executor.stats
        coalesced = executor_stats.coalesced
        cache_hits = executor_stats.cache_hits
        kernel_queries = executor_stats.batched_queries
        batches = executor_stats.batches

    def mode(seconds: float) -> dict:
        return {
            "seconds": seconds,
            "qps": n_queries / seconds if seconds > 0 else float("inf"),
            "speedup_vs_serial": serial_seconds / seconds if seconds > 0 else 0.0,
        }

    return stamp({
        "experiment": "throughput",
        "config": {
            "n_rows": n_rows,
            "n_queries": n_queries,
            "n_shards": n_shards,
            "n_workers": n_workers,
            "selectivities": list(SELECTIVITIES),
        },
        "modes": {
            "serial": mode(serial_seconds),
            "sharded": mode(sharded_seconds),
            "executor": {
                **mode(executor_seconds),
                "coalesced": coalesced,
                "cache_hits": cache_hits,
                "kernel_queries": kernel_queries,
                "batches": batches,
            },
        },
        "verified_bit_identical": True,
    }, seed, smoke)


def render_throughput_study(result: dict) -> str:
    """The study as an aligned text table."""
    config = result["config"]
    rows = []
    for name, numbers in result["modes"].items():
        rows.append(
            [
                name,
                numbers["seconds"],
                numbers["qps"],
                f"{numbers['speedup_vs_serial']:.2f}x",
            ]
        )
    table = format_table(
        headers=["mode", "seconds", "queries/s", "vs serial"],
        rows=rows,
        title=(
            f"serving throughput: {config['n_rows']:,} rows, "
            f"{config['n_queries']} queries, "
            f"{config['n_shards']} shards, "
            f"{config['n_workers']} executor workers "
            f"(answers verified bit-identical)"
        ),
    )
    executor = result["modes"]["executor"]
    footer = (
        f"executor: {executor['kernel_queries']} kernel evaluations in "
        f"{executor['batches']} shared passes, "
        f"{executor['coalesced']} coalesced, "
        f"{executor['cache_hits']} cache hits"
    )
    return f"{table}\n{footer}"
