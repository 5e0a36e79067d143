"""Serving-layer load study — open-loop arrival against the HTTP service.

The question this study answers: when traffic arrives at a multiple of
what the admission envelope can absorb, does the service *shed* the
excess (fast 429s, bounded queue, accepted requests still fast) or
*drown* (unbounded queueing, everything slow, nothing accounted for)?

Protocol:

1. build a clustered column, its imprint index and a
   :class:`~repro.engine.executor.QueryExecutor`, and start the real
   HTTP front end (:class:`~repro.serving.http.ServingHTTPServer`) on a
   loopback socket — requests traverse the full stack: socket → parser
   → admission → deadline → engine → JSON;
2. calibrate: a few sequential requests measure the mean service time,
   from which the service's saturation rate is estimated
   (``max_inflight / mean_service_time``);
3. fire ``n_requests`` at ``rate_multiplier``× that rate **open-loop**
   (arrivals are scheduled by the clock, not by completions — exactly
   how overload arrives in production), every request carrying the same
   deadline budget;
4. classify every response: 200 → served (and its answer ``count`` is
   checked against a pre-computed oracle; a served answer must be
   *correct*, degraded or not), 429 → rejected, 504 → timed out.
   **Accounting must balance**: served + rejected + timed-out + errors
   = issued, the "no request is ever silently dropped" invariant;
5. report client-observed p50/p95/p99 of accepted requests, rejection
   latency, degradation counts and the service's own counters.

The machine-readable result lands in
``benchmarks/results/BENCH_serving.json`` and is gated by
its gate row in :mod:`repro.bench.studies`.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from .studies import stamp

__all__ = [
    "DEFAULT_ROWS",
    "DEFAULT_REQUESTS",
    "RATE_MULTIPLIER",
    "run_serving_study",
    "render_serving_study",
]

DEFAULT_ROWS = 1_000_000
DEFAULT_REQUESTS = 400
#: Open-loop arrival rate as a multiple of estimated capacity.
RATE_MULTIPLIER = 4.0
#: Sequential requests used to estimate the service rate.
_CALIBRATION_REQUESTS = 12


def _predicate_pool(values: np.ndarray, rng: np.random.Generator, size: int):
    """Mixed-selectivity ``(low, high)`` bounds with realistic repetition."""
    quantiles = rng.uniform(0.05, 0.95, size=(size, 1))
    widths = rng.choice([0.001, 0.01, 0.05, 0.15], size=(size, 1))
    bounds = np.quantile(values, np.clip(
        np.hstack([quantiles, quantiles + widths]), 0.0, 1.0
    ))
    # bounds comes back as (size, 2) pairs along the last axis
    return [(int(lo), int(hi)) for lo, hi in bounds]


def _percentiles(samples: list[float]) -> dict:
    if not samples:
        return {"p50": None, "p95": None, "p99": None, "mean": None}
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "p50": round(float(np.percentile(arr, 50)), 3),
        "p95": round(float(np.percentile(arr, 95)), 3),
        "p99": round(float(np.percentile(arr, 99)), 3),
        "mean": round(float(arr.mean()), 3),
    }


async def _drive_open_loop(
    service,
    server,
    pool,
    oracle_counts,
    n_requests: int,
    rate_multiplier: float,
    timeout_s: float,
) -> dict:
    from ..serving.client import ServingClient

    client = ServingClient(*server.address)

    # -- calibration: sequential requests, closed loop ------------------
    calibration: list[float] = []
    for k in range(_CALIBRATION_REQUESTS):
        low, high = pool[k % len(pool)]
        started = time.perf_counter()
        response = await client.query(
            "serve", low, high, timeout_ms=timeout_s * 1000, retry=False
        )
        calibration.append(time.perf_counter() - started)
        assert response.status == 200, response.body
    mean_service = max(float(np.mean(calibration)), 1e-4)
    capacity_rate = service.config.max_inflight / mean_service
    arrival_rate = rate_multiplier * capacity_rate
    interval = 1.0 / arrival_rate

    # -- the open-loop run ---------------------------------------------
    outcomes: list[dict] = []

    async def one_request(i: int, delay: float) -> None:
        await asyncio.sleep(delay)
        low, high = pool[i % len(pool)]
        started = time.perf_counter()
        try:
            response = await client.query(
                "serve", low, high, timeout_ms=timeout_s * 1000, retry=False
            )
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            outcomes.append({
                "status": -1, "latency": time.perf_counter() - started,
                "error": type(exc).__name__,
            })
            return
        latency = time.perf_counter() - started
        record = {"status": response.status, "latency": latency}
        if response.status == 200:
            record["count"] = response.body.get("count")
            record["served_as"] = response.body.get("served_as")
            record["count_ok"] = (
                response.body.get("count") == oracle_counts[i % len(pool)]
            )
            ids = response.body.get("ids")
            if ids and response.body.get("served_as") == "full":
                record["count_ok"] = (
                    record["count_ok"] and len(ids) == record["count"]
                )
        outcomes.append(record)

    tasks = [
        asyncio.create_task(one_request(i, i * interval))
        for i in range(n_requests)
    ]
    # Generous overall guard: if this trips, something deadlocked — the
    # study reports completed=False and the regression gate fails.
    guard = n_requests * interval + 20.0 * timeout_s + 10.0
    done, pending = await asyncio.wait(tasks, timeout=guard)
    completed = not pending
    for task in pending:
        task.cancel()

    served = [o for o in outcomes if o["status"] == 200]
    rejected = [o for o in outcomes if o["status"] == 429]
    timed_out = [o for o in outcomes if o["status"] == 504]
    errors = [
        o for o in outcomes if o["status"] not in (200, 429, 504)
    ]
    return {
        "calibration": {
            "mean_service_ms": round(mean_service * 1e3, 3),
            "estimated_capacity_rps": round(capacity_rate, 1),
            "arrival_rate_rps": round(arrival_rate, 1),
        },
        "issued": len(tasks),
        "resolved": len(outcomes),
        "served": len(served),
        "rejected": len(rejected),
        "timed_out": len(timed_out),
        "errors": len(errors),
        "error_statuses": sorted({o["status"] for o in errors}),
        "completed": completed,
        "accounting_balanced": (
            completed
            and len(served) + len(rejected) + len(timed_out) + len(errors)
            == len(tasks)
        ),
        "verified_counts": bool(served)
        and all(o.get("count_ok") for o in served),
        "served_degraded": sum(
            1 for o in served if o.get("served_as") == "page"
        ),
        "served_count_only": sum(
            1 for o in served if o.get("served_as") == "count"
        ),
        "served_full": sum(1 for o in served if o.get("served_as") == "full"),
        "latency_ms": _percentiles([o["latency"] * 1e3 for o in served]),
        "reject_latency_ms": _percentiles(
            [o["latency"] * 1e3 for o in rejected]
        ),
    }


def run_serving_study(
    n_rows: int = DEFAULT_ROWS,
    n_requests: int = DEFAULT_REQUESTS,
    max_inflight: int = 4,
    max_waiting: int = 8,
    rate_multiplier: float = RATE_MULTIPLIER,
    timeout_s: float = 2.0,
    seed: int = 0,
    smoke: bool = False,
) -> dict:
    """Run the open-loop load study; returns the JSON-able result."""
    from ..core import ColumnImprints
    from ..engine.executor import QueryExecutor
    from ..serving.http import ServingHTTPServer
    from ..serving.service import ImprintService, ServingConfig
    from ..storage import Column

    if smoke:
        n_rows = min(n_rows, 100_000)
        n_requests = min(n_requests, 120)

    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.normal(0.0, 25.0, n_rows)) + 50_000.0
    column = Column(walk.astype(np.int32), name="serve")
    index = ColumnImprints(column)
    pool = _predicate_pool(column.values, rng, size=64)

    # The oracle: what each pooled predicate must count, computed
    # directly against the index before any serving traffic.
    oracle_counts = [
        int(index.query_range(low, high).count()) for low, high in pool
    ]

    async def study() -> dict:
        executor = QueryExecutor({"serve": index}, max_batch=32)
        service = ImprintService(
            executor,
            ServingConfig(
                max_inflight=max_inflight,
                max_waiting=max_waiting,
                default_timeout=timeout_s,
                max_timeout=max(timeout_s, 30.0),
            ),
        )
        try:
            async with ServingHTTPServer(service) as server:
                numbers = await _drive_open_loop(
                    service, server, pool, oracle_counts,
                    n_requests, rate_multiplier, timeout_s,
                )
                numbers["service_stats"] = service.stats_payload()
                return numbers
        finally:
            await service.close()

    numbers = asyncio.run(study())
    return stamp({
        "study": "serving",
        "config": {
            "n_rows": n_rows,
            "n_requests": n_requests,
            "max_inflight": max_inflight,
            "max_waiting": max_waiting,
            "rate_multiplier": rate_multiplier,
            "timeout_ms": timeout_s * 1000,
        },
        **numbers,
    }, seed, smoke)


def render_serving_study(result: dict) -> str:
    """Human-readable summary of one study result."""
    from .tables import format_table

    config = result["config"]
    calibration = result["calibration"]
    latency = result["latency_ms"]
    reject = result["reject_latency_ms"]
    rows = [
        ["issued", result["issued"], ""],
        ["served", result["served"],
         f"full={result['served_full']} degraded={result['served_degraded']} "
         f"count-only={result['served_count_only']}"],
        ["fast-rejected (429)", result["rejected"],
         f"p95 {reject['p95']} ms" if reject["p95"] is not None else ""],
        ["timed out (504)", result["timed_out"], ""],
        ["errors", result["errors"], str(result["error_statuses"] or "")],
        ["accounting balances", result["accounting_balanced"], ""],
        ["counts verified", result["verified_counts"], ""],
        ["accepted p50/p95/p99 ms",
         f"{latency['p50']}/{latency['p95']}/{latency['p99']}", ""],
    ]
    return format_table(
        headers=["metric", "value", "detail"],
        rows=rows,
        title=(
            f"open-loop serving study: {config['n_requests']} requests at "
            f"{config['rate_multiplier']}x capacity "
            f"({calibration['arrival_rate_rps']} rps vs "
            f"{calibration['estimated_capacity_rps']} rps), "
            f"{config['max_inflight']} in flight / "
            f"{config['max_waiting']} waiting"
        ),
    )
