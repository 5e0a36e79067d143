"""The metric catalogue and the statistics every workload shares.

Every metric the benchmark prints is declared here once: its unit,
which direction is better, and the layer it belongs to.  A per-layer
metric also names the end-to-end metric it should move and on which
workloads, so a later performance change can state its prediction in
these terms before it is measured.
"""

from __future__ import annotations

import math

#: name -> (unit, better, layer, workloads it is measured on)
END_TO_END = {
    "ops_per_s": ("1/s", "higher", "end-to-end", "lookup dashboard ingest"),
    "read_p50_ms": ("ms", "lower", "end-to-end", "lookup dashboard ingest"),
    "read_p99_ms": ("ms", "lower", "end-to-end", "lookup dashboard ingest"),
    "write_p50_ms": ("ms", "lower", "end-to-end", "ingest"),
    "write_p99_ms": ("ms", "lower", "end-to-end", "ingest"),
    "error_rate": ("ratio", "lower", "end-to-end", "lookup dashboard ingest"),
    "setup_s": ("s", "lower", "end-to-end", "lookup dashboard ingest"),
    "peak_rss_mb": ("MB", "lower", "end-to-end", "lookup dashboard ingest"),
    "space_amplification": ("ratio", "lower", "end-to-end", "ingest"),
}

#: name -> (unit, better, layer, "metric it should move on workloads")
PER_LAYER = {
    "serving.http.self_ms": ("ms", "lower", "serving.http",
        "read_p50_ms on lookup; near-constant on dashboard"),
    "serving.http.response_bytes": ("bytes", "lower", "serving.http",
        "read_p50_ms on lookup; near-constant on dashboard"),
    "serving.admission.wait_ms": ("ms", "lower", "serving.admission",
        "predicted ~0 everywhere (2 callers, 8 slots)"),
    "serving.service.self_ms": ("ms", "lower", "serving.service",
        "read_p50_ms on lookup and dashboard"),
    "engine.executor.wait_ms": ("ms", "lower", "engine.executor",
        "read_p50_ms on lookup and ingest; absent on dashboard"),
    "engine.executor.batch_size": ("count", "higher", "engine.executor",
        "read_p50_ms on lookup and ingest; absent on dashboard"),
    "engine.executor.expired": ("count", "lower", "engine.executor",
        "read_p50_ms on lookup and ingest; absent on dashboard"),
    "engine.cache.hit_ratio": ("ratio", "higher", "engine.cache",
        "ops_per_s on dashboard; ~0 on lookup; invalidation on ingest"),
    "engine.cache.evictions": ("count", "lower", "engine.cache",
        "ops_per_s on dashboard; ~0 on lookup; invalidation on ingest"),
    "engine.planner.choose_us": ("us", "lower", "engine.planner",
        "ops_per_s and read_p99_ms on lookup"),
    **{f"engine.planner.share.{kind}": ("ratio", better, "engine.planner",
        "ops_per_s and read_p99_ms on lookup")
       for kind, better in (("imprints", "higher"), ("zonemap", "lower"),
                            ("scan", "lower"), ("wah", "lower"))},
    **{f"engine.planner.bytes_per_row.{kind}": ("bytes", "lower",
        "engine.planner", "setup_s and peak_rss_mb on lookup")
       for kind in ("imprints", "zonemap", "scan", "wah")},
    "core.index.query_ms": ("ms", "lower", "core.index",
        "read_p99_ms on lookup"),
    **{f"indexes.{kind}.query_ms": ("ms", "lower", f"indexes.{kind}",
        "read_p99_ms on lookup") for kind in ("zonemap", "scan", "wah")},
    "core.query.value_checks_per_id": ("count", "lower", "core.query",
        "read_p99_ms on lookup"),
    "core.query.cachelines_per_id": ("count", "lower", "core.query",
        "read_p99_ms on lookup"),
    "core.rowset.ids_ms": ("ms", "lower", "core.rowset",
        "read_p50_ms on lookup"),
    "core.rowset.page_ms": ("ms", "lower", "core.rowset",
        "read_p50_ms on lookup"),
    "core.aggregates.ms": ("ms", "lower", "core.aggregates",
        "read_p99_ms on dashboard"),
    "core.aggregates.bytes_per_row": ("bytes", "lower", "core.aggregates",
        "peak_rss_mb on dashboard"),
    "core.delta_index.query_ms": ("ms", "lower", "core.delta_index",
        "read_p50_ms and read_p99_ms on ingest"),
    "core.delta_index.pending_rows": ("count", "lower", "core.delta_index",
        "read_p50_ms and read_p99_ms on ingest"),
    "storage.wal.fsyncs_per_write": ("count", "lower", "storage.durability",
        "write_p50_ms and write_p99_ms on ingest"),
    "storage.wal.fsync_ms": ("ms", "lower", "storage.durability",
        "write_p50_ms and write_p99_ms on ingest"),
    "storage.write_amplification": ("ratio", "lower", "storage.durability",
        "write_p50_ms and write_p99_ms on ingest"),
    "storage.checkpoint.count": ("count", "lower", "storage.durability",
        "write_p99_ms on ingest"),
    "storage.checkpoint.ms": ("ms", "lower", "storage.durability",
        "write_p99_ms on ingest"),
    "storage.recovery.verify_ms": ("ms", "lower", "storage.durability",
        "setup_s on ingest"),
    "storage.recovery.replay_us_per_record": ("us", "lower",
        "storage.durability", "setup_s on ingest"),
    **{f"sim.cost.predicted_over_measured.{kind}": ("ratio", "higher",
        "sim.cost", "nothing itself; explains kernel time on lookup")
       for kind in ("imprints", "zonemap", "scan", "wah")},
    "trace.overhead": ("ratio", "lower", "benchmark",
        "untraced ops_per_s over traced ops_per_s; nothing else"),
}

#: The end-to-end metrics ``BENCHMARK.json`` declares.  ``error_rate``
#: is 0 on ``lookup`` and ``dashboard`` and reaches the result line as
#: ``failed``/``attempted``; the ingest-only metrics ride with
#: ``ingest``, which is not a declared workload (see ``catalog.json``).
DECLARED_END_TO_END = ("ops_per_s", "read_p50_ms", "read_p99_ms",
                       "setup_s", "peak_rss_mb")


def reported_end_to_end(workload: str) -> tuple:
    return tuple(END_TO_END) if workload == "ingest" else DECLARED_END_TO_END


#: Per-layer metrics that exist only where their layer runs.
ONLY_ON = {
    "lookup": ("engine.planner.", "indexes.", "sim.cost.predicted_over_"
               "measured.zonemap", "sim.cost.predicted_over_measured.scan",
               "sim.cost.predicted_over_measured.wah"),
    "dashboard": ("core.aggregates.",),
    "ingest": ("core.delta_index.", "storage."),
    "http": ("serving.",),
}


def absent_reason(workload: str, name: str) -> str | None:
    """Why ``name`` cannot be measured on ``workload`` (None if it can)."""
    for where, prefixes in ONLY_ON.items():
        if name.startswith(prefixes):
            if where == "http" and workload in ("lookup", "dashboard"):
                return None
            if where == workload:
                return None
            return {
                "http": "ingest calls the executor in-process, no HTTP",
                "lookup": "only lookup routes through the planner",
                "dashboard": "only dashboard builds the aggregate sidecars",
                "ingest": "only ingest runs the durable store",
            }[where]
    if workload == "dashboard" and name.startswith(
        ("engine.executor.", "core.index.", "core.query.", "core.rowset.",
         "sim.cost.")
    ):
        return "dashboard requests never reach the batcher or id kernels"
    return None


def percentile(latencies: list[float], q: float) -> float:
    """Nearest-rank percentile; a failed operation is ``inf`` and so
    sorts above every success."""
    if not latencies:
        return math.inf
    ordered = sorted(latencies)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


#: Each sub-window must hold enough samples for a p99 with ten beyond it.
MIN_SUBWINDOW_SAMPLES = 1000
MAX_SUBWINDOWS = 10


def subwindow_medians(windows) -> dict:
    """Throughput and latency percentiles as medians over sub-windows.

    ``windows`` are ``(samples, start, end)`` timed windows, each sample
    ``(completion time, latency ms, ok)``; a failed operation has
    latency ``inf``.  Each window is cut into equal sub-windows of at
    least ``MIN_SUBWINDOW_SAMPLES`` operations (one if there are too
    few), and each figure is the median of its per-sub-window values,
    so a burst of interference from outside the program moves one
    sub-window, not the result.
    """
    rates, p50s, p99s = [], [], []
    for samples, start, end in windows:
        count = max(1, min(MAX_SUBWINDOWS,
                           len(samples) // MIN_SUBWINDOW_SAMPLES))
        width = (end - start) / count
        parts: list[list] = [[] for _ in range(count)]
        for done, latency, ok in samples:
            slot = min(count - 1, max(0, int((done - start) / width)))
            parts[slot].append((latency, ok))
        for part in parts:
            latencies = [latency for latency, _ok in part]
            rates.append(sum(ok for _latency, ok in part) / width)
            p50s.append(percentile(latencies, 50))
            p99s.append(percentile(latencies, 99))
    return {"ops_per_s": median(rates), "p50_ms": median(p50s),
            "p99_ms": median(p99s), "subwindows": len(rates)}


def mean(values) -> float | None:
    """The mean, or ``None`` for no values (nothing was measured)."""
    values = list(values)
    return sum(values) / len(values) if values else None


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def render(metrics: dict) -> dict:
    """``{name: {"value", "unit"}}`` for the result line."""
    out = {}
    for name, value in metrics.items():
        unit = (END_TO_END.get(name) or PER_LAYER[name])[0]
        if isinstance(value, float) and not math.isfinite(value):
            value = None
        out[name] = {"value": value, "unit": unit}
    return out
