"""The gated studies: one table the CLI, the gate, the report and CI read.

Each row of :data:`STUDIES` names one study's existing
``run_*_study``/``render_*_study`` functions (as ``module.function``,
resolved on first use so reading the table imports no study), the
full-size workload its committed ``BENCH_<study>.json`` was measured
at, and its gate row.  ``python -m repro <study>`` is generated from
the rows, :mod:`repro.bench.regression` evaluates the gate rows, and
:mod:`repro.bench.report` renders every study.

Workload sizes
    ``sizes`` maps each run keyword to ``(full-size default, floor)``.
    ``n_rows`` scales with the dataset scale factor; every other size
    (stream length, request count, ...) scales with ``min(scale, 1)``
    — a longer stream than the full-size one measures nothing new.

Gate rows
    ``comparable``
        Config keys that must agree before the baseline checks run.
    ``invariants``
        ``(path, op, limit, why)`` checks every run must pass.
    ``full``
        The same, on full-size (non-smoke) runs only.  A numeric limit
        is widened by :data:`TOLERANCE`; a string limit names another
        field of the same run, is compared exactly, and skips the check
        when either side is missing.
    ``opt_in``
        Full-size speedup claims checked only when
        ``REPRO_ASSERT_SPEEDUP`` is set (no tolerance): wall-clock
        bounds are machine-dependent.
    ``floors`` / ``ceilings``
        Paths that must not drop below / grow above the baseline's
        value by more than :data:`TOLERANCE`.  ``a/b`` is the ratio of
        two fields.
    ``full_size_baseline``
        Compare against the baseline on full-size runs only.

A ``*`` in a path matches every list element or dict key (for
baseline checks, every key both runs have).  A missing value fails an
invariant, full-size or opt-in check; a baseline check skips a value
the baseline lacks and reads one the fresh run lacks as 0.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import time

__all__ = [
    "STUDIES",
    "TOLERANCE",
    "gate_table",
    "render_study",
    "run_study",
    "stamp",
    "write_json",
]

#: Allowed relative drift before a gate check fires (±25%).
TOLERANCE = 0.25

_VERIFIED = ("verified_bit_identical", "==", True,
             "did not verify its answers bit-identical to the oracle")

STUDIES: dict[str, dict] = {
    "throughput": {
        "help": "execution-engine serving-throughput study",
        "title": "Execution engine - serving throughput",
        "run": "throughput.run_throughput_study",
        "render": "throughput.render_throughput_study",
        "sizes": {"n_rows": (2_000_000, 50_000), "n_queries": (1536, 96)},
        "comparable": ("n_rows", "n_queries", "smoke"),
        "invariants": (_VERIFIED,),
        "opt_in": (("modes.executor.speedup_vs_serial", ">=", 3.0,
                    "executor below its 3x headline"),),
        "floors": ("modes.*.speedup_vs_serial",),
    },
    "materialization": {
        "help": "lazy RowSet vs eager id-array materialisation sweep",
        "title": "Result sets - lazy RowSet vs eager id arrays",
        "run": "materialization.run_materialization_study",
        "render": "materialization.render_materialization_study",
        "sizes": {"n_rows": (2_000_000, 50_000)},
        "comparable": ("n_rows", "smoke"),
        "invariants": (_VERIFIED,),
        "opt_in": (("headline.speedup_count_vs_eager", ">=", 5.0,
                    "count-only below its 5x headline"),),
        "floors": ("headline.speedup_count_vs_eager",
                   "headline.speedup_cached_vs_eager"),
    },
    "aggregates": {
        "help": "aggregate pushdown vs materialise-then-reduce sweep",
        "title": "Aggregate pushdown - pre-aggregates vs reduce",
        "run": "aggregates.run_aggregate_study",
        "render": "aggregates.render_aggregate_study",
        "sizes": {"n_rows": (4_000_000, 50_000)},
        "invariants": (_VERIFIED,),
        "opt_in": (("headline.min_speedup_vs_eager", ">=", 5.0,
                    "SUM/MIN/MAX pushdown below its 5x headline"),),
    },
    "streaming": {
        "help": "first-page latency vs eager id-array materialisation",
        "title": "Streaming - first-page latency vs eager ids",
        "run": "streaming.run_streaming_study",
        "render": "streaming.render_streaming_study",
        "sizes": {"n_rows": (4_000_000, 50_000)},
        "comparable": ("n_rows", "page_size", "smoke"),
        "invariants": (_VERIFIED,),
        "full": (("headline.speedup_first_page_vs_eager", ">=", 10.0,
                  "first-page latency invariant lost vs eager"),),
        "opt_in": (("headline.speedup_first_page_vs_eager", ">=", 10.0,
                    "first page below its 10x headline"),),
        "floors": ("headline.speedup_first_page_vs_eager",
                   "headline.speedup_executor_page_vs_eager"),
    },
    "serving": {
        "help": "open-loop overload study through the HTTP serving layer",
        "title": "Serving - open-loop overload through HTTP",
        "run": "serving.run_serving_study",
        "render": "serving.render_serving_study",
        "sizes": {"n_rows": (1_000_000, 100_000), "n_requests": (400, 120)},
        "comparable": ("n_rows", "n_requests", "max_inflight", "max_waiting",
                       "rate_multiplier", "smoke"),
        "invariants": (
            ("completed", "==", True,
             "did not complete: a request hung past the guard (deadlock)"),
            ("accounting_balanced", "==", True,
             "served + rejected + timed out + errors != issued"),
            ("errors", "==", 0, "recorded transport/500 errors"),
            ("verified_counts", "==", True,
             "a served answer disagreed with the oracle"),
            ("served", ">=", 1, "no request was served at all"),
        ),
        "full": (
            ("latency_ms.p99", "<=", "config.timeout_ms",
             "accepted p99 exceeds the request budget"),
            ("reject_latency_ms.p95", "<=", "latency_ms.p99",
             "fast rejection is slower than serving"),
        ),
        "ceilings": ("latency_ms.p99/latency_ms.p50",),
    },
    "durability": {
        "help": "WAL overhead / group-commit / recovery-time study",
        "title": "Durability - WAL overhead and recovery time",
        "run": "durability.run_durability_study",
        "render": "durability.render_durability_study",
        "sizes": {"n_rows": (200_000, 20_000), "n_mutations": (4_000, 400)},
        "comparable": ("n_rows", "n_mutations", "smoke"),
        "invariants": (
            _VERIFIED,
            ("recovery.*.bit_identical", "==", True,
             "a recovery point was not bit-identical to the oracle"),
        ),
        "ceilings": ("headline.wal_overhead_ratio",),
        "floors": ("headline.group_commit_speedup",),
        "full_size_baseline": True,
    },
    "replication": {
        "help": "WAL-shipping throughput / apply-lag / catch-up study",
        "title": "Replication - WAL shipping and catch-up",
        "run": "replication.run_replication_study",
        "render": "replication.render_replication_study",
        "sizes": {"n_rows": (200_000, 20_000), "n_mutations": (4_000, 400)},
        "comparable": ("n_rows", "n_mutations", "smoke"),
        "invariants": (
            _VERIFIED,
            ("headline.final_lag", "==", 0, "follower finished lagging"),
        ),
        "ceilings": ("headline.ship_overhead_ratio",),
        "full_size_baseline": True,
    },
    "planner": {
        "help": "self-tuning planner vs static access paths study",
        "title": "Planner - self-tuning vs static access paths",
        "run": "planner.run_planner_study",
        "render": "planner.render_planner_study",
        "sizes": {"n_rows": (400_000, 50_000), "queries_per_segment": (64, 8)},
        "comparable": ("n_rows", "queries_per_segment", "seed", "smoke"),
        "invariants": (_VERIFIED,),
        "full": (
            ("headline.max_planner_vs_best_static", "<=", 1.10,
             "planner strayed from the best static backend"),
            ("headline.low_selectivity_speedup_vs_imprints", ">=", 1.0,
             "planner no longer beats always-imprints when unselective"),
        ),
        "ceilings": ("headline.max_planner_vs_best_static",),
        "floors": ("headline.low_selectivity_speedup_vs_imprints",),
        "full_size_baseline": True,
    },
    "dashboard": {
        "help": "grouped/moment/top-k pushdown vs materialise-then-group sweep",
        "title": "Dashboard aggregation - grouped/moment/top-k pushdown",
        "run": "dashboard.run_dashboard_study",
        "render": "dashboard.render_dashboard_study",
        "sizes": {"n_rows": (6_000_000, 50_000)},
        "comparable": ("n_rows", "seed", "n_regions", "smoke"),
        "invariants": (
            ("verified_bit_identical", "==", True,
             "did not verify grouped/moment/top-k answers against NumPy"),
        ),
        "full": (("headline.min_grouped_speedup_vs_eager", ">=", 5.0,
                  "grouped pushdown lost the acceptance headline"),),
        "opt_in": (("headline.min_grouped_speedup_vs_eager", ">=", 5.0,
                    "grouped pushdown below its 5x headline"),),
        "floors": ("headline.min_grouped_speedup_vs_eager",
                   "headline.cached_speedup_grouped_sum",
                   "headline.topk_speedup_vs_eager"),
        "full_size_baseline": True,
    },
}


def gate_table() -> str:
    """The gate rows as the markdown table ``docs/BENCHMARKS.md`` shows."""

    def checks(row, kind):
        return "<br>".join(
            f"`{path} {op} {limit}`" for path, op, limit, _ in row.get(kind, ())
        )

    lines = [
        "| study | comparable config | invariants | full size only "
        "| opt-in | ±25% vs baseline |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for name, row in STUDIES.items():
        drift = [f"`{path}` ≥" for path in row.get("floors", ())] + [
            f"`{path}` ≤" for path in row.get("ceilings", ())
        ]
        if drift and row.get("full_size_baseline"):
            drift.append("(full size only)")
        cells = [
            f"`{name}`",
            ", ".join(row.get("comparable", ())),
            checks(row, "invariants"),
            checks(row, "full"),
            checks(row, "opt_in"),
            "<br>".join(drift),
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def _resolve(reference: str):
    module, _, function = reference.partition(".")
    return getattr(importlib.import_module(f"{__package__}.{module}"), function)


def run_study(
    name: str,
    scale: float = 1.0,
    seed: int = 0,
    smoke: bool = False,
    n_rows: int | None = None,
) -> dict:
    """Run one study at its table size for ``scale``; returns its result."""
    sizes = {}
    for key, (default, floor) in STUDIES[name]["sizes"].items():
        factor = scale if key == "n_rows" else min(scale, 1.0)
        sizes[key] = max(floor, int(default * factor))
    if n_rows:
        sizes["n_rows"] = n_rows
    return _resolve(STUDIES[name]["run"])(seed=seed, smoke=smoke, **sizes)


def render_study(name: str, result: dict) -> str:
    """The study's result as its text table."""
    return _resolve(STUDIES[name]["render"])(result)


def write_json(result: dict, path) -> pathlib.Path:
    """Persist a study result (a ``BENCH_<study>.json`` artifact)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def stamp(result: dict, seed: int, smoke: bool) -> dict:
    """Add the run identity every artifact carries; returns ``result``.

    ``seed``, ``smoke`` and ``cpu_count`` join ``result["config"]``;
    the wall-clock ``timestamp`` goes at the top level.
    """
    result["config"].update(seed=seed, smoke=smoke, cpu_count=os.cpu_count())
    result["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    return result
