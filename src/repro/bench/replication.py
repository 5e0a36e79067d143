"""Replication study — what WAL shipping costs, and how fast a follower heals.

Three questions, all against the real
:class:`~repro.storage.durability.replication.ReplicationPrimary` /
:class:`~repro.storage.durability.replication.ReplicaStore` pair over the
in-process transport (the HTTP transport adds only socket latency on top
of exactly these code paths):

1. **Bootstrap cost** — a cold follower fetches the primary's checkpoint
   manifest and base files and opens them through recovery; reported as
   wall time and effective MB/s over the shipped bytes.
2. **Bulk catch-up** — the follower pulls and applies the primary's whole
   acknowledged WAL backlog in batches: frames/second and µs/frame, with
   every frame CRC-checked and appended verbatim (the follower's log
   stays a byte prefix of the primary's, and that prefix property is
   asserted before any number is reported).
3. **Steady-state shipping overhead** — mutations land on the primary in
   bursts with a catch-up pass after each; the headline ratio is
   follower-side ship+apply time over primary-side apply time for the
   same records (within-run, machine-portable).

**Before any timing is trusted**, the follower's materialised column is
verified bit-identical to a NumPy oracle that applied the same mutation
stream — a fast replica of the wrong state is worthless.

The machine-readable result lands in
``benchmarks/results/BENCH_replication.json`` and is gated by
its gate row in :mod:`repro.bench.studies`.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
import time

import numpy as np

from .durability import _apply_to_oracle, _mutation_stream
from .studies import stamp

__all__ = [
    "DEFAULT_ROWS",
    "DEFAULT_MUTATIONS",
    "run_replication_study",
    "render_replication_study",
]

DEFAULT_ROWS = 200_000
DEFAULT_MUTATIONS = 4_000
#: Frames per shipped batch during catch-up (the transport's page size).
BATCH_FRAMES = 256
#: Primary-side bursts in the steady-state phase.
STEADY_BURSTS = 16


def _apply_on_primary(primary, stream) -> None:
    for kind, payload in stream:
        if kind == "append":
            primary.append("x", payload)
        elif kind == "update":
            primary.update("x", *payload)
        else:
            primary.delete("x", payload)
    primary.sync()


def _follower_state(replica) -> np.ndarray:
    return replica.index("x").delta.materialize().values


def _wal_bytes(store) -> bytes:
    return store.fs.read_bytes(store.wal.path)


def run_replication_study(
    n_rows: int = DEFAULT_ROWS,
    n_mutations: int = DEFAULT_MUTATIONS,
    seed: int = 0,
    smoke: bool = False,
) -> dict:
    """Run the replication study; returns the JSON-able result."""
    from ..storage.durability.recovery import DurableStore
    from ..storage.durability.replication import (
        LocalShipSource,
        ReplicaStore,
        ReplicationPrimary,
    )

    if smoke:
        n_rows = min(n_rows, 20_000)
        n_mutations = min(n_mutations, 400)

    rng = np.random.default_rng(seed)
    base = rng.integers(0, 1 << 20, n_rows).astype(np.int32)
    # One stream, split in half: the backlog the follower bulk-catches-up
    # on, then the live half applied burst-by-burst.  A single stream
    # keeps the delete bookkeeping consistent across both phases.
    full_stream = _mutation_stream(rng, n_rows, 2 * n_mutations)
    backlog, live = full_stream[:n_mutations], full_stream[n_mutations:]

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_replication_"))
    verified = True
    try:
        store = DurableStore(
            workdir / "primary", "bench",
            group_window=0.01, checkpoint_threshold=10.0**9,
        )
        store.create_column("x", base)
        primary = ReplicationPrimary(store)

        started = time.perf_counter()
        _apply_on_primary(primary, backlog)
        primary_backlog_s = time.perf_counter() - started

        # -- 1. cold bootstrap -----------------------------------------
        replica = ReplicaStore(
            workdir / "follower", "bench", LocalShipSource(primary)
        )
        started = time.perf_counter()
        replica.bootstrap()
        bootstrap_s = time.perf_counter() - started
        bootstrap_bytes = primary.bytes_shipped

        # -- 2. bulk catch-up on the acknowledged backlog --------------
        started = time.perf_counter()
        report = replica.catch_up(limit=BATCH_FRAMES)
        catchup_s = time.perf_counter() - started
        catchup_frames = report.frames_applied

        backlog_oracle = _apply_to_oracle(base, backlog)
        verified &= bool(
            np.array_equal(_follower_state(replica), backlog_oracle)
        )
        primary_wal = _wal_bytes(primary.store)
        follower_wal = _wal_bytes(replica.store)
        verified &= primary_wal[:len(follower_wal)] == follower_wal
        verified &= len(follower_wal) > 0

        # -- 3. steady-state: burst on the primary, ship, repeat -------
        bursts = min(STEADY_BURSTS, max(1, n_mutations))
        per_burst = max(1, len(live) // bursts)
        primary_live_s = 0.0
        ship_live_s = 0.0
        live_frames = 0
        max_observed_lag = 0
        for start in range(0, len(live), per_burst):
            burst = live[start:start + per_burst]
            started = time.perf_counter()
            _apply_on_primary(primary, burst)
            primary_live_s += time.perf_counter() - started
            started = time.perf_counter()
            pass_report = replica.catch_up(limit=BATCH_FRAMES)
            ship_live_s += time.perf_counter() - started
            live_frames += pass_report.frames_applied
            max_observed_lag = max(max_observed_lag, pass_report.frames_applied)
            verified &= replica.lag == 0

        full_oracle = _apply_to_oracle(base, full_stream)
        verified &= bool(
            np.array_equal(_follower_state(replica), full_oracle)
        )
        primary_wal = _wal_bytes(primary.store)
        follower_wal = _wal_bytes(replica.store)
        verified &= primary_wal == follower_wal  # fully caught up: equal

        info = replica.replication_info()
        replica.close()
        store.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    headline = {
        # All within-run ratios and per-unit costs: machine-portable.
        "bootstrap_mb_per_s": round(
            bootstrap_bytes / 1e6 / max(bootstrap_s, 1e-9), 1
        ),
        "catchup_frames_per_s": round(
            catchup_frames / max(catchup_s, 1e-9), 1
        ),
        "apply_us_per_frame": round(
            catchup_s / max(1, catchup_frames) * 1e6, 2
        ),
        "ship_overhead_ratio": round(
            ship_live_s / max(primary_live_s, 1e-9), 2
        ),
        "final_lag": info["lag"],
    }
    return stamp({
        "study": "replication",
        "config": {
            "n_rows": n_rows,
            "n_mutations": n_mutations,
            "batch_frames": BATCH_FRAMES,
            "steady_bursts": bursts,
        },
        "verified_bit_identical": verified,
        "bootstrap": {
            "elapsed_s": round(bootstrap_s, 4),
            "bytes_shipped": bootstrap_bytes,
            "files_fetched": info["files_fetched"],
            "files_reused": info["files_reused"],
        },
        "catchup": {
            "frames": catchup_frames,
            "elapsed_s": round(catchup_s, 4),
            "frames_per_s": headline["catchup_frames_per_s"],
            "per_frame_us": headline["apply_us_per_frame"],
        },
        "steady_state": {
            "bursts": bursts,
            "frames": live_frames,
            "primary_apply_s": round(primary_live_s, 4),
            "ship_apply_s": round(ship_live_s, 4),
            "max_burst_backlog": max_observed_lag,
        },
        "follower": info,
        "headline": headline,
    }, seed, smoke)


def render_replication_study(result: dict) -> str:
    """Human-readable summary of one study result."""
    from .tables import format_table

    config = result["config"]
    headline = result["headline"]
    bootstrap = result["bootstrap"]
    catchup = result["catchup"]
    steady = result["steady_state"]
    rows = [
        ["bootstrap (manifest + base files)",
         bootstrap["elapsed_s"],
         f"{headline['bootstrap_mb_per_s']} MB/s",
         bootstrap["files_fetched"]],
        ["bulk catch-up (acknowledged WAL)",
         catchup["elapsed_s"],
         f"{catchup['frames_per_s']} frames/s",
         catchup["frames"]],
        ["steady-state ship+apply",
         steady["ship_apply_s"],
         f"{headline['ship_overhead_ratio']}x primary apply",
         steady["frames"]],
    ]
    table = format_table(
        headers=["phase", "elapsed s", "rate", "units"],
        rows=rows,
        title=(
            f"replication study: {config['n_mutations']} backlog + "
            f"{config['n_mutations']} live mutations over "
            f"{config['n_rows']} rows "
            f"(verified bit-identical: {result['verified_bit_identical']})"
        ),
    )
    return table
