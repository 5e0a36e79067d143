"""Durability study — what crash consistency costs, and what recovery costs.

Three questions, all against the real
:class:`~repro.storage.durability.DurableStore` on a real filesystem
(every fsync in the timings is a genuine ``os.fsync``):

1. **WAL overhead per mutation** — the same mutation stream applied (a)
   to a bare in-memory :class:`~repro.core.delta_index.DeltaAwareImprints`
   (the pre-durability baseline), (b) through the WAL with
   ``group_window=0`` (one fsync per mutation: every call returns
   acknowledged), and (c) with a group-commit window (bursts share one
   fsync).  The headline ratios are within-run and machine-portable:
   durable-vs-memory cost, and the group-commit speedup over
   sync-per-mutation.
2. **Group-commit throughput** — mutations/second for each window.
3. **Recovery time vs log length** — stores are crashed (the WAL is
   simply never checkpointed) at increasing log lengths and reopened;
   recovery replays the whole log each time.  **Before any timing is
   recorded**, the recovered logical state is verified bit-identical to
   a NumPy oracle that applied the same mutations — a fast recovery of
   the wrong state is worthless.

The machine-readable result lands in
``benchmarks/results/BENCH_durability.json`` and is gated by
its gate row in :mod:`repro.bench.studies`.
"""

from __future__ import annotations

import pathlib
import shutil
import tempfile
import time

import numpy as np

from .studies import stamp

__all__ = [
    "DEFAULT_ROWS",
    "DEFAULT_MUTATIONS",
    "GROUP_WINDOWS",
    "run_durability_study",
    "render_durability_study",
]

DEFAULT_ROWS = 200_000
DEFAULT_MUTATIONS = 4_000
#: Group-commit windows measured, in seconds.  0 = fsync per mutation.
GROUP_WINDOWS = (0.0, 0.01)
#: Log-length fractions for the recovery-time curve.
RECOVERY_FRACTIONS = (0.25, 0.5, 1.0)
#: Rows per append record in the mutation stream.
_APPEND_BATCH = 8


def _mutation_stream(rng: np.random.Generator, n_rows: int, n_mutations: int):
    """A reproducible mixed stream of (kind, payload) mutations.

    70% appends, 20% updates, 10% deletes — appends dominate real
    ingest, and deletes must stay rare enough that row ids remain
    plentiful.  Updates and deletes target base-column ids only, so the
    stream is valid regardless of how many appends preceded it.
    """
    stream = []
    n_deletable = n_rows // 2
    deleted: set[int] = set()
    for _ in range(n_mutations):
        kind = rng.choice(("append", "update", "delete"), p=(0.7, 0.2, 0.1))
        if kind == "append":
            stream.append(
                ("append", rng.integers(0, 1 << 20, _APPEND_BATCH).astype("<i4"))
            )
        elif kind == "update":
            row = int(rng.integers(n_deletable, n_rows))
            stream.append(("update", (row, int(rng.integers(0, 1 << 20)))))
        else:
            row = int(rng.integers(0, n_deletable))
            if row in deleted:
                stream.append(
                    ("update", (n_deletable + row % (n_rows - n_deletable),
                                int(rng.integers(0, 1 << 20))))
                )
            else:
                deleted.add(row)
                stream.append(("delete", row))
    return stream


def _apply_to_oracle(base: np.ndarray, stream) -> np.ndarray:
    """The NumPy ground truth: the logical column after the stream."""
    values = list(base)
    deleted: set[int] = set()
    for kind, payload in stream:
        if kind == "append":
            values.extend(int(v) for v in payload)
        elif kind == "update":
            row, value = payload
            values[row] = value
        else:
            deleted.add(payload)
    kept = [v for i, v in enumerate(values) if i not in deleted]
    return np.asarray(kept, dtype=np.int32)


def _apply_memory(index, stream) -> None:
    for kind, payload in stream:
        if kind == "append":
            index.append(payload)
        elif kind == "update":
            index.update(*payload)
        else:
            index.delete(payload)


def _apply_durable(store, stream) -> None:
    for kind, payload in stream:
        if kind == "append":
            store.append("x", payload)
        elif kind == "update":
            store.update("x", *payload)
        else:
            store.delete("x", payload)
    store.sync()


def _recovered_state(store) -> np.ndarray:
    """The logical column a recovered store answers from."""
    return store.index("x").delta.materialize().values


def run_durability_study(
    n_rows: int = DEFAULT_ROWS,
    n_mutations: int = DEFAULT_MUTATIONS,
    seed: int = 0,
    smoke: bool = False,
) -> dict:
    """Run the durability study; returns the JSON-able result."""
    from ..core.delta_index import DeltaAwareImprints
    from ..storage import Column
    from ..storage.durability.recovery import DurableStore

    if smoke:
        n_rows = min(n_rows, 20_000)
        n_mutations = min(n_mutations, 400)

    rng = np.random.default_rng(seed)
    base = rng.integers(0, 1 << 20, n_rows).astype(np.int32)
    stream = _mutation_stream(rng, n_rows, n_mutations)
    oracle = _apply_to_oracle(base, stream)

    workdir = pathlib.Path(tempfile.mkdtemp(prefix="bench_durability_"))
    verified = True
    try:
        # -- 1. the in-memory baseline (no durability at all) ----------
        index = DeltaAwareImprints(
            Column(base, name="bench.x"), consolidate_threshold=1.0
        )
        started = time.perf_counter()
        _apply_memory(index, stream)
        memory_s = time.perf_counter() - started
        verified &= bool(
            np.array_equal(index.delta.materialize().values, oracle)
        )

        # -- 2. WAL overhead across group-commit windows ---------------
        windows = []
        for window in GROUP_WINDOWS:
            root = workdir / f"window_{window}"
            store = DurableStore(
                root, "bench", group_window=window,
                checkpoint_threshold=10.0**9,
            )
            store.create_column("x", base)
            started = time.perf_counter()
            _apply_durable(store, stream)
            elapsed = time.perf_counter() - started
            verified &= bool(np.array_equal(_recovered_state(store), oracle))
            windows.append({
                "group_window_s": window,
                "elapsed_s": round(elapsed, 4),
                "per_mutation_us": round(elapsed / n_mutations * 1e6, 2),
                "mutations_per_s": round(n_mutations / elapsed, 1),
                "wal_syncs": store.wal.syncs,
                "wal_frames": store.wal.appended_frames,
            })
            store.close()

        # -- 3. recovery time vs log length ----------------------------
        recovery = []
        for fraction in RECOVERY_FRACTIONS:
            cut = max(1, int(len(stream) * fraction))
            root = workdir / f"recover_{fraction}"
            store = DurableStore(
                root, "bench", checkpoint_threshold=10.0**9,
                group_window=0.05,
            )
            store.create_column("x", base)
            _apply_durable(store, stream[:cut])
            store.close()  # a crash would at worst lose unacked frames
            partial_oracle = _apply_to_oracle(base, stream[:cut])

            started = time.perf_counter()
            reopened = DurableStore(
                root, "bench", checkpoint_threshold=10.0**9
            )
            elapsed = time.perf_counter() - started
            # Bit-identical *before* the timing is trusted: the
            # recovered logical column must equal the oracle exactly.
            identical = bool(
                np.array_equal(_recovered_state(reopened), partial_oracle)
            )
            verified &= identical
            replayed = reopened.report.replayed_total
            recovery.append({
                "log_fraction": fraction,
                "wal_records": cut,
                "replayed_records": replayed,
                "recovery_s": round(elapsed, 4),
                "per_record_us": round(
                    elapsed / max(1, replayed) * 1e6, 2
                ),
                "bit_identical": identical,
            })
            reopened.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    sync_every = windows[0]
    grouped = windows[-1]
    full_recovery = recovery[-1]
    half_recovery = recovery[-2] if len(recovery) > 1 else None
    headline = {
        # All within-run ratios: machine-portable, gate-comparable.
        "wal_overhead_ratio": round(
            grouped["elapsed_s"] / max(memory_s, 1e-9), 2
        ),
        "sync_per_mutation_overhead_ratio": round(
            sync_every["elapsed_s"] / max(memory_s, 1e-9), 2
        ),
        "group_commit_speedup": round(
            sync_every["elapsed_s"] / max(grouped["elapsed_s"], 1e-9), 2
        ),
        "recovery_us_per_record": full_recovery["per_record_us"],
        "recovery_scaling": round(
            full_recovery["recovery_s"]
            / max(half_recovery["recovery_s"], 1e-9),
            2,
        ) if half_recovery else None,
    }
    return stamp({
        "study": "durability",
        "config": {
            "n_rows": n_rows,
            "n_mutations": n_mutations,
            "append_batch": _APPEND_BATCH,
            "group_windows_s": list(GROUP_WINDOWS),
            "recovery_fractions": list(RECOVERY_FRACTIONS),
        },
        "verified_bit_identical": verified,
        "memory_baseline": {
            "elapsed_s": round(memory_s, 4),
            "per_mutation_us": round(memory_s / n_mutations * 1e6, 2),
        },
        "windows": windows,
        "recovery": recovery,
        "headline": headline,
    }, seed, smoke)


def render_durability_study(result: dict) -> str:
    """Human-readable summary of one study result."""
    from .tables import format_table

    config = result["config"]
    headline = result["headline"]
    rows = [
        ["in-memory (no WAL)",
         result["memory_baseline"]["per_mutation_us"], "-", "-"],
    ]
    for window in result["windows"]:
        label = (
            "WAL, fsync per mutation"
            if window["group_window_s"] == 0
            else f"WAL, {window['group_window_s'] * 1e3:.0f}ms group commit"
        )
        rows.append([
            label,
            window["per_mutation_us"],
            window["mutations_per_s"],
            window["wal_syncs"],
        ])
    table = format_table(
        headers=["mutation path", "us/mutation", "mutations/s", "fsyncs"],
        rows=rows,
        title=(
            f"durability study: {config['n_mutations']} mutations over "
            f"{config['n_rows']} rows "
            f"(verified bit-identical: {result['verified_bit_identical']})"
        ),
    )
    recovery_rows = [
        [r["log_fraction"], r["replayed_records"], r["recovery_s"],
         r["per_record_us"], r["bit_identical"]]
        for r in result["recovery"]
    ]
    recovery_table = format_table(
        headers=["log fraction", "replayed", "recovery s", "us/record",
                 "bit-identical"],
        rows=recovery_rows,
        title=(
            f"recovery time vs log length "
            f"(group-commit speedup {headline['group_commit_speedup']}x, "
            f"WAL overhead {headline['wal_overhead_ratio']}x memory)"
        ),
    )
    return f"{table}\n\n{recovery_table}"
