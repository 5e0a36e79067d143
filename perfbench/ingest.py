"""The ``ingest`` workload: one thread writing while it reads.

The program is a ``DurableStore`` on the ``serve --store`` defaults
(fsync per mutation, checkpoint once pending rows pass 25% of the
base) and a ``QueryExecutor`` registered once with
``store.index(name)`` — the wiring ``python -m repro serve --store``
uses.  Every operation is logged with what the program answered; after
the timed window the log is replayed against a NumPy mirror of the
acknowledged writes and each read is checked at the point it was made.
Finally the store is reopened from its directory and must hold exactly
the mirror's rows.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time

import numpy as np

import gen

TABLE = "ingest"
COLUMN = "ts"
SETUP_REPEATS = 3


class Mirror:
    """The acknowledged logical column, kept beside the program."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values.copy()

    def copy(self) -> "Mirror":
        return Mirror(self.values)

    def apply(self, op: dict) -> None:
        if op["kind"] == "append":
            self.values = np.concatenate([self.values, op["values"]])
        elif op["kind"] == "update":
            self.values[op["row"]] = op["value"]

    def answer(self, op: dict):
        mask = (self.values >= op["low"]) & (self.values < op["high"])
        if op["kind"] == "count":
            return int(np.count_nonzero(mask))
        if op["kind"] == "sum":
            return int(self.values[mask].astype(np.int64).sum())
        ids = np.flatnonzero(mask)
        return (int(ids.shape[0]), [int(i) for i in ids[: gen.PAGE_LIMIT]])


def counting_filesystem():
    """An ``OsFileSystem`` that counts bytes written and fsyncs, and
    times each fsync of a WAL file."""
    from repro.storage.durability.atomic import FileHandle, OsFileSystem

    class CountingHandle(FileHandle):
        def __init__(self, inner, fs, path) -> None:
            self.inner, self.fs, self.wal = inner, fs, str(path).endswith(".log")

        def write(self, data: bytes) -> None:
            self.fs.bytes_written += len(data)
            self.inner.write(data)

        def sync(self) -> None:
            start = time.perf_counter_ns()
            self.inner.sync()
            self.fs.fsyncs += 1
            if self.wal:
                self.fs.wal_fsync_ns.append(time.perf_counter_ns() - start)

        def close(self) -> None:
            self.inner.close()

    class CountingFileSystem(OsFileSystem):
        def __init__(self) -> None:
            self.bytes_written = 0
            self.fsyncs = 0
            self.wal_fsync_ns: list[int] = []

        def create(self, path):
            return CountingHandle(super().create(path), self, path)

        def open_append(self, path):
            return CountingHandle(super().open_append(path), self, path)

        def sync_dir(self, path) -> None:
            self.fsyncs += 1
            super().sync_dir(path)

    return CountingFileSystem()


class Harness:
    """The op stream, the program, and the log of what it answered."""

    def __init__(self, seed: int, root: str, fs) -> None:
        self.root = root
        self.fs = fs
        base = gen.ingest_base(seed)
        self.prerun = os.path.join(root, "prerun")
        self.mirror = self._prerun(seed, base)
        values = self.mirror.values
        self.n_rows = int(values.shape[0])
        self.lo, self.hi = int(values.min()), int(values.max())
        self.ops = gen.IngestOps(seed, "ops", int(values[-1]))
        # One op of each class; every set-up replays them on a fresh
        # copy of the pre-run store.
        self.firsts = [self._track(
            {"kind": "append", "values": self.ops.append_values()})]
        self.firsts.append(self.ops.next_update(self.n_rows, self.lo, self.hi))
        for kind in ("count", "sum", "page"):
            self.firsts.append(self.ops.next_read(kind, self.lo, self.hi))
        self.log: list = []
        self.store = self.executor = None
        self.syncs = 0

    def _prerun(self, seed: int, base: np.ndarray) -> Mirror:
        """A store whose WAL holds un-checkpointed records."""
        from repro.storage.durability.recovery import DurableStore

        mirror = Mirror(base)
        ops = gen.IngestOps(seed, "prerun", int(base[-1]))
        store = DurableStore(self.prerun, TABLE)
        try:
            store.create_column(COLUMN, base)
            for _ in range(gen.PRERUN_APPENDS):
                op = {"kind": "append", "values": ops.append_values()}
                store.append(COLUMN, op["values"])
                mirror.apply(op)
            n = int(mirror.values.shape[0])
            lo, hi = int(mirror.values.min()), int(mirror.values.max())
            for _ in range(gen.PRERUN_UPDATES):
                op = ops.next_update(n, lo, hi)
                store.update(COLUMN, op["row"], op["value"])
                mirror.apply(op)
        finally:
            store.close()
        return mirror

    # ------------------------------------------------------------------
    def open(self, live: str) -> float:
        """Copy the pre-run store, reopen it, answer one op of each
        class; returns the seconds from the reopen to the last answer."""
        from repro.engine.executor import QueryExecutor
        from repro.storage.durability.recovery import DurableStore

        self.close()
        if os.path.exists(live):
            shutil.rmtree(live)
        shutil.copytree(self.prerun, live)
        self.log.append(("reset",))
        start = time.perf_counter()
        self.store = DurableStore(live, TABLE, fs=self.fs)
        self.executor = QueryExecutor({COLUMN: self.store.index(COLUMN)})
        self.wal, self.wal_syncs = self.store.wal, self.store.wal.syncs
        for op in self.firsts:
            self.execute(op, part=None)
        return time.perf_counter() - start

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.store.close()
            self.store = self.executor = None

    def execute(self, op: dict, part) -> None:
        """Run one op; log ``(op, answer, ms, checkpoints, part, done)``
        where ``part`` numbers the timed slice (None during set-up)."""
        store, executor = self.store, self.executor
        start = time.perf_counter()
        try:
            kind = op["kind"]
            if kind == "append":
                store.append(COLUMN, op["values"])
                answer = True
            elif kind == "update":
                store.update(COLUMN, op["row"], op["value"])
                answer = True
            else:
                predicate = executor.predicate(COLUMN, op["low"], op["high"])
                if kind == "page":
                    result = executor.submit(COLUMN, predicate).result()
                    ids, _cursor = result.page(gen.PAGE_LIMIT)
                    answer = (int(result.count()), [int(i) for i in ids])
                else:
                    answer = executor.aggregate(COLUMN, predicate, kind)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            answer = exc
        done = time.perf_counter()
        self.log.append(
            (op, answer, (done - start) * 1e3, store.checkpoints, part, done))
        self._count_syncs()

    def _count_syncs(self) -> None:
        # A checkpoint swaps in a new WAL; its predecessor's count is final.
        wal = self.store.wal
        if wal is not self.wal:
            self.syncs += self.wal.syncs - self.wal_syncs
            self.wal, self.wal_syncs = wal, 0
        self.syncs += wal.syncs - self.wal_syncs
        self.wal_syncs = wal.syncs

    def next_op(self) -> dict:
        return self._track(self.ops.next(self.n_rows, self.lo, self.hi))

    def _track(self, op: dict) -> dict:
        """Follow the row count and value range the stream draws from."""
        if op["kind"] == "append":
            self.n_rows += op["values"].shape[0]
            self.lo = min(self.lo, int(op["values"].min()))
            self.hi = max(self.hi, int(op["values"].max()))
        return op

    def disk_bytes(self) -> int:
        directory = os.path.join(self.store.store.root, TABLE)
        return sum(entry.stat().st_size for entry in os.scandir(directory))

    def window(self, seconds: float, part: int) -> tuple[float, float, list]:
        """Ops until the deadline; ``(start, end, space amplification
        samples)``."""
        amplification = []
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            op = self.next_op()
            self.execute(op, part)
            if op["kind"] in ("append", "update"):
                live = self.n_rows * self.mirror.values.itemsize
                amplification.append(self.disk_bytes() / live)
        return start, time.perf_counter(), amplification

    def check(self) -> list:
        """Replay the log on the mirror; ``(ok, entry)`` per op."""
        outcomes = []
        mirror = self.mirror
        for entry in self.log:
            if entry[0] == "reset":
                mirror = self.mirror.copy()
                continue
            op, answer = entry[0], entry[1]
            if isinstance(answer, Exception):
                outcomes.append((False, entry))
                continue
            if op["kind"] in ("append", "update"):
                mirror.apply(op)
                outcomes.append((answer is True, entry))
            else:
                outcomes.append((answer == mirror.answer(op), entry))
        self.final_mirror = mirror
        return outcomes

    def reopened_matches(self, live: str) -> bool:
        """The store reopened from its directory holds the mirror."""
        from repro.storage.durability.recovery import DurableStore

        self.close()
        store = DurableStore(live, TABLE)
        try:
            logical = store.index(COLUMN).delta.materialize().values
        finally:
            store.close()
        return np.array_equal(logical, self.final_mirror.values)


def run(seed: int, seconds: float, trace: bool, out_dir: str) -> dict:
    from metrics import subwindow_medians
    from server import vm_hwm_mb
    from spans import Tracer

    root = os.path.join(out_dir, f"ingest-{seed}-{os.getpid()}")
    live = os.path.join(root, "live")
    tracer = Tracer() if trace else None
    harness = None
    try:
        harness = Harness(seed, root, counting_filesystem() if trace else None)
        setups = [harness.open(live) for _ in range(SETUP_REPEATS)]
        count = TRACE_SLICES if trace else 1
        slices, counters, fsync_ms = [], [], []
        for part in range(count):
            traced = trace and part % 2 == 1
            if traced:
                tracer.install(storage=True)
                before = _counters(harness)
            try:
                start, end, amplification = harness.window(seconds / count, part)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                after = _counters(harness)
                counters.append({k: after[k] - before[k] for k in after})
                fsync_ms += [ns / 1e6 for ns in
                             harness.fs.wal_fsync_ns[before["fsync_samples"]:]]
            slices.append((traced, part, start, end, amplification))
        checkpoints = harness.store.checkpoints
        outcomes = harness.check()
        reopen_ok = harness.reopened_matches(live)
        recovery = traced_recovery(harness) if trace else None
        peak_rss_mb = vm_hwm_mb()
    finally:
        if harness is not None:
            harness.close()
        shutil.rmtree(root, ignore_errors=True)

    measuring = [s for s in slices if s[0] == trace]
    measured = {s[1] for s in measuring}
    elapsed = sum(s[3] - s[2] for s in measuring)
    amplification = [a for s in measuring for a in s[4]]
    timed = [(ok, e) for ok, e in outcomes if e[4] in measured]
    reads = [(ok, e) for ok, e in timed if e[0]["kind"] not in WRITES]
    writes = [(ok, e) for ok, e in timed if e[0]["kind"] in WRITES]
    failed = sum(not ok for ok, _ in timed)
    after_checkpoint = [ok for ok, e in reads if e[3] > 0]
    every, read, write = (
        subwindow_medians([
            ([(e[5], e[2] if ok else math.inf, ok) for ok, e in chosen
              if e[4] == s[1]], s[2], s[3])
            for s in measuring
        ])
        for chosen in (timed, reads, writes)
    )
    before_checkpoint = [ok for ok, e in reads if e[3] == 0]
    result = {
        "attempted": len(timed),
        "failed": failed,
        "correct": failed == 0 and reopen_ok
        and all(ok for ok, e in outcomes if e[4] not in measured),
        "end_to_end": {
            "ops_per_s": every["ops_per_s"],
            "read_p50_ms": read["p50_ms"],
            "read_p99_ms": read["p99_ms"],
            "write_p50_ms": write["p50_ms"],
            "write_p99_ms": write["p99_ms"],
            "error_rate": failed / max(1, len(timed)),
            "setup_s": sorted(setups)[len(setups) // 2],
            "peak_rss_mb": peak_rss_mb,
            "space_amplification": (
                sum(amplification) / len(amplification)
                if amplification else 0.0),
        },
        "notes": [
            f"{len(timed)} operations ({len(reads)} reads, {len(writes)} "
            f"writes) in {elapsed:.2f} s; {checkpoints} checkpoints "
            "since the last reopen; setup samples "
            + ", ".join(f"{s:.3f}" for s in setups) + " s",
            f"wrong reads: {after_checkpoint.count(False)} of "
            f"{len(after_checkpoint)} made after a checkpoint, "
            f"{before_checkpoint.count(False)} of {len(before_checkpoint)} "
            "before any",
            f"store reopened from its directory equals the mirror: {reopen_ok}",
        ],
    }
    if trace:
        result["per_layer"] = traced_layers(
            tracer, counters, fsync_ms, recovery, timed,
            untraced=_rate(outcomes, slices, False),
            traced=_rate(outcomes, slices, True),
        )
        with open(os.path.join(out_dir, "spans-ingest.json"), "w") as out:
            json.dump(tracer.export(), out)
    return result


WRITES = ("append", "update")
#: A traced run alternates untraced and traced slices of the window.
TRACE_SLICES = 4


def _rate(outcomes, slices, traced: bool) -> float:
    parts = {s[1] for s in slices if s[0] == traced}
    ops = sum(1 for _ok, e in outcomes if e[4] in parts)
    return ops / sum(s[3] - s[2] for s in slices if s[0] == traced)


def _counters(harness: Harness) -> dict:
    stats = harness.executor.stats
    return {
        "cache_hits": stats.cache_hits, "cache_misses": stats.cache_misses,
        "expired": stats.expired, "checkpoints": harness.store.checkpoints,
        "bytes_written": harness.fs.bytes_written, "wal_syncs": harness.syncs,
        "fsync_samples": len(harness.fs.wal_fsync_ns),
    }


def traced_recovery(harness: Harness) -> dict:
    """Reopen a copy of the pre-run store with the recovery steps
    timed: CRC verification per column and WAL replay per record."""
    from metrics import mean
    from repro.storage.durability import recovery
    from repro.storage.persist import ColumnStore
    from spans import Tracer, span_durations_ms

    tracer = Tracer()
    tracer.wrap(ColumnStore, "read_column", "storage.recovery.verify")
    tracer.wrap(recovery, "replay_record", "storage.recovery.replay")
    reopen = os.path.join(harness.root, "recovery")
    shutil.copytree(harness.prerun, reopen)
    try:
        recovery.DurableStore(reopen, TABLE).close()
    finally:
        tracer.uninstall()
    replays = span_durations_ms(tracer.spans, "storage.recovery.replay")
    return {
        "storage.recovery.verify_ms": sum(
            span_durations_ms(tracer.spans, "storage.recovery.verify")),
        "storage.recovery.replay_us_per_record": 1e3 * sum(replays) / max(
            1, len(replays)),
    }


def traced_layers(tracer, counters, fsync_ms, recovery, timed, untraced,
                  traced) -> dict:
    from metrics import mean
    from spans import span_durations_ms, span_layers

    export = tracer.export()
    total = {key: sum(c[key] for c in counters) for key in counters[0]}
    writes = [e for _ok, e in timed if e[0]["kind"] in WRITES]
    lookups = total["cache_hits"] + total["cache_misses"]
    user_bytes = 4 * sum(
        e[0]["values"].shape[0] if e[0]["kind"] == "append" else 1
        for e in writes
    )
    return {
        **span_layers(export, len(timed)),
        "engine.executor.expired": float(total["expired"]),
        "engine.cache.hit_ratio": (
            total["cache_hits"] / lookups if lookups else 0.0),
        "storage.wal.fsyncs_per_write": total["wal_syncs"] / max(1, len(writes)),
        "storage.wal.fsync_ms": mean(fsync_ms),
        "storage.write_amplification": (
            total["bytes_written"] / user_bytes if user_bytes else 0.0),
        "storage.checkpoint.count": float(total["checkpoints"]),
        "storage.checkpoint.ms": mean(
            span_durations_ms(export["spans"], "storage.checkpoint")),
        "trace.overhead": untraced / traced,
        **recovery,
    }
