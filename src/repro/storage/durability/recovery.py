"""Startup recovery and the durable mutation front-end.

:class:`DurableStore` is the crash-consistent shell around one table of
a :class:`~repro.storage.persist.ColumnStore`: every ``append`` /
``update`` / ``delete`` is framed into the table's write-ahead log
*before* it reaches the in-memory
:class:`~repro.core.delta_index.DeltaAwareImprints`, and every open
replays whatever the last crash left behind.

Recovery state machine (run by the constructor)::

    sweep     remove *.tmp (interrupted atomic writes), stale- and
              future-generation WAL files, orphan data files no catalog
              generation references
    verify    read every catalogued column through its length + CRC
              checks; failures quarantine the column (the rest of the
              table keeps serving)
    scan      walk the live WAL frame by frame; the first torn or
              corrupt frame ends the trusted prefix, and the tail past
              it is truncated
    replay    re-apply surviving records in sequence order, skipping
              those a checkpoint already folded into a column's base
              (``seq <= wal_upto``), rebuilding the delta state exactly
    fence     bump the catalog epoch and advance every index version by
              a whole epoch, so any cursor minted before the crash
              fails with StaleCursorError instead of paging across the
              restart

Checkpoints (:meth:`DurableStore.checkpoint`) are the inverse: fold the
deltas into fresh atomic base snapshots, then rotate the WAL.  The
ordering makes every intermediate crash state recoverable:

1. force-sync the WAL (nothing in flight);
2. create the *next* WAL file with a durable magic header;
3. snapshot each column via an atomic ``write_column`` recording
   ``wal_upto`` = the checkpoint sequence — a crash here leaves the old
   WAL live, and replay skips the already-folded records;
4. commit the catalog with the new ``wal_generation`` and every
   ``wal_upto`` reset (one atomic replace — the rotation's commit
   point);
5. unlink the old WAL (pure cleanup; recovery sweeps it otherwise).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from ...core.delta_index import DeltaAwareImprints
from ...errors import CorruptColumnError, QuarantinedColumnError
from ..column import Column
from ..persist import CATALOG_NAME, ColumnStore
from .atomic import FileSystem, OS_FS, TMP_SUFFIX
from .wal import WalRecord, WriteAheadLog, scan_wal

__all__ = ["DurableStore", "RecoveryReport", "replay_record", "wal_name"]

_WAL_RE = re.compile(r"^wal\.(\d+)\.log$")


def wal_name(generation: int) -> str:
    return f"wal.{generation}.log"


def replay_record(index: DeltaAwareImprints, record: WalRecord) -> None:
    """Apply one decoded WAL record to a live index.

    The single apply path shared by startup replay and the replication
    follower (:mod:`.replication`): a shipped frame must mutate the
    delta exactly the way local recovery would, or the follower's state
    stops being a prefix of the primary's.  Bumps the index version on
    success (cursors spanning the mutation go stale, as always).
    """
    if record.kind == "append":
        index.delta.append(record.values)
    elif record.kind == "update":
        index.delta.update(record.row_id, record.value)
    else:
        index.delta.delete(record.row_id)
    index.version += 1


@dataclass
class RecoveryReport:
    """What one :class:`DurableStore` open found and did."""

    table: str
    epoch: int = 0
    columns: list[str] = field(default_factory=list)
    quarantined: dict[str, str] = field(default_factory=dict)
    replayed: dict[str, int] = field(default_factory=dict)
    skipped_records: int = 0      # seq <= wal_upto (already checkpointed)
    torn_bytes: int = 0           # WAL tail truncated during scan
    wal_missing_magic: bool = False
    orphans_removed: list[str] = field(default_factory=list)

    @property
    def replayed_total(self) -> int:
        return sum(self.replayed.values())

    @property
    def clean(self) -> bool:
        """True when the open found a pristine store: nothing torn,
        nothing quarantined, nothing to sweep."""
        return (
            not self.quarantined
            and self.torn_bytes == 0
            and not self.wal_missing_magic
            and not self.orphans_removed
        )

    def as_dict(self) -> dict:
        return {
            "table": self.table,
            "epoch": self.epoch,
            "clean": self.clean,
            "columns": list(self.columns),
            "quarantined": dict(self.quarantined),
            "replayed": dict(self.replayed),
            "replayed_total": self.replayed_total,
            "skipped_records": self.skipped_records,
            "torn_bytes": self.torn_bytes,
            "wal_missing_magic": self.wal_missing_magic,
            "orphans_removed": list(self.orphans_removed),
        }


class DurableStore:
    """One table's crash-consistent mutation front-end.

    Parameters
    ----------
    root:
        The column-store root directory (tables are subdirectories).
    table:
        The table this store serves.
    fs:
        The filesystem to run on — the OS in production, a
        :class:`~repro.storage.durability.faultfs.FaultyFileSystem` in
        the crash matrix.
    group_window:
        WAL group-commit window in seconds (``0`` = fsync per
        mutation; see :class:`~repro.storage.durability.wal.WriteAheadLog`).
    checkpoint_threshold:
        Checkpoint when any column's pending-delta fraction exceeds
        this share of its base rows (mirrors the in-memory
        consolidation policy of :class:`DeltaAwareImprints`, but here a
        checkpoint also snapshots to disk and rotates the WAL —
        consolidating in memory alone would desynchronise replay).
    """

    def __init__(
        self,
        root,
        table: str,
        fs: FileSystem | None = None,
        group_window: float = 0.0,
        checkpoint_threshold: float = 0.25,
        **imprints_kwargs,
    ) -> None:
        self.fs = fs or OS_FS
        self.table = table
        self.store = ColumnStore(root, fs=self.fs)
        self.directory = self.fs.join(str(self.store.root), table)
        self.group_window = group_window
        self.checkpoint_threshold = checkpoint_threshold
        self._imprints_kwargs = imprints_kwargs
        self.indexes: dict[str, DeltaAwareImprints] = {}
        self.quarantined: dict[str, str] = {}
        self.checkpoints = 0
        #: Columns with WAL records since the last checkpoint.  The
        #: checkpoint snapshots *only* these; a clean column's base file
        #: stays byte-identical across checkpoints (cheap incremental
        #: checkpoints, and followers re-fetch only what changed).
        self.dirty: set[str] = set()
        self.wal: WriteAheadLog | None = None
        self.report = self._recover()

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def _catalog(self) -> dict:
        return self.store._load_catalog(self.table)

    def _save_catalog(self, catalog: dict) -> None:
        self.store._save_catalog(self.table, catalog)

    def _recover(self) -> RecoveryReport:
        report = RecoveryReport(table=self.table)
        self.fs.mkdir(self.directory)
        catalog_path = self.fs.join(self.directory, CATALOG_NAME)
        if not self.fs.exists(catalog_path):
            # Fresh table: commit an empty catalog so every later state
            # has a well-defined generation, epoch and live WAL.
            self._save_catalog(
                {"columns": {}, "generation": 0, "wal_generation": 1, "epoch": 0}
            )
            catalog = self._catalog()
        else:
            try:
                catalog = self._catalog()
            except (json.JSONDecodeError, KeyError) as exc:
                # Should be unreachable with atomic catalog commits; a
                # hand-edited or pre-atomic catalog can still get here.
                raise CorruptColumnError(
                    catalog_path, f"catalog is unreadable: {exc}"
                ) from exc
        epoch = int(catalog.get("epoch", 0)) + 1
        wal_generation = int(catalog.get("wal_generation", 1))
        live_wal = wal_name(wal_generation)

        # -- sweep ------------------------------------------------------
        referenced = {CATALOG_NAME, live_wal}
        for name, meta in catalog.get("columns", {}).items():
            referenced.add(ColumnStore._data_name(meta, name))
            if meta.get("has_dictionary"):
                referenced.add(ColumnStore._dict_name(meta, name))
            referenced.add(f"{name}.imprints")
        for entry in list(self.fs.listdir(self.directory)):
            path = self.fs.join(self.directory, entry)
            if self.fs.is_dir(path) or entry in referenced:
                continue
            wal_match = _WAL_RE.match(entry)
            if entry.endswith(TMP_SUFFIX) or wal_match is not None or (
                entry.endswith((".bin", ".dict", ".imprints"))
            ):
                # Interrupted atomic writes, superseded/uncommitted WAL
                # generations, and data files no catalog references —
                # all unreachable, all garbage.
                try:
                    self.fs.remove(path)
                    report.orphans_removed.append(entry)
                except OSError:  # pragma: no cover - best effort
                    pass
            # anything else (user files, notes) is left alone

        # -- verify -----------------------------------------------------
        for name in sorted(catalog.get("columns", {})):
            try:
                column, _ = self.store.read_column(self.table, name, verify=True)
            except CorruptColumnError as exc:
                self.quarantined[name] = exc.reason
                continue
            index = DeltaAwareImprints(
                column,
                # Effectively disable in-memory auto-consolidation: a
                # silent in-memory consolidate would shift the id space
                # (materialize drops deleted rows) without a matching
                # disk snapshot, and the next replay would diverge.
                # Checkpointing below owns the threshold instead.
                consolidate_threshold=1.0,
                **self._imprints_kwargs,
            )
            self.indexes[name] = index
            report.columns.append(name)

        # -- scan + truncate -------------------------------------------
        wal_path = self.fs.join(self.directory, live_wal)
        scan = scan_wal(self.fs, wal_path)
        report.wal_missing_magic = scan.missing_magic and self.fs.exists(wal_path)
        report.torn_bytes = WriteAheadLog.truncate_torn_tail(
            self.fs, wal_path, scan
        )

        # -- replay -----------------------------------------------------
        entries = catalog.get("columns", {})
        for record in scan.records:
            name = record.column
            if name in self.quarantined or name not in self.indexes:
                report.skipped_records += 1
                continue
            fence = int(entries.get(name, {}).get("wal_upto", 0))
            if record.seq <= fence:
                report.skipped_records += 1
                continue
            index = self.indexes[name]
            try:
                replay_record(index, record)
            except (IndexError, ValueError) as exc:
                # A logically impossible record (only reachable when
                # fsyncs were dropped or files rotted in concert):
                # fence the column rather than serve half-replayed state.
                self.quarantined[name] = (
                    f"WAL replay failed at seq {record.seq}: {exc}"
                )
                self.indexes.pop(name, None)
                if name in report.columns:
                    report.columns.remove(name)
                report.replayed.pop(name, None)
                continue
            report.replayed[name] = report.replayed.get(name, 0) + 1

        # Replayed records are WAL state not yet folded into any base:
        # exactly the columns the next checkpoint must snapshot.
        self.dirty = set(report.replayed)

        # -- fence ------------------------------------------------------
        catalog["epoch"] = epoch
        self._save_catalog(catalog)
        report.epoch = epoch
        report.quarantined = dict(self.quarantined)
        for index in self.indexes.values():
            # A whole-epoch jump: replaying N records yields version N,
            # which could collide with a pre-crash cursor's stamp.  The
            # epoch is strictly increasing across opens, so shifted
            # versions never repeat.
            index.version += epoch << 32

        self.wal = WriteAheadLog(
            wal_path,
            fs=self.fs,
            group_window=self.group_window,
            start_seq=scan.last_seq,
        )
        return report

    # ------------------------------------------------------------------
    # column lifecycle
    # ------------------------------------------------------------------
    def create_column(self, name: str, values, **column_kwargs) -> None:
        """Create (or replace) a column from a value array, durably.

        Re-creating a quarantined column is the supported repair path:
        the fresh base supersedes the corrupt file and lifts the
        quarantine.
        """
        column = Column(values, name=f"{self.table}.{name}", **column_kwargs)
        # Records already in the WAL predate this column; fence them.
        self.store.write_column(
            self.table, name, column, wal_upto=self.wal.seq
        )
        previous = self.indexes.get(name)
        index = DeltaAwareImprints(
            column, consolidate_threshold=1.0, **self._imprints_kwargs
        )
        index.version = (
            previous.version + 1 if previous else self.report.epoch << 32
        )
        self.indexes[name] = index
        # The fresh base already incorporates everything up to wal_upto,
        # and nothing after it targets this column yet: it is clean.
        self.dirty.discard(name)
        self.quarantined.pop(name, None)
        self.report.quarantined.pop(name, None)
        if name not in self.report.columns:
            self.report.columns.append(name)

    def columns(self) -> list[str]:
        return sorted(self.indexes)

    def index(self, name: str) -> DeltaAwareImprints:
        """The live delta-aware index for one healthy column."""
        if name in self.quarantined:
            raise QuarantinedColumnError(name, self.quarantined[name])
        try:
            return self.indexes[name]
        except KeyError:
            raise KeyError(
                f"table {self.table!r} has no column {name!r}; "
                f"has {self.columns()}"
            ) from None

    # ------------------------------------------------------------------
    # the durable mutation path: validate -> log -> fsync(ack) -> apply
    # ------------------------------------------------------------------
    def append(self, name: str, values) -> bool:
        """Durably append values; returns ``True`` once acknowledged.

        ``False`` means the frame is written but rides the current
        group-commit window — it will be acknowledged by a later
        mutation's fsync (or :meth:`sync`), and until then a crash may
        lose it (never corrupt it).
        """
        index = self.index(name)
        batch = index.delta.base.ctype.cast(values)
        if batch.ndim != 1:
            raise ValueError(
                f"appended values must be 1-D, got shape {batch.shape}"
            )
        self.wal.append(WalRecord.append(name, batch))
        acked = self.wal.commit()
        self.dirty.add(name)
        index.delta.append(batch)
        index.version += 1
        self._maybe_checkpoint()
        return acked

    def update(self, name: str, row_id: int, value) -> bool:
        """Durably update one row in place."""
        index = self.index(name)
        delta = index.delta
        if not 0 <= row_id < delta.n_rows:
            raise IndexError(
                f"id {row_id} out of range [0, {delta.n_rows})"
            )
        dtype = delta.base.ctype.dtype
        cast_value = np.asarray(value, dtype=dtype)[()]
        self.wal.append(WalRecord.update(name, row_id, cast_value, dtype))
        acked = self.wal.commit()
        self.dirty.add(name)
        delta.update(row_id, cast_value)
        index.version += 1
        self._maybe_checkpoint()
        return acked

    def delete(self, name: str, row_id: int) -> bool:
        """Durably delete one row."""
        index = self.index(name)
        if not 0 <= row_id < index.delta.n_rows:
            raise IndexError(
                f"id {row_id} out of range [0, {index.delta.n_rows})"
            )
        self.wal.append(WalRecord.delete(name, row_id))
        acked = self.wal.commit()
        self.dirty.add(name)
        index.delta.delete(row_id)
        index.version += 1
        self._maybe_checkpoint()
        return acked

    def sync(self) -> None:
        """Force the WAL fsync boundary (acknowledge everything)."""
        self.wal.sync()

    # ------------------------------------------------------------------
    # checkpoint: fold deltas into atomic snapshots, rotate the WAL
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        for index in self.indexes.values():
            base_rows = max(1, len(index.base_index.column))
            if index.delta.n_pending / base_rows > self.checkpoint_threshold:
                self.checkpoint()
                return

    def checkpoint(self) -> None:
        """Snapshot every *dirty* column and rotate the WAL.

        Incremental: only columns with WAL records since the last
        checkpoint (``self.dirty``) are re-materialised and rewritten —
        a clean column keeps its generation file byte-identical and its
        cursors.  A rewritten column's live index is rebased in place
        (:meth:`DeltaAwareImprints.rebase`), so an executor registered
        with :meth:`index` keeps reading current state while cursors
        into the old state go stale.  Correctness is unchanged:
        a clean column's base already incorporates everything the old
        WAL could replay into it, so resetting its ``wal_upto`` against
        the empty new WAL is still a no-op fence.

        See the module docstring for why each step may crash safely.
        """
        self.wal.sync()                      # 1. nothing in flight
        ckpt_seq = self.wal.seq
        catalog = self._catalog()
        old_generation = int(catalog.get("wal_generation", 1))
        new_generation = old_generation + 1
        new_wal_path = self.fs.join(self.directory, wal_name(new_generation))
        new_wal = WriteAheadLog(                  # 2. next WAL, durable magic
            new_wal_path, fs=self.fs, group_window=self.group_window
        )
        stale = {
            name for name, index in self.indexes.items()
            if name in self.dirty or index.delta.n_pending > 0
        }
        for name in sorted(stale):
            index = self.indexes[name]
            merged = index.delta.materialize()    # 3. snapshot + fence
            self.store.write_column(self.table, name, merged, wal_upto=ckpt_seq)
            index.rebase(merged)                  # live object, cursors stale
        catalog = self._catalog()                 # 4. the rotation commit
        catalog["wal_generation"] = new_generation
        for meta in catalog["columns"].values():
            meta["wal_upto"] = 0                  # new WAL numbers from 1
        self._save_catalog(catalog)
        self.dirty.clear()
        old_wal = self.wal
        self.wal = new_wal
        old_wal.close()                           # 5. cleanup, crash-safe
        old_path = self.fs.join(self.directory, wal_name(old_generation))
        try:
            self.fs.remove(old_path)
            self.fs.sync_dir(self.directory)
        except OSError:  # pragma: no cover - recovery sweeps it instead
            pass
        self.checkpoints += 1

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Sync and release the WAL (a clean shutdown loses nothing)."""
        if self.wal is not None:
            self.wal.sync()
            self.wal.close()
            self.wal = None

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
