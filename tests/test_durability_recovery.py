"""Tests for startup recovery: replay, sweep, quarantine, fencing.

Most tests run on :class:`MemoryFileSystem` so every durability state
is explicit; a handful run against the real OS filesystem to prove the
seam is honest end to end.
"""

import numpy as np
import pytest

from repro.engine import QueryExecutor
from repro.errors import QuarantinedColumnError, StaleCursorError
from repro.predicate import RangePredicate
from repro.storage.durability import (
    DurableStore,
    FaultConfig,
    FaultyFileSystem,
    LocalShipSource,
    MemoryFileSystem,
    ReplicaStore,
    ReplicationPrimary,
    wal_name,
)

BASE = np.arange(100, dtype=np.int32)


@pytest.fixture
def fs():
    return MemoryFileSystem()


def open_store(fs, **kwargs):
    kwargs.setdefault("checkpoint_threshold", 0.9)
    return DurableStore("store", "t", fs=fs, **kwargs)


def seed_store(fs, **kwargs):
    store = open_store(fs, **kwargs)
    store.create_column("x", BASE)
    return store


def logical(store, name="x"):
    return store.index(name).delta.materialize().values


class TestCleanLifecycle:
    def test_fresh_table_reports_clean(self, fs):
        store = open_store(fs)
        assert store.report.clean
        assert store.columns() == []
        assert store.report.epoch == 1

    def test_mutations_survive_a_clean_reopen(self, fs):
        store = seed_store(fs)
        store.append("x", [100, 101])
        store.update("x", 0, 77)
        store.delete("x", 1)
        expected = logical(store)
        store.close()

        reopened = open_store(fs)
        assert reopened.report.clean
        assert reopened.report.replayed == {"x": 3}
        assert np.array_equal(logical(reopened), expected)

    def test_acked_mutations_survive_without_any_close(self, fs):
        # group_window=0: every returned mutation was fsynced, so even
        # an abrupt exit (no close) loses nothing.
        store = seed_store(fs)
        assert store.append("x", [5, 6]) is True
        expected = logical(store)
        del store

        reopened = open_store(fs)
        assert np.array_equal(logical(reopened), expected)

    def test_queries_answer_from_recovered_state(self, fs):
        store = seed_store(fs)
        store.update("x", 3, 1_000)
        store.delete("x", 4)
        store.close()

        reopened = open_store(fs)
        result = reopened.index("x").query_range(0, 50)
        values, deleted = list(BASE), {4}
        values[3] = 1_000
        expected = [
            i for i, v in enumerate(values)
            if i not in deleted and 0 <= v < 50
        ]
        assert result.ids.tolist() == expected

    def test_a_refused_update_logs_nothing(self, fs):
        # An update of a deleted row is refused before its record is
        # logged: a logged record that cannot replay would quarantine
        # the column on reopen and diverge every follower.
        store = seed_store(fs)
        replica = ReplicaStore(
            "follower", "t", LocalShipSource(ReplicationPrimary(store)),
            fs=MemoryFileSystem(),
        )
        replica.catch_up()
        store.delete("x", 5)
        logged = store.wal.seq
        with pytest.raises(ValueError, match="was deleted"):
            store.update("x", 5, 42)
        assert store.wal.seq == logged
        assert replica.poll() == 1
        expected = logical(store)
        assert np.array_equal(logical(replica), expected)
        store.close()

        reopened = open_store(fs)
        assert reopened.report.clean
        assert reopened.quarantined == {}
        assert np.array_equal(logical(reopened), expected)

    def test_epoch_increments_on_every_open(self, fs):
        seed_store(fs).close()
        assert open_store(fs).report.epoch == 2
        assert open_store(fs).report.epoch == 3

    def test_versions_never_go_backwards_across_reopens(self, fs):
        store = seed_store(fs)
        store.append("x", [1])
        before = store.index("x").version
        store.close()
        reopened = open_store(fs)
        assert reopened.index("x").version > before

    def test_report_as_dict_is_json_shaped(self, fs):
        import json

        report = seed_store(fs).report.as_dict()
        assert json.loads(json.dumps(report)) == report
        for key in ("table", "epoch", "clean", "quarantined", "replayed_total"):
            assert key in report


class TestUnackedTail:
    def test_unacked_mutations_may_be_lost_never_corrupt(self):
        faulty = FaultyFileSystem(FaultConfig(pending="none"))
        store = seed_store(faulty, group_window=60.0)
        acked = store.append("x", [200])  # buffered: window never elapses
        assert acked is False
        assert store.wal.unacknowledged == 1

        reopened = open_store(FaultyFileSystem.from_survivor(
            faulty.survivor(), FaultConfig()
        ))
        # the unacked append is gone; the base column is intact
        assert np.array_equal(logical(reopened), BASE)
        assert reopened.report.clean

    def test_sync_turns_the_tail_durable(self):
        faulty = FaultyFileSystem(FaultConfig(pending="none"))
        store = seed_store(faulty, group_window=60.0)
        store.append("x", [200])
        store.sync()
        reopened = open_store(faulty.survivor())
        assert logical(reopened)[-1] == 200


class TestCheckpoint:
    def test_checkpoint_folds_and_rotates(self, fs):
        store = seed_store(fs)
        store.append("x", [500, 600])
        store.delete("x", 0)
        store.checkpoint()
        assert store.checkpoints == 1
        # rotation: a fresh WAL generation, the old log gone
        assert fs.exists("store/t/" + wal_name(2))
        assert not fs.exists("store/t/" + wal_name(1))
        expected = logical(store)

        store.close()
        reopened = open_store(fs)
        assert reopened.report.replayed_total == 0  # all folded into base
        assert np.array_equal(logical(reopened), expected)

    def test_post_checkpoint_mutations_replay_from_the_new_wal(self, fs):
        store = seed_store(fs)
        store.append("x", [500])
        store.checkpoint()
        store.append("x", [600])
        expected = logical(store)
        store.close()

        reopened = open_store(fs)
        assert reopened.report.replayed == {"x": 1}
        assert np.array_equal(logical(reopened), expected)

    def test_threshold_triggers_automatic_checkpoint(self, fs):
        store = seed_store(fs, checkpoint_threshold=0.05)
        store.append("x", np.arange(10, dtype=np.int32))
        assert store.checkpoints >= 1

    def test_checkpoint_compacts_deleted_rows(self, fs):
        store = seed_store(fs)
        store.delete("x", 0)
        store.checkpoint()
        assert len(store.index("x").base_index.column) == len(BASE) - 1

    def test_executor_registered_before_checkpoints_reads_current_state(self):
        # The serve --store wiring: register store.index(name) once, then
        # keep writing through checkpoints.
        store = open_store(MemoryFileSystem(), checkpoint_threshold=0.25)
        rng = np.random.default_rng(7)
        mirror = rng.integers(0, 1_000, 10_000).astype(np.int32)
        store.create_column("x", mirror)
        predicate = RangePredicate.range(100, 400, store.index("x").column.ctype)
        with QueryExecutor({"x": store.index("x")}) as ex:
            for _ in range(8):
                batch = rng.integers(0, 1_000, 1_000).astype(np.int32)
                store.append("x", batch)
                mirror = np.concatenate([mirror, batch])
                expected = np.flatnonzero((mirror >= 100) & (mirror < 400))
                assert np.array_equal(ex.query("x", predicate).ids, expected)
                assert ex.aggregate("x", predicate, "count") == expected.size
        assert store.checkpoints >= 2

    def test_cursor_taken_before_a_checkpoint_goes_stale(self, fs):
        store = seed_store(fs)
        store.append("x", np.arange(100, 120, dtype=np.int32))
        predicate = RangePredicate.range(0, 150, store.index("x").column.ctype)
        with QueryExecutor({"x": store.index("x")}) as ex:
            page, cursor = ex.query_paged("x", predicate, 10)
            assert page.tolist() == list(range(10))
            store.checkpoint()  # "x" has a pending append: rebased
            with pytest.raises(StaleCursorError):
                ex.query_paged("x", predicate, 10, cursor)
            page, _ = ex.query_paged("x", predicate, 10)
            assert page.tolist() == list(range(10))


class TestQuarantine:
    def corrupt(self, fs, store, name="x"):
        catalog = store.store._load_catalog("t")
        data = "store/t/" + catalog["columns"][name]["file"]
        payload = bytearray(fs.read_bytes(data))
        payload[7] ^= 0xFF
        fs.create(data).write(bytes(payload))
        fs.flush_all()
        return data

    def test_corrupt_column_is_quarantined_not_fatal(self, fs):
        store = seed_store(fs)
        store.create_column("y", BASE * 2)
        self.corrupt(fs, store, "x")
        store.close()

        reopened = open_store(fs)
        assert "x" in reopened.quarantined
        assert "checksum mismatch" in reopened.quarantined["x"]
        assert not reopened.report.clean
        with pytest.raises(QuarantinedColumnError, match="quarantined"):
            reopened.index("x")
        # the healthy column keeps serving
        assert np.array_equal(logical(reopened, "y"), BASE * 2)

    def test_missing_data_file_is_quarantined(self, fs):
        store = seed_store(fs)
        catalog = store.store._load_catalog("t")
        fs.remove("store/t/" + catalog["columns"]["x"]["file"])
        fs.flush_all()
        store.close()
        reopened = open_store(fs)
        assert "missing" in reopened.quarantined["x"]

    def test_mutating_a_quarantined_column_raises(self, fs):
        store = seed_store(fs)
        self.corrupt(fs, store)
        store.close()
        reopened = open_store(fs)
        for call in (
            lambda: reopened.append("x", [1]),
            lambda: reopened.update("x", 0, 1),
            lambda: reopened.delete("x", 0),
        ):
            with pytest.raises(QuarantinedColumnError):
                call()

    def test_reingest_lifts_the_quarantine(self, fs):
        store = seed_store(fs)
        self.corrupt(fs, store)
        store.close()
        reopened = open_store(fs)
        assert "x" in reopened.quarantined

        reopened.create_column("x", BASE)  # the documented repair path
        assert "x" not in reopened.quarantined
        assert np.array_equal(logical(reopened), BASE)
        reopened.append("x", [7])  # mutable again
        reopened.close()
        assert open_store(fs).report.clean

    def test_unknown_column_raises_key_error_not_quarantine(self, fs):
        store = seed_store(fs)
        with pytest.raises(KeyError, match="no column"):
            store.index("ghost")


class TestSweep:
    def test_orphan_artifacts_are_removed(self, fs):
        store = seed_store(fs)
        expected = logical(store)
        store.close()
        for orphan in ("ghost.bin", "x.3.bin.tmp", wal_name(99), "old.imprints"):
            fs.create("store/t/" + orphan).write(b"junk")
        fs.flush_all()

        reopened = open_store(fs)
        assert sorted(reopened.report.orphans_removed) == [
            "ghost.bin", "old.imprints", wal_name(99), "x.3.bin.tmp",
        ]
        for orphan in reopened.report.orphans_removed:
            assert not fs.exists("store/t/" + orphan)
        assert np.array_equal(logical(reopened), expected)

    def test_unrecognised_files_are_left_alone(self, fs):
        store = seed_store(fs)
        store.close()
        fs.create("store/t/NOTES.md").write(b"operator breadcrumbs")
        fs.flush_all()
        reopened = open_store(fs)
        assert reopened.report.orphans_removed == []
        assert fs.read_bytes("store/t/NOTES.md") == b"operator breadcrumbs"

    def test_torn_wal_tail_is_truncated_and_reported(self, fs):
        store = seed_store(fs)
        store.append("x", [300])
        store.close()
        wal_path = "store/t/" + wal_name(1)
        fs.open_append(wal_path).write(b"\x21\x00\x00")  # half a frame head
        fs.flush_all()

        reopened = open_store(fs)
        assert reopened.report.torn_bytes == 3
        assert not reopened.report.clean
        assert logical(reopened)[-1] == 300  # the acked prefix replayed


class TestOnRealFilesystem:
    def test_full_lifecycle_on_disk(self, tmp_path):
        store = DurableStore(tmp_path / "store", "t")
        store.create_column("x", BASE)
        store.append("x", [100, 101])
        store.delete("x", 5)
        expected = logical(store).copy()
        store.checkpoint()
        store.update("x", 0, 42)
        expected[0] = 42
        store.close()

        reopened = DurableStore(tmp_path / "store", "t")
        assert reopened.report.replayed == {"x": 1}
        assert np.array_equal(logical(reopened), expected)
        reopened.close()

    def test_context_manager_closes_cleanly(self, tmp_path):
        with DurableStore(tmp_path / "store", "t") as store:
            store.create_column("x", BASE)
        assert store.wal is None


class TestRecoverCommand:
    def run_cli(self, *argv):
        import contextlib
        import io

        from repro.cli import main

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
        return code, buffer.getvalue()

    def test_recover_reports_each_table(self, tmp_path):
        root = tmp_path / "store"
        with DurableStore(root, "t") as store:
            store.create_column("x", BASE)
            store.append("x", [7])

        code, out = self.run_cli("recover", str(root))
        assert code == 0
        assert "t: clean" in out
        assert "replayed WAL records: x=1" in out

    def test_recover_surfaces_quarantine(self, tmp_path):
        root = tmp_path / "store"
        with DurableStore(root, "t") as store:
            store.create_column("x", BASE)
            data = root / "t" / store.store._load_catalog("t")["columns"]["x"]["file"]
        data.write_bytes(data.read_bytes()[:-4])

        code, out = self.run_cli("recover", str(root))
        assert code == 0
        assert "QUARANTINED x:" in out

    def test_recover_json_and_checkpoint(self, tmp_path):
        import json

        root = tmp_path / "store"
        with DurableStore(root, "t") as store:
            store.create_column("x", BASE)
            store.append("x", [9])

        code, out = self.run_cli("recover", str(root), "--checkpoint", "--json")
        assert code == 0
        (report,) = json.loads(out)
        assert report["table"] == "t" and report["replayed"] == {"x": 1}
        # the checkpoint folded the log: the next open replays nothing
        with DurableStore(root, "t") as reopened:
            assert reopened.report.replayed_total == 0

    def test_recover_empty_root(self, tmp_path):
        code, out = self.run_cli("recover", str(tmp_path / "void"))
        assert code == 0
        assert "no tables" in out
