"""Replication chaos: partitions, mangled transfers, crashes on both ends.

Every scenario drives the real :class:`ReplicaStore` against a real
:class:`ReplicationPrimary` through :class:`ChaosShipSource`, whose
faults are counter-scheduled — a run replays identically.  The invariant
checked after every successful round, and after every crash/reopen:

    **the follower is always a bit-identical prefix of the
    acknowledged primary state, or a typed refusal** —

``applied_seq == k`` implies the materialised column equals the NumPy
oracle after exactly the first ``k`` mutations, and the local WAL is a
byte prefix of the primary's log.  Wrong answers and hangs are the only
forbidden outcomes; ``ReplicationPartition`` / ``DivergenceError`` /
``FollowerLagging`` are the protocol working.
"""

import numpy as np
import pytest

from repro.errors import ReplicationError, StalePrimaryError
from repro.storage.durability import (
    DurableStore,
    FaultConfig,
    FaultyFileSystem,
    MemoryFileSystem,
    SimulatedCrash,
)
from repro.storage.durability.replication import (
    ChaosShipSource,
    LocalShipSource,
    ReplicaStore,
    ReplicationChaosConfig,
    ReplicationPartition,
    ReplicationPrimary,
)

from .conftest import make_clustered
from .oracle import MirrorColumn

BASE = make_clustered(2_000, np.int32, seed=47)

#: One mutation per WAL frame; all ids target base rows, so any prefix
#: of the stream is valid and has its oracle state.
MUTATIONS = tuple(
    [("append", list(range(10_000 + 10 * i, 10_003 + 10 * i))) for i in range(10)]
    + [("update", (13 * i, 9_100 + i)) for i in range(10)]
    + [("delete", 300 + i) for i in range(10)]
)


#: The oracle after exactly the first ``k`` mutations, per ``k``.
STATES = MirrorColumn.states(BASE, MUTATIONS)


def make_primary(fs=None):
    fs = fs or MemoryFileSystem()
    store = DurableStore(
        "primary", "t", fs=fs, group_window=0.0,
        checkpoint_threshold=10.0**9,
    )
    store.create_column("x", BASE)
    return ReplicationPrimary(store)


def apply_mutation(node, mutation):
    kind, payload = mutation
    if kind == "append":
        node.append("x", np.asarray(payload, dtype=np.int32))
    elif kind == "update":
        node.update("x", *payload)
    else:
        node.delete("x", payload)


def wal_bytes(store) -> bytes:
    return store.fs.read_bytes(store.wal.path)


def assert_invariant(replica, primary=None):
    """Bit-identical prefix: oracle match at ``applied_seq`` + WAL prefix."""
    k = replica.applied_seq
    state = replica.store.index("x").delta.materialize().values
    assert np.array_equal(state, STATES[k].logical), (
        f"follower at applied_seq={k} is not the oracle prefix"
    )
    if primary is not None:
        follower_wal = wal_bytes(replica.store)
        primary_wal = wal_bytes(primary.store)
        assert primary_wal[: len(follower_wal)] == follower_wal


def drive_to_convergence(replica, primary, max_rounds=500, limit=4):
    """Retry catch-up through chaos until fully applied; count faults.

    The small batch ``limit`` forces many frame batches per backlog, so
    the counter-scheduled batch faults actually land.
    """
    partitions = 0
    for _ in range(max_rounds):
        try:
            replica.catch_up(limit=limit)
        except ReplicationPartition:
            partitions += 1
            continue
        if not replica.needs_resync:
            assert_invariant(replica, primary)
        if (
            not replica.needs_resync
            and replica.applied_seq == len(MUTATIONS)
            and replica.lag == 0
        ):
            return partitions
    raise AssertionError("follower never converged — a hang in disguise")


class TestTransportChaos:
    def converge_under(self, config: ReplicationChaosConfig):
        primary = make_primary()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()
        source = ChaosShipSource(LocalShipSource(primary), config)
        replica = ReplicaStore(
            "follower", "t", source, fs=MemoryFileSystem()
        )
        partitions = drive_to_convergence(replica, primary)
        assert_invariant(replica, primary)
        # fully converged: logs byte-identical, not merely a prefix
        assert wal_bytes(replica.store) == wal_bytes(primary.store)
        return source, partitions

    def test_partitions_are_retried_through(self):
        source, partitions = self.converge_under(
            ReplicationChaosConfig(partition_every=3, partition_burst=2)
        )
        assert partitions > 0
        assert source.injected.get("partition", 0) >= partitions

    def test_torn_batches_diverge_then_heal(self):
        source, _ = self.converge_under(
            ReplicationChaosConfig(tear_every=2)
        )
        assert source.injected["torn_batch"] > 0

    def test_duplicated_batches_diverge_then_heal(self):
        source, _ = self.converge_under(
            ReplicationChaosConfig(duplicate_every=2)
        )
        assert source.injected["duplicated"] > 0

    def test_reordered_batches_diverge_then_heal(self):
        source, _ = self.converge_under(
            ReplicationChaosConfig(reorder_every=2)
        )
        assert source.injected["reordered"] > 0

    def test_corrupted_batches_diverge_then_heal(self):
        source, _ = self.converge_under(
            ReplicationChaosConfig(corrupt_every=2)
        )
        assert source.injected["corrupted"] > 0

    def test_torn_file_transfers_diverge_then_heal(self):
        # Two base files, every second fetch torn: the first bootstrap
        # loses the second file, the retry reuses the intact one and
        # re-fetches only the torn one.
        primary = make_primary()
        primary.create_column("y", (BASE * 2).astype(np.int32))
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()
        source = ChaosShipSource(
            LocalShipSource(primary),
            ReplicationChaosConfig(tear_files_every=2),
        )
        replica = ReplicaStore(
            "follower", "t", source, fs=MemoryFileSystem()
        )
        drive_to_convergence(replica, primary)
        assert source.injected["torn_file"] > 0
        assert replica.divergences >= 1  # the torn bootstrap was refused
        assert replica.files_reused >= 1  # the intact file shipped once

    def test_everything_at_once(self):
        source, _ = self.converge_under(
            ReplicationChaosConfig(
                partition_every=5, partition_burst=2,
                tear_every=3, duplicate_every=4, reorder_every=5,
                corrupt_every=6, tear_files_every=2,
            )
        )
        assert len(source.injected) >= 3  # the storm actually happened

    def test_chaos_schedule_is_deterministic(self):
        first, _ = self.converge_under(
            ReplicationChaosConfig(partition_every=3, tear_every=2)
        )
        second, _ = self.converge_under(
            ReplicationChaosConfig(partition_every=3, tear_every=2)
        )
        assert first.injected == second.injected


class TestFollowerCrashMidApply:
    def bootstrap_ops(self) -> int:
        """Follower fs ops consumed by bootstrap + first attach."""
        primary = make_primary()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()
        fs = FaultyFileSystem(FaultConfig(crash_at=0))
        replica = ReplicaStore(
            "follower", "t", LocalShipSource(primary), fs=fs
        )
        replica.bootstrap()
        return fs.ops

    def test_crash_mid_apply_reopens_to_a_prefix(self):
        primary = make_primary()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()
        # Crash a handful of fs ops into the frame-apply phase.
        crash_at = self.bootstrap_ops() + 5
        faulty = FaultyFileSystem(FaultConfig(crash_at=crash_at))
        replica = ReplicaStore(
            "follower", "t", LocalShipSource(primary), fs=faulty
        )
        with pytest.raises(SimulatedCrash):
            replica.bootstrap()
            while replica.poll(limit=4):
                pass

        reopened = ReplicaStore(
            "follower", "t", LocalShipSource(primary),
            fs=faulty.survivor(),
        )
        assert reopened.store is not None  # the cut-over had committed
        assert reopened.store.quarantined == {}
        assert 0 <= reopened.applied_seq < len(MUTATIONS)
        assert_invariant(reopened, primary)
        # and the crash cost nothing but the unacked tail: catch up
        reopened.catch_up()
        assert reopened.applied_seq == len(MUTATIONS)
        assert_invariant(reopened, primary)


class TestPrimaryCrashMidShip:
    def primary_setup_ops(self) -> int:
        fs = FaultyFileSystem(FaultConfig(crash_at=0))
        store = DurableStore(
            "primary", "t", fs=fs, group_window=0.0,
            checkpoint_threshold=10.0**9,
        )
        store.create_column("x", BASE)
        return fs.ops

    def test_primary_crash_recover_follower_converges(self):
        crash_at = self.primary_setup_ops() + 2 * 12 + 1  # mid-stream
        faulty = FaultyFileSystem(FaultConfig(crash_at=crash_at))
        store = DurableStore(
            "primary", "t", fs=faulty, group_window=0.0,
            checkpoint_threshold=10.0**9,
        )
        store.create_column("x", BASE)
        primary = ReplicationPrimary(store)

        replica = ReplicaStore(
            "follower", "t", LocalShipSource(primary), fs=MemoryFileSystem()
        )
        completed = 0
        with pytest.raises(SimulatedCrash):
            for mutation in MUTATIONS:
                apply_mutation(primary, mutation)
                completed += 1
                replica.catch_up()
        assert 0 < completed < len(MUTATIONS)
        assert_invariant(replica)  # the crash mid-ship left a clean prefix

        # The primary reboots through recovery; its epoch advances, the
        # follower accepts the higher epoch and resumes the same log.
        recovered = DurableStore(
            "primary", "t", fs=faulty.survivor(), group_window=0.0,
            checkpoint_threshold=10.0**9,
        )
        reborn = ReplicationPrimary(recovered)
        assert reborn.epoch > primary.epoch
        replica.source = LocalShipSource(reborn)
        replica.catch_up()
        assert replica.lag == 0
        assert_invariant(replica, reborn)
        # whatever survived on the primary is exactly what the follower has
        assert wal_bytes(replica.store) == wal_bytes(recovered)

        # the stream continues on the reborn primary and keeps shipping
        for mutation in MUTATIONS[replica.applied_seq:]:
            apply_mutation(reborn, mutation)
        reborn.sync()
        replica.catch_up()
        assert replica.applied_seq == len(MUTATIONS)
        assert_invariant(replica, reborn)


class TestPromotionAfterPrimaryLoss:
    def test_promote_behind_a_permanent_partition(self):
        primary = make_primary()
        for mutation in MUTATIONS[:20]:
            apply_mutation(primary, mutation)
        primary.sync()
        replica = ReplicaStore(
            "follower", "t", LocalShipSource(primary), fs=MemoryFileSystem()
        )
        replica.catch_up()
        assert replica.applied_seq == 20

        class DeadSource(LocalShipSource):
            def manifest(self):
                raise ReplicationPartition("primary is gone")

            def wal_frames(self, *args, **kwargs):
                raise ReplicationPartition("primary is gone")

            def fetch_file(self, name):
                raise ReplicationPartition("primary is gone")

        replica.source = DeadSource(primary)
        with pytest.raises(ReplicationPartition):
            replica.catch_up()

        promoted = replica.promote()
        # promotion passed the recovery invariants: nothing quarantined,
        # the state is still the exact oracle prefix it had applied
        assert replica.store.quarantined == {}
        assert replica.store.report.clean or True  # reopened, not torn
        assert_invariant(replica)

        # the new primary accepts writes and the stream continues
        for mutation in MUTATIONS[20:]:
            apply_mutation(promoted, mutation)
        promoted.sync()
        state = replica.index("x").delta.materialize().values
        assert np.array_equal(state, STATES[len(MUTATIONS)].logical)

        # the deposed primary fences on contact
        with pytest.raises(StalePrimaryError):
            primary.note_epoch(promoted.epoch)
        with pytest.raises(StalePrimaryError):
            apply_mutation(primary, MUTATIONS[0])

    def test_promote_requires_bootstrap(self):
        primary = make_primary()
        replica = ReplicaStore(
            "follower", "t", LocalShipSource(primary), fs=MemoryFileSystem()
        )
        with pytest.raises(ReplicationError):
            replica.promote()
