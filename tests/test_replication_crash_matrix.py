"""The follower crash matrix: every kill point of bootstrap + apply.

The primary is healthy and fixed; the *follower's* filesystem is the
:class:`FaultyFileSystem`.  A dry run counts every fs operation the
follower performs across bootstrap (manifest, base-file fetch+verify,
catalog cut-over) and frame apply (WAL append, group sync, replay); the
matrix then kills the follower at every single operation, under every
pending-bytes policy, reboots onto the surviving bytes, and demands:

* **reopen never raises** — the follower reuses the standard recovery
  state machine, so every surviving state is either "nothing committed
  yet" (re-bootstrap from scratch) or a well-formed store;
* **nothing quarantined** — honest fsyncs leave no referenced file torn;
* **the reopened state is an exact oracle prefix** — the materialised
  column equals the NumPy oracle after exactly ``applied_seq``
  mutations, the follower's answers are that oracle's, and the local
  WAL is a byte prefix of the primary's log;
* **catch-up completes** — the crash cost at most the unacknowledged
  tail; resuming replication converges to the full state with logs
  byte-identical.
"""

import numpy as np
import pytest

from repro.storage.durability import (
    DurableStore,
    FaultConfig,
    FaultyFileSystem,
    MemoryFileSystem,
    PENDING_POLICIES,
    SimulatedCrash,
)
from repro.storage.durability.replication import (
    LocalShipSource,
    ReplicaStore,
    ReplicationPrimary,
)

from .oracle import DeltaTarget, MirrorColumn, check_all

BASE = np.arange(32, dtype=np.int32)

#: One WAL frame per entry; ids target base rows only.
MUTATIONS = (
    ("append", [100, 101, 102]),
    ("update", (0, 900)),
    ("delete", 1),
    ("append", [103]),
    ("update", (2, 901)),
    ("delete", 3),
    ("append", [104, 105]),
    ("update", (4, 902)),
)


#: The oracle after each mutation prefix (index = #applied).
STATES = MirrorColumn.states(BASE, MUTATIONS)


def make_primary() -> ReplicationPrimary:
    store = DurableStore(
        "primary", "t", fs=MemoryFileSystem(), group_window=0.0,
        checkpoint_threshold=10.0**9,
    )
    store.create_column("x", BASE)
    primary = ReplicationPrimary(store)
    for kind, payload in MUTATIONS:
        if kind == "append":
            primary.append("x", np.asarray(payload, dtype=np.int32))
        elif kind == "update":
            primary.update("x", *payload)
        else:
            primary.delete("x", payload)
    primary.sync()
    return primary


def run_follower(fs, primary) -> None:
    """Bootstrap + apply the whole backlog on the faulty filesystem."""
    replica = ReplicaStore("follower", "t", LocalShipSource(primary), fs=fs)
    replica.bootstrap()
    while replica.poll(limit=2):
        pass


def follower_values(replica) -> np.ndarray:
    return np.asarray(replica.store.index("x").delta.materialize().values)


def check_follower_answers(replica, state) -> None:
    """The follower answers as its oracle prefix: ids, page walks,
    first pages and every aggregate."""
    check_all(state, [DeltaTarget("follower", replica.store.index("x"))])


def wal_bytes(store) -> bytes:
    return store.fs.read_bytes(store.wal.path)


def total_ops(primary) -> int:
    fs = FaultyFileSystem(FaultConfig(crash_at=0))
    run_follower(fs, primary)
    return fs.ops


@pytest.mark.parametrize("pending", PENDING_POLICIES)
def test_every_follower_crash_point_recovers_to_a_prefix(pending):
    primary = make_primary()
    ops = total_ops(primary)
    assert ops > 30, "the follower schedule must exercise a real op surface"
    primary_wal = wal_bytes(primary.store)

    for crash_at in range(1, ops + 1):
        faulty = FaultyFileSystem(
            FaultConfig(crash_at=crash_at, pending=pending)
        )
        with pytest.raises(SimulatedCrash):
            run_follower(faulty, primary)
        label = f"crash_at={crash_at} pending={pending}"

        # reboot onto the surviving bytes — must never raise
        reopened = ReplicaStore(
            "follower", "t", LocalShipSource(primary),
            fs=faulty.survivor(),
        )
        if reopened.store is None:
            # Killed before the catalog cut-over committed: nothing to
            # verify locally; a fresh catch-up must still converge.
            pass
        else:
            assert reopened.store.quarantined == {}, (
                f"{label}: honest fsyncs can never leave a referenced "
                f"file unreadable, yet {reopened.store.quarantined}"
            )
            k = reopened.applied_seq
            assert 0 <= k <= len(MUTATIONS), label
            got = follower_values(reopened)
            assert np.array_equal(got, STATES[k].logical), (
                f"{label}: reopened state is not the oracle prefix at "
                f"applied_seq={k}"
            )
            check_follower_answers(reopened, STATES[k])
            local = wal_bytes(reopened.store)
            assert primary_wal[: len(local)] == local, (
                f"{label}: local WAL is not a byte prefix of the primary's"
            )

        # the crash cost at most the unapplied tail: resume and converge
        report = reopened.catch_up()
        assert not report.divergences, (
            f"{label}: resuming after a crash required no divergence, "
            f"got {report.divergences}"
        )
        assert reopened.applied_seq == len(MUTATIONS), label
        assert np.array_equal(follower_values(reopened), STATES[-1].logical), label
        assert wal_bytes(reopened.store) == primary_wal, label
        reopened.close()


def test_clean_follower_run_reaches_the_final_state():
    primary = make_primary()
    fs = FaultyFileSystem(FaultConfig(crash_at=0))
    run_follower(fs, primary)
    reopened = ReplicaStore(
        "follower", "t", LocalShipSource(primary), fs=fs.survivor()
    )
    assert reopened.applied_seq == len(MUTATIONS)
    assert np.array_equal(follower_values(reopened), STATES[-1].logical)
    check_follower_answers(reopened, STATES[-1])
    assert wal_bytes(reopened.store) == wal_bytes(primary.store)
