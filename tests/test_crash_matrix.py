"""The crash matrix: every kill point of a mutation schedule, verified.

A fixed schedule — create a column, mutate it, checkpoint mid-stream,
mutate more — runs against :class:`FaultyFileSystem`.  A dry run counts
the filesystem operations the schedule performs; the matrix then kills
the "process" at every single operation, under every pending-bytes
policy, reboots onto the surviving bytes, and demands:

* **reopen never raises** — recovery handles every surviving state;
* **no wrong answers** — the recovered logical column equals the NumPy
  oracle (``tests/oracle.py``) after exactly ``k`` mutations, where
  ``k`` is the number of acknowledged mutations or one more (the
  in-flight one may have become durable before the kill; it must
  survive whole or not at all);
* **no unreadable columns** — with honest fsyncs, nothing the catalog
  references can be torn, so quarantine never triggers;
* **the recovered store serves and accepts writes** — ids, pages,
  first pages and aggregates agree with the oracle and a
  post-recovery append lands.

A second, weaker matrix drops every fsync (the disk lies): then even
acknowledged mutations may vanish, but the recovered state must still
be *some* prefix of the history — never a torn or interleaved state.
"""

import numpy as np
import pytest

from repro.predicate import RangePredicate
from repro.storage import INT
from repro.storage.durability import (
    DurableStore,
    FaultConfig,
    FaultyFileSystem,
    MemoryFileSystem,
    PENDING_POLICIES,
    SimulatedCrash,
)

from .oracle import DeltaTarget, MirrorColumn, check_all

BASE = np.arange(32, dtype=np.int32)

#: The schedule the matrix kills at every point.  ``checkpoint`` folds
#: the deltas and rotates the WAL mid-history, so kill points cover the
#: snapshot/rotation protocol too, not just WAL appends.
SCHEDULE = (
    ("append", [100, 101, 102]),
    ("update", (0, 900)),
    ("delete", 1),
    ("append", [103]),
    ("checkpoint", None),
    ("update", (2, 901)),
    ("delete", 3),
    ("append", [104, 105]),
)


#: The oracle after each schedule prefix (index = #steps).
STATES = MirrorColumn.states(BASE, SCHEDULE)


def run_schedule(fs):
    """Drive the schedule; returns (completed_steps, in_flight_kind).

    ``completed_steps`` counts fully finished schedule entries (-1 when
    the crash hit before ``create_column`` finished); ``in_flight_kind``
    is the entry the crash interrupted, or ``None``.
    """
    completed, in_flight = -1, None
    try:
        store = DurableStore(
            "store", "t", fs=fs, checkpoint_threshold=10.0**9
        )
        store.create_column("x", BASE)
        completed = 0
        for kind, payload in SCHEDULE:
            in_flight = kind
            if kind == "append":
                store.append("x", payload)
            elif kind == "update":
                store.update("x", *payload)
            elif kind == "delete":
                store.delete("x", payload)
            else:
                store.checkpoint()
            in_flight = None
            completed += 1
    except SimulatedCrash:
        return completed, in_flight
    return completed, None


def reopen(survivor: MemoryFileSystem) -> DurableStore:
    return DurableStore("store", "t", fs=survivor, checkpoint_threshold=10.0**9)


def recovered_values(store) -> np.ndarray:
    return np.asarray(store.index("x").delta.materialize().values)


def check_answers_match_oracle(store, allowed) -> None:
    """The store answers as the oracle state it recovered to: ids, page
    walks, first pages and every aggregate, over two predicates."""
    index = store.index("x")
    got = recovered_values(store)
    states = [
        state
        for state in allowed
        if np.array_equal(got, state.logical) and state.values.shape[0] == index.n_rows
    ]
    assert states, "the recovered id space matches no acknowledged prefix"
    target = DeltaTarget("recovered", index)
    for predicate in (RangePredicate.range(2, 104, INT), RangePredicate.everything()):
        check_all(states[0], [target], predicate)


def total_ops() -> int:
    fs = FaultyFileSystem(FaultConfig(crash_at=0))
    completed, in_flight = run_schedule(fs)
    assert completed == len(SCHEDULE) and in_flight is None
    return fs.ops


@pytest.mark.parametrize("pending", PENDING_POLICIES)
def test_every_crash_point_recovers_to_an_acknowledged_prefix(pending):
    ops = total_ops()
    assert ops > 40, "the schedule must exercise a real op surface"
    for crash_at in range(1, ops + 1):
        faulty = FaultyFileSystem(
            FaultConfig(crash_at=crash_at, pending=pending)
        )
        completed, in_flight = run_schedule(faulty)
        assert faulty.crashed, f"crash_at={crash_at} never fired"

        store = reopen(faulty.survivor())  # must never raise
        label = f"crash_at={crash_at} pending={pending}"
        assert store.quarantined == {}, (
            f"{label}: honest fsyncs can never leave a referenced file "
            f"unreadable, yet {store.quarantined}"
        )
        if completed < 0:
            # Killed before the column creation committed: the store is
            # either empty or holds the pristine base — nothing else.
            if "x" in store.indexes:
                assert np.array_equal(recovered_values(store), STATES[0].logical), (
                    f"{label}: a half-created column surfaced"
                )
            continue
        allowed = [STATES[completed]]
        if in_flight is not None:
            # An interrupted mutation is allowed to have reached the
            # disk whole (frame written and synced, crash before the
            # in-memory apply returned) — but only whole.  An
            # interrupted checkpoint changes no logical row, only
            # whether the deleted ones are compacted yet.
            allowed.append(STATES[completed + 1])
        got = recovered_values(store)
        assert any(np.array_equal(got, state.logical) for state in allowed), (
            f"{label}: recovered state matches no acknowledged prefix "
            f"(completed={completed}, in_flight={in_flight})"
        )
        check_answers_match_oracle(store, allowed)
        # the recovered store is live: a fresh durable append lands
        store.append("x", [999])
        assert recovered_values(store)[-1] == 999


def test_clean_run_reaches_the_final_state():
    fs = FaultyFileSystem(FaultConfig(crash_at=0))
    completed, _ = run_schedule(fs)
    assert completed == len(SCHEDULE)
    store = reopen(fs.survivor())
    assert np.array_equal(recovered_values(store), STATES[-1].logical)
    check_answers_match_oracle(store, STATES[-1:])


def test_dropped_fsyncs_weaken_to_prefix_consistency():
    """With a lying disk the fsyncs stop protecting acknowledgements —
    this is the fault the honest matrix cannot produce, and it proves
    the fsyncs are load-bearing.  The weakened contract: recovery either
    refuses loudly with a *typed* error (a rename can outlive the bytes
    it renamed — the zero-length-file-after-rename state), quarantines,
    or recovers *some* prefix of history — never a torn or interleaved
    state, and never an untyped crash."""
    from repro.errors import CorruptColumnError

    ops = total_ops()
    # Sample the op space (the full matrix runs above; this fault model
    # is strictly weaker, a stride keeps the suite fast).
    for crash_at in list(range(1, ops + 1, 7)) + [ops]:
        faulty = FaultyFileSystem(
            FaultConfig(crash_at=crash_at, pending="none", drop_syncs=True)
        )
        run_schedule(faulty)
        label = f"drop_syncs crash_at={crash_at}"
        try:
            store = reopen(faulty.survivor())
        except CorruptColumnError:
            continue  # loud, typed refusal: acceptable when fsync lies
        if "x" not in store.indexes or "x" in store.quarantined:
            continue  # losing the column entirely is a legal prefix (k=0-)
        got = recovered_values(store)
        assert any(np.array_equal(got, state.logical) for state in STATES), (
            f"{label}: recovered state is not a prefix of history"
        )
