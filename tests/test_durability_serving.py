"""Durability through the serving layer: crash, recover, keep serving.

Satellite of the durability PR: a mutation stream runs against a
:class:`DurableStore` that also backs a live HTTP serving stack; the
filesystem is killed mid-stream; the store reopens from the surviving
bytes behind a *new* stack.  The contracts:

* a cursor minted before the crash answers ``410 Gone`` — never a page
  stitched across the restart;
* ``/healthz`` reports the recovery (epoch, replayed records,
  quarantine) and a quarantined column flips the status to
  ``degraded`` — impaired, still answering;
* requests against a quarantined column fail fast with ``503``, while
  healthy columns keep returning correct answers.
"""

import asyncio

import numpy as np
import pytest

from repro.engine import QueryExecutor
from repro.errors import QuarantinedColumnError, StaleCursorError
from repro.serving import (
    ImprintService,
    ServingClient,
    ServingConfig,
    ServingHTTPServer,
)
from repro.serving.http import status_for_exception
from repro.storage.durability import (
    DurableStore,
    FaultConfig,
    FaultyFileSystem,
    MemoryFileSystem,
    SimulatedCrash,
)

from .conftest import make_clustered

BASE = make_clustered(4_000, np.int32, seed=31)
LOW, HIGH = 9_000, 11_000

#: The mutation stream the crash interrupts (all against base-row ids).
MUTATIONS = tuple(
    [("append", list(range(10_000 + 10 * i, 10_005 + 10 * i))) for i in range(4)]
    + [("update", (7 * i, 9_500 + i)) for i in range(4)]
    + [("delete", 100 + i) for i in range(4)]
)


def apply_mutation(durable, mutation):
    kind, payload = mutation
    if kind == "append":
        durable.append("x", np.asarray(payload, dtype=np.int32))
    elif kind == "update":
        durable.update("x", *payload)
    else:
        durable.delete("x", payload)


def make_service(durable, columns=("x",), **config):
    executor = QueryExecutor(
        {name: durable.index(name) for name in columns},
        max_batch=16,
    )
    service = ImprintService(executor, ServingConfig(**config))
    service.attach_durability(durable)
    return service


def setup_ops() -> int:
    """Filesystem ops consumed by store creation + column ingest."""
    fs = FaultyFileSystem(FaultConfig(crash_at=0))
    store = DurableStore("store", "t", fs=fs, checkpoint_threshold=10.0**9)
    store.create_column("x", BASE)
    return fs.ops


class TestCrashMidStreamThroughTheStack:
    def run(self):
        # Crash deep into the mutation stream: each mutation is one WAL
        # write + one fsync, so this lands inside the 9th mutation.
        crash_at = setup_ops() + 2 * 8 + 1
        faulty = FaultyFileSystem(FaultConfig(crash_at=crash_at))
        durable = DurableStore(
            "store", "t", fs=faulty, checkpoint_threshold=10.0**9
        )
        durable.create_column("x", BASE)

        async def body():
            # ---- before the crash: serve pages, mint a cursor --------
            service = make_service(durable)
            completed = 0
            try:
                async with ServingHTTPServer(service) as server:
                    client = ServingClient(*server.address)
                    first = await client.page("x", LOW, HIGH, limit=16)
                    assert first.status == 200
                    cursor = first.body["cursor"]
                    assert cursor is not None

                    with pytest.raises(SimulatedCrash):
                        for mutation in MUTATIONS:
                            apply_mutation(durable, mutation)
                            completed += 1
                    assert 0 < completed < len(MUTATIONS)
            finally:
                await service.close()

            # ---- reboot: recover onto the surviving bytes ------------
            recovered = DurableStore(
                "store", "t", fs=faulty.survivor(),
                checkpoint_threshold=10.0**9,
            )
            assert recovered.quarantined == {}
            # every acknowledged mutation replayed; the in-flight one
            # either made it to disk whole or vanished
            assert recovered.report.replayed_total in (completed, completed + 1)

            fresh = make_service(recovered)
            try:
                async with ServingHTTPServer(fresh) as server:
                    client = ServingClient(*server.address)

                    health = await client.healthz()
                    assert health.status == 200
                    durability = health.body["durability"]
                    assert durability["quarantined"] == []
                    assert durability["epoch"] == recovered.report.epoch
                    assert durability["replayed_records"] == (
                        recovered.report.replayed_total
                    )

                    # the pre-crash cursor died with the pre-crash
                    # snapshot: 410, never a silently spliced page
                    stale = await client.page(
                        "x", LOW, HIGH, limit=16, cursor=cursor, retry=False
                    )
                    assert stale.status == 410
                    assert stale.body["error"] == "StaleCursorError"
                    assert fresh.stats.stale_cursors == 1

                    # a fresh query answers from the recovered state
                    response = await client.query(
                        "x", LOW, HIGH, mode="count", retry=False
                    )
                    assert response.status == 200
                    values = recovered.index("x").delta.materialize().values
                    expected = int(np.sum((values >= LOW) & (values < HIGH)))
                    assert response.body["count"] == expected

                    stats = await client.stats()
                    wal_stats = stats.body["durability"]
                    assert wal_stats["wal_seq"] >= completed
                    assert wal_stats["recovery"]["table"] == "t"
            finally:
                await fresh.close()

        asyncio.run(body())

    def test_crash_recover_and_keep_serving(self):
        self.run()


class TestQuarantineThroughTheStack:
    def make_recovered_with_quarantine(self):
        fs = MemoryFileSystem()
        store = DurableStore("store", "t", fs=fs)
        store.create_column("x", BASE)
        store.create_column("y", BASE * 2)
        catalog = store.store._load_catalog("t")
        store.close()
        data = "store/t/" + catalog["columns"]["x"]["file"]
        payload = bytearray(fs.read_bytes(data))
        payload[11] ^= 0x80
        fs.create(data).write(bytes(payload))
        fs.flush_all()
        recovered = DurableStore("store", "t", fs=fs)
        assert "x" in recovered.quarantined
        return recovered

    def test_quarantine_maps_to_503(self):
        exc = QuarantinedColumnError("x", "checksum mismatch")
        assert status_for_exception(exc) == 503

    def test_quarantined_column_fails_fast_healthy_column_serves(self):
        recovered = self.make_recovered_with_quarantine()

        async def body():
            service = make_service(recovered, columns=("y",))
            try:
                async with ServingHTTPServer(service) as server:
                    client = ServingClient(*server.address)

                    health = await client.healthz()
                    assert health.status == 200  # degraded, not dead
                    assert health.body["status"] == "degraded"
                    assert health.body["durability"]["quarantined"] == ["x"]

                    sick = await client.query(
                        "x", LOW, HIGH, mode="count", retry=False
                    )
                    assert sick.status == 503
                    assert sick.body["error"] == "QuarantinedColumnError"

                    healthy = await client.query(
                        "y", 2 * LOW, 2 * HIGH, mode="count", retry=False
                    )
                    assert healthy.status == 200
                    expected = int(np.sum((BASE * 2 >= 2 * LOW) & (BASE * 2 < 2 * HIGH)))
                    assert healthy.body["count"] == expected
            finally:
                await service.close()

        asyncio.run(body())

    def test_quarantine_check_raises_before_admission(self):
        recovered = self.make_recovered_with_quarantine()

        async def body():
            service = make_service(recovered, columns=("y",))
            try:
                with pytest.raises(QuarantinedColumnError, match="re-ingest"):
                    await service.query("x", LOW, HIGH)
                assert service.stats.failed == 1
            finally:
                await service.close()

        asyncio.run(body())
