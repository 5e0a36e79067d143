"""WAL-shipping replication: ship, apply, diverge, promote, serve.

The contract under test (``docs/REPLICATION.md``):

* a follower's state is always a **bit-identical prefix** of the
  primary's acknowledged state — the materialised column matches and the
  local WAL is a byte prefix of the primary's log;
* every verification failure (CRC, sequence continuity, generation
  skew, unknown column) is a typed :class:`DivergenceError` that flags
  the follower for re-bootstrap — never a wrong answer;
* bounded staleness: reads refuse with :class:`FollowerLagging` past
  ``max_lag_seq``, and writes refuse with :class:`NotPrimaryError`;
* promotion reopens through full recovery, bumps the cluster epoch and
  fences the deposed primary (:class:`StalePrimaryError`);
* the same state machine round-trips the real HTTP transport.
"""

import asyncio

import numpy as np
import pytest

from repro.engine import QueryExecutor
from repro.errors import (
    DivergenceError,
    FollowerLagging,
    NotPrimaryError,
    ReplicationError,
    StalePrimaryError,
)
from repro.serving import (
    ImprintService,
    ServingClient,
    ServingConfig,
    ServingHTTPServer,
)
from repro.storage.durability import (
    DurableStore,
    MemoryFileSystem,
)
from repro.storage.durability.replication import (
    HttpShipSource,
    LocalShipSource,
    ReplicaStore,
    ReplicationPrimary,
)

from .conftest import make_clustered

BASE = make_clustered(3_000, np.int32, seed=41)
LOW, HIGH = 9_000, 11_000

#: A mutation stream against base-row ids only (valid from any prefix).
MUTATIONS = tuple(
    [("append", list(range(10_000 + 10 * i, 10_004 + 10 * i))) for i in range(5)]
    + [("update", (11 * i, 9_200 + i)) for i in range(5)]
    + [("delete", 200 + i) for i in range(5)]
)


def make_primary(fs=None, group_window=0.0, **kwargs):
    fs = fs or MemoryFileSystem()
    store = DurableStore(
        "primary", "t", fs=fs, group_window=group_window,
        checkpoint_threshold=kwargs.pop("checkpoint_threshold", 10.0**9),
        **kwargs,
    )
    store.create_column("x", BASE)
    return ReplicationPrimary(store), fs


def make_follower(primary, fs=None, **kwargs):
    return ReplicaStore(
        "follower", "t", LocalShipSource(primary),
        fs=fs or MemoryFileSystem(), **kwargs,
    )


def apply_mutation(node, mutation):
    kind, payload = mutation
    if kind == "append":
        node.append("x", np.asarray(payload, dtype=np.int32))
    elif kind == "update":
        node.update("x", *payload)
    else:
        node.delete("x", payload)


def state_of(index) -> np.ndarray:
    return index.delta.materialize().values


def wal_bytes(store) -> bytes:
    return store.fs.read_bytes(store.wal.path)


def assert_prefix(replica, primary):
    """The follower invariant: bit-identical prefix of the primary."""
    follower_wal = wal_bytes(replica.store)
    primary_wal = wal_bytes(primary.store)
    assert primary_wal[: len(follower_wal)] == follower_wal


class TestShipAndApply:
    def test_bootstrap_catch_up_bit_identical(self):
        primary, _ = make_primary()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()

        replica = make_follower(primary)
        report = replica.catch_up()
        assert report.bootstrapped
        assert report.frames_applied == len(MUTATIONS)
        assert replica.lag == 0
        assert np.array_equal(
            state_of(replica.index("x")), state_of(primary.store.index("x"))
        )
        # fully caught up: the logs are byte-identical, not just a prefix
        assert wal_bytes(replica.store) == wal_bytes(primary.store)
        info = replica.replication_info()
        assert info["role"] == "follower"
        assert info["applied_seq"] == len(MUTATIONS)
        assert primary.followers  # the poll introduced us

    def test_batched_polls_stay_a_prefix(self):
        primary, _ = make_primary()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()
        replica = make_follower(primary)
        replica.bootstrap()
        applied_total = 0
        while True:
            applied = replica.poll(limit=4)
            if applied == 0:
                break
            applied_total += applied
            assert_prefix(replica, primary)
        assert applied_total == len(MUTATIONS)

    def test_only_acknowledged_frames_ship(self):
        # A huge group window: appends return unacknowledged until sync.
        primary, _ = make_primary(group_window=60.0)
        apply_mutation(primary, MUTATIONS[0])
        replica = make_follower(primary)
        replica.bootstrap()
        assert replica.poll() == 0  # written but not acked: nothing ships
        primary.sync()
        assert replica.poll() == 1

    def test_live_stream_interleaved(self):
        primary, _ = make_primary()
        replica = make_follower(primary)
        replica.catch_up()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
            replica.catch_up()
            assert replica.lag == 0
            assert_prefix(replica, primary)
        assert np.array_equal(
            state_of(replica.index("x")), state_of(primary.store.index("x"))
        )

    def test_follower_restart_resumes_from_surviving_seq(self):
        primary, _ = make_primary()
        for mutation in MUTATIONS[:8]:
            apply_mutation(primary, mutation)
        primary.sync()
        follower_fs = MemoryFileSystem()
        replica = make_follower(primary, fs=follower_fs)
        replica.catch_up()
        replica.close()
        follower_fs.flush_all()

        for mutation in MUTATIONS[8:]:
            apply_mutation(primary, mutation)
        primary.sync()

        reopened = make_follower(primary, fs=follower_fs)
        assert reopened.applied_seq == 8  # restored through recovery
        report = reopened.catch_up()
        assert not report.bootstrapped  # resumed, not re-fetched
        assert report.frames_applied == len(MUTATIONS) - 8
        assert np.array_equal(
            state_of(reopened.index("x")), state_of(primary.store.index("x"))
        )


class TestDivergence:
    def caught_up_pair(self):
        primary, _ = make_primary()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()
        replica = make_follower(primary)
        replica.catch_up()
        return primary, replica

    def test_corrupt_frame_is_refused_then_healed(self):
        primary, replica = self.caught_up_pair()

        class Corrupting(LocalShipSource):
            def wal_frames(self, *args, **kwargs):
                body = super().wal_frames(*args, **kwargs)
                frames = [dict(entry) for entry in body["frames"]]
                if frames:
                    payload = bytearray(frames[0]["data"])
                    payload[-1] ^= 0x01
                    frames[0]["data"] = bytes(payload)
                    from repro.storage.durability.replication import batch_crc32
                    body = dict(body)
                    body["frames"] = frames
                    body["batch_crc32"] = batch_crc32(
                        [entry["data"] for entry in frames]
                    )
                return body

        apply_mutation(primary, MUTATIONS[0])
        primary.sync()
        replica.source = Corrupting(primary)
        with pytest.raises(DivergenceError, match="failed verification"):
            replica.poll()
        assert replica.needs_resync
        with pytest.raises(DivergenceError):
            replica.check_read("x")
        # the remedy is deterministic: re-bootstrap over a clean source
        replica.source = LocalShipSource(primary)
        report = replica.catch_up()
        assert report.bootstrapped
        assert np.array_equal(
            state_of(replica.index("x")), state_of(primary.store.index("x"))
        )

    def test_duplicated_frame_is_a_sequence_divergence(self):
        primary, replica = self.caught_up_pair()

        class Duplicating(LocalShipSource):
            def wal_frames(self, *args, **kwargs):
                body = super().wal_frames(*args, **kwargs)
                if body["frames"]:
                    from repro.storage.durability.replication import batch_crc32
                    body = dict(body)
                    frames = list(body["frames"]) + [dict(body["frames"][0])]
                    body["frames"] = frames
                    body["batch_crc32"] = batch_crc32(
                        [entry["data"] for entry in frames]
                    )
                return body

        apply_mutation(primary, MUTATIONS[0])
        primary.sync()
        replica.source = Duplicating(primary)
        with pytest.raises(DivergenceError, match="duplicated or reordered"):
            replica.poll()
        assert replica.needs_resync

    def test_checkpoint_rotation_forces_rebootstrap(self):
        primary, replica = self.caught_up_pair()
        primary.checkpoint()  # rotates the WAL generation
        for mutation in MUTATIONS[:3]:
            apply_mutation(primary, mutation)
        primary.sync()
        with pytest.raises(DivergenceError, match="rotated"):
            replica.poll()
        report = replica.catch_up()
        assert report.bootstrapped
        assert report.frames_applied == 3
        assert np.array_equal(
            state_of(replica.index("x")), state_of(primary.store.index("x"))
        )
        assert_prefix(replica, primary)

    def test_rebootstrap_reuses_byte_identical_files(self):
        primary, replica = self.caught_up_pair()
        fetched_before = replica.files_fetched
        # Diverge without a checkpoint: the base files did not change,
        # so the re-bootstrap re-fetches nothing.
        replica._diverge("synthetic divergence for the reuse test")
        report = replica.catch_up()
        assert report.bootstrapped
        assert replica.files_fetched == fetched_before
        assert replica.files_reused >= 1

    def test_new_column_on_primary_is_an_unknown_column_divergence(self):
        primary, replica = self.caught_up_pair()
        primary.create_column("y", BASE * 2)
        primary.append("y", np.asarray([1, 2, 3], dtype=np.int32))
        primary.sync()
        with pytest.raises(DivergenceError, match="unknown column"):
            replica.poll()
        replica.catch_up()
        assert "y" in replica.columns()
        assert np.array_equal(
            state_of(replica.index("y")), state_of(primary.store.index("y"))
        )


class TestStalenessAndRoles:
    def test_bounded_staleness_refuses_then_serves(self):
        primary, _ = make_primary()
        replica = make_follower(primary, max_lag_seq=0)
        replica.catch_up()
        for mutation in MUTATIONS[:3]:
            apply_mutation(primary, mutation)
        primary.sync()
        replica.poll(limit=1)  # applies 1 of 3: lag is now visible
        assert replica.lag == 2
        with pytest.raises(FollowerLagging) as excinfo:
            replica.index("x")
        assert excinfo.value.lag == 2
        assert excinfo.value.retry_after > 0
        replica.catch_up()
        assert replica.lag == 0
        replica.index("x")  # within bounds again

    def test_follower_refuses_writes(self):
        primary, _ = make_primary()
        replica = make_follower(primary)
        replica.catch_up()
        with pytest.raises(NotPrimaryError):
            replica.append("x", np.asarray([1], dtype=np.int32))
        with pytest.raises(NotPrimaryError):
            replica.update("x", 0, 1)
        with pytest.raises(NotPrimaryError):
            replica.delete("x", 0)

    def test_promotion_fences_the_old_primary(self):
        primary, _ = make_primary()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()
        replica = make_follower(primary)
        replica.catch_up()
        before = state_of(replica.index("x")).copy()

        promoted = replica.promote()
        assert replica.role == "primary"
        assert promoted.epoch == primary.epoch + 1
        # the promoted store passed full recovery and answers unchanged
        assert np.array_equal(state_of(replica.index("x")), before)
        # and accepts writes through both faces
        replica.append("x", np.asarray([1, 2], dtype=np.int32))
        promoted.append("x", np.asarray([3], dtype=np.int32))

        # the deposed primary fences on first contact with the new epoch
        with pytest.raises(StalePrimaryError):
            primary.note_epoch(promoted.epoch)
        assert primary.role == "fenced"
        with pytest.raises(StalePrimaryError):
            apply_mutation(primary, MUTATIONS[0])
        with pytest.raises(StalePrimaryError):
            primary.manifest()

    def test_promotion_refusals(self):
        primary, _ = make_primary()
        replica = make_follower(primary)
        with pytest.raises(ReplicationError, match="never bootstrapped"):
            replica.promote()
        replica.catch_up()
        replica._diverge("synthetic divergence")
        with pytest.raises(DivergenceError):
            replica.promote()

    def test_stale_primary_epoch_refused_by_follower(self):
        primary, _ = make_primary()
        replica = make_follower(primary)
        replica.catch_up()
        replica.epoch = primary.epoch + 5  # learned of a newer primary
        with pytest.raises(StalePrimaryError):
            replica.poll()


class TestHttpTransport:
    def make_stack(self, node, columns=("x",), **config):
        executor = QueryExecutor(
            {name: node.store.index(name) for name in columns},
            max_batch=16,
        )
        service = ImprintService(executor, ServingConfig(**config))
        service.attach_replication(node)
        return service

    def test_bootstrap_and_catch_up_over_http(self):
        primary, _ = make_primary()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()

        async def body():
            service = self.make_stack(primary)
            try:
                async with ServingHTTPServer(service) as server:
                    host, port = server.address
                    source = HttpShipSource(host, port, follower_id="f1")
                    replica = ReplicaStore(
                        "follower", "t", source, fs=MemoryFileSystem()
                    )
                    report = await asyncio.to_thread(replica.catch_up)
                    assert report.bootstrapped
                    assert report.frames_applied == len(MUTATIONS)
                    assert np.array_equal(
                        state_of(replica.index("x")),
                        state_of(primary.store.index("x")),
                    )
                    # the primary's health shows the ship side
                    client = ServingClient(host, port)
                    health = await client.healthz()
                    section = health.body["replication"]
                    assert section["role"] == "primary"
                    assert section["followers"] >= 1
                    stats = await client.stats()
                    assert stats.body["replication"]["frames_shipped"] >= (
                        len(MUTATIONS)
                    )
            finally:
                await service.close()

        asyncio.run(body())

    @pytest.mark.parametrize(
        "params",
        [{"limit": "0"}, {"after": "-5", "follower": "f1"}, {"generation": "0"}],
        ids=["limit-0", "after-negative", "generation-0"],
    )
    def test_out_of_range_wal_parameters_are_400(self, params):
        """An explicit out-of-range integer is refused, never read as
        the default: ``limit=0`` must not ship every frame, a negative
        ``after`` must not ship or record a follower position, and
        ``generation=0`` is not generation 1."""
        primary, _ = make_primary()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()

        async def body():
            service = self.make_stack(primary)
            try:
                async with ServingHTTPServer(service) as server:
                    client = ServingClient(*server.address)
                    response = await client.get("/replicate/wal", params)
                    assert response.status == 400
                    assert response.body["error"] == "ValueError"
                    assert "f1" not in primary.followers
                    # In range, the same route ships exactly ``limit``.
                    response = await client.get(
                        "/replicate/wal", {"after": "0", "limit": "2"}
                    )
                    assert response.status == 200
                    assert len(response.body["frames"]) == 2
            finally:
                await service.close()

        asyncio.run(body())

    def test_non_primary_refuses_ship_with_409(self):
        primary, _ = make_primary()
        replica = make_follower(primary)
        replica.catch_up()

        async def body():
            service = self.make_stack(replica)
            try:
                async with ServingHTTPServer(service) as server:
                    client = ServingClient(*server.address)
                    response = await client.get("/replicate/manifest")
                    assert response.status == 409
                    assert response.body["error"] == "NotPrimaryError"
                    # and the typed refusal crosses the wire as a type
                    source = HttpShipSource(*server.address)
                    with pytest.raises(NotPrimaryError):
                        await asyncio.to_thread(source.manifest)
            finally:
                await service.close()

        asyncio.run(body())

    def test_higher_epoch_on_the_wire_fences_the_primary(self):
        primary, _ = make_primary()
        for mutation in MUTATIONS:
            apply_mutation(primary, mutation)
        primary.sync()

        async def body():
            service = self.make_stack(primary)
            try:
                async with ServingHTTPServer(service) as server:
                    host, port = server.address
                    client = ServingClient(host, port)

                    # a promoted node's advertise lands as a 409 fence
                    source = HttpShipSource(host, port, follower_id="f2")
                    await asyncio.to_thread(
                        source.advertise_epoch, primary.epoch + 1
                    )
                    assert primary.fenced_by == primary.epoch + 1

                    # every subsequent ship call refuses, raw and typed
                    response = await client.get("/replicate/manifest")
                    assert response.status == 409
                    assert response.body["error"] == "StalePrimaryError"
                    with pytest.raises(StalePrimaryError):
                        await asyncio.to_thread(source.manifest)
                    health = await client.healthz()
                    assert health.body["replication"]["fenced_by"] == (
                        primary.epoch + 1
                    )
            finally:
                await service.close()

        asyncio.run(body())

    def test_lagging_follower_503_with_retry_after_then_recovers(self):
        primary, _ = make_primary()
        replica = make_follower(primary, max_lag_seq=0)
        replica.catch_up()
        for mutation in MUTATIONS[:3]:
            apply_mutation(primary, mutation)
        primary.sync()
        replica.poll(limit=1)
        assert replica.lag == 2

        async def body():
            service = self.make_stack(replica)
            try:
                async with ServingHTTPServer(service) as server:
                    client = ServingClient(*server.address)

                    refused = await client.query(
                        "x", LOW, HIGH, mode="count", retry=False
                    )
                    assert refused.status == 503
                    assert refused.body["error"] == "FollowerLagging"
                    assert refused.body["lag"] == 2
                    assert float(refused.headers["retry-after"]) > 0

                    health = await client.healthz()
                    assert health.body["status"] == "degraded"
                    assert health.body["replication"]["lag"] == 2

                    # the retrying client rides out the lag: catch the
                    # follower up while the client backs off
                    async def heal():
                        await asyncio.sleep(0.03)
                        await asyncio.to_thread(replica.catch_up)

                    healer = asyncio.ensure_future(heal())
                    answered = await client.query(
                        "x", LOW, HIGH, mode="count", retry=True
                    )
                    await healer
                    assert answered.status == 200
                    values = state_of(primary.store.index("x"))
                    expected = int(np.sum((values >= LOW) & (values < HIGH)))
                    assert answered.body["count"] == expected
            finally:
                await service.close()

        asyncio.run(body())

    def test_divergent_follower_refuses_reads_with_503(self):
        primary, _ = make_primary()
        replica = make_follower(primary)
        replica.catch_up()
        replica._diverge("synthetic divergence for the serving test")

        async def body():
            service = self.make_stack(replica)
            try:
                async with ServingHTTPServer(service) as server:
                    client = ServingClient(*server.address)
                    refused = await client.query(
                        "x", LOW, HIGH, mode="count", retry=False
                    )
                    assert refused.status == 503
                    assert refused.body["error"] == "DivergenceError"
                    health = await client.healthz()
                    assert health.body["status"] == "degraded"
                    assert health.body["replication"]["needs_resync"]
            finally:
                await service.close()

        asyncio.run(body())
