"""The chaos suite: inject faults, demand correct-or-cleanly-degraded.

Every scenario drives real traffic through the full serving stack while
:mod:`repro.serving.chaos` injects a production failure mode, and
asserts the two non-negotiables:

* **termination** — every request finishes (success or a typed
  failure); nothing hangs;
* **honesty** — every 200 carries an answer that is correct for a
  single index version; mixed snapshots surface as ``410 Gone``, never
  as silently spliced ids.
"""

import asyncio
import random
import time

import numpy as np
import pytest

from repro.core import ColumnImprints
from repro.engine import QueryExecutor
from repro.serving import (
    ChaosConfig,
    ChaosIndex,
    ClientResponse,
    ImprintService,
    ServingClient,
    ServingConfig,
    ServingHTTPServer,
    install_chaos,
    retry_with_backoff,
)

from .conftest import make_clustered

LOW, HIGH = 9_000, 11_000


def make_stack(chaos: ChaosConfig | None = None, **config):
    from repro.storage import Column

    index = ColumnImprints(
        Column(make_clustered(20_000, np.int32, seed=21), name="t.v")
    )
    executor = QueryExecutor({"v": index}, max_batch=16)
    wrapper = (
        install_chaos(executor, "v", chaos) if chaos is not None else None
    )
    service = ImprintService(executor, ServingConfig(**config))
    return service, index, wrapper


def run_http(scenario, chaos: ChaosConfig | None = None, **config):
    service, index, wrapper = make_stack(chaos, **config)

    async def body():
        try:
            async with ServingHTTPServer(service) as server:
                client = ServingClient(*server.address)
                return await scenario(service, index, wrapper, client)
        finally:
            await service.close()

    return asyncio.run(body())


# ----------------------------------------------------------------------
# the injectors themselves
# ----------------------------------------------------------------------
class TestChaosIndex:
    def test_wrapper_delegates_everything_else(self):
        service, index, wrapper = make_stack(ChaosConfig())
        assert wrapper.version == index.version
        assert wrapper.column is index.column
        assert wrapper.inner is index

    def test_install_and_restore(self):
        service, index, wrapper = make_stack(ChaosConfig())
        assert service.executor.index("v") is wrapper
        service.executor.register("v", wrapper.inner)
        assert service.executor.index("v") is index

    def test_faults_fire_on_schedule(self):
        config = ChaosConfig(stall_every=2, stall_seconds=0.0, mutate_every=3)
        service, index, wrapper = make_stack(config)
        before = index.version
        for _ in range(6):
            wrapper.query(service.executor.predicate("v", LOW, HIGH))
        assert wrapper.evaluations == 6
        assert wrapper.stalls == 3  # ticks 2, 4, 6
        assert wrapper.mutations == 2  # ticks 3, 6
        assert index.version > before  # mutations really bumped it

    def test_first_page_is_a_faulted_evaluation(self):
        service, index, wrapper = make_stack(ChaosConfig())

        async def scenario():
            async with service:
                return await service.query("v", LOW, HIGH, mode="page", limit=10)

        payload = asyncio.run(scenario())
        assert payload["served_as"] == "page"
        assert payload["count"] == index.query_range(LOW, HIGH).n_ids
        assert wrapper.evaluations == 1

    def test_config_is_validated(self):
        with pytest.raises(ValueError):
            ChaosConfig(kernel_latency=-0.1)
        with pytest.raises(ValueError):
            ChaosConfig(stall_every=-1)


# ----------------------------------------------------------------------
# fault modes end to end
# ----------------------------------------------------------------------
class TestFaultModes:
    def test_kernel_latency_slows_but_never_lies(self):
        async def scenario(service, index, wrapper, client):
            expected = index.query_range(LOW, HIGH)
            for _ in range(4):
                response = await client.query(
                    "v", LOW, HIGH, mode="full", retry=False
                )
                assert response.status == 200
                assert response.body["count"] == expected.n_ids
                assert response.body["ids"] == [int(i) for i in expected.ids]
            assert wrapper.evaluations >= 1

        run_http(scenario, ChaosConfig(kernel_latency=0.02))

    def test_worker_stalls_trip_deadlines_not_hangs(self):
        async def scenario(service, index, wrapper, client):
            statuses = []
            # distinct predicates so the executor's result cache cannot
            # answer without consulting the (stalling) kernel
            for i in range(6):
                response = await client.query(
                    "v", LOW + i, HIGH + i, mode="count",
                    timeout_ms=150, retry=False,
                )
                statuses.append(response.status)
            # every request terminated with a typed verdict
            assert set(statuses) <= {200, 504}
            assert 504 in statuses  # the stall really bit someone
            assert wrapper.stalls >= 1
            assert service.admission.inflight == 0  # nothing leaked

        # every 2nd evaluation stalls well past the request budget;
        # cache hits would dodge the kernel entirely, so the stall uses
        # aggregate (count) which consults the engine each time
        run_http(
            scenario,
            ChaosConfig(stall_every=2, stall_seconds=0.4),
        )

    def test_eviction_storm_is_invisible_to_correctness(self):
        async def scenario(service, index, wrapper, client):
            # distinct predicates force evaluations (and the storm fires
            # on every one, churning whatever the cache accumulated)
            for i in range(5):
                expected = index.query_range(LOW + i, HIGH + i)
                response = await client.query(
                    "v", LOW + i, HIGH + i, mode="full", retry=False
                )
                assert response.status == 200
                assert response.body["ids"] == [int(i) for i in expected.ids]
            assert wrapper.evictions >= 1  # the storm actually ran

        run_http(scenario, ChaosConfig(evict_every=1))

    def test_mid_pagination_mutation_goes_stale_never_splices(self):
        async def scenario(service, index, wrapper, client):
            saw_stale = False
            background = 0
            for _attempt in range(8):
                collected, cursor, aborted = [], None, False
                while True:
                    # unrelated traffic between pages advances the chaos
                    # clock, so a mutation lands *mid-chain* — exactly
                    # the scenario a long-lived cursor must survive
                    background += 1
                    await client.query(
                        "v", LOW - background, LOW, mode="count", retry=False
                    )
                    response = await client.page(
                        "v", LOW, HIGH, limit=25, cursor=cursor, retry=False
                    )
                    if response.status == 410:
                        saw_stale = True
                        aborted = True
                        break
                    assert response.status == 200
                    ids = response.body["ids"]
                    # within a chain ids only move forward — a spliced
                    # snapshot would re-emit or reorder
                    if collected and ids:
                        assert ids[0] > collected[-1]
                    assert ids == sorted(ids)
                    collected.extend(ids)
                    cursor = response.body["cursor"]
                    if response.body["exhausted"]:
                        break
                if not aborted:
                    # a chain that completed used one single snapshot:
                    # its ids are strictly increasing and unique
                    assert collected == sorted(set(collected))
            assert saw_stale  # the fault really interleaved a mutation
            assert wrapper.mutations >= 1

        # mutate every 3rd evaluation: pagination chains of ~9 pages
        # are guaranteed to straddle a version bump
        run_http(scenario, ChaosConfig(mutate_every=3))


# ----------------------------------------------------------------------
# the retrying client
# ----------------------------------------------------------------------
class TestRetryClient:
    def test_backoff_honours_retry_after_and_caps_growth(self):
        responses = [
            ClientResponse(429, {"retry-after": "0.5"}, {}),
            ClientResponse(429, {}, {}),
            ClientResponse(200, {}, {"ok": True}),
        ]
        delays = []

        async def fake_sleep(delay):
            delays.append(delay)

        async def attempt():
            return responses[min(len(delays), len(responses) - 1)]

        response = asyncio.run(
            retry_with_backoff(
                attempt,
                attempts=5,
                base_delay=0.02,
                max_delay=1.0,
                rng=random.Random(7),
                sleep=fake_sleep,
            )
        )
        assert response.status == 200
        assert len(delays) == 2  # two retries before the 200
        assert delays[0] >= 0.5  # floored at the server's hint
        assert delays[1] <= 1.0 * 1.5  # capped exponential, jittered

    def test_non_retryable_failures_return_immediately(self):
        calls = []

        async def attempt():
            calls.append(1)
            return ClientResponse(400, {}, {})

        response = asyncio.run(retry_with_backoff(attempt, attempts=5))
        assert response.status == 400
        assert len(calls) == 1

    def test_budget_exhaustion_returns_the_last_answer(self):
        async def attempt():
            return ClientResponse(429, {}, {})

        async def no_sleep(_):
            pass

        response = asyncio.run(
            retry_with_backoff(attempt, attempts=3, sleep=no_sleep)
        )
        assert response.status == 429

    def test_retry_rides_out_a_transient_saturation(self):
        async def scenario(service, index, wrapper, client):
            await service.admission.acquire()  # wedge the only slot

            async def free_later():
                await asyncio.sleep(0.1)
                service.admission.release()

            releaser = asyncio.create_task(free_later())
            client.base_delay = 0.05
            response = await client.query("v", LOW, HIGH, mode="count")
            await releaser
            assert response.status == 200  # a retry landed after release
            assert service.admission.rejected >= 1  # earlier tries bounced

        run_http(scenario, max_inflight=1, max_waiting=0)


# ----------------------------------------------------------------------
# everything at once
# ----------------------------------------------------------------------
class TestChaosStorm:
    def test_combined_storm_terminates_and_accounts_for_everything(self):
        chaos = ChaosConfig(
            kernel_latency=0.005,
            stall_every=7,
            stall_seconds=0.15,
            evict_every=3,
            mutate_every=11,
        )

        async def scenario(service, index, wrapper, client):
            async def one(i: int) -> int:
                mode = ("full", "count", "page")[i % 3]
                response = await client.query(
                    "v", LOW + i, HIGH + i, mode=mode,
                    timeout_ms=400, retry=False,
                )
                return response.status

            started = time.monotonic()
            statuses = await asyncio.wait_for(
                asyncio.gather(*(one(i) for i in range(24))), timeout=30.0
            )
            elapsed = time.monotonic() - started
            # termination: the whole storm resolved well inside the guard
            assert elapsed < 30.0
            # honesty: only typed verdicts, no 500s, no raw failures
            assert set(statuses) <= {200, 410, 429, 504}
            # service-side accounting partitions every request
            stats = service.stats
            assert stats.requests == (
                stats.served + stats.rejected + stats.timed_out
                + stats.failed + stats.cancelled
            )
            assert stats.requests == 24
            assert service.admission.inflight == 0

        run_http(
            scenario, chaos,
            max_inflight=3, max_waiting=4, default_timeout=0.4,
        )
