"""The serving layer: admission, deadlines, degradation, HTTP contract.

The invariants under test:

* admission never over-admits, never leaks a slot (deadline expiry,
  cancellation and client disconnects all hand capacity back);
* a request past its budget fails with ``DeadlineExceeded`` (HTTP 504)
  and leaves no scheduler state behind;
* degraded answers are *correct* answers in a cheaper representation —
  the count always matches the full answer;
* the HTTP error table maps every typed failure to its documented
  status code.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core import ColumnImprints
from repro.engine import MultiBackendIndex, QueryExecutor, QueryPlanner
from repro.errors import (
    AdmissionRejected,
    DeadlineExceeded,
    ExecutorClosedError,
)
from repro.serving import (
    AdmissionController,
    ImprintService,
    ServingClient,
    ServingConfig,
    ServingHTTPServer,
)
from repro.storage import Column

from .conftest import make_clustered

LOW, HIGH = 9_000, 11_000


class SlowIndex:
    """Delegating proxy that stalls every evaluation (a slow shard)."""

    def __init__(self, inner, delay: float) -> None:
        self._inner = inner
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def query(self, predicate):
        time.sleep(self._delay)
        return self._inner.query(predicate)

    def query_batch(self, predicates):
        time.sleep(self._delay)
        return self._inner.query_batch(predicates)

    def aggregate(self, predicate, op):
        time.sleep(self._delay)
        return self._inner.aggregate(predicate, op)


def make_service(n=20_000, slow: float = 0.0, **config):
    column_values = make_clustered(n, np.int32, seed=11)
    from repro.storage import Column

    index = ColumnImprints(Column(column_values, name="t.v"))
    backend = SlowIndex(index, slow) if slow else index
    executor = QueryExecutor({"v": backend}, max_batch=16)
    service = ImprintService(executor, ServingConfig(**config))
    return service, index


def run(coro):
    return asyncio.run(coro)


# ----------------------------------------------------------------------
# AdmissionController unit behaviour
# ----------------------------------------------------------------------
class TestAdmissionController:
    def test_fast_path_admits_up_to_the_bound(self):
        async def scenario():
            ctl = AdmissionController(2, 4)
            await ctl.acquire()
            await ctl.acquire()
            assert ctl.inflight == 2
            assert ctl.admitted == 2
            ctl.release()
            ctl.release()
            assert ctl.inflight == 0
            assert ctl.released == 2

        run(scenario())

    def test_full_wait_queue_fast_rejects(self):
        async def scenario():
            ctl = AdmissionController(1, 0, retry_after=0.2)
            await ctl.acquire()
            with pytest.raises(AdmissionRejected) as info:
                await ctl.acquire()
            assert info.value.retry_after == 0.2
            assert ctl.rejected == 1
            ctl.release()
            # rejection must not have consumed the freed slot
            await ctl.acquire()

        run(scenario())

    def test_handover_is_fifo(self):
        async def scenario():
            ctl = AdmissionController(1, 4)
            await ctl.acquire()
            order = []

            async def waiter(tag):
                await ctl.acquire()
                order.append(tag)

            first = asyncio.create_task(waiter("first"))
            await asyncio.sleep(0)
            second = asyncio.create_task(waiter("second"))
            await asyncio.sleep(0)
            assert ctl.waiting == 2
            ctl.release()
            await first
            ctl.release()
            await second
            assert order == ["first", "second"]

        run(scenario())

    def test_deadline_expires_while_queued(self):
        async def scenario():
            ctl = AdmissionController(1, 4)
            await ctl.acquire()
            with pytest.raises(DeadlineExceeded):
                await ctl.acquire(deadline=time.monotonic() + 0.02)
            assert ctl.timed_out == 1
            assert ctl.waiting == 0  # the dead waiter left the queue
            ctl.release()
            assert ctl.inflight == 0

        run(scenario())

    def test_cancelled_waiter_frees_its_queue_slot(self):
        async def scenario():
            ctl = AdmissionController(1, 1)
            await ctl.acquire()
            waiter = asyncio.create_task(ctl.acquire())
            await asyncio.sleep(0)
            assert ctl.waiting == 1
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert ctl.cancelled == 1
            assert ctl.waiting == 0
            # the queue slot is free again: the next arrival queues
            # instead of bouncing
            follower = asyncio.create_task(ctl.acquire())
            await asyncio.sleep(0)
            assert ctl.waiting == 1
            ctl.release()
            await follower
            ctl.release()
            assert ctl.inflight == 0

        run(scenario())

    def test_accounting_identity(self):
        async def scenario():
            ctl = AdmissionController(2, 2)
            for _ in range(5):
                await ctl.acquire()
                ctl.release()
            snap = ctl.snapshot()
            assert snap.admitted - snap.released == snap.inflight == 0

        run(scenario())

    def test_bounds_are_validated(self):
        with pytest.raises(ValueError):
            AdmissionController(0, 4)
        with pytest.raises(ValueError):
            AdmissionController(1, -1)
        with pytest.raises(ValueError):
            AdmissionController(1, 1, retry_after=0.0)


# ----------------------------------------------------------------------
# ImprintService semantics
# ----------------------------------------------------------------------
class TestImprintService:
    def test_full_answer_matches_the_index(self):
        service, index = make_service()

        async def scenario():
            async with service:
                return await service.query("v", LOW, HIGH, mode="full")

        payload = run(scenario())
        expected = index.query_range(LOW, HIGH)
        assert payload["served_as"] == "full"
        assert payload["count"] == expected.n_ids
        assert payload["ids"] == [int(i) for i in expected.ids]
        assert payload["cursor"] is None

    def test_count_mode_never_materialises(self):
        service, index = make_service()

        async def scenario():
            async with service:
                return await service.query("v", LOW, HIGH, mode="count")

        payload = run(scenario())
        assert payload["served_as"] == "count"
        assert payload["ids"] is None
        assert payload["count"] == index.query_range(LOW, HIGH).n_ids

    def test_page_mode_cursor_resumes_to_the_full_answer(self):
        service, index = make_service()
        expected = [int(i) for i in index.query_range(LOW, HIGH).ids]

        async def scenario():
            collected = []
            async with service:
                first = await service.query("v", LOW, HIGH, mode="page", limit=64)
                collected.extend(first["ids"])
                cursor = first["cursor"]
                while cursor is not None:
                    page = await service.page(
                        "v", LOW, HIGH, limit=64, cursor=cursor
                    )
                    collected.extend(page["ids"])
                    cursor = page["cursor"]
            return collected

        assert run(scenario()) == expected

    def test_auto_degrades_to_first_page_under_pressure(self):
        # degrade_at=0 makes any pressure level "degraded" — the
        # degradation decision itself is what's under test here
        service, index = make_service(degrade_at=0.0, shed_at=1.0)

        async def scenario():
            async with service:
                return await service.query("v", LOW, HIGH, mode="auto", limit=50)

        payload = run(scenario())
        expected = index.query_range(LOW, HIGH)
        assert payload["served_as"] == "page"
        assert payload["degraded"] is True
        assert payload["count"] == expected.n_ids  # degraded != wrong
        assert payload["ids"] == [int(i) for i in expected.ids[:50]]
        assert (payload["cursor"] is not None) == (expected.n_ids > 50)
        assert service.stats.degraded == 1

    def test_auto_sheds_to_count_only_at_the_brink(self):
        service, index = make_service(degrade_at=0.0, shed_at=0.0)

        async def scenario():
            async with service:
                return await service.query("v", LOW, HIGH, mode="auto")

        payload = run(scenario())
        assert payload["served_as"] == "count"
        assert payload["ids"] is None
        assert payload["count"] == index.query_range(LOW, HIGH).n_ids
        assert service.stats.shed == 1

    def test_mode_full_opts_out_of_degradation(self):
        service, index = make_service(degrade_at=0.0, shed_at=0.0)

        async def scenario():
            async with service:
                return await service.query("v", LOW, HIGH, mode="full")

        payload = run(scenario())
        assert payload["served_as"] == "full"
        assert payload["ids"] == [int(i) for i in index.query_range(LOW, HIGH).ids]

    def test_unknown_column_and_bad_parameters(self):
        service, _ = make_service()

        async def scenario():
            async with service:
                with pytest.raises(KeyError):
                    await service.query("nope", LOW, HIGH)
                with pytest.raises(ValueError, match="mode"):
                    await service.query("v", LOW, HIGH, mode="best-effort")
                with pytest.raises(ValueError, match="limit"):
                    await service.query("v", LOW, HIGH, limit=0)

        run(scenario())

    def test_deadline_expiry_returns_timeout_and_releases_the_slot(self):
        service, _ = make_service(slow=0.5)

        async def scenario():
            async with service:
                with pytest.raises(DeadlineExceeded):
                    await service.query("v", LOW, HIGH, timeout=0.05)
                assert service.stats.timed_out == 1
                assert service.admission.inflight == 0  # no leaked slot

        run(scenario())

    def test_cancellation_releases_the_slot(self):
        service, index = make_service(slow=0.3)

        async def scenario():
            async with service:
                request = asyncio.create_task(
                    service.query("v", LOW, HIGH, timeout=5.0)
                )
                await asyncio.sleep(0.05)  # let it acquire + dispatch
                request.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await request
                assert service.stats.cancelled == 1
                assert service.admission.inflight == 0
                # capacity really is back: the next request is served
                payload = await service.query("v", LOW, HIGH, mode="count")
                assert payload["count"] == index.query_range(LOW, HIGH).n_ids

        run(scenario())

    def test_healthz_reflects_saturation(self):
        service, _ = make_service(max_inflight=1, max_waiting=2, degrade_at=0.5)

        async def scenario():
            assert service.healthz()["status"] == "ok"
            await service.admission.acquire()
            waiters = [
                asyncio.create_task(service.admission.acquire())
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            health = service.healthz()
            assert health["status"] == "saturated"
            assert health["waiting"] == 2
            assert service.degradation_level in ("degraded", "shedding")
            for waiter in waiters:
                waiter.cancel()
            for _ in range(3):
                service.admission.release()
            await service.close()
            assert service.healthz()["status"] == "closing"

        run(scenario())

    def test_close_refuses_new_work_and_is_idempotent(self):
        service, _ = make_service()

        async def scenario():
            await service.close()
            await service.close()  # second close is a no-op
            with pytest.raises(ExecutorClosedError):
                await service.query("v", LOW, HIGH)

        run(scenario())

    def test_stats_payload_has_all_sections(self):
        service, _ = make_service()

        async def scenario():
            async with service:
                await service.query("v", LOW, HIGH, mode="count")
            return service.stats_payload()

        payload = run(scenario())
        assert set(payload) == {"service", "admission", "engine", "cache"}
        assert set(payload["service"]) == {
            "requests", "served", "degraded", "shed", "rejected",
            "timed_out", "failed", "stale_cursors", "cancelled",
        }
        assert set(payload["admission"]) == {
            "inflight", "waiting", "admitted", "rejected", "timed_out",
            "cancelled", "released", "peak_waiting",
        }
        assert set(payload["engine"]) == {
            "submitted", "coalesced", "cache_hits", "cache_misses",
            "batches", "batched_queries", "expired",
        }
        assert set(payload["cache"]) == {"entries", "bytes", "hits", "misses"}
        assert payload["service"]["served"] == 1
        assert payload["admission"]["admitted"] == 1
        assert payload["admission"]["released"] == 1

    def test_expired_aggregates_never_start(self):
        """One engine worker, a 0.3 s aggregate, four 50 ms budgets:
        the first aggregate runs, the three queued behind it expire
        unevaluated, and every request frees its admission slot."""
        from repro.storage import Column

        lock = threading.Lock()
        calls, running, peak = [], [0], [0]

        class CountedSlowIndex(SlowIndex):
            def aggregate(self, predicate, op):
                with lock:
                    calls.append(predicate)
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                try:
                    return super().aggregate(predicate, op)
                finally:
                    with lock:
                        running[0] -= 1

        index = ColumnImprints(
            Column(make_clustered(20_000, np.int32, seed=11), name="t.v")
        )
        executor = QueryExecutor(
            {"v": CountedSlowIndex(index, 0.3)}, n_workers=1
        )
        service = ImprintService(executor, ServingConfig())

        async def scenario():
            async with service:
                outcomes = await asyncio.gather(
                    *(
                        service.aggregate(
                            "v", LOW + i, HIGH, "sum", timeout=0.05
                        )
                        for i in range(4)
                    ),
                    return_exceptions=True,
                )
                assert all(isinstance(o, DeadlineExceeded) for o in outcomes)
                assert service.admission.inflight == 0
            # close() drained the engine: every queued task has run

        run(scenario())
        assert len(calls) == 1
        assert peak[0] == 1
        assert executor.stats.expired == 3
        assert service.stats.timed_out == 4

    def test_stats_payload_surfaces_planner_when_routing(self):
        """A planner-routed executor's /stats grows a planner section:
        plan counts, calibration, observed shapes."""
        from repro.engine import MultiBackendIndex, QueryPlanner
        from repro.storage import Column

        column = Column(
            make_clustered(20_000, np.int32, seed=11), name="t.v"
        )
        planner = QueryPlanner()
        executor = QueryExecutor(
            {"v": MultiBackendIndex.for_column(column)},
            planner=planner,
            max_batch=16,
        )
        service = ImprintService(executor, ServingConfig())

        async def scenario():
            async with service:
                await service.query("v", LOW, HIGH, mode="full")
            return service.stats_payload()

        payload = run(scenario())
        section = payload["planner"]
        assert sum(section["plans"].values()) == 1
        assert set(section["calibration"]) <= {"imprints", "zonemap", "scan"}
        assert section["tracked_shapes"] >= 1


# ----------------------------------------------------------------------
# the HTTP front end
# ----------------------------------------------------------------------
def http_scenario(scenario, slow: float = 0.0, **config):
    """Run ``scenario(service, index, client)`` against a live server."""
    service, index = make_service(slow=slow, **config)

    async def body():
        try:
            async with ServingHTTPServer(service) as server:
                client = ServingClient(*server.address)
                return await scenario(service, index, client)
        finally:
            await service.close()

    return run(body())


class TestHTTP:
    def test_query_roundtrip_agrees_with_the_index(self):
        async def scenario(service, index, client):
            response = await client.query("v", LOW, HIGH, mode="full")
            assert response.status == 200
            expected = index.query_range(LOW, HIGH)
            assert response.body["count"] == expected.n_ids
            assert response.body["ids"] == [int(i) for i in expected.ids]

        http_scenario(scenario)

    def test_aggregate_roundtrip(self):
        async def scenario(service, index, client):
            response = await client.aggregate("v", LOW, HIGH, "sum")
            assert response.status == 200
            ids = index.query_range(LOW, HIGH).ids
            assert response.body["value"] == int(
                index.column.values[ids].astype(np.int64).sum()
            )

        http_scenario(scenario)

    def test_page_roundtrip_with_cursor(self):
        async def scenario(service, index, client):
            expected = [int(i) for i in index.query_range(LOW, HIGH).ids]
            collected, cursor = [], None
            while True:
                response = await client.page(
                    "v", LOW, HIGH, limit=97, cursor=cursor
                )
                assert response.status == 200
                collected.extend(response.body["ids"])
                cursor = response.body["cursor"]
                if response.body["exhausted"]:
                    break
            assert collected == expected

        http_scenario(scenario)

    def test_page_mode_cursor_resumes_through_the_page_route(self):
        """A planner-routed ``mode=page`` answer (one candidate pass)
        hands out the cursor ``/page`` resumes against the full answer."""
        from repro.storage import Column

        values = np.random.default_rng(5).integers(0, 50_000, 20_000)
        index = MultiBackendIndex.for_column(
            Column(values.astype(np.int32), name="t.u")
        )
        executor = QueryExecutor({"u": index}, planner=QueryPlanner())
        service = ImprintService(executor)
        expected = index.query(executor.predicate("u", 10_000, 30_000)).ids

        async def body():
            try:
                async with ServingHTTPServer(service) as server:
                    client = ServingClient(*server.address)
                    first = await client.query(
                        "u", 10_000, 30_000, mode="page", limit=700
                    )
                    assert first.body["served_as"] == "page"
                    assert first.body["count"] == expected.shape[0]
                    collected = list(first.body["ids"])
                    cursor = first.body["cursor"]
                    while cursor is not None:
                        page = await client.page(
                            "u", 10_000, 30_000, limit=700, cursor=cursor
                        )
                        assert page.status == 200
                        collected.extend(page.body["ids"])
                        cursor = page.body["cursor"]
                    return collected
            finally:
                await service.close()

        assert run(body()) == expected.tolist()

    def test_error_table(self):
        async def scenario(service, index, client):
            # unknown column -> 404
            assert (await client.query("ghost", 0, 1, retry=False)).status == 404
            # missing parameter -> 400
            assert (await client.get("/query", {"column": "v"})).status == 400
            # non-numeric bound -> 400
            assert (
                await client.get(
                    "/query", {"column": "v", "low": "x", "high": "1"}
                )
            ).status == 400
            # unknown aggregate -> 400
            assert (
                await client.aggregate("v", LOW, HIGH, "median", retry=False)
            ).status == 400
            # unknown route -> 404
            assert (await client.get("/nope")).status == 404
            # error bodies name the failure
            bad = await client.get("/query", {"column": "v"})
            assert bad.body["error"] == "ValueError"
            assert bad.body["status"] == 400

        http_scenario(scenario)

    def test_server_side_type_error_is_500(self):
        """A well-formed request that trips a bug in the program (here a
        ``TypeError`` out of the index) is the server's fault: 500, not
        a 400 the client could never fix."""

        class BrokenIndex(SlowIndex):
            def aggregate(self, predicate, op):
                raise TypeError("aggregate() got an unexpected keyword argument")

        index = ColumnImprints(Column(make_clustered(2_000, np.int32, seed=11), name="t.v"))
        service = ImprintService(
            QueryExecutor({"v": BrokenIndex(index, 0.0)}, max_batch=16), ServingConfig()
        )

        async def body():
            try:
                async with ServingHTTPServer(service) as server:
                    client = ServingClient(*server.address)
                    broken = await client.aggregate("v", LOW, HIGH, "sum", retry=False)
                    fine = await client.query("v", LOW, HIGH, mode="full")
                    return broken, fine
            finally:
                await service.close()

        broken, fine = run(body())
        assert broken.status == 500
        assert broken.body["error"] == "TypeError"
        assert fine.status == 200

    @pytest.mark.parametrize(
        "case",
        [
            ("mode", "query", {"mode": "nope"}, "/query", {"mode": "nope"}),
            ("limit", "query", {"limit": 0}, "/query", {"limit": "0"}),
            ("op", "aggregate", {"op": "median"}, "/aggregate",
             {"op": "median"}),
            ("grouped-op", "aggregate_grouped",
             {"op": "max", "group_by": "g"}, "/aggregate",
             {"op": "max", "group_by": "g"}),
            ("k", "top_k", {"k": -3}, "/aggregate", {"top_k": "-3"}),
        ],
        ids=lambda case: case[0],
    )
    def test_malformed_request_is_refused_before_admission(self, case):
        """A bad parameter is a 400 that takes no admission slot and
        leaves the outcome counters untouched."""
        _, method, kwargs, path, params = case

        async def scenario(service, index, client):
            def counters():
                return (
                    service.stats.as_dict(),
                    service.admission.snapshot().admitted,
                )

            before = counters()
            with pytest.raises(ValueError):
                await getattr(service, method)("v", LOW, HIGH, **kwargs)
            response = await client.get(
                path, {"column": "v", "low": LOW, "high": HIGH, **params}
            )
            assert response.status == 400
            assert counters() == before

        http_scenario(scenario)

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_page_limit_below_one_is_400(self, limit):
        """An explicit ``limit=0`` is out of range, not "use the default"."""

        async def scenario(service, index, client):
            params = {"column": "v", "low": LOW, "high": HIGH}
            response = await client.get("/page", {**params, "limit": limit})
            assert response.status == 400
            assert "limit" in response.body["detail"]
            # Absent, the default page size still applies.
            response = await client.get("/page", params)
            assert response.status == 200
            assert len(response.body["ids"]) == 100

        http_scenario(scenario)

    def test_non_get_is_405_and_garbage_is_400(self):
        async def raw_exchange(client, payload: bytes) -> bytes:
            reader, writer = await asyncio.open_connection(
                client.host, client.port
            )
            try:
                writer.write(payload)
                await writer.drain()
                return await reader.read(-1)
            finally:
                writer.close()
                await writer.wait_closed()

        async def scenario(service, index, client):
            posted = await raw_exchange(
                client, b"POST /query HTTP/1.1\r\nConnection: close\r\n\r\n"
            )
            assert b" 405 " in posted.split(b"\r\n", 1)[0]
            garbage = await raw_exchange(client, b"GARBAGE\r\n\r\n")
            assert b" 400 " in garbage.split(b"\r\n", 1)[0]

        http_scenario(scenario)

    def test_saturation_returns_429_with_retry_after(self):
        async def scenario(service, index, client):
            await service.admission.acquire()  # hold the only slot
            response = await client.query("v", LOW, HIGH, retry=False)
            assert response.status == 429
            assert response.retry_after is not None
            assert response.retry_after > 0
            assert "retry-after" in response.headers
            service.admission.release()
            # capacity restored: same request now succeeds
            assert (await client.query("v", LOW, HIGH, retry=False)).status == 200

        http_scenario(scenario, max_inflight=1, max_waiting=0)

    def test_blown_budget_returns_504(self):
        async def scenario(service, index, client):
            response = await client.query(
                "v", LOW, HIGH, timeout_ms=30, retry=False
            )
            assert response.status == 504
            assert response.body["error"] == "DeadlineExceeded"
            assert service.stats.timed_out == 1
            assert service.admission.inflight == 0

        http_scenario(scenario, slow=0.4)

    def test_cursor_spanning_a_rebuild_returns_410(self):
        async def scenario(service, index, client):
            first = await client.page("v", LOW, HIGH, limit=10)
            assert first.status == 200
            cursor = first.body["cursor"]
            assert cursor is not None
            index.rebuild()  # bumps the version: the cursor's snapshot died
            stale = await client.page(
                "v", LOW, HIGH, limit=10, cursor=cursor, retry=False
            )
            assert stale.status == 410
            assert stale.body["error"] == "StaleCursorError"
            assert service.stats.stale_cursors == 1
            # a fresh query against the new version works
            assert (await client.page("v", LOW, HIGH, limit=10)).status == 200

        http_scenario(scenario)

    def test_healthz_flips_to_saturated_when_the_queue_fills(self):
        async def scenario(service, index, client):
            assert (await client.healthz()).body["status"] == "ok"
            await service.admission.acquire()
            waiter = asyncio.create_task(service.admission.acquire())
            await asyncio.sleep(0)
            # healthz is not admission-controlled: it answers while full
            health = await client.healthz()
            assert health.status == 200
            assert health.body["status"] == "saturated"
            waiter.cancel()
            service.admission.release()

        http_scenario(scenario, max_inflight=1, max_waiting=1)

    def test_client_disconnect_does_not_leak_the_slot(self):
        async def scenario(service, index, client):
            # fire a request at a slow engine and slam the connection
            reader, writer = await asyncio.open_connection(
                client.host, client.port
            )
            writer.write(
                f"GET /query?column=v&low={LOW}&high={HIGH} HTTP/1.1\r\n"
                f"Connection: close\r\n\r\n".encode()
            )
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            # the abandoned request must still run to completion and
            # release its slot
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if (
                    service.admission.inflight == 0
                    and service.admission.admitted >= 1
                ):
                    break
                await asyncio.sleep(0.02)
            assert service.admission.inflight == 0
            assert service.admission.admitted == service.admission.released
            # and the service still serves
            assert (await client.query("v", LOW, HIGH, retry=False)).status == 200

        http_scenario(scenario, slow=0.1, max_inflight=1, max_waiting=0)

    def test_stats_endpoint_reports_engine_counters(self):
        async def scenario(service, index, client):
            await client.query("v", LOW, HIGH, mode="full")
            await client.query("v", LOW, HIGH, mode="full")  # cache hit
            stats = await client.stats()
            assert stats.status == 200
            assert stats.body["service"]["served"] == 2
            assert stats.body["engine"]["submitted"] >= 2
            assert stats.body["cache"]["entries"] >= 1

        http_scenario(scenario)

    def test_retry_after_header_is_integer_and_body_is_precise(self):
        """RFC 9110: the ``Retry-After`` *header* is integer delta-seconds;
        the precise float hint rides the JSON body, and the client
        prefers the body."""

        async def scenario(service, index, client):
            await service.admission.acquire()  # hold the only slot
            response = await client.query("v", LOW, HIGH, retry=False)
            assert response.status == 429
            header = response.headers["retry-after"]
            # strictly an integer token — "0.050" would violate the RFC
            assert header == str(int(header))
            assert int(header) >= 0
            # sub-second hints round *up*, never down to 0-wait stampedes
            assert int(header) == 1
            # the body keeps the server's precise float
            assert response.body["retry_after"] == pytest.approx(0.05)
            # and the client's hint accessor prefers the body
            assert response.retry_after == pytest.approx(0.05)
            service.admission.release()

        http_scenario(scenario, max_inflight=1, max_waiting=0, retry_after=0.05)

    def test_client_retry_after_falls_back_to_the_header(self):
        from repro.serving import ClientResponse

        only_header = ClientResponse(429, {"retry-after": "2"}, {})
        assert only_header.retry_after == 2.0
        both = ClientResponse(
            429, {"retry-after": "1"}, {"retry_after": 0.05}
        )
        assert both.retry_after == pytest.approx(0.05)
        neither = ClientResponse(429, {}, {})
        assert neither.retry_after is None


# ----------------------------------------------------------------------
# the /aggregate extensions: moments, GROUP BY, top-k
# ----------------------------------------------------------------------
class TestAggregateExtensions:
    def test_moment_ops_roundtrip_and_empty_is_null(self):
        async def scenario(service, index, client):
            matched = index.column.values[
                (index.column.values >= LOW) & (index.column.values < HIGH)
            ].astype(np.float64)
            for op, want in (
                ("avg", matched.mean()),
                ("var", matched.var()),
                ("std", matched.std()),
            ):
                response = await client.aggregate("v", LOW, HIGH, op)
                assert response.status == 200
                assert response.body["value"] == pytest.approx(want), op
            empty = await client.aggregate("v", 10**8, 10**8 + 1, "avg")
            assert empty.status == 200
            assert empty.body["value"] is None

        http_scenario(scenario)

    def test_grouped_roundtrip_and_empty_is_empty_object(self):
        async def scenario(service, index, client):
            values = index.column.values
            rng = np.random.default_rng(7)
            labels = np.array(["red", "green", "blue"])[
                rng.integers(0, 3, len(values))
            ]
            index.attach_group_column("colour", labels)
            response = await client.aggregate(
                "v", LOW, HIGH, "sum", group_by="colour"
            )
            assert response.status == 200
            mask = (values >= LOW) & (values < HIGH)
            want = {
                label: int(values[mask & (labels == label)].astype(np.int64).sum())
                for label in ("red", "green", "blue")
                if np.any(mask & (labels == label))
            }
            assert response.body["groups"] == want
            empty = await client.aggregate(
                "v", 10**8, 10**8 + 1, "count", group_by="colour"
            )
            assert empty.status == 200
            assert empty.body["groups"] == {}
            # unknown group column -> 400 (ValueError names the knowns)
            missing = await client.aggregate(
                "v", LOW, HIGH, "count", group_by="ghost", retry=False
            )
            assert missing.status == 400

        http_scenario(scenario)

    def test_topk_roundtrip_and_param_validation(self):
        async def scenario(service, index, client):
            values = index.column.values
            response = await client.aggregate("v", LOW, HIGH, top_k=7)
            assert response.status == 200
            matched = np.sort(values[(values >= LOW) & (values < HIGH)])
            assert response.body["values"] == [
                int(v) for v in matched[-7:][::-1]
            ]
            empty = await client.aggregate("v", 10**8, 10**8 + 1, top_k=5)
            assert empty.status == 200
            assert empty.body["values"] == []
            zero = await client.aggregate("v", LOW, HIGH, top_k=0)
            assert zero.status == 200
            assert zero.body["values"] == []
            negative = await client.aggregate(
                "v", LOW, HIGH, top_k=-3, retry=False
            )
            assert negative.status == 400
            both = await client.aggregate(
                "v", LOW, HIGH, "sum", group_by="x", top_k=2, retry=False
            )
            assert both.status == 400

        http_scenario(scenario)
