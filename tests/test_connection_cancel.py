"""Connection-level cancellation: a dead client frees its slot *now*.

Satellite of the replication PR (the warm standby only helps if a
flapping client can't pin the primary's admission slots).  The HTTP
layer watches each connection's socket while its request runs in the
engine; the client hanging up cancels the admitted future immediately.
The contracts:

* the admission slot frees **before** the engine batch would have
  completed — measured against a chaos kernel orders of magnitude
  slower than the reclaim;
* the cancellation is accounted (``stats.cancelled``), not counted as
  served or errored;
* the freed slot is immediately usable: a well-behaved request right
  behind the dead one is admitted and answered correctly;
* a client that dies *between* requests (idle keep-alive) costs nothing.
"""

import asyncio
import time

import numpy as np

from repro.core import ColumnImprints
from repro.engine import QueryExecutor
from repro.serving import (
    ChaosConfig,
    ChaosIndex,
    ImprintService,
    ServingClient,
    ServingConfig,
    ServingHTTPServer,
)
from repro.storage import Column

from .conftest import make_clustered

BASE = make_clustered(20_000, np.int32, seed=29)
LOW, HIGH = 9_000, 11_000

#: The slow kernel: each evaluation sleeps this long, so a request that
#: is *not* cancelled holds its slot for at least this much wall time.
KERNEL_LATENCY = 0.5


def make_service(max_inflight=1, max_waiting=0, kernel_latency=KERNEL_LATENCY):
    index = ChaosIndex(
        ColumnImprints(Column(BASE, name="t.x")),
        ChaosConfig(kernel_latency=kernel_latency),
    )
    executor = QueryExecutor({"x": index}, max_batch=16)
    service = ImprintService(
        executor,
        ServingConfig(
            max_inflight=max_inflight,
            max_waiting=max_waiting,
            default_timeout=5.0,
        ),
    )
    return service


async def open_and_abandon(host, port, path):
    """Send a request, then kill the socket before the answer arrives."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: {host}:{port}\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    await asyncio.sleep(0.05)  # let the request get admitted and running
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionResetError, BrokenPipeError):
        pass


class TestConnectionCancellation:
    def test_dead_socket_frees_the_slot_before_the_batch_completes(self):
        async def body():
            service = make_service(max_inflight=1, max_waiting=0)
            try:
                async with ServingHTTPServer(service) as server:
                    host, port = server.address

                    await open_and_abandon(
                        host, port, f"/query?column=x&low={LOW}&high={HIGH}"
                    )
                    # The slot must come back long before the 0.5s chaos
                    # kernel finishes — reclaim is driven by the socket
                    # dying, not by the engine eventually returning.
                    freed_at = None
                    started = time.monotonic()
                    while time.monotonic() - started < KERNEL_LATENCY:
                        if service.admission.snapshot().inflight == 0:
                            freed_at = time.monotonic() - started
                            break
                        await asyncio.sleep(0.005)
                    assert freed_at is not None, (
                        "the admission slot never freed while the dead "
                        "request's kernel was still sleeping"
                    )
                    assert freed_at < KERNEL_LATENCY / 2, (
                        f"slot freed only after {freed_at:.3f}s — that is "
                        f"the batch completing, not the cancellation"
                    )
                    assert service.stats.cancelled == 1
                    assert service.stats.served == 0

                    # the freed slot serves the next client immediately
                    client = ServingClient(host, port)
                    response = await client.query(
                        "x", LOW, HIGH, mode="count", retry=False
                    )
                    assert response.status == 200
                    expected = int(np.sum((BASE >= LOW) & (BASE < HIGH)))
                    assert response.body["count"] == expected
            finally:
                await service.close()

        asyncio.run(body())

    def test_waiting_well_behaved_client_wins_the_freed_slot(self):
        async def body():
            service = make_service(
                max_inflight=1, max_waiting=2, kernel_latency=0.2
            )
            try:
                async with ServingHTTPServer(service) as server:
                    host, port = server.address
                    client = ServingClient(host, port)

                    # dead client takes the only slot...
                    abandon = asyncio.ensure_future(
                        open_and_abandon(
                            host, port,
                            f"/query?column=x&low={LOW}&high={HIGH}",
                        )
                    )
                    await asyncio.sleep(0.02)
                    # ...while a patient client queues behind it
                    started = time.monotonic()
                    response = await client.query(
                        "x", LOW, HIGH, mode="count", retry=False,
                        timeout_ms=4_000,
                    )
                    elapsed = time.monotonic() - started
                    await abandon
                    assert response.status == 200
                    # one kernel evaluation (~0.2s), not two queued ones
                    assert elapsed < 1.0
                    assert service.stats.cancelled == 1
            finally:
                await service.close()

        asyncio.run(body())

    def test_idle_disconnect_costs_nothing(self):
        async def body():
            service = make_service(max_inflight=2, kernel_latency=0.0)
            try:
                async with ServingHTTPServer(service) as server:
                    host, port = server.address
                    reader, writer = await asyncio.open_connection(host, port)
                    writer.close()  # never sent a request
                    try:
                        await writer.wait_closed()
                    except (ConnectionResetError, BrokenPipeError):
                        pass
                    await asyncio.sleep(0.02)
                    assert service.stats.cancelled == 0
                    snap = service.admission.snapshot()
                    assert snap.inflight == 0 and snap.waiting == 0
                    # the server is unbothered
                    client = ServingClient(host, port)
                    response = await client.healthz()
                    assert response.status == 200
            finally:
                await service.close()

        asyncio.run(body())
