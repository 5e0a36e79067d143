"""The wire differential: programs over HTTP, every 200 equal to the oracle.

Each program (:func:`tests.oracle.programs`) runs through
:class:`ServingClient` → :class:`ServingHTTPServer` →
:class:`ImprintService` → :class:`QueryExecutor` against one column:
a :class:`ColumnImprints`, or a planner-routed
:class:`MultiBackendIndex`, each with a group column, each bare and
under :func:`install_chaos` (worker stalls and eviction storms; the
program's own writes do the mutating).  Writes go straight to the index
between requests, as a co-located writer's would.  Reads go over the
wire: full ids and counts, count-only and first-page modes, ``/page``
cursor walks, aggregates, GROUP BY and top-k, each body checked against
the NumPy mirror by :func:`tests.oracle.run_program`.

Program requests are well-formed, so a 400, 404 or 500 fails the test.
A 410 (a cursor held across a write) passes; under chaos so do 429, 503
and 504, the service shedding load or running out of time.  Nothing
else does: ``status_for_exception`` maps a ``TypeError`` to 400, so a
server-side bug can reach a client as a "bad request".
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given

from repro.core import ColumnImprints
from repro.engine import MultiBackendIndex, QueryExecutor, QueryPlanner
from repro.serving import (
    ChaosConfig,
    ImprintService,
    ServingClient,
    ServingHTTPServer,
    install_chaos,
)

from .oracle import GROUP_BY, REFUSED, program_settings, programs, run_program

#: Every fifth kernel evaluation stalls briefly, every third evicts the
#: whole result cache.
CHAOS = ChaosConfig(stall_every=5, stall_seconds=0.01, evict_every=3)


@contextmanager
def serving(executor):
    """Serve ``executor`` over HTTP from a background event loop; yields
    a blocking ``get(path, params)``."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def run(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout=60)

    async def start():
        service = ImprintService(executor)
        return service, await ServingHTTPServer(service).start()

    service, server = run(start())
    client = ServingClient(*server.address)
    try:
        yield lambda path, params: run(client.get(path, params))
    finally:
        run(server.close())
        run(service.close())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        assert not thread.is_alive(), "the serving loop did not stop"
        loop.close()


class WireTarget:
    """One served column, read over HTTP; a refusal the case allows
    reads as :data:`~tests.oracle.REFUSED`."""

    def __init__(self, name: str, get, allowed: set[int]) -> None:
        self.name = name
        self.get = get
        self.allowed = allowed

    def _body(self, path: str, predicate, **params):
        params = {
            "column": self.name,
            "low": predicate.low,
            "high": predicate.high,
            "timeout_ms": 30_000,
            **params,
        }
        response = self.get(path, params)
        if response.status == 200:
            return response.body
        assert response.status in self.allowed, (path, params, response)
        return REFUSED

    def answers(self, predicate, size):
        body = self._body("/query", predicate, mode="full")
        if body is not REFUSED:
            yield "full ids", np.asarray(body["ids"], dtype=np.int64)
        pages, cursor = [], None
        while True:
            body = self._body("/page", predicate, limit=size, cursor=cursor)
            if body is REFUSED:
                return
            pages.append(np.asarray(body["ids"], dtype=np.int64))
            cursor = body["cursor"]
            if cursor is None:
                yield "page walk", pages
                return

    def counts(self, predicate):
        for mode in ("full", "count"):
            body = self._body("/query", predicate, mode=mode)
            if body is not REFUSED:
                yield f"{mode} count", body["count"]

    def first_page(self, predicate, limit):
        body = self._body("/query", predicate, mode="page", limit=limit)
        if body is REFUSED:
            return REFUSED
        ids = np.asarray(body["ids"], dtype=np.int64)
        return body["count"], ids, body["cursor"] is not None

    def aggregate(self, predicate, op):
        body = self._body("/aggregate", predicate, op=op)
        return body if body is REFUSED else body["value"]

    def grouped(self, predicate, op):
        body = self._body("/aggregate", predicate, op=op, group_by=GROUP_BY)
        if body is REFUSED:
            return REFUSED
        return {int(key): value for key, value in body["groups"].items()}

    def top_k(self, predicate, k):
        body = self._body("/aggregate", predicate, top_k=k)
        return body if body is REFUSED else body["values"]


@pytest.mark.parametrize("chaos", [False, True], ids=["bare", "chaos"])
@pytest.mark.parametrize("column", ["imprints", "planned"])
@program_settings
@given(program=programs(max_rows=300, max_append=20))
def test_wire_answers_equal_the_oracle(column, chaos, program):
    if column == "imprints":
        index = ColumnImprints(program.column("w"))
    else:
        index = MultiBackendIndex.for_column(program.column("w"))
    mirror = program.plain_mirror([index])
    executor = QueryExecutor({column: index}, planner=QueryPlanner())
    allowed = {410}
    if chaos:
        install_chaos(executor, column, CHAOS)
        allowed |= {429, 503, 504}
    with serving(executor) as get:
        run_program(program, mirror, [WireTarget(column, get, allowed)], [index])
