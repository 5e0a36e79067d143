"""The asyncio serving facade over :class:`~repro.engine.executor.QueryExecutor`.

:class:`ImprintService` is the layer between the network front end
(:mod:`repro.serving.http`) and the threaded execution engine.  It owns
the three robustness behaviours the engine itself deliberately does not:

* **admission control** — every request takes a slot from a bounded
  :class:`~repro.serving.admission.AdmissionController` before any
  engine work is scheduled; over-capacity traffic is fast-rejected
  (:class:`~repro.errors.AdmissionRejected` → HTTP 429) instead of
  queueing unboundedly;
* **deadline propagation** — each request carries an absolute
  ``time.monotonic()`` deadline derived from its budget; the same
  deadline is threaded into the executor (which abandons expired
  entries before evaluating them) *and* bounds the await on this side,
  so an expired request returns :class:`~repro.errors.DeadlineExceeded`
  (→ 504) without leaking scheduler state — the engine-side future is
  cancelled or answered-and-dropped, never dangled;
* **graceful degradation** — when the wait queue fills past
  ``degrade_at``, ``mode="auto"`` queries stop materialising full id
  lists and answer with the count plus the first page and a resume
  cursor; past ``shed_at`` they answer count-only.  Clients that asked
  for ``mode="full"`` explicitly still get full answers (they opted out
  of degradation), but the response always says how it was served.

Every read runs in one envelope (:meth:`ImprintService._serve`), and
every engine hand-off is a ``concurrent.futures`` future from the
executor (``submit``, ``submit_paged``, ``submit_aggregate``), bridged
into an awaitable via :func:`asyncio.wrap_future`.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import asdict, dataclass

from ..errors import (
    DeadlineExceeded,
    ExecutorClosedError,
    NotPrimaryError,
    QuarantinedColumnError,
)
from ..engine.executor import QueryExecutor
from .admission import AdmissionController

__all__ = ["ServingConfig", "ServingStats", "ImprintService"]

#: ``mode=`` values :meth:`ImprintService.query` accepts.
QUERY_MODES = ("auto", "full", "count", "page")


@dataclass(frozen=True)
class ServingConfig:
    """Operating envelope of one :class:`ImprintService`.

    Attributes
    ----------
    max_inflight / max_waiting:
        The admission bounds: concurrent requests executing, further
        requests queued.  Everything beyond is fast-rejected with 429.
    default_timeout / max_timeout:
        Per-request budget in seconds when the client names none, and
        the cap a client-supplied budget is clamped to.
    degrade_at / shed_at:
        Wait-queue occupancy fractions at which ``auto`` queries
        degrade to first-page-plus-cursor, respectively to count-only.
    degraded_page_limit:
        Ids served in the first page of a degraded answer.
    max_page_limit:
        Cap on client-requested page sizes (``/query`` and ``/page``).
    retry_after:
        The back-off hint (seconds) sent with fast rejections.
    """

    max_inflight: int = 8
    max_waiting: int = 32
    default_timeout: float = 1.0
    max_timeout: float = 30.0
    degrade_at: float = 0.5
    shed_at: float = 0.9
    degraded_page_limit: int = 100
    max_page_limit: int = 10_000
    retry_after: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.degrade_at <= self.shed_at <= 1.0:
            raise ValueError(
                f"need 0 <= degrade_at <= shed_at <= 1, got "
                f"{self.degrade_at} / {self.shed_at}"
            )
        if self.default_timeout <= 0 or self.max_timeout <= 0:
            raise ValueError("timeouts must be > 0")
        if self.degraded_page_limit < 1 or self.max_page_limit < 1:
            raise ValueError("page limits must be >= 1")


@dataclass
class ServingStats:
    """Request-outcome counters (the service-level accounting).

    ``served + rejected + timed_out + failed + cancelled`` equals
    ``requests`` once every request that entered a read endpoint has
    finished — the identity the load bench, the chaos storm test and
    the regression gate check.  Malformed parameters are refused before
    a request counts.  ``degraded`` and ``shed`` sub-count ``served``
    (how many answers were downgraded), ``stale_cursors`` sub-counts
    ``failed``.
    """

    requests: int = 0
    served: int = 0
    degraded: int = 0
    shed: int = 0
    rejected: int = 0
    timed_out: int = 0
    failed: int = 0
    stale_cursors: int = 0
    cancelled: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def _json_number(value):
    """A NumPy or Python number as the JSON-native ``int`` or ``float``."""
    return float(value) if isinstance(value, float) else int(value)


class ImprintService:
    """Admission-controlled async facade over a :class:`QueryExecutor`.

    One instance serves one executor (one set of registered columns)
    from one event loop.  All methods are coroutine-safe with respect
    to each other; none may be called from a different loop.
    """

    def __init__(
        self,
        executor: QueryExecutor,
        config: ServingConfig | None = None,
    ) -> None:
        self.executor = executor
        self.config = config or ServingConfig()
        self.admission = AdmissionController(
            self.config.max_inflight,
            self.config.max_waiting,
            retry_after=self.config.retry_after,
        )
        self.stats = ServingStats()
        self.started_at = time.monotonic()
        self._closed = False
        self.durability = None
        self.replication = None

    # ------------------------------------------------------------------
    # durability surfacing
    # ------------------------------------------------------------------
    def attach_durability(self, durable) -> None:
        """Attach a :class:`~repro.storage.durability.DurableStore`.

        Once attached, requests against a quarantined column fail fast
        with :class:`~repro.errors.QuarantinedColumnError` (HTTP 503)
        *before* taking an admission slot, and ``/healthz`` + ``/stats``
        surface the recovery report — the degraded-not-dead contract:
        one corrupt column never takes the healthy rest of the store
        off the air.
        """
        self.durability = durable

    def _check_quarantine(self, column: str) -> None:
        durable = self.durability
        if durable is not None and column in durable.quarantined:
            raise QuarantinedColumnError(
                column, durable.quarantined[column]
            )

    # ------------------------------------------------------------------
    # replication surfacing
    # ------------------------------------------------------------------
    def attach_replication(self, node) -> None:
        """Attach this node's replication role.

        ``node`` is either a
        :class:`~repro.storage.durability.replication.ReplicationPrimary`
        (the ``/replicate/*`` ship endpoints come alive) or a
        :class:`~repro.storage.durability.replication.ReplicaStore`
        (reads gain the bounded-staleness / divergence gate:
        :class:`~repro.errors.FollowerLagging` → 503 + ``Retry-After``,
        :class:`~repro.errors.DivergenceError` → 503).  Either way
        ``/healthz`` and ``/stats`` grow a ``replication`` section.
        """
        self.replication = node

    def _check_replication(self, column: str) -> None:
        node = self.replication
        if node is None:
            return
        check = getattr(node, "check_read", None)
        if check is not None:
            check(column)

    def _require_shipper(self):
        """The attached primary, or a typed refusal for the role we are."""
        node = self.replication
        if node is None or not hasattr(node, "wal_frames"):
            role = getattr(node, "role", "standalone") if node else "standalone"
            raise NotPrimaryError(role, "ship")
        return node

    def _note_peer_epoch(self, shipper, epoch: int | None) -> None:
        """A request carrying a higher cluster epoch fences this primary."""
        if epoch is not None:
            shipper.note_epoch(int(epoch))

    def replication_manifest(self, epoch: int | None = None) -> dict:
        """``/replicate/manifest``: the bootstrap manifest (primary only)."""
        shipper = self._require_shipper()
        self._note_peer_epoch(shipper, epoch)
        return shipper.manifest()

    def replication_wal(
        self,
        generation: int,
        after: int,
        limit: int,
        follower: str | None,
        epoch: int | None = None,
    ) -> dict:
        """``/replicate/wal``: one acknowledged frame batch, base64-coded."""
        import base64

        shipper = self._require_shipper()
        self._note_peer_epoch(shipper, epoch)
        body = shipper.wal_frames(generation, after, limit, follower)
        body["frames"] = [
            {
                "seq": entry["seq"],
                "data": base64.b64encode(entry["data"]).decode("ascii"),
            }
            for entry in body["frames"]
        ]
        return body

    def replication_file(self, name: str, epoch: int | None = None) -> dict:
        """``/replicate/file``: one base file, base64-coded + checksummed."""
        import base64
        import zlib

        shipper = self._require_shipper()
        self._note_peer_epoch(shipper, epoch)
        data = shipper.fetch_file(name)
        return {
            "name": name,
            "nbytes": len(data),
            "crc32": zlib.crc32(data),
            "data": base64.b64encode(data).decode("ascii"),
        }

    # ------------------------------------------------------------------
    # deadlines and degradation
    # ------------------------------------------------------------------
    def deadline_for(self, timeout: float | None) -> float:
        """Absolute monotonic deadline for a request budget in seconds."""
        budget = (
            self.config.default_timeout
            if timeout is None
            else min(float(timeout), self.config.max_timeout)
        )
        if budget <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        return time.monotonic() + budget

    @property
    def degradation_level(self) -> str:
        """``"ok"`` / ``"degraded"`` / ``"shedding"`` from queue pressure."""
        pressure = self.admission.snapshot().pressure
        if pressure >= self.config.shed_at:
            return "shedding"
        if pressure >= self.config.degrade_at:
            return "degraded"
        return "ok"

    async def _await_result(self, future, deadline: float):
        """Await an executor future within the deadline.

        On expiry the wrapped future is cancelled: if the engine entry
        has not been dispatched yet it dies with the cancellation (and
        the executor skips it at dispatch time thanks to the propagated
        deadline); if it is mid-evaluation the engine's delivery loop
        skips the dead future — either way no scheduler state leaks.
        """
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise DeadlineExceeded("request budget exhausted")
        if future.done():  # a cache hit: no trip through the event loop
            return future.result()
        try:
            return await asyncio.wait_for(
                asyncio.wrap_future(future), remaining
            )
        except asyncio.TimeoutError:
            raise DeadlineExceeded(
                "request budget exhausted awaiting the engine"
            ) from None

    # ------------------------------------------------------------------
    # request bookkeeping
    # ------------------------------------------------------------------
    async def _serve(self, column: str, timeout: float | None, answer):
        """The one request envelope every read endpoint runs in.

        Derives the deadline (a bad ``timeout`` is refused before the
        request counts), counts the request, applies the quarantine and
        replication gates, holds an admission slot while
        ``await answer(deadline)`` runs, and records the outcome.
        """
        deadline = self.deadline_for(timeout)
        if self._closed:
            raise ExecutorClosedError("service is shutting down")
        self.stats.requests += 1
        exc: BaseException | None = None
        try:
            self._check_quarantine(column)
            self._check_replication(column)
            await self.admission.acquire(deadline)
            try:
                return await answer(deadline)
            finally:
                self.admission.release()
        except BaseException as raised:
            exc = raised
            raise
        finally:
            self._record_outcome(exc)

    def _record_outcome(self, exc: BaseException | None) -> None:
        from ..errors import AdmissionRejected, StaleCursorError

        if exc is None:
            self.stats.served += 1
        elif isinstance(exc, AdmissionRejected):
            self.stats.rejected += 1
        elif isinstance(exc, DeadlineExceeded):
            self.stats.timed_out += 1
        elif isinstance(exc, asyncio.CancelledError):
            self.stats.cancelled += 1
        else:
            self.stats.failed += 1
            if isinstance(exc, StaleCursorError):
                self.stats.stale_cursors += 1

    async def _aggregate(self, column, low, high, timeout, op="count", **shape):
        """Serve one aggregate (``shape``: ``group_by=`` or ``k=``) in
        :meth:`_serve`; a bad ``op`` or ``k`` is refused before it counts."""
        self.executor.check_aggregate(op, **shape)

        async def answer(deadline: float):
            predicate = self.executor.predicate(column, low, high)
            future = self.executor.submit_aggregate(
                column, predicate, op, deadline=deadline, **shape
            )
            return await self._await_result(future, deadline)

        return await self._serve(column, timeout, answer)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    async def query(
        self,
        column: str,
        low,
        high,
        *,
        mode: str = "auto",
        limit: int | None = None,
        timeout: float | None = None,
    ) -> dict:
        """Answer a range query, degrading the representation under load.

        ``mode``:

        * ``"auto"`` — full ids when healthy; first page + cursor when
          degraded; count-only when shedding;
        * ``"full"`` — always the full id list (opts out of degradation);
        * ``"count"`` — count only (never materialises ids);
        * ``"page"`` — count, first ``limit`` ids and a resume cursor
          from the index's ``first_page`` (on imprints one scan of the
          covering span or one candidate pass, never the full answer);
          the degraded level answers the same way.
        """
        if mode not in QUERY_MODES:
            raise ValueError(
                f"unknown mode {mode!r}; expected one of {QUERY_MODES}"
            )
        if limit is not None and limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        limit = min(
            limit or self.config.degraded_page_limit, self.config.max_page_limit
        )

        async def answer(deadline: float) -> dict:
            level = self.degradation_level if mode == "auto" else "ok"
            predicate = self.executor.predicate(column, low, high)
            if mode == "count" or (mode == "auto" and level == "shedding"):
                future = self.executor.submit_aggregate(
                    column, predicate, deadline=deadline
                )
                count = await self._await_result(future, deadline)
                body = {"count": int(count), "ids": None, "cursor": None}
                served_as = "count"
            elif mode == "page" or (mode == "auto" and level == "degraded"):
                # first_page: on imprints one scan of the covering span
                # (where the imprint cannot prune) or one candidate pass
                # answers the count and the page; the full answer is
                # never built.
                future = self.executor.submit_aggregate(
                    column, predicate, limit=limit, deadline=deadline
                )
                count, ids, cursor = await self._await_result(future, deadline)
                body = {
                    "count": int(count),
                    "ids": ids.tolist(),
                    "cursor": None if cursor is None else cursor.encode(),
                }
                served_as = "page"
            else:
                future = self.executor.submit(
                    column, predicate, deadline=deadline
                )
                result = await self._await_result(future, deadline)
                body = {
                    "count": int(result.count()),
                    "ids": result.ids.tolist(),
                    "cursor": None,
                }
                served_as = "full"
            if mode == "auto" and served_as == "page":
                self.stats.degraded += 1
            if mode == "auto" and served_as == "count":
                self.stats.shed += 1
            return {
                "column": column,
                "low": low,
                "high": high,
                "mode": mode,
                "served_as": served_as,
                "degraded": mode == "auto" and served_as != "full",
                **body,
            }

        return await self._serve(column, timeout, answer)

    async def aggregate(
        self,
        column: str,
        low,
        high,
        op: str,
        *,
        timeout: float | None = None,
    ) -> dict:
        """``COUNT``/``SUM``/``MIN``/``MAX``/``AVG``/``VAR``/``STD`` of a
        range predicate.  An empty selection answers ``value: null`` for
        the ops with no identity — never an error."""
        value = await self._aggregate(column, low, high, timeout, op)
        return {
            "column": column,
            "low": low,
            "high": high,
            "op": op,
            "value": None if value is None else _json_number(value),
        }

    async def aggregate_grouped(
        self,
        column: str,
        low,
        high,
        op: str,
        group_by: str,
        *,
        timeout: float | None = None,
    ) -> dict:
        """Grouped ``COUNT``/``SUM``/``AVG`` over an attached group column.

        The answer maps group label (JSON object keys are strings, so
        integer group codes are stringified) to the aggregate over the
        rows of that group matching the predicate.  Only groups with at
        least one matching row appear; an empty selection answers
        ``groups: {}`` — never an error.
        """
        groups = await self._aggregate(
            column, low, high, timeout, op, group_by=group_by
        )
        return {
            "column": column,
            "low": low,
            "high": high,
            "op": op,
            "group_by": group_by,
            "groups": {
                str(key): _json_number(value) for key, value in groups.items()
            },
        }

    async def top_k(
        self,
        column: str,
        low,
        high,
        k: int,
        *,
        timeout: float | None = None,
    ) -> dict:
        """The ``k`` largest matching values, descending.

        Fewer than ``k`` matches answer the shorter list; an empty
        selection (or ``k == 0``) answers ``values: []`` — never an
        error.  Negative ``k`` is a 400.
        """
        values = await self._aggregate(column, low, high, timeout, k=k)
        return {
            "column": column,
            "low": low,
            "high": high,
            "k": int(k),
            "values": [_json_number(value) for value in values],
        }

    async def page(
        self,
        column: str,
        low,
        high,
        *,
        limit: int,
        cursor: str | None = None,
        timeout: float | None = None,
    ) -> dict:
        """One page of a query answer; resumes from ``cursor``.

        A cursor issued before an index mutation raises
        :class:`~repro.errors.StaleCursorError` (HTTP 410): the client
        must re-query, because continuing would stitch two snapshots.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        limit = min(limit, self.config.max_page_limit)

        async def answer(deadline: float) -> dict:
            predicate = self.executor.predicate(column, low, high)
            future = self.executor.submit_paged(
                column, predicate, limit, cursor, deadline=deadline
            )
            ids, next_cursor = await self._await_result(future, deadline)
            return {
                "column": column,
                "low": low,
                "high": high,
                "ids": ids.tolist(),
                "cursor": None if next_cursor is None else next_cursor.encode(),
                "exhausted": next_cursor is None,
            }

        return await self._serve(column, timeout, answer)

    # ------------------------------------------------------------------
    # health and introspection (never admission-controlled: these must
    # answer precisely when the service is saturated)
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """Liveness + pressure + durability.  Never blocks.

        A quarantined column reports the service ``degraded`` — the
        store is impaired but answering — never dead: liveness stays
        200 so orchestrators keep routing to the healthy columns.
        """
        snap = self.admission.snapshot()
        durable = self.durability
        quarantined = sorted(durable.quarantined) if durable else []
        replication = (
            self.replication.replication_info()
            if self.replication is not None
            else None
        )
        impaired = replication is not None and (
            replication.get("needs_resync")
            or replication.get("role") == "fenced"
            or (
                replication.get("max_lag_seq") is not None
                and replication.get("lag", 0) > replication["max_lag_seq"]
            )
        )
        if self._closed:
            status = "closing"
        elif snap.waiting >= snap.max_waiting:
            status = "saturated"
        elif self.degradation_level != "ok" or quarantined or impaired:
            status = "degraded"
        else:
            status = "ok"
        payload = {
            "status": status,
            "degradation": self.degradation_level,
            "inflight": snap.inflight,
            "waiting": snap.waiting,
            "max_inflight": snap.max_inflight,
            "max_waiting": snap.max_waiting,
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "columns": self.executor.column_names,
        }
        if durable is not None:
            report = durable.report
            payload["durability"] = {
                "quarantined": quarantined,
                "recovery_clean": report.clean,
                "epoch": report.epoch,
                "replayed_records": report.replayed_total,
                "torn_bytes_truncated": report.torn_bytes,
            }
        if replication is not None:
            payload["replication"] = replication
        return payload

    def stats_payload(self) -> dict:
        """The ``/stats`` body: service, admission, engine, cache —
        plus a ``planner`` section (plan counts, calibration factors,
        observed shapes) when the executor routes through a
        :class:`~repro.engine.planner.QueryPlanner`."""
        snap = self.admission.snapshot()
        cache = self.executor.cache
        payload = {
            "service": self.stats.as_dict(),
            "admission": {
                key: value
                for key, value in asdict(snap).items()
                if not key.startswith("max_")
            },
            "engine": asdict(self.executor.stats),
            "cache": {
                "entries": len(cache),
                "bytes": cache.bytes,
                "hits": cache.hits,
                "misses": cache.misses,
            },
        }
        planner = getattr(self.executor, "planner", None)
        if planner is not None:
            payload["planner"] = planner.stats_payload()
        durable = self.durability
        if durable is not None:
            payload["durability"] = {
                "recovery": durable.report.as_dict(),
                "wal_seq": durable.wal.seq if durable.wal else None,
                "wal_synced_seq": (
                    durable.wal.synced_seq if durable.wal else None
                ),
                "wal_syncs": durable.wal.syncs if durable.wal else None,
                "checkpoints": durable.checkpoints,
            }
        if self.replication is not None:
            payload["replication"] = self.replication.replication_info()
        return payload

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def close(self, *, drain: bool = True) -> None:
        """Refuse new work, fail queued waiters, close the executor."""
        if self._closed:
            return
        self._closed = True
        self.admission.drain_waiters(
            ExecutorClosedError("service shut down while queued")
        )
        await asyncio.to_thread(self.executor.close, drain=drain)

    async def __aenter__(self) -> "ImprintService":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()
