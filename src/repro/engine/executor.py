"""The serving layer: micro-batched, coalescing query execution.

Production traffic does not arrive as one predicate at a time per
index; it arrives as a concurrent stream across many columns, with
heavy repetition.  :class:`QueryExecutor` turns that stream into the
shapes the kernels below are fastest at:

* **micro-batching** — a miss on a column with no batch running
  leaves for the worker pool at once; misses that arrive while one
  runs queue up and leave together, in ``max_batch`` chunks, when the
  column's running batches end (group commit: the batches clock
  themselves, no timer waits);
* **request coalescing** — identical predicates inside a batch are
  evaluated once, by one ``index.query`` call, and the result is
  shared by every waiter;
* **result caching** — a bounded LRU keyed by
  ``(column, predicate, index version)`` serves repeated hot queries
  without touching the index at all; version-tagged keys mean any
  append/update/rebuild invalidates implicitly, and entries are
  re-weighted (:meth:`~repro.engine.cache.LRUCache.reweight`) when a
  consumer forces a cached answer's id array or pages through it, so
  the byte budget keeps tracking the memory actually pinned;
* **aggregate pushdown** — :meth:`aggregate` (and its future form,
  :meth:`submit_aggregate`) answers ``COUNT``/``SUM``/``MIN``/``MAX``
  of a predicate through the index's per-cacheline pre-aggregates and
  caches the *scalar* in the same versioned LRU, so repeated dashboard
  aggregations cost a dictionary lookup; ``submit_aggregate(...,
  limit=)`` answers a count plus its first page the same way, through
  the index's ``first_page``, which on imprints never builds the full
  answer: one stored-vector test, then one scan of the covering span
  where the imprint cannot prune, else one candidate pass;
  :meth:`submit_paged` without a cursor answers a page alone through
  the index's ``page`` (one candidate pass, no count).

Answers are bit-identical to calling ``index.query(predicate)``
directly — the executor only re-schedules work, it never changes it.
"""

from __future__ import annotations

import contextvars
import threading
import time
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor

from ..errors import DeadlineExceeded, ExecutorClosedError
from ..index_base import QueryResult, SecondaryIndex
from ..predicate import RangePredicate
from ..core.aggregates import AGGREGATE_OPS, GROUP_OPS
from ..core.parallel import default_workers
from .cache import ExecutorStats, LRUCache
from .planner import QueryPlanner

__all__ = ["QueryExecutor"]

#: Nominal LRU weight of a cached aggregate scalar (key + boxed value).
_SCALAR_WEIGHT = 64

#: Additional LRU weight per group entry / top-k value in a cached answer.
_GROUP_ENTRY_WEIGHT = 32

#: A queued miss: its predicate, its waiter's future, its deadline.
_Entry = tuple[RangePredicate, Future, float | None]


def _deliver(fut: Future, result=None, exc: BaseException | None = None) -> None:
    """Answer one waiter, skipping one that is cancelled or done.

    A waiter can cancel between the ``done()`` check and the set (an
    asyncio deadline cancelling its wrapped future); the set then
    raises ``InvalidStateError``, which must not stop the caller from
    answering the waiters after it.
    """
    if fut.done():
        return
    try:
        if exc is None:
            fut.set_result(result)
        else:
            fut.set_exception(exc)
    except InvalidStateError:
        pass


class QueryExecutor:
    """Serve imprint queries from concurrent clients at high throughput.

    Parameters
    ----------
    indexes:
        Optional initial ``name -> index`` registrations (any
        :class:`SecondaryIndex`).
    max_batch:
        Most submissions one batch carries; a longer queue leaves as
        several batches.
    cache_size:
        Capacity of the whole-result LRU (0 disables result caching).
    cache_bytes:
        Byte budget for cached answers, accounted at their *compact*
        :class:`~repro.core.rowset.RowSet` size (range endpoints plus
        exception ids) — a high-selectivity answer that would be
        megabytes of expanded ids usually costs a few hundred bytes
        here, so the budget holds orders of magnitude more entries.
    n_workers:
        Worker threads executing dispatched batches.
    planner:
        Optional :class:`~repro.engine.planner.QueryPlanner`.  With a
        planner attached, a column registered as a
        :class:`~repro.engine.planner.MultiBackendIndex` has its access
        path chosen *per predicate at batch dispatch time*, and each
        evaluated predicate's own wall-clock and observed selectivity
        feed the planner's statistics, recalibrating the cost model so
        mispriced plans self-correct.  Answers are bit-identical
        regardless of the plan; only timings differ.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import ColumnImprints
    >>> from repro.storage import Column
    >>> column = Column(np.arange(10_000, dtype=np.int32), name="demo")
    >>> with QueryExecutor({"demo": ColumnImprints(column)}) as executor:
    ...     result = executor.query("demo", executor.predicate("demo", 10, 20))
    >>> list(result.ids) == list(range(10, 20))
    True
    """

    def __init__(
        self,
        indexes: dict[str, SecondaryIndex] | None = None,
        *,
        max_batch: int = 64,
        cache_size: int = 1024,
        cache_bytes: int = 256 << 20,
        n_workers: int | None = None,
        planner: QueryPlanner | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.max_batch = max_batch
        self.planner = planner
        self._indexes: dict[str, SecondaryIndex] = {}
        self._cache = LRUCache(cache_size, max_bytes=cache_bytes)
        self.stats = ExecutorStats()
        self._lock = threading.Lock()
        # Per column: misses queued behind running batches, and how many
        # of its batches are on the pool.
        self._pending: dict[str, list[_Entry]] = {}
        self._running: dict[str, int] = {}
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=n_workers if n_workers is not None else default_workers(),
            thread_name_prefix="imprint-exec",
        )
        for name, index in (indexes or {}).items():
            self.register(name, index)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, index: SecondaryIndex) -> None:
        """Attach an index under ``name`` (replaces any previous one)."""
        with self._lock:
            self._indexes[name] = index

    def index(self, name: str) -> SecondaryIndex:
        try:
            return self._indexes[name]
        except KeyError:
            raise KeyError(
                f"no index registered under {name!r}; "
                f"registered: {sorted(self._indexes)}"
            ) from None

    @property
    def column_names(self) -> list[str]:
        return sorted(self._indexes)

    def predicate(
        self, name: str, low, high, **kwargs
    ) -> RangePredicate:
        """Canonical range predicate for the named column's type."""
        return RangePredicate.range(
            low, high, self.index(name).column.ctype, **kwargs
        )

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(
        self,
        name: str,
        predicate: RangePredicate,
        *,
        deadline: float | None = None,
    ) -> Future:
        """Enqueue one predicate; returns a future of its QueryResult.

        The future resolves once the predicate's micro-batch executed
        (or instantly on a result-cache hit).  The batch leaves at once
        when the column has no batch running, else as soon as the
        column's running batches end.

        ``deadline`` is an optional absolute ``time.monotonic()``
        timestamp: if it passes before the entry's batch runs, the
        future fails with :class:`~repro.errors.DeadlineExceeded` and
        no kernel time is spent on it — even when an identical
        predicate from another caller is evaluated in the same batch,
        the expired waiter is answered with the timeout, never with a
        result it stopped waiting for.  An already-expired deadline
        fails the future immediately (the future is still returned, so
        callers have one uniform consumption path).
        """
        return self._submit(name, (predicate,), deadline)[0]

    def submit_many(self, name: str, predicates) -> list[Future]:
        """Enqueue a burst of predicates under one lock acquisition.

        The bulk entry point for clients that already hold a request
        list: cache hits resolve immediately, the rest leave in
        ``max_batch``-sized batches without per-call locking.
        """
        return self._submit(name, predicates, None)

    def _submit(self, name, predicates, deadline) -> list[Future]:
        """Answer cache hits and expired entries now; enqueue the rest."""
        if self._closed:
            raise ExecutorClosedError("executor is closed")
        index = self.index(name)  # fail fast on unknown names
        version = getattr(index, "version", None)
        futures: list[Future] = []
        misses: list[_Entry] = []
        hits = expired = 0
        for predicate in predicates:
            fut: Future = Future()
            futures.append(fut)
            # Fast path: a fresh cached result needs no scheduling at all.
            cached = self._cached_result(name, version, predicate)
            if cached is not None:
                hits += 1
                fut.set_result(cached)
            elif deadline is not None and deadline <= time.monotonic():
                expired += 1
                fut.set_exception(
                    DeadlineExceeded(
                        f"deadline expired before submission of {predicate!r}"
                    )
                )
            else:
                misses.append((predicate, fut, deadline))
        self.stats.bump(
            submitted=len(futures), cache_hits=hits, expired=expired
        )
        if not misses:
            return futures
        with self._lock:
            if self._closed:
                raise ExecutorClosedError("executor is closed")
            self._pending.setdefault(name, []).extend(misses)
            if name not in self._running:
                self._dispatch_locked(name)
        return futures

    def query(self, name: str, predicate: RangePredicate) -> QueryResult:
        """Blocking convenience: submit and wait."""
        return self.submit(name, predicate).result()

    # ------------------------------------------------------------------
    # streaming consumption
    # ------------------------------------------------------------------
    def submit_paged(
        self,
        name: str,
        predicate: RangePredicate,
        limit: int,
        cursor=None,
        *,
        deadline: float | None = None,
    ) -> Future:
        """Enqueue one page request; future of ``(ids_chunk, next_cursor)``.

        The streaming front door.  Without a cursor the first ``limit``
        ids come from the index's lazy
        :meth:`~repro.index_base.SecondaryIndex.page` (on imprints one
        candidate pass, never the full answer), run on the worker pool
        under :meth:`submit_aggregate`'s deadline and cancel rules and
        cached in the versioned LRU.  With the returned cursor, the
        next page is served from the full answer, answered through the
        normal batched/coalesced path once and then from the LRU; each
        page expands only its own slice of the cached row set.  A
        cursor issued before an ``append``/``note_update``/``rebuild``
        fails with :class:`~repro.core.cursor.StaleCursorError` (the
        version is part of both the cursor and the cache key, so a
        stale cursor can never be served a fresh answer or vice versa).
        """
        from ..core.cursor import PageCursor

        if limit < 1:
            raise ValueError(f"page limit must be >= 1, got {limit}")
        if cursor is None:
            return self._on_pool(
                predicate,
                deadline,
                lambda: self._lookup(
                    name,
                    predicate,
                    ("first ids", limit),
                    lambda index: index.page(predicate, limit),
                    ids_at=0,  # (ids, cursor)
                ),
            )
        index = self.index(name)
        # Fail fast, before any scheduling: a stale cursor cannot
        # become valid by waiting.
        PageCursor.parse(cursor).check_version(getattr(index, "version", None))
        page_future: Future = Future()
        inner = self.submit(name, predicate, deadline=deadline)

        def deliver(done: Future) -> None:
            try:
                page = done.result().page(limit, cursor)
            except BaseException as exc:  # noqa: BLE001 - propagate to waiter
                _deliver(page_future, exc=exc)
            else:
                _deliver(page_future, page)

        inner.add_done_callback(deliver)
        return page_future

    def query_paged(
        self, name: str, predicate: RangePredicate, limit: int, cursor=None
    ):
        """Blocking convenience: one page, ``(ids_chunk, next_cursor)``."""
        return self.submit_paged(name, predicate, limit, cursor).result()

    def map(self, name: str, predicates) -> list[QueryResult]:
        """Submit many predicates against one column; gather in order."""
        futures = self.submit_many(name, predicates)
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # aggregate pushdown
    # ------------------------------------------------------------------
    def aggregate(self, name: str, predicate: RangePredicate, op: str):
        """``COUNT``/``SUM``/``MIN``/``MAX`` of a predicate, cached as a scalar.

        A cached scalar under ``(column, predicate, op, version)``
        answers immediately; else the index's own
        :meth:`~repro.index_base.SecondaryIndex.aggregate` pushdown
        runs.  The scalar lands in the versioned LRU at a nominal
        weight, so a byte budget holds practically unlimited aggregate
        answers and any append/update/rebuild invalidates implicitly.
        """
        hit, compute = self._lookup_aggregate(name, predicate, op)
        return compute() if hit is None else hit[0]

    def aggregate_grouped(
        self, name: str, predicate: RangePredicate, op: str, group_by: str
    ) -> dict:
        """Grouped ``COUNT``/``SUM``/``AVG`` of a predicate, cached.

        Runs the index's GROUP BY pushdown (per-cacheline group
        histograms — no row ids) and caches the ``{group_key: value}``
        answer in the same versioned LRU as scalar aggregates, keyed by
        ``(column, predicate, op, group column, version)``, weighted by
        the number of groups so a byte budget stays honest.  Any
        append/update/rebuild invalidates implicitly.
        """
        hit, compute = self._lookup_aggregate(
            name, predicate, op, group_by=group_by
        )
        return compute() if hit is None else hit[0]

    def top_k(self, name: str, predicate: RangePredicate, k: int) -> list:
        """The ``k`` largest qualifying values (descending), cached.

        Runs the index's extrema-ordered top-k pushdown and caches the
        value list in the versioned LRU under
        ``(column, predicate, k, version)``; ``[]`` (an empty answer)
        caches like any other value.
        """
        hit, compute = self._lookup_aggregate(name, predicate, None, k=k)
        return compute() if hit is None else hit[0]

    def submit_aggregate(
        self,
        name: str,
        predicate: RangePredicate,
        op: str = "count",
        *,
        group_by: str | None = None,
        k: int | None = None,
        limit: int | None = None,
        deadline: float | None = None,
    ) -> Future:
        """Future of :meth:`aggregate` (``op``), :meth:`aggregate_grouped`
        (``group_by=``), :meth:`top_k` (``k=``) or the index's
        :meth:`~repro.index_base.SecondaryIndex.first_page` (``limit=``:
        ``(count, ids, cursor)``, the ``COUNT`` plus its first ``limit``
        ids), through the same LRU.

        A cache hit returns an already-resolved future.  A miss runs on
        the executor's worker pool, inside a copy of the caller's
        :mod:`contextvars` context.  ``deadline`` works as in
        :meth:`submit`: a task that starts after it fails with
        :class:`~repro.errors.DeadlineExceeded` (counted in
        ``stats.expired``) without evaluating, and a task whose future
        was cancelled before it started does nothing.  A bad ``op``,
        ``k`` or ``limit`` raises here (:meth:`check_aggregate`).  A
        first page's cursor resumes through :meth:`submit_paged`.
        """
        return self._on_pool(
            predicate,
            deadline,
            lambda: self._lookup_aggregate(
                name, predicate, op, group_by=group_by, k=k, limit=limit
            ),
        )

    def _on_pool(self, predicate, deadline, lookup) -> Future:
        """Future of a :meth:`_lookup` answer (``lookup()`` probes the
        LRU): resolved at once on a hit, else the answer is computed on
        the worker pool, inside a copy of the caller's
        :mod:`contextvars` context, unless ``deadline`` passed or the
        waiter cancelled before the task started."""
        if self._closed:
            raise ExecutorClosedError("executor is closed")
        hit, compute = lookup()
        fut: Future = Future()
        if hit is not None:
            fut.set_result(hit[0])
            return fut
        context = contextvars.copy_context()

        def run() -> None:
            expired = deadline is not None and deadline <= time.monotonic()
            if expired:
                self.stats.bump(expired=1)
            if not fut.set_running_or_notify_cancel():
                return  # the waiter gave up before the task started
            try:
                if expired:
                    raise DeadlineExceeded(
                        f"deadline expired before {predicate!r} was answered"
                    )
                fut.set_result(context.run(compute))
            except BaseException as exc:  # noqa: BLE001 - propagate to waiter
                fut.set_exception(exc)

        with self._lock:
            if self._closed:
                raise ExecutorClosedError("executor is closed")
            self._pool.submit(run)
        return fut

    @staticmethod
    def check_aggregate(
        op: str | None = "count",
        *,
        group_by: str | None = None,
        k: int | None = None,
        limit: int | None = None,
    ) -> tuple:
        """Refuse an aggregate request no index can answer.

        Raises :class:`ValueError` for an unknown scalar ``op``, an
        unknown grouped ``op`` (with ``group_by``), a negative ``k``,
        ``group_by`` together with ``k``, a ``limit`` below 1, or
        ``limit`` together with ``group_by``, ``k`` or an ``op`` other
        than ``count``.  Returns the request's tag in the LRU key.
        """
        if limit is not None:
            if group_by is not None or k is not None:
                raise ValueError("limit excludes group_by and top-k k")
            if op != "count":
                raise ValueError(f"a first page counts; got op {op!r}")
            if limit < 1:
                raise ValueError(f"page limit must be >= 1, got {limit}")
            return ("page", limit)
        if k is not None:
            if group_by is not None:
                raise ValueError("group_by and top-k k are exclusive")
            if k < 0:
                raise ValueError(f"top_k k must be >= 0, got {k}")
            return ("topk", k)
        if group_by is not None:
            if op not in GROUP_OPS:
                raise ValueError(
                    f"unknown grouped aggregate {op!r}; supported: {GROUP_OPS}"
                )
            return ("group", op, group_by)
        if op not in AGGREGATE_OPS:
            raise ValueError(
                f"unknown aggregate {op!r}; supported: {AGGREGATE_OPS}"
            )
        return ("aggregate", op)

    def _lookup_aggregate(
        self, name, predicate, op, *, group_by=None, k=None, limit=None
    ):
        """Validate an aggregate request and probe the LRU once
        (:meth:`_lookup`)."""
        tag = self.check_aggregate(op, group_by=group_by, k=k, limit=limit)

        def read(index):
            if limit is not None:
                return index.first_page(predicate, limit)
            if k is not None:
                return index.top_k(predicate, k)
            if group_by is not None:
                return index.aggregate_grouped(predicate, op, group_by)
            return index.aggregate(predicate, op)

        ids_at = None if limit is None else 1  # (count, ids, cursor)
        return self._lookup(name, predicate, tag, read, ids_at)

    def _lookup(self, name, predicate, tag, read, ids_at=None):
        """Probe the LRU once for ``(column, predicate, tag, version)``.

        Returns ``(hit, compute)``: ``hit`` is the cached answer wrapped
        in a 1-tuple (so a legitimate ``None`` — MIN/MAX over an empty
        selection — is distinguishable from a miss) or ``None``;
        ``compute()`` runs ``read(index)`` and caches its answer.  A
        page's ids (at ``ids_at`` of the answer) are frozen, because the
        LRU shares them, and weigh what they pin; a grouped dict or
        top-k list weighs per entry.  The request counts once in
        :attr:`stats`.
        """
        index = self.index(name)
        version = getattr(index, "version", None)
        key = (name, predicate, tag, version)
        hit = None if version is None else self._cache.get(key)
        self.stats.bump(
            submitted=1, **{"cache_misses" if hit is None else "cache_hits": 1}
        )

        def compute():
            value = read(index)
            weight = _SCALAR_WEIGHT
            if ids_at is not None:
                ids = value[ids_at]
                ids.setflags(write=False)
                weight += int(ids.nbytes)
            elif tag[0] != "aggregate":
                weight += _GROUP_ENTRY_WEIGHT * len(value)
            if version is not None:
                self._cache.put(key, (value,), weight=weight)
            return value

        return hit, compute

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cached_result(self, name, version, predicate) -> QueryResult | None:
        if version is None:
            return None
        return self._cache.get((name, predicate, version))

    def _dispatch_locked(self, name: str) -> None:
        """Move a column's queue onto the pool in ``max_batch`` chunks
        (lock held)."""
        queue = self._pending.pop(name, [])
        for start in range(0, len(queue), self.max_batch):
            self._running[name] = self._running.get(name, 0) + 1
            self._pool.submit(
                self._clocked_batch, name, queue[start : start + self.max_batch]
            )

    def _clocked_batch(self, name: str, entries: list[_Entry]) -> None:
        """Run one batch; the column's last running batch to end
        dispatches the misses that queued behind it."""
        try:
            self._run_batch(name, entries)
        finally:
            with self._lock:
                self._running[name] -= 1
                if not self._running[name]:
                    del self._running[name]
                    self._dispatch_locked(name)

    def _run_batch(self, name: str, entries: list[_Entry]) -> None:
        try:
            index = self._indexes[name]
            version = getattr(index, "version", None)
            # Expired entries are answered with DeadlineExceeded before
            # any kernel runs: nobody is waiting for them any more, so
            # spending evaluation time would be pure waste — and if
            # *every* waiter on a predicate expired, that predicate is
            # dropped from the batch entirely.  An expired entry
            # coalesced with a live identical predicate still gets the
            # timeout (its caller stopped waiting), while the live
            # peer's evaluation proceeds untouched.
            now = time.monotonic()
            groups: dict[RangePredicate, list[Future]] = {}
            expired = 0
            for predicate, fut, deadline in entries:
                if deadline is not None and deadline <= now:
                    expired += 1
                    _deliver(
                        fut,
                        exc=DeadlineExceeded(
                            f"deadline expired while {predicate!r} "
                            f"waited for its micro-batch"
                        ),
                    )
                else:
                    # Coalesce: one evaluation per distinct predicate.
                    groups.setdefault(predicate, []).append(fut)
            if expired:
                self.stats.bump(expired=expired)
            if not groups:
                return
            self.stats.bump(coalesced=len(entries) - expired - len(groups))

            results: dict[RangePredicate, QueryResult] = {}
            to_run: list[RangePredicate] = []
            for predicate in groups:
                cached = self._cached_result(name, version, predicate)
                if cached is not None:
                    results[predicate] = cached
                    self.stats.bump(cache_hits=1)
                else:
                    to_run.append(predicate)
                    self.stats.bump(cache_misses=1)

            if to_run:
                # Dispatch-time access-path choice: with a planner and a
                # multi-backend column, every distinct predicate picks
                # its backend here, and that one call's wall-clock and
                # observed selectivity are what the planner learns from.
                planner = self.planner
                backends = getattr(index, "backends", None)
                routed = planner is not None and backends is not None
                n_rows = len(index.column)
                for predicate in to_run:
                    if routed:
                        choice = planner.choose(name, backends, predicate)
                        started = time.perf_counter()
                        result = index.query(predicate, backend=choice.backend)
                        seconds = time.perf_counter() - started
                        planner.observe(
                            name,
                            choice,
                            seconds=seconds,
                            selectivity=result.count() / max(1, n_rows),
                        )
                    else:
                        result = index.query(predicate)
                    result.freeze()
                    results[predicate] = result
                    if version is not None:
                        # Weight = the compact RowSet footprint (range
                        # endpoints + exceptions), not the expanded id
                        # array: a byte budget holds orders of magnitude
                        # more high-selectivity answers.  When a consumer
                        # later forces ``.ids`` or pages (memoising rank
                        # arrays), the hook re-charges the entry its real
                        # pinned footprint, keeping the budget honest.
                        cache_key = (name, predicate, version)
                        self._cache.put(
                            cache_key, result, weight=int(result.nbytes)
                        )
                        result.on_materialize(
                            lambda nbytes, k=cache_key: self._cache.reweight(
                                k, int(nbytes)
                            )
                        )
                self.stats.bump(batches=1, batched_queries=len(to_run))

            for predicate, futures in groups.items():
                for fut in futures:
                    _deliver(fut, results[predicate])
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            for _, fut, _ in entries:
                _deliver(fut, exc=exc)

    # ------------------------------------------------------------------
    # cache control / lifecycle
    # ------------------------------------------------------------------
    @property
    def cache(self) -> LRUCache:
        return self._cache

    def clear_cache(self) -> None:
        self._cache.clear()

    def close(self, *, drain: bool = True) -> None:
        """Stop the workers; idempotent.

        With ``drain=True`` (the default) queued misses are dispatched
        and their answers delivered before the pool shuts down — the
        graceful path.  With ``drain=False`` queued misses are failed
        immediately with :class:`~repro.errors.ExecutorClosedError` and
        only batches already on the worker pool finish — the fast path
        a serving process takes on abort.  Either way no future is left
        dangling: nothing can queue once the executor is closed, so a
        batch that ends during shutdown finds no queue to dispatch, and
        later :meth:`submit` calls raise
        :class:`~repro.errors.ExecutorClosedError` immediately instead
        of queueing work nothing will ever run.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if drain:
                for name in list(self._pending):
                    self._dispatch_locked(name)
            stranded = [
                fut for queue in self._pending.values() for _, fut, _ in queue
            ]
            self._pending.clear()
        for fut in stranded:
            _deliver(
                fut, exc=ExecutorClosedError("executor closed before evaluation")
            )
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryExecutor(columns={len(self._indexes)}, "
            f"max_batch={self.max_batch}, cache={self._cache!r})"
        )
