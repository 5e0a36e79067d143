"""The serving layer: micro-batched, coalescing query execution.

Production traffic does not arrive as one predicate at a time per
index; it arrives as a concurrent stream across many columns, with
heavy repetition.  :class:`QueryExecutor` turns that stream into the
shapes the kernels below are fastest at:

* **micro-batching** — submissions against the same column are held for
  a bounded window (or until the batch fills) and then answered by one
  ``query_batch`` pass, which shares the stored-vector mask tests
  across the whole batch;
* **request coalescing** — identical predicates inside a batch are
  evaluated once and the result is shared by every waiter;
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
* **table-level parallelism** — :meth:`conjunctive` gathers the
  per-column candidate passes of a multi-attribute query concurrently
  before the merge-join (:meth:`aggregate_conjunctive` does the same
  and reduces the survivors to one scalar).

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
from ..core.conjunction import conjunctive_aggregate, conjunctive_query
from ..core.parallel import default_workers
from .cache import ExecutorStats, LRUCache
from .planner import QueryPlanner

__all__ = ["QueryExecutor"]

#: Nominal LRU weight of a cached aggregate scalar (key + boxed value).
_SCALAR_WEIGHT = 64

#: Additional LRU weight per group entry / top-k value in a cached answer.
_GROUP_ENTRY_WEIGHT = 32


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
        :class:`SecondaryIndex`; column imprints get the fused batch
        kernel, others fall back to per-query evaluation inside the
        batch).
    batch_window:
        Seconds a batch leader waits for followers before dispatch.
        ``0`` dispatches every submission immediately (no scheduler
        latency, no cross-request sharing beyond what is already
        pending).
    max_batch:
        Dispatch a column's batch as soon as it holds this many
        submissions, regardless of the window.
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
        path chosen *per predicate at batch dispatch time* — and the
        batch is the observation point: each evaluated group's
        wall-clock and observed selectivity feed the planner's
        statistics, recalibrating the cost model so mispriced plans
        self-correct.  Answers are bit-identical regardless of the
        plan; only timings differ.

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
        batch_window: float = 0.002,
        max_batch: int = 64,
        cache_size: int = 1024,
        cache_bytes: int = 256 << 20,
        n_workers: int | None = None,
        planner: QueryPlanner | None = None,
    ) -> None:
        if batch_window < 0:
            raise ValueError(f"batch_window must be >= 0, got {batch_window}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.planner = planner
        self._indexes: dict[str, SecondaryIndex] = {}
        self._cache = LRUCache(cache_size, max_bytes=cache_bytes)
        self.stats = ExecutorStats()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._pending: dict[str, list[tuple[RangePredicate, Future]]] = {}
        self._deadlines: dict[str, float] = {}
        self._closed = False
        self._pool = ThreadPoolExecutor(
            max_workers=n_workers if n_workers is not None else default_workers(),
            thread_name_prefix="imprint-exec",
        )
        self._scheduler = threading.Thread(
            target=self._run_scheduler, name="imprint-batcher", daemon=True
        )
        self._scheduler.start()
        for name, index in (indexes or {}).items():
            self.register(name, index)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, index: SecondaryIndex) -> None:
        """Attach an index under ``name`` (replaces any previous one)."""
        with self._lock:
            self._indexes[name] = index

    @classmethod
    def for_table(cls, table, index_factory=None, **kwargs) -> "QueryExecutor":
        """An executor serving every column of a
        :class:`~repro.storage.table.Table`.

        ``index_factory`` builds the per-column index (default:
        :class:`~repro.core.index.ColumnImprints`).  It may also be a
        ``{column name: factory}`` mapping, so a table can mix backends
        per column — an imprints column next to a zonemap column next to
        a planner-routed :class:`~repro.engine.planner.MultiBackendIndex`
        column; columns absent from the mapping get imprints.  Remaining
        keyword arguments configure the executor (including
        ``planner=``).  This is the natural entry point for the
        table-level :meth:`conjunctive` path.
        """
        from ..core.index import ColumnImprints

        if index_factory is None:
            index_factory = ColumnImprints
        if isinstance(index_factory, dict):
            factories = index_factory
            return cls(
                {
                    name: factories.get(name, ColumnImprints)(column)
                    for name, column in table
                },
                **kwargs,
            )
        return cls(
            {name: index_factory(column) for name, column in table},
            **kwargs,
        )

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
        backend: str | None = None,
    ) -> Future:
        """Enqueue one predicate; returns a future of its QueryResult.

        The future resolves once the predicate's micro-batch executed
        (or instantly on a result-cache hit shared with the batch).

        ``deadline`` is an optional absolute ``time.monotonic()``
        timestamp: if it passes before the entry's batch runs, the
        future fails with :class:`~repro.errors.DeadlineExceeded` and
        no kernel time is spent on it — even when an identical
        predicate from another caller is evaluated in the same batch,
        the expired waiter is answered with the timeout, never with a
        result it stopped waiting for.  An already-expired deadline
        fails the future immediately (the future is still returned, so
        callers have one uniform consumption path).

        ``backend`` forces the access path for this one submission (the
        per-query escape hatch of the planner seam): the entry bypasses
        the result cache, is never coalesced with differently-routed
        peers, and is evaluated by the named backend — one of the
        column's :class:`~repro.engine.planner.MultiBackendIndex`
        backends, or the kind of a plain index.  Answers are
        bit-identical to the unforced path.
        """
        return self._submit(name, (predicate,), deadline, backend)[0]

    def submit_many(
        self, name: str, predicates, *, backend: str | None = None
    ) -> list[Future]:
        """Enqueue a burst of predicates under one lock acquisition.

        The bulk entry point for clients that already hold a request
        list: cache hits resolve immediately, the rest join the batcher
        in ``max_batch``-sized chunks without per-call locking.
        ``backend`` forces every entry's access path, exactly like
        :meth:`submit`.
        """
        return self._submit(name, predicates, None, backend)

    def _submit(self, name, predicates, deadline, backend) -> list[Future]:
        """Answer cache hits and expired entries now; enqueue the rest."""
        if self._closed:
            raise ExecutorClosedError("executor is closed")
        index = self.index(name)  # fail fast on unknown names
        if backend is not None:
            self._check_backend(name, index, backend)
        futures: list[Future] = []
        misses: list[
            tuple[RangePredicate, Future, float | None, str | None]
        ] = []
        hits = expired = 0
        for predicate in predicates:
            fut: Future = Future()
            futures.append(fut)
            # Fast path: a fresh cached result needs no scheduling at
            # all.  Forced-backend submissions skip it — the caller
            # asked for an actual evaluation on a specific access path.
            cached = (
                self._cached_result(name, index, predicate)
                if backend is None
                else None
            )
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
                misses.append((predicate, fut, deadline, backend))
        self.stats.bump(
            submitted=len(futures), cache_hits=hits, expired=expired
        )
        if not misses:
            return futures
        with self._lock:
            if self._closed:
                raise ExecutorClosedError("executor is closed")
            queue = self._pending.setdefault(name, [])
            fresh_deadline = not queue
            queue.extend(misses)
            if self.batch_window == 0:
                self._dispatch_locked(name)
            elif len(queue) >= self.max_batch:
                while len(queue) >= self.max_batch:
                    self._pool.submit(
                        self._run_batch, name, queue[: self.max_batch]
                    )
                    del queue[: self.max_batch]
                if queue:
                    self._deadlines[name] = (
                        time.monotonic() + self.batch_window
                    )
                    self._wakeup.notify()
                else:
                    self._pending.pop(name, None)
                    self._deadlines.pop(name, None)
            elif fresh_deadline:
                # Followers piggyback on the leader's deadline; only a
                # new deadline needs to wake the scheduler.
                self._deadlines[name] = time.monotonic() + self.batch_window
                self._wakeup.notify()
        return futures

    def query(
        self,
        name: str,
        predicate: RangePredicate,
        *,
        backend: str | None = None,
    ) -> QueryResult:
        """Blocking convenience: submit and wait."""
        return self.submit(name, predicate, backend=backend).result()

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

        The streaming front door: the first call answers the predicate
        through the normal batched/coalesced path and serves the first
        ``limit`` ids from the answer's compressed form in O(limit);
        successive calls pass the returned cursor and are served from
        the *versioned LRU* — no kernel re-runs, each page expands only
        its own slice of the cached row set.  A cursor issued before an
        ``append``/``note_update``/``rebuild`` fails with
        :class:`~repro.core.cursor.StaleCursorError` (the version is
        part of both the cursor and the cache key, so a stale cursor
        can never be served a fresh answer or vice versa).
        """
        from ..core.cursor import PageCursor

        if limit < 1:
            raise ValueError(f"page limit must be >= 1, got {limit}")
        index = self.index(name)
        if cursor is not None:
            # Fail fast, before any scheduling: a stale cursor cannot
            # become valid by waiting.
            PageCursor.parse(cursor).check_version(
                getattr(index, "version", None)
            )
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

    def flush(self) -> None:
        """Dispatch every pending batch immediately and wait for them."""
        with self._lock:
            futures = [
                fut
                for queue in self._pending.values()
                for _, fut, _, _ in queue
            ]
            for name in list(self._pending):
                self._dispatch_locked(name)
        for future in futures:
            future.exception()  # wait without raising here

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
        if self._closed:
            raise ExecutorClosedError("executor is closed")
        hit, compute = self._lookup_aggregate(
            name, predicate, op, group_by=group_by, k=k, limit=limit
        )
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
                        f"deadline expired before {predicate!r} was aggregated"
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
        """Validate an aggregate request and probe the LRU once.

        Returns ``(hit, compute)``: ``hit`` is the cached answer wrapped
        in a 1-tuple (so a legitimate ``None`` — MIN/MAX over an empty
        selection — is distinguishable from a miss) or ``None``;
        ``compute()`` runs the index's pushdown and caches its answer.
        The request counts once in :attr:`stats`.
        """
        tag = self.check_aggregate(op, group_by=group_by, k=k, limit=limit)
        index = self.index(name)
        version = getattr(index, "version", None)
        key = (name, predicate, tag, version)
        hit = None if version is None else self._cache.get(key)
        self.stats.bump(
            submitted=1, **{"cache_misses" if hit is None else "cache_hits": 1}
        )

        def compute():
            if limit is not None:
                value = index.first_page(predicate, limit)
                value[1].setflags(write=False)  # shared through the LRU
            elif k is not None:
                value = index.top_k(predicate, k)
            elif group_by is not None:
                value = index.aggregate_grouped(predicate, op, group_by)
            else:
                value = index.aggregate(predicate, op)
            if version is not None:
                # First pages pay for their ids; grouped dicts and top-k
                # lists per entry.
                weight = _SCALAR_WEIGHT
                if limit is not None:
                    weight += int(value[1].nbytes)
                elif tag[0] != "aggregate":
                    weight += _GROUP_ENTRY_WEIGHT * len(value)
                self._cache.put(key, (value,), weight=weight)
            return value

        return hit, compute

    def aggregate_conjunctive(
        self, names, predicates, op: str, target: int = 0
    ):
        """Aggregate one column over a multi-attribute AND.

        The per-column candidate passes run concurrently (exactly like
        :meth:`conjunctive`); the merge-join's all-full survivor spans
        then feed the target column's per-cacheline pre-aggregates
        without materialising ids.
        """
        indexes, predicates, gathered = self._gather_candidates(
            names, predicates
        )
        return conjunctive_aggregate(
            indexes, predicates, op, target=target, candidates=gathered
        )

    # ------------------------------------------------------------------
    # the table-level path
    # ------------------------------------------------------------------
    def conjunctive(self, names, predicates) -> QueryResult:
        """AND of predicates across columns, candidate passes parallel.

        Each column's compressed-domain candidate pass runs as its own
        worker task; the merge-join and the false-positive weeding then
        proceed exactly like
        :func:`repro.core.conjunction.conjunctive_query`, consuming the
        pre-gathered passes in the same column order — ids and stats are
        identical to the serial call, only the scheduling differs.
        """
        indexes, predicates, gathered = self._gather_candidates(
            names, predicates
        )
        return conjunctive_query(indexes, predicates, candidates=gathered)

    def _gather_candidates(self, names, predicates):
        """``(indexes, predicates, candidate passes)``, the passes run
        concurrently on the worker pool."""
        indexes = [self.index(name) for name in names]
        predicates = list(predicates)
        futures = [
            self._pool.submit(index.candidate_ranges, predicate)
            for index, predicate in zip(indexes, predicates)
        ]
        return indexes, predicates, [future.result() for future in futures]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cached_result(self, name, index, predicate) -> QueryResult | None:
        version = getattr(index, "version", None)
        if version is None:
            return None
        return self._cache.get((name, predicate, version))

    def _check_backend(self, name: str, index, backend: str) -> None:
        """Fail fast if the column cannot serve a forced backend."""
        resolve = getattr(index, "resolve", None)
        if resolve is not None:
            resolve(backend)  # raises ValueError on unknown kinds
            return
        if backend != index.kind:
            raise ValueError(
                f"column {name!r} (index kind {index.kind!r}) cannot "
                f"serve forced backend {backend!r}"
            )

    def _dispatch_locked(self, name: str) -> None:
        """Move a pending batch onto the worker pool (lock held)."""
        entries = self._pending.pop(name, [])
        self._deadlines.pop(name, None)
        if entries:
            self._pool.submit(self._run_batch, name, entries)

    def _run_scheduler(self) -> None:
        while True:
            with self._lock:
                if self._closed and not self._pending:
                    return
                now = time.monotonic()
                due = [
                    name
                    for name, deadline in self._deadlines.items()
                    if deadline <= now
                ]
                for name in due:
                    self._dispatch_locked(name)
                if self._deadlines:
                    timeout = max(
                        0.0, min(self._deadlines.values()) - time.monotonic()
                    )
                    self._wakeup.wait(timeout)
                else:
                    self._wakeup.wait(0.05 if self._closed else None)

    def _run_batch(
        self,
        name: str,
        entries: list[
            tuple[RangePredicate, Future, float | None, str | None]
        ],
    ) -> None:
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
            live: list[tuple[RangePredicate, Future, str | None]] = []
            expired = 0
            for predicate, fut, deadline, forced in entries:
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
                    live.append((predicate, fut, forced))
            if expired:
                self.stats.bump(expired=expired)
            if not live:
                return
            # Coalesce: one evaluation per distinct (predicate, forced
            # backend) pair — a forced submission never shares an
            # evaluation with a differently-routed peer, even though
            # the answers would be bit-identical, because the caller
            # asked for that specific access path to actually run.
            groups: dict[tuple[RangePredicate, str | None], list[Future]] = {}
            for predicate, fut, forced in live:
                groups.setdefault((predicate, forced), []).append(fut)
            self.stats.bump(coalesced=len(live) - len(groups))

            results: dict[tuple[RangePredicate, str | None], QueryResult] = {}
            to_run: list[tuple[RangePredicate, str | None]] = []
            for key in groups:
                predicate, forced = key
                cached = (
                    self._cache.get((name, predicate, version))
                    if version is not None and forced is None
                    else None
                )
                if cached is not None:
                    results[key] = cached
                    self.stats.bump(cache_hits=1)
                else:
                    to_run.append(key)
                    self.stats.bump(cache_misses=1)

            if to_run:
                # Dispatch-time access-path choice: with a planner and a
                # multi-backend column, every distinct predicate picks
                # its backend here; forced entries short-circuit but are
                # validated the same way.  Each backend's sub-batch is
                # evaluated (and timed) as one ``query_batch`` pass.
                planner = self.planner
                backends = getattr(index, "backends", None)
                routed = planner is not None and backends is not None
                exec_groups: dict[str | None, list[tuple]] = {}
                for key in to_run:
                    predicate, forced = key
                    if routed:
                        choice = planner.choose(
                            name, backends, predicate, forced=forced
                        )
                        exec_groups.setdefault(choice.backend, []).append(
                            (key, choice)
                        )
                    else:
                        exec_groups.setdefault(forced, []).append((key, None))

                n_rows = len(index.column)
                for backend, members in exec_groups.items():
                    predicates = [key[0] for key, _ in members]
                    started = time.perf_counter()
                    # A named backend routes through the index's
                    # dispatch seam (MultiBackendIndex.query_batch); an
                    # index whose only access path *is* that kind just
                    # runs normally.
                    if backend is not None and hasattr(index, "resolve"):
                        answers = index.query_batch(predicates, backend=backend)
                    else:
                        answers = index.query_batch(predicates)
                    elapsed = time.perf_counter() - started
                    # The coalescing batcher is the observation point:
                    # the batch's wall-clock (split evenly across its
                    # predicates — they shared one pass) and each
                    # answer's observed selectivity feed the planner's
                    # EWMA statistics and model recalibration.
                    share = elapsed / max(1, len(predicates))
                    for (key, choice), result in zip(members, answers):
                        result.freeze()
                        results[key] = result
                        if choice is not None:
                            planner.observe(
                                name,
                                choice,
                                seconds=share,
                                selectivity=result.count() / max(1, n_rows),
                            )
                        if version is not None:
                            # Weight = the compact RowSet footprint
                            # (range endpoints + exceptions), not the
                            # expanded id array: a byte budget holds
                            # orders of magnitude more high-selectivity
                            # answers.  When a consumer later forces
                            # ``.ids`` or pages (memoising rank arrays),
                            # the hook re-charges the entry its real
                            # pinned footprint, keeping the budget honest.
                            cache_key = (name, key[0], version)
                            self._cache.put(
                                cache_key, result, weight=int(result.nbytes)
                            )
                            result.on_materialize(
                                lambda nbytes, k=cache_key: self._cache.reweight(
                                    k, int(nbytes)
                                )
                            )
                self.stats.bump(batches=1, batched_queries=len(to_run))

            for key, futures in groups.items():
                for fut in futures:
                    _deliver(fut, results[key])
        except BaseException as exc:  # noqa: BLE001 - propagate to waiters
            for _, fut, _, _ in entries:
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
        """Stop the scheduler and workers; idempotent.

        With ``drain=True`` (the default) pending batches are
        dispatched and their answers delivered before the pool shuts
        down — the graceful path.  With ``drain=False`` pending entries
        are failed immediately with
        :class:`~repro.errors.ExecutorClosedError` and only batches
        already on the worker pool finish — the fast path a serving
        process takes on abort.  Either way no future is ever left
        dangling: after shutdown a final sweep fails anything still
        unresolved, and later :meth:`submit` calls raise
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
            stranded = self._take_pending_locked()  # empty once drained
            self._wakeup.notify_all()
        self._fail_closed(stranded)
        self._scheduler.join(timeout=5.0)
        self._pool.shutdown(wait=True)
        # Backstop: anything that slipped past both paths (a dispatch
        # racing the shutdown, a worker dying mid-batch) must still
        # resolve — a dangling future would hang its waiter forever.
        with self._lock:
            leftovers = self._take_pending_locked()
        self._fail_closed(leftovers)

    def _take_pending_locked(self) -> list[Future]:
        """Remove every queued entry (lock held); returns their futures."""
        futures = [
            fut for queue in self._pending.values() for _, fut, _, _ in queue
        ]
        self._pending.clear()
        self._deadlines.clear()
        return futures

    @staticmethod
    def _fail_closed(futures: list[Future]) -> None:
        for fut in futures:
            _deliver(
                fut, exc=ExecutorClosedError("executor closed before evaluation")
            )

    def __enter__(self) -> "QueryExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryExecutor(columns={len(self._indexes)}, "
            f"window={self.batch_window * 1e3:.1f}ms, "
            f"max_batch={self.max_batch}, cache={self._cache!r})"
        )
