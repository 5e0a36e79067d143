"""Serving-layer caches and counters for the execution engine.

Production imprint traffic is heavily repetitive — dashboards and
templated queries re-issue the same predicates against slowly changing
columns — so the executor keeps a bounded LRU of whole query results
keyed by ``(column, predicate, index version)``.  Versioned keys make
invalidation free: every append/update/rebuild bumps the index's
version counter, so stale entries simply become unreachable and age out
of the LRU tail instead of requiring an eager sweep.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, fields

__all__ = ["LRUCache", "ExecutorStats"]


class LRUCache:
    """A thread-safe bounded least-recently-used mapping.

    ``get`` refreshes recency; ``put`` evicts the coldest entries once
    ``capacity`` entries — or, when ``max_bytes`` is set, the summed
    entry ``weight`` — is exceeded.  Weights matter for query results:
    the executor charges each entry its *compact*
    :class:`~repro.core.rowset.RowSet` footprint (range endpoints plus
    exception ids), so even answers that would expand to megabytes of
    ids cost a few hundred bytes of budget; an entry-count bound alone
    could still pin far more memory than intended once ids are forced.
    A capacity of 0 disables caching (every ``get`` misses) so callers
    need no special-casing.
    """

    def __init__(self, capacity: int, max_bytes: int | None = None) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._entries: OrderedDict = OrderedDict()  # key -> (value, weight)
        self._lock = threading.Lock()
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key, default=None):
        with self._lock:
            try:
                value, _ = self._entries[key]
            except KeyError:
                self.misses += 1
                return default
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value, weight: int = 0) -> None:
        if self.capacity == 0:
            return
        if self.max_bytes is not None and weight > self.max_bytes:
            return  # would evict everything else and still not fit
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self.bytes -= previous[1]
            self._entries[key] = (value, weight)
            self.bytes += weight
            while len(self._entries) > self.capacity or (
                self.max_bytes is not None and self.bytes > self.max_bytes
            ):
                _, (_, evicted_weight) = self._entries.popitem(last=False)
                self.bytes -= evicted_weight

    def reweight(self, key, weight: int) -> bool:
        """Re-charge an existing entry's byte weight (recency untouched).

        Called when a cached value's real footprint changes after
        insertion — the canonical case being a lazy
        :class:`~repro.index_base.QueryResult` whose ``.ids`` a consumer
        forces: the memoised id array is pinned alongside the compact
        row set, so the entry now costs ``RowSet.nbytes + ids.nbytes``.
        Evicts from the cold end until the byte budget holds again.  An
        entry whose new weight alone exceeds the budget is simply
        dropped — mirroring :meth:`put`'s refusal — instead of flushing
        every other entry first.  Returns ``False`` when the key is no
        longer cached afterwards.
        """
        if weight < 0:
            raise ValueError(f"weight must be >= 0, got {weight}")
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            if self.max_bytes is not None and weight > self.max_bytes:
                # Like put(): it would evict everything else and still
                # not fit, so drop just this entry.
                del self._entries[key]
                self.bytes -= entry[1]
                return False
            self._entries[key] = (entry[0], weight)
            self.bytes += weight - entry[1]
            while (
                self.max_bytes is not None
                and self.bytes > self.max_bytes
                and self._entries
            ):
                _, (_, evicted_weight) = self._entries.popitem(last=False)
                self.bytes -= evicted_weight
            return True

    def evict_oldest(self, count: int = 1) -> int:
        """Force-evict up to ``count`` cold entries; returns how many.

        Not used on any serving fast path — this is the lever the
        fault-injection harness (:mod:`repro.serving.chaos`) pulls to
        simulate eviction storms (a competing tenant churning the
        budget), so the suite can prove correctness is indifferent to
        cache contents.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        with self._lock:
            evicted = 0
            while self._entries and evicted < count:
                _, (_, weight) = self._entries.popitem(last=False)
                self.bytes -= weight
                evicted += 1
            return evicted

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUCache(size={len(self)}/{self.capacity}, "
            f"bytes={self.bytes}, hits={self.hits}, misses={self.misses})"
        )


@dataclass
class ExecutorStats:
    """Counters describing how the executor served its traffic.

    Attributes
    ----------
    submitted:
        Requests handed to :meth:`QueryExecutor.submit` (and its
        siblings) or to its aggregate entry points.
    coalesced:
        Submissions answered by sharing another in-flight submission's
        result (identical predicate in the same micro-batch).
    cache_hits / cache_misses:
        Result-cache outcomes: at submission, then once per distinct
        predicate of a batch (after coalescing).
    batches:
        Micro-batches that evaluated at least one predicate.
    batched_queries:
        Distinct predicates those batches evaluated, one ``query``
        call each — the work that actually reached an index kernel.
    expired:
        Submissions whose deadline passed before their micro-batch (or
        aggregate task) ran — answered with
        :class:`~repro.errors.DeadlineExceeded`, never evaluated.
    """

    submitted: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    batches: int = 0
    batched_queries: int = 0
    expired: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def bump(self, **deltas: int) -> None:
        """Atomically add the given deltas to the named counters."""
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def reset(self) -> None:
        """Zero every counter (benchmark window bookkeeping)."""
        with self._lock:
            for counter in fields(self):
                setattr(self, counter.name, 0)
