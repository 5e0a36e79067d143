"""Fault injection — prove the serving layer degrades, never lies.

The chaos harness wraps a registered index (and optionally the
executor's result cache) and injects the failure modes a production
deployment actually sees, deterministically (seeded counters, no wall
clock in the decision path):

* **kernel latency** — every evaluation sleeps a configured amount,
  simulating a slow shard / cold mmap;
* **worker stalls** — every Nth evaluation sleeps much longer,
  simulating a GC pause or a page-in storm on one worker;
* **eviction storms** — every Nth evaluation force-evicts the
  executor's LRU, simulating a competing tenant churning the byte
  budget (correctness must be indifferent to cache contents);
* **mid-page mutations** — every Nth evaluation appends rows to the
  underlying column, bumping the index version so outstanding cursors
  go stale mid-pagination (clients must see 410, never spliced pages).

The invariants the chaos suite (``tests/test_serving_chaos.py``)
checks: every request terminates (no hangs), every answer is either
*correct for some single index version* or a clean, typed failure —
never wrong ids, never a silent mix of snapshots.

:func:`install_chaos` swaps the wrapper into a live executor;
:meth:`ChaosIndex.restore` swaps the original back.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..engine.executor import QueryExecutor

__all__ = ["ChaosConfig", "ChaosIndex", "install_chaos"]


@dataclass
class ChaosConfig:
    """What to inject, how often.  ``0`` disables an injector.

    Frequencies count *kernel evaluations* (``query`` / ``query_batch``
    / ``aggregate`` / ``first_page`` / ``candidate_ranges`` calls), so
    runs are reproducible regardless of timing.
    """

    kernel_latency: float = 0.0
    stall_every: int = 0
    stall_seconds: float = 0.25
    evict_every: int = 0
    mutate_every: int = 0
    mutate_rows: int = 64

    def __post_init__(self) -> None:
        if self.kernel_latency < 0 or self.stall_seconds < 0:
            raise ValueError("latencies must be >= 0")
        for name in ("stall_every", "evict_every", "mutate_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


class ChaosIndex:
    """A :class:`~repro.index_base.SecondaryIndex` proxy injecting faults.

    Everything not overridden delegates to the wrapped index —
    including ``version``, ``column`` and the pre-aggregate sidecar, so
    the executor's versioned cache keys and pushdown paths behave
    exactly as they would against the real index.  Only the evaluation
    entry points grow fault hooks.
    """

    def __init__(
        self,
        inner,
        config: ChaosConfig,
        cache=None,
    ) -> None:
        self._inner = inner
        self.config = config
        self._cache = cache
        self._lock = threading.Lock()
        self.evaluations = 0
        self.stalls = 0
        self.evictions = 0
        self.mutations = 0

    # ------------------------------------------------------------------
    # delegation
    # ------------------------------------------------------------------
    def __getattr__(self, name):
        return getattr(self._inner, name)

    @property
    def inner(self):
        return self._inner

    # ------------------------------------------------------------------
    # fault machinery
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        """One evaluation: decide the faults, then inject them.

        Counter updates happen under a lock (worker threads evaluate
        batches concurrently); the sleeps happen outside it so a stall
        never serialises the whole pool behind one injected fault.
        """
        with self._lock:
            self.evaluations += 1
            tick = self.evaluations
            stall = (
                self.config.stall_every
                and tick % self.config.stall_every == 0
            )
            evict = (
                self.config.evict_every
                and tick % self.config.evict_every == 0
            )
            mutate = (
                self.config.mutate_every
                and tick % self.config.mutate_every == 0
            )
            if stall:
                self.stalls += 1
            if mutate:
                self.mutations += 1
        if self.config.kernel_latency:
            time.sleep(self.config.kernel_latency)
        if stall:
            time.sleep(self.config.stall_seconds)
        if evict and self._cache is not None:
            self.evictions += self._cache.evict_oldest(len(self._cache))
        if mutate:
            self._mutate()

    def _mutate(self) -> None:
        """Append rows (values from the column's own range) to the index.

        Bumps the version counter exactly like organic writes do, which
        is the whole point: outstanding cursors and cached results for
        the old version must go stale loudly.
        """
        import numpy as np

        values = self._inner.column.values
        probe = values[: min(len(values), 1024)]
        fill = probe[len(probe) // 2] if len(probe) else 0
        self._inner.append(
            np.full(self.config.mutate_rows, fill, dtype=values.dtype)
        )

    # ------------------------------------------------------------------
    # instrumented evaluation entry points
    # ------------------------------------------------------------------
    def query(self, predicate, **kwargs):
        self._tick()
        return self._inner.query(predicate, **kwargs)

    def query_batch(self, predicates, **kwargs):
        # ``backend=`` reaches here from a planner-routed executor,
        # which sees the wrapped index's ``backends`` through delegation.
        self._tick()
        return self._inner.query_batch(predicates, **kwargs)

    def candidate_ranges(self, predicate):
        self._tick()
        return self._inner.candidate_ranges(predicate)

    def aggregate(self, predicate, op: str):
        self._tick()
        return self._inner.aggregate(predicate, op)

    def first_page(self, predicate, limit: int):
        self._tick()
        return self._inner.first_page(predicate, limit)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChaosIndex({self._inner!r}, evaluations={self.evaluations}, "
            f"stalls={self.stalls}, evictions={self.evictions}, "
            f"mutations={self.mutations})"
        )


def install_chaos(
    executor: QueryExecutor,
    name: str,
    config: ChaosConfig,
    *,
    with_cache: bool = True,
) -> ChaosIndex:
    """Wrap the named registered index in a :class:`ChaosIndex`.

    Returns the wrapper (whose counters the suite asserts on).  Call
    ``executor.register(name, wrapper.inner)`` to restore the original.
    """
    wrapper = ChaosIndex(
        executor.index(name),
        config,
        cache=executor.cache if with_cache else None,
    )
    executor.register(name, wrapper)
    return wrapper
