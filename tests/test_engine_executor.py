"""The serving layer: batching, coalescing, caching, invalidation.

The executor's contract is scheduling-only: every answer must be
bit-identical to calling the index directly, no matter how requests
were batched, coalesced or cached — including immediately after the
index mutates (appends/updates bump the version, so stale cache
entries must never be served).
"""

import contextvars
import sys
import threading
import time
from concurrent.futures import Future
from dataclasses import asdict

import numpy as np
import pytest

from repro.core import ColumnImprints
from repro.engine import ExecutorStats, LRUCache, QueryExecutor
from repro.errors import ExecutorClosedError
from repro.predicate import RangePredicate
from repro.storage import INT, Column

from .conftest import make_clustered


@pytest.fixture
def column():
    return Column(make_clustered(12_000, np.int32, seed=9), name="t.c")


def predicates_for(column, rng, count=12):
    lo = int(column.values.min()) - 10
    hi = int(column.values.max()) + 10
    return [
        RangePredicate.range(*sorted(int(v) for v in rng.integers(lo, hi, 2)), INT)
        for _ in range(count)
    ]


def assert_identical(expected, got):
    assert np.array_equal(expected.ids, got.ids)
    assert expected.stats == got.stats


# ----------------------------------------------------------------------
# LRU cache unit behaviour
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"
        cache.put("c", 3)  # evicts "b"
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_counters_and_clear(self):
        cache = LRUCache(4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        assert (cache.hits, cache.misses) == (1, 1)
        cache.clear()
        assert cache.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            LRUCache(-1)

    def test_byte_budget_evicts_and_rejects_oversize(self):
        cache = LRUCache(100, max_bytes=10)
        cache.put("a", 1, weight=4)
        cache.put("b", 2, weight=4)
        cache.put("c", 3, weight=4)  # 12 bytes -> evicts "a"
        assert cache.get("a") is None
        assert cache.bytes == 8
        cache.put("huge", 4, weight=11)  # larger than the whole budget
        assert cache.get("huge") is None
        assert cache.bytes == 8
        cache.put("b", 2, weight=6)  # re-put updates the accounting
        assert cache.bytes == 10


def test_stats_reset_zeroes_every_counter():
    stats = ExecutorStats()
    stats.bump(submitted=3, cache_hits=2, expired=1)
    stats.reset()
    assert asdict(stats) == asdict(ExecutorStats())


# ----------------------------------------------------------------------
# differential: the executor only reschedules, never changes answers
# ----------------------------------------------------------------------
class TestExecutorEquivalence:
    @pytest.mark.parametrize("gap", [0.0, 0.002])
    def test_answers_match_direct_queries(self, column, gap):
        # gap is the pause between submissions: 0.0 sends one burst,
        # a positive gap trickles them in, so most arrive while their
        # column has no batch running or just one
        oracle = ColumnImprints(column)
        rng = np.random.default_rng(1)
        predicates = predicates_for(column, rng)
        stream = predicates * 3  # repetition: coalescing + cache paths
        with QueryExecutor(
            {"c": ColumnImprints(column)}, max_batch=8
        ) as executor:
            if gap:
                futures = []
                for predicate in stream:
                    futures.append(executor.submit("c", predicate))
                    time.sleep(gap)
                results = [future.result() for future in futures]
            else:
                results = executor.map("c", stream)
            for predicate, result in zip(stream, results):
                assert_identical(oracle.query(predicate), result)
            assert executor.stats.submitted == len(stream)
            # repetition must not reach the kernels in full
            assert executor.stats.batched_queries < len(stream)
            assert executor.stats.coalesced + executor.stats.cache_hits > 0

    def test_cached_results_are_shared_and_readonly(self, column):
        predicate = RangePredicate.range(9_000, 12_000, INT)
        with QueryExecutor({"c": ColumnImprints(column)}) as executor:
            first = executor.query("c", predicate)
            second = executor.query("c", predicate)
            assert second is first  # cache hit shares the result object
            assert not first.ids.flags.writeable
            assert executor.stats.cache_hits >= 1

    def test_mutation_invalidates_cached_results(self, column):
        predicate = RangePredicate.range(8_000, 20_000, INT)
        index = ColumnImprints(column)
        with QueryExecutor({"c": index}) as executor:
            before = executor.query("c", predicate)
            # append values inside the predicate's range
            index.append(np.full(64, 9_500, dtype=np.int32))
            after = executor.query("c", predicate)
            assert after.n_ids == before.n_ids + 64
            # same answer the mutated index gives directly (a fresh
            # rebuild would differ structurally, not logically)
            assert_identical(index.query(predicate), after)
            assert np.array_equal(
                ColumnImprints(index.column).query(predicate).ids, after.ids
            )
            # in-place update: saturated overlay must be re-consulted
            index.note_update(0, 9_999)
            updated = executor.query("c", predicate)
            assert 0 in updated.ids
            # rebuild: version bumps again, cache entry unreachable
            index.rebuild()
            rebuilt = executor.query("c", predicate)
            assert np.array_equal(updated.ids, rebuilt.ids)

    def test_unknown_column_and_closed_executor(self, column):
        executor = QueryExecutor({"c": ColumnImprints(column)})
        with pytest.raises(KeyError, match="no index registered"):
            executor.submit("nope", RangePredicate.everything())
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit("c", RangePredicate.range(0, 10, INT))
        executor.close()  # idempotent

    def test_submit_many_matches_submit(self, column):
        oracle = ColumnImprints(column)
        rng = np.random.default_rng(5)
        predicates = predicates_for(column, rng, count=30)
        with QueryExecutor(
            {"c": ColumnImprints(column)}, max_batch=7
        ) as executor:
            futures = executor.submit_many("c", predicates)
            for predicate, future in zip(predicates, futures):
                assert_identical(oracle.query(predicate), future.result())


# ----------------------------------------------------------------------
# dispatch: batches clock themselves
# ----------------------------------------------------------------------
class HoldsFirstBatch:
    """Delegating proxy whose first query waits inside the kernel until
    ``release`` is set, so its column has a batch running."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.held = threading.Event()
        self.release = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def query(self, predicate):
        if not self.held.is_set():
            self.held.set()
            self.release.wait(timeout=5)
        return self._inner.query(predicate)


def hold_a_batch(executor, kernel) -> Future:
    """Put one batch on the pool and wait until the kernel holds it."""
    future = executor.submit("c", RangePredicate.range(-1_000, -900, INT))
    assert kernel.held.wait(timeout=5)
    return future


class TestGroupCommit:
    def test_misses_queued_behind_a_batch_leave_together(self, column):
        oracle = ColumnImprints(column)
        kernel = HoldsFirstBatch(ColumnImprints(column))
        predicates = [
            RangePredicate.range(0, 4_000 + 1_000 * k, INT) for k in range(3)
        ]
        stream = predicates + predicates[:1]  # one duplicate
        with QueryExecutor({"c": kernel}) as executor:
            held = hold_a_batch(executor, kernel)
            futures = [executor.submit("c", p) for p in stream]
            assert not any(f.done() for f in futures)
            kernel.release.set()
            held.result(timeout=5)
            for predicate, future in zip(stream, futures):
                answer = future.result(timeout=5)
                assert_identical(oracle.query(predicate), answer)
            # The held batch, then one batch for all four queued misses,
            # the duplicate coalesced into its peer's evaluation.
            assert executor.stats.batches == 2
            assert executor.stats.coalesced == 1
            assert executor.stats.batched_queries == 1 + len(predicates)

    def test_max_batch_caps_a_queued_batch(self, column):
        kernel = HoldsFirstBatch(ColumnImprints(column))
        max_batch = 4
        with QueryExecutor({"c": kernel}, max_batch=max_batch) as executor:
            hold_a_batch(executor, kernel)
            futures = [
                executor.submit("c", RangePredicate.range(0, 4_000 + k, INT))
                for k in range(max_batch + 1)
            ]
            kernel.release.set()
            for future in futures:
                future.result(timeout=5)
            assert executor.stats.batches == 1 + 2  # held, then 4 + 1

    def test_concurrent_submitters_leave_no_column_busy(self, column):
        """More workers than cores, a tiny switch interval: every miss
        is answered, each submission counts once, and afterwards a
        fresh miss still leaves at once (a lost batch-end update would
        strand it in the queue)."""
        oracle = ColumnImprints(column)
        predicates = [
            RangePredicate.range(0, 2_000 + 700 * i, INT) for i in range(40)
        ]
        threads_n, per_thread = 6, 30
        answers = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryExecutor(
                {"c": ColumnImprints(column)}, n_workers=4, max_batch=3
            ) as executor:

                def client(seed: int) -> None:
                    for i in range(per_thread):
                        predicate = predicates[(7 * seed + i) % len(predicates)]
                        future = executor.submit("c", predicate)
                        answers.append((predicate, future.result(timeout=10)))

                threads = [
                    threading.Thread(target=client, args=(seed,))
                    for seed in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                stats = executor.stats
                assert stats.submitted == threads_n * per_thread
                assert stats.submitted == (
                    stats.cache_hits + stats.coalesced + stats.batched_queries
                )
                fresh = RangePredicate.range(-1_000, -900, INT)
                answer = executor.submit("c", fresh).result(timeout=5)
                assert_identical(oracle.query(fresh), answer)
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == threads_n * per_thread
        for predicate, answer in answers:
            assert np.array_equal(oracle.query(predicate).ids, answer.ids)

    def test_a_miss_on_an_idle_column_needs_no_timer(self, column):
        oracle = ColumnImprints(column)
        predicate = RangePredicate.range(0, 9_000, INT)
        with QueryExecutor({"c": ColumnImprints(column)}) as executor:
            future = executor.submit("c", predicate)
            answer = future.result(timeout=5)
            assert_identical(oracle.query(predicate), answer)
            names = {thread.name for thread in threading.enumerate()}
            assert "imprint-batcher" not in names


# ----------------------------------------------------------------------
# lifecycle: close() semantics and the typed closed error
# ----------------------------------------------------------------------
class TestCloseLifecycle:
    def test_submit_after_close_raises_the_typed_error(self, column):
        from repro.errors import ExecutorClosedError

        executor = QueryExecutor({"c": ColumnImprints(column)})
        executor.close()
        with pytest.raises(ExecutorClosedError):
            executor.submit("c", RangePredicate.range(0, 10, INT))
        # and the typed error still satisfies pre-hierarchy catchers
        with pytest.raises(RuntimeError, match="closed"):
            executor.submit("c", RangePredicate.range(0, 10, INT))

    def test_close_is_idempotent(self, column):
        executor = QueryExecutor({"c": ColumnImprints(column)})
        executor.close()
        executor.close()
        executor.close(drain=False)  # any flavour of re-close is a no-op

    def test_close_with_drain_answers_pending_futures(self, column):
        oracle = ColumnImprints(column)
        kernel = HoldsFirstBatch(ColumnImprints(column))
        executor = QueryExecutor({"c": kernel}, n_workers=2)
        held = hold_a_batch(executor, kernel)
        predicate = RangePredicate.range(0, 8_000, INT)
        future = executor.submit("c", predicate)
        assert not future.done()
        closer = threading.Thread(target=executor.close)  # drain=True
        closer.start()
        try:
            # Answered by the drain while the held batch still runs.
            assert_identical(oracle.query(predicate), future.result(timeout=5))
        finally:
            kernel.release.set()
            closer.join(timeout=5)
        held.result(timeout=5)

    def test_close_without_drain_fails_pending_futures(self, column):
        from repro.errors import ExecutorClosedError

        kernel = HoldsFirstBatch(ColumnImprints(column))
        executor = QueryExecutor({"c": kernel})
        held = hold_a_batch(executor, kernel)
        futures = [
            executor.submit("c", RangePredicate.range(0, 5_000 + k, INT))
            for k in range(4)
        ]
        closer = threading.Thread(
            target=executor.close, kwargs={"drain": False}
        )
        closer.start()
        try:
            for future in futures:
                with pytest.raises(ExecutorClosedError):
                    future.result(timeout=5)
        finally:
            kernel.release.set()
            closer.join(timeout=5)
        held.result(timeout=5)  # the batch already on the pool finishes


# ----------------------------------------------------------------------
# deadline propagation into the batch scheduler
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_already_expired_deadline_fails_at_submit(self, column):
        import time

        from repro.errors import DeadlineExceeded

        with QueryExecutor({"c": ColumnImprints(column)}) as executor:
            future = executor.submit(
                "c",
                RangePredicate.range(0, 10, INT),
                deadline=time.monotonic() - 0.01,
            )
            assert future.done()
            with pytest.raises(DeadlineExceeded):
                future.result()
            assert executor.stats.expired == 1

    def test_deadline_expiring_while_coalesced_fails_only_that_waiter(
        self, column
    ):
        import time

        from repro.errors import DeadlineExceeded

        oracle = ColumnImprints(column)
        kernel = HoldsFirstBatch(ColumnImprints(column))
        with QueryExecutor({"c": kernel}) as executor:
            hold_a_batch(executor, kernel)
            predicate = RangePredicate.range(0, 8_000, INT)
            patient = executor.submit("c", predicate)
            hurried = executor.submit(
                "c", predicate, deadline=time.monotonic() + 0.01
            )
            time.sleep(0.05)  # let the hurried waiter's budget lapse
            kernel.release.set()  # both leave, coalesced, in one batch
            assert_identical(oracle.query(predicate), patient.result(timeout=5))
            with pytest.raises(DeadlineExceeded):
                hurried.result(timeout=5)
            assert executor.stats.expired == 1

    def test_batch_of_only_expired_waiters_skips_evaluation(self, column):
        import time

        from repro.errors import DeadlineExceeded

        kernel = HoldsFirstBatch(ColumnImprints(column))
        with QueryExecutor({"c": kernel}) as executor:
            held = hold_a_batch(executor, kernel)
            futures = [
                executor.submit(
                    "c",
                    RangePredicate.range(0, 5_000 + k, INT),
                    deadline=time.monotonic() + 0.01,
                )
                for k in range(3)
            ]
            time.sleep(0.05)
            kernel.release.set()
            for future in futures:
                with pytest.raises(DeadlineExceeded):
                    future.result(timeout=5)
            held.result(timeout=5)
            assert executor.stats.expired == 3
            # nothing was evaluated for the dead batch: only the held
            # batch's one predicate reached the kernel
            assert executor.stats.batched_queries == 1

    def test_live_deadline_still_gets_a_correct_answer(self, column):
        import time

        oracle = ColumnImprints(column)
        with QueryExecutor({"c": ColumnImprints(column)}) as executor:
            predicate = RangePredicate.range(0, 9_000, INT)
            future = executor.submit(
                "c", predicate, deadline=time.monotonic() + 30.0
            )
            assert_identical(oracle.query(predicate), future.result(timeout=5))
            assert executor.stats.expired == 0


class CancelsAfterTheCheck(Future):
    """A waiter that gives up between delivery's ``done()`` check and
    its set: ``done()`` answers the state from before it cancels."""

    def done(self):
        answer = super().done()
        self.cancel()
        return answer


class FailingKernel:
    """Delegating proxy whose kernel raises."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def query(self, predicate):
        raise RuntimeError("kernel failed")


class TestBatchDelivery:
    @pytest.mark.parametrize("fails", [False, True], ids=["answer", "failure"])
    def test_a_waiter_cancelling_mid_delivery_strands_no_peer(
        self, column, fails
    ):
        oracle = ColumnImprints(column)
        index = FailingKernel(oracle) if fails else oracle
        predicate = RangePredicate.range(0, 9_000, INT)
        racy, normal = CancelsAfterTheCheck(), Future()
        with QueryExecutor({"c": index}) as executor:
            executor._run_batch(
                "c", [(predicate, racy, None), (predicate, normal, None)]
            )
        assert racy.cancelled()
        if fails:
            with pytest.raises(RuntimeError, match="kernel failed"):
                normal.result(timeout=0)
        else:
            assert_identical(oracle.query(predicate), normal.result(timeout=0))


# ----------------------------------------------------------------------
# aggregates as futures
# ----------------------------------------------------------------------
class SlowAggregates:
    """Delegating proxy whose aggregate stalls and sees the caller's
    context variables."""

    marker = contextvars.ContextVar("marker", default=None)

    def __init__(self, inner, delay: float = 0.0) -> None:
        self._inner = inner
        self._delay = delay
        self.markers = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def aggregate(self, predicate, op):
        self.markers.append(self.marker.get())
        time.sleep(self._delay)
        return self._inner.aggregate(predicate, op)


def comparable(answer):
    """A first page's id array as a list, so answers compare with ==."""
    if isinstance(answer, tuple):
        count, ids, cursor = answer
        return count, ids.tolist(), cursor
    return answer


class TestSubmitAggregate:
    @pytest.mark.parametrize(
        "shape",
        [{"op": "sum"}, {"op": "avg", "group_by": "g"}, {"k": 5}, {"limit": 7}],
        ids=["scalar", "grouped", "top-k", "first-page"],
    )
    def test_miss_counts_once_and_hit_is_resolved_on_return(
        self, column, shape
    ):
        index = ColumnImprints(column)
        index.attach_group_column("g", np.arange(len(column)) % 3)
        predicate = RangePredicate.range(9_000, 12_000, INT)
        if "limit" in shape:
            want = index.first_page(predicate, shape["limit"])
        elif "k" in shape:
            want = index.top_k(predicate, shape["k"])
        elif "group_by" in shape:
            want = index.aggregate_grouped(predicate, shape["op"], "g")
        else:
            want = index.aggregate(predicate, shape["op"])
        want = comparable(want)
        with QueryExecutor({"c": index}) as executor:
            miss = executor.submit_aggregate("c", predicate, **shape)
            assert comparable(miss.result(timeout=5)) == want
            stats, cache = executor.stats, executor.cache
            assert (stats.submitted, stats.cache_misses, stats.cache_hits) == (
                1, 1, 0
            )
            assert (cache.misses, cache.hits) == (1, 0)
            hit = executor.submit_aggregate("c", predicate, **shape)
            assert hit.done()
            assert comparable(hit.result()) == want
            assert (stats.submitted, stats.cache_misses, stats.cache_hits) == (
                2, 1, 1
            )
            assert (cache.misses, cache.hits) == (1, 1)

    @pytest.mark.parametrize(
        "shape",
        [
            {"op": "median"},
            {"op": "max", "group_by": "g"},
            {"k": -1},
            {"k": 2, "group_by": "g"},
            {"limit": 0},
            {"limit": 5, "group_by": "g"},
            {"limit": 5, "k": 2},
        ],
        ids=[
            "op",
            "grouped-op",
            "negative-k",
            "k-and-group_by",
            "limit-below-one",
            "limit-and-group_by",
            "limit-and-k",
        ],
    )
    def test_bad_op_or_k_raises_synchronously(self, column, shape):
        with QueryExecutor({"c": ColumnImprints(column)}) as executor:
            with pytest.raises(ValueError):
                executor.submit_aggregate(
                    "c", RangePredicate.range(0, 10, INT), **shape
                )
            assert executor.stats.submitted == 0

    def test_miss_runs_in_a_copy_of_the_callers_context(self, column):
        index = SlowAggregates(ColumnImprints(column))
        with QueryExecutor({"c": index}) as executor:
            token = SlowAggregates.marker.set("request-7")
            try:
                future = executor.submit_aggregate(
                    "c", RangePredicate.range(0, 9_000, INT)
                )
            finally:
                SlowAggregates.marker.reset(token)
            future.result(timeout=5)
        assert index.markers == ["request-7"]

    def test_after_close_raises_the_typed_error(self, column):
        executor = QueryExecutor({"c": ColumnImprints(column)})
        executor.close()
        with pytest.raises(ExecutorClosedError):
            executor.submit_aggregate("c", RangePredicate.range(0, 10, INT))

    def test_counts_balance_under_concurrent_submitters(self, column):
        """More workers than cores, a tiny switch interval: every
        request still counts once in the stats and once in the LRU."""
        index = ColumnImprints(column)
        predicates = [
            RangePredicate.range(0, 6_000 + 500 * i, INT) for i in range(8)
        ]
        want = {p: index.aggregate(p, "sum") for p in predicates}
        answers, threads_n, per_thread = [], 6, 40
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with QueryExecutor({"c": index}, n_workers=4) as executor:

                def client(seed: int) -> None:
                    for i in range(per_thread):
                        predicate = predicates[(seed + i) % len(predicates)]
                        future = executor.submit_aggregate("c", predicate, "sum")
                        answers.append((predicate, future.result(timeout=10)))

                threads = [
                    threading.Thread(target=client, args=(seed,))
                    for seed in range(threads_n)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                assert not any(thread.is_alive() for thread in threads)
                stats, cache = executor.stats, executor.cache
                total = threads_n * per_thread
                assert stats.submitted == total
                assert stats.cache_hits + stats.cache_misses == total
                assert cache.hits + cache.misses == total
        finally:
            sys.setswitchinterval(interval)
        assert len(answers) == total
        assert all(value == want[predicate] for predicate, value in answers)

    def test_close_with_drain_resolves_an_in_flight_aggregate(self, column):
        oracle = ColumnImprints(column)
        executor = QueryExecutor(
            {"c": SlowAggregates(ColumnImprints(column), delay=0.2)},
            n_workers=1,
        )
        predicates = [RangePredicate.range(0, 8_000 + k, INT) for k in (0, 1)]
        futures = [
            executor.submit_aggregate("c", predicate, "sum")
            for predicate in predicates
        ]
        assert not any(future.done() for future in futures)
        executor.close(drain=True)
        for predicate, future in zip(predicates, futures):
            assert future.result(timeout=0) == oracle.aggregate(predicate, "sum")
