"""Aggregate pushdown: per-cacheline pre-aggregates vs NumPy reference.

The contract under test: ``index.aggregate(pred, op)`` (and the
``sum``/``min``/``max``/``count`` conveniences on every layer —
``QueryResult``, ``ColumnImprints``, ``conjunctive_aggregate``,
``QueryExecutor``) answers **bit-identically to NumPy reference
aggregation over the forced ids** — across dtypes, appends, saturation
overlays and empty/all-full selections.  Integer ``SUM`` is exact even
under 64-bit wraparound (modular addition is associative); float
``SUM`` is deterministic but reassociated, so it is pinned to a tight
relative tolerance instead.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AGGREGATE_OPS,
    CachelineAggregates,
    ColumnImprints,
    aggregate_rowset,
    conjunctive_aggregate,
)
from repro.core.rowset import RowSet
from repro.engine import QueryExecutor
from repro.predicate import RangePredicate
from repro.storage import Column

from .conftest import column_for_type, make_clustered


def reference(values: np.ndarray, ids: np.ndarray, op: str):
    """NumPy ground truth over materialised ids."""
    if op == "count":
        return int(ids.shape[0])
    if op == "sum":
        if ids.shape[0] == 0:
            return 0.0 if values.dtype.kind == "f" else 0
        if values.dtype.kind == "f":
            return float(np.sum(values[ids], dtype=np.float64))
        return np.sum(values[ids]).item()
    if ids.shape[0] == 0:
        return None
    gathered = values[ids]
    if op in ("avg", "var", "std"):
        n = int(ids.shape[0])
        if values.dtype.kind == "f":
            acc = gathered.astype(np.float64)
            total = float(np.sum(acc))
            total_sq = float(np.sum(acc * acc))
        else:
            # Exact big-int sums: integer moments are bit-identical
            # because Python's int division is correctly rounded.
            total = int(np.sum(gathered.astype(object)))
            total_sq = int(np.sum(gathered.astype(object) ** 2))
        mean = total / n
        if op == "avg":
            return float(mean)
        var = total_sq / n - mean * mean
        var = var if var > 0.0 else 0.0
        return float(var) if op == "var" else math.sqrt(var)
    return gathered.min().item() if op == "min" else gathered.max().item()


def check_against_reference(index, predicate, values, exact_sum=True):
    """Every op of ``index.aggregate`` against the NumPy reference."""
    ids = np.flatnonzero(predicate.matches(values))
    for op in AGGREGATE_OPS:
        got = index.aggregate(predicate, op)
        want = reference(values, ids, op)
        if not exact_sum and op in ("sum", "avg", "var", "std"):
            if want is None:
                assert got is None, op
            else:
                tol = 1e-9 if op in ("sum", "avg") else 1e-6
                assert got == pytest.approx(want, rel=tol, abs=1e-6), op
        else:
            assert got == want, (op, got, want)
    # The convenience spellings route through the same kernel.
    assert index.count(predicate) == len(ids)
    if values.dtype.kind != "f":
        assert index.sum(predicate) == reference(values, ids, "sum")
    assert index.min(predicate) == reference(values, ids, "min")
    assert index.max(predicate) == reference(values, ids, "max")


# ----------------------------------------------------------------------
# the sidecar itself
# ----------------------------------------------------------------------
class TestCachelineAggregates:
    def test_build_matches_per_line_reductions(self):
        values = make_clustered(4_001, np.int32, seed=1)
        aggs = CachelineAggregates(values, 16)
        assert aggs.n_cachelines == -(-4_001 // 16)
        for line in (0, 1, 100, aggs.n_cachelines - 1):
            block = values[line * 16 : min((line + 1) * 16, 4_001)]
            assert aggs.mins[line] == block.min()
            assert aggs.maxs[line] == block.max()
            assert (
                aggs.prefix_sums[line + 1] - aggs.prefix_sums[line]
                == np.sum(block, dtype=np.int64)
            )

    def test_append_equals_fresh_build(self):
        rng = np.random.default_rng(3)
        values = rng.integers(-500, 500, 333, dtype=np.int16)
        aggs = CachelineAggregates(values, 32)
        for extra_len in (1, 31, 32, 100):
            values = np.concatenate(
                [values, rng.integers(-500, 500, extra_len, dtype=np.int16)]
            )
            aggs.append(values)
            fresh = CachelineAggregates(values, 32)
            for attr in ("mins", "maxs", "prefix_sums"):
                assert np.array_equal(
                    getattr(aggs, attr), getattr(fresh, attr)
                ), (attr, extra_len)

    def test_update_line_equals_fresh_build(self):
        rng = np.random.default_rng(4)
        values = rng.integers(0, 1000, 200, dtype=np.int32).copy()
        aggs = CachelineAggregates(values, 16)
        for value_id, new in [(0, -5), (17, 2000), (199, 7), (100, 100)]:
            values[value_id] = new
            aggs.update_line(value_id // 16, values)
            fresh = CachelineAggregates(values, 16)
            for attr in ("mins", "maxs", "prefix_sums"):
                assert np.array_equal(getattr(aggs, attr), getattr(fresh, attr))

    def test_int64_wraparound_stays_bit_identical(self):
        rng = np.random.default_rng(5)
        values = rng.integers(2**62, 2**63 - 1, 300, dtype=np.int64)
        aggs = CachelineAggregates(values, 8)
        rowset = RowSet(
            np.array([0], dtype=np.int64),
            np.array([300], dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        # np.sum wraps modulo 2**64; regrouped per-cacheline partial
        # sums must wrap to the same value.
        assert aggregate_rowset(rowset, values, "sum", aggs) == np.sum(values).item()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            CachelineAggregates(np.zeros((2, 2)), 16)
        with pytest.raises(ValueError):
            CachelineAggregates(np.zeros(4), 0)
        aggs = CachelineAggregates(np.zeros(64, dtype=np.int32), 16)
        with pytest.raises(IndexError):
            aggs.update_line(4, np.zeros(64, dtype=np.int32))
        with pytest.raises(ValueError):
            aggs.append(np.zeros(10, dtype=np.int32))


# ----------------------------------------------------------------------
# aggregate_rowset against arbitrary (unaligned) rowsets
# ----------------------------------------------------------------------
id_sets = st.sets(st.integers(min_value=0, max_value=1200), max_size=300)


class TestAggregateRowset:
    @given(ids=id_sets, form=st.integers(0, 1))
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_on_random_rowsets(self, ids, form):
        values = make_clustered(1_201, np.int32, seed=9)
        aggs = CachelineAggregates(values, 16)
        sorted_ids = np.array(sorted(ids), dtype=np.int64)
        rowset = (
            RowSet.from_ids(sorted_ids)
            if form
            else RowSet(
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                sorted_ids,
            )
        )
        for op in AGGREGATE_OPS:
            got = aggregate_rowset(rowset, values, op, aggs)
            assert got == reference(values, sorted_ids, op), op
            # The no-sidecar fallback agrees too.
            assert got == aggregate_rowset(rowset, values, op, None), op

    def test_empty_rowset_identities(self):
        values = np.arange(100, dtype=np.int32)
        aggs = CachelineAggregates(values, 16)
        empty = RowSet.empty()
        assert aggregate_rowset(empty, values, "count", aggs) == 0
        assert aggregate_rowset(empty, values, "sum", aggs) == 0
        assert aggregate_rowset(empty, values, "min", aggs) is None
        assert aggregate_rowset(empty, values, "max", aggs) is None
        for op in ("avg", "var", "std"):
            assert aggregate_rowset(empty, values, op, aggs) is None
            assert aggregate_rowset(empty, values, op, None) is None

    def test_unknown_op_rejected(self):
        values = np.arange(32, dtype=np.int32)
        with pytest.raises(ValueError):
            aggregate_rowset(RowSet.empty(), values, "median", None)


# ----------------------------------------------------------------------
# the index layers, property-tested against the reference
# ----------------------------------------------------------------------
def random_predicate(values, ctype, rng) -> RangePredicate:
    lo_v, hi_v = float(values.min()), float(values.max())
    span = max(hi_v - lo_v, 1.0)
    a, b = sorted(rng.uniform(lo_v - 0.1 * span, hi_v + 0.1 * span, 2).tolist())
    return RangePredicate.range(a, b, ctype)


class TestIndexAggregates:
    def test_all_dtypes(self, any_ctype):
        column = column_for_type(any_ctype, n=5_000)
        index = ColumnImprints(column)
        rng = np.random.default_rng(17)
        for _ in range(25):
            predicate = random_predicate(column.values, column.ctype, rng)
            check_against_reference(
                index, predicate, column.values,
                exact_sum=not column.ctype.is_float,
            )

    def test_appends_and_saturation_overlay(self):
        rng = np.random.default_rng(23)
        values = make_clustered(3_000, np.int32, seed=2)
        column = Column(values, name="t.mut")
        index = ColumnImprints(column)
        predicate = RangePredicate.range(
            int(values.min()) + 50, int(np.median(values)), column.ctype
        )
        check_against_reference(index, predicate, index.column.values)
        for round_ in range(4):
            index.append(rng.integers(-2_000, 30_000, 271, dtype=np.int32))
            for _ in range(20):
                victim = int(rng.integers(0, len(index.column)))
                index.note_update(victim, int(rng.integers(-2_000, 30_000)))
            check_against_reference(index, predicate, index.column.values)

    def test_empty_and_all_full_selections(self):
        values = make_clustered(2_048, np.int32, seed=4)
        column = Column(values, name="t.edge")
        index = ColumnImprints(column)
        nothing = RangePredicate.range(10**8, 10**8 + 1, column.ctype)
        assert index.aggregate(nothing, "count") == 0
        assert index.aggregate(nothing, "sum") == 0
        assert index.aggregate(nothing, "min") is None
        assert index.aggregate(nothing, "max") is None
        for op in ("avg", "var", "std"):
            assert index.aggregate(nothing, op) is None
        everything = RangePredicate.everything()
        assert index.aggregate(everything, "count") == len(column)
        assert index.aggregate(everything, "sum") == np.sum(values).item()
        assert index.aggregate(everything, "min") == values.min().item()
        assert index.aggregate(everything, "max") == values.max().item()

    def test_rebuild_keeps_sidecar_valid(self):
        values = make_clustered(2_000, np.int32, seed=6)
        index = ColumnImprints(Column(values, name="t.rb"))
        predicate = RangePredicate.range(
            int(values.min()), int(np.median(values)), index.column.ctype
        )
        before = index.aggregate(predicate, "sum")
        index.rebuild()
        assert index.aggregate(predicate, "sum") == before

    def test_float_sum_close_and_extrema_exact(self):
        rng = np.random.default_rng(31)
        values = np.cumsum(rng.normal(0.0, 3.0, 5_000))
        column = Column(values, name="t.float")
        index = ColumnImprints(column)
        for _ in range(20):
            predicate = random_predicate(values, column.ctype, rng)
            ids = np.flatnonzero(predicate.matches(values))
            assert index.aggregate(predicate, "min") == reference(values, ids, "min")
            assert index.aggregate(predicate, "max") == reference(values, ids, "max")
            got = index.aggregate(predicate, "sum")
            want = reference(values, ids, "sum")
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)


# ----------------------------------------------------------------------
# results, conjunctions, executor, partial combination
# ----------------------------------------------------------------------
class TestAggregateConsumers:
    def test_query_result_aggregate_without_materialising(self):
        values = make_clustered(3_000, np.int32, seed=7)
        column = Column(values, name="t.qr")
        index = ColumnImprints(column)
        predicate = RangePredicate.range(
            int(values.min()) + 10, int(np.median(values)), column.ctype
        )
        result = index.query(predicate)
        ids = np.flatnonzero(predicate.matches(values))
        aggs = index.cacheline_aggregates
        assert result.sum(values, aggs) == reference(values, ids, "sum")
        assert result.min(values, aggs) == reference(values, ids, "min")
        assert result.max(values, aggs) == reference(values, ids, "max")
        # The sidecar path never forced the id array.
        assert not result.is_materialized
        # Without a sidecar the answers still agree (gather fallback).
        assert result.sum(values) == reference(values, ids, "sum")

    def test_conjunctive_aggregate_matches_reference(self):
        rng = np.random.default_rng(41)
        a = make_clustered(4_000, np.int32, seed=8)
        b = rng.integers(0, 1_000, 4_000).astype(np.int32)
        ix_a = ColumnImprints(Column(a, name="t.a"))
        ix_b = ColumnImprints(Column(b, name="t.b"))
        pred_a = RangePredicate.range(
            int(a.min()), int(np.median(a)), ix_a.column.ctype
        )
        pred_b = RangePredicate.range(100, 600, ix_b.column.ctype)
        both = np.flatnonzero(pred_a.matches(a) & pred_b.matches(b))
        for target, values in ((0, a), (1, b)):
            for op in AGGREGATE_OPS:
                got = conjunctive_aggregate(
                    [ix_a, ix_b], [pred_a, pred_b], op, target=target
                )
                assert got == reference(values, both, op), (op, target)

    def test_executor_aggregate_caches_scalars(self):
        values = make_clustered(3_000, np.int32, seed=9)
        column = Column(values, name="t.exe")
        with QueryExecutor({"col": ColumnImprints(column)}) as executor:
            predicate = executor.predicate(
                "col", int(values.min()), int(np.median(values))
            )
            ids = np.flatnonzero(predicate.matches(values))
            first = executor.aggregate("col", predicate, "sum")
            assert first == reference(values, ids, "sum")
            misses = executor.stats.cache_misses
            again = executor.aggregate("col", predicate, "sum")
            assert again == first
            assert executor.stats.cache_misses == misses  # scalar hit
            # Mutation bumps the version: the stale scalar is unreachable.
            executor.index("col").append(
                np.array([10**6], dtype=np.int32)
            )
            current = executor.index("col").column.values
            fresh_ids = np.flatnonzero(predicate.matches(current))
            assert executor.aggregate("col", predicate, "sum") == reference(
                current, fresh_ids, "sum"
            )

    def test_executor_aggregate_none_is_cacheable(self):
        values = make_clustered(1_000, np.int32, seed=10)
        with QueryExecutor({"col": ColumnImprints(Column(values))}) as ex:
            predicate = ex.predicate("col", 10**8, 10**8 + 1)
            assert ex.aggregate("col", predicate, "min") is None
            misses = ex.stats.cache_misses
            assert ex.aggregate("col", predicate, "min") is None
            assert ex.stats.cache_misses == misses

    def test_baseline_indexes_share_the_contract(self):
        from repro.indexes import SequentialScan, ZoneMap

        values = make_clustered(2_000, np.int32, seed=14)
        column = Column(values, name="t.base")
        predicate = RangePredicate.range(
            int(values.min()) + 5, int(np.median(values)), column.ctype
        )
        ids = np.flatnonzero(predicate.matches(values))
        for index in (ZoneMap(column), SequentialScan(column)):
            for op in AGGREGATE_OPS:
                assert index.aggregate(predicate, op) == reference(
                    values, ids, op
                ), (type(index).__name__, op)

    def test_delta_aware_aggregates_over_logical_column(self):
        from repro.core import DeltaAwareImprints

        rng = np.random.default_rng(43)
        values = make_clustered(2_000, np.int32, seed=15)
        index = DeltaAwareImprints(
            Column(values, name="t.delta"), consolidate_threshold=0.9
        )
        predicate = RangePredicate.range(
            int(values.min()), int(np.median(values)), index.column.ctype
        )
        index.append(rng.integers(-1_000, 40_000, 150, dtype=np.int32))
        index.update(7, -123)
        index.delete(11)
        result = index.query(predicate)
        logical = index.values_at(result.ids)
        assert index.aggregate(predicate, "count") == result.count()
        assert index.aggregate(predicate, "sum") == (
            np.sum(logical).item() if logical.size else 0
        )
        assert index.aggregate(predicate, "min") == (
            logical.min().item() if logical.size else None
        )
        assert index.aggregate(predicate, "max") == (
            logical.max().item() if logical.size else None
        )


# ----------------------------------------------------------------------
# cache re-weighting on materialisation (ROADMAP satellite)
# ----------------------------------------------------------------------
class TestCacheReweight:
    def test_reweight_updates_byte_accounting(self):
        from repro.engine.cache import LRUCache

        cache = LRUCache(4, max_bytes=1000)
        cache.put("a", 1, weight=100)
        cache.put("b", 2, weight=100)
        assert cache.bytes == 200
        assert cache.reweight("a", 300)
        assert cache.bytes == 400
        assert not cache.reweight("missing", 10)
        with pytest.raises(ValueError):
            cache.reweight("a", -1)

    def test_reweight_evicts_when_over_budget(self):
        from repro.engine.cache import LRUCache

        cache = LRUCache(4, max_bytes=500)
        cache.put("cold", 1, weight=100)
        cache.put("hot", 2, weight=100)
        assert cache.reweight("hot", 450)
        # "cold" was evicted to fit the new weight.
        assert cache.get("cold") is None
        assert cache.get("hot") == 2
        assert cache.bytes == 450

    def test_reweight_drops_only_the_oversized_entry(self):
        from repro.engine.cache import LRUCache

        cache = LRUCache(4, max_bytes=500)
        cache.put("other", 1, weight=100)
        cache.put("huge", 2, weight=100)
        # New weight alone exceeds the budget: the entry is dropped
        # (mirroring put()'s refusal); other entries survive.
        assert not cache.reweight("huge", 10_000)
        assert cache.get("huge") is None
        assert cache.get("other") == 1
        assert cache.bytes == 100

    def test_materialising_a_cached_result_recharges_the_entry(self):
        values = make_clustered(50_000, np.int32, seed=13)
        column = Column(values, name="t.rw")
        with QueryExecutor({"col": ColumnImprints(column)}) as executor:
            predicate = executor.predicate(
                "col", int(values.min()), int(np.median(values))
            )
            result = executor.query("col", predicate)
            compact = executor.cache.bytes
            assert compact == result.nbytes
            ids = result.ids  # force materialisation
            assert executor.cache.bytes == compact + ids.nbytes

    def test_paged_and_forced_results_are_charged_what_they_pin(self):
        # Uniform values at 20% selectivity: the answers are mostly
        # extras, so the rank arrays paging memoises are as large as
        # the row set itself.
        values = np.random.default_rng(5).integers(0, 1_000_000, 200_000)
        column = Column(values.astype(np.int32), name="t.memo")
        budget = 3 << 20
        with QueryExecutor(
            {"col": ColumnImprints(column)}, cache_bytes=budget
        ) as executor:
            cache = executor.cache

            def pinned(result) -> int:
                # Measured from the arrays themselves: the row set, the
                # rank arrays paging memoised on it, the forced ids.
                rows = result.row_set
                ranks = rows.__dict__.get("_rank_cache", ())
                forced = result.ids.nbytes if result.is_materialized else 0
                return rows.nbytes + sum(a.nbytes for a in ranks) + forced

            for i in range(10):
                low = 10_000 * i
                predicate = executor.predicate("col", low, low + 200_000)
                _, cursor = executor.query_paged("col", predicate, 100)
                executor.query_paged("col", predicate, 100, cursor)
                if i % 3 == 0:
                    executor.query("col", predicate).ids  # noqa: B018
                cached = [value for value, _ in cache._entries.values()]
                assert cache.bytes == sum(map(pinned, cached)) <= budget
                assert all(r.pinned_nbytes == pinned(r) for r in cached)
            assert any(r.row_set.memo_nbytes for r in cached)
