"""Aggregate pushdown: per-cacheline pre-aggregates vs the NumPy oracle.

The contract under test: ``index.aggregate(pred, op)`` (and the
``sum``/``min``/``max``/``count`` conveniences on every layer —
``QueryResult``, ``ColumnImprints``, ``conjunctive_aggregate``,
``QueryExecutor``) answers **bit-identically to the NumPy oracle over
the forced ids** (``tests/oracle.py``) — across dtypes, appends,
saturation overlays and empty/all-full selections.  Integer ``SUM`` is
exact even under 64-bit wraparound (modular addition is associative);
integer moments are exact even where the 64-bit lanes would wrap
(epoch seconds, nanosecond timestamps); float ``SUM`` is deterministic
but reassociated, so it is pinned to a tight relative tolerance
instead.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AGGREGATE_OPS,
    CachelineAggregates,
    ColumnImprints,
    DeltaAwareImprints,
    GroupedAggregates,
    aggregate_rowset,
    conjunctive_aggregate,
)
from repro.core.binning import CHUNK_VALUES
from repro.core.rowset import RowSet
from repro.engine import QueryExecutor
from repro.engine.executor import _SCALAR_WEIGHT
from repro.indexes import SequentialScan, WahBitmapIndex, ZoneMap
from repro.predicate import RangePredicate
from repro.storage import Column

from .conftest import column_for_type, make_clustered
from .oracle import (
    GROUP_BY,
    DeltaTarget,
    ExecutorTarget,
    IndexTarget,
    MirrorColumn,
    assert_agrees,
    check_all,
    reduce,
)


#: (rel, abs) tolerance for the real-valued (normal, random-walk) float
#: columns below, whose float sums reassociate.
REAL_VALUED = {
    "sum": (1e-9, 1e-6),
    "avg": (1e-9, 1e-6),
    "var": (1e-6, 1e-6),
    "std": (1e-6, 1e-6),
}


def check_every_op(index, predicate, mirror: MirrorColumn, tolerance=None) -> None:
    """Every op of ``index.aggregate`` and its spellings against the oracle."""
    for op in AGGREGATE_OPS:
        want = mirror.aggregate(predicate, op)
        assert_agrees(index.aggregate(predicate, op), want, op, type(index).__name__, tolerance)
    # The convenience spellings route through the same kernel.
    assert index.count(predicate) == mirror.count(predicate)
    if mirror.values.dtype.kind != "f":
        assert index.sum(predicate) == mirror.aggregate(predicate, "sum")
    assert index.min(predicate) == mirror.aggregate(predicate, "min")
    assert index.max(predicate) == mirror.aggregate(predicate, "max")


def wide_moments(case: str) -> np.ndarray:
    """Columns whose 64-bit moment lanes wrap: int32 epoch seconds
    (the squares lane: var read 0.0, exact ~8.3e14) and int64
    nanosecond timestamps (the sum lane: avg read -5.0e14, exact
    ~1.7e18)."""
    rng = np.random.default_rng(59)
    if case == "epoch-seconds":
        return (1_700_000_000 + rng.integers(0, 100_000_000, 3_000)).astype(np.int32)
    return 1_700_000_000 * 10**9 + rng.integers(0, 10**15, 3_000, dtype=np.int64)


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


def _traced_peak(step):
    """``(result, peak)``: what ``step()`` returns and the most memory
    it held at once, as ``tracemalloc`` (which sees NumPy's buffers)
    counts allocations made while it runs."""
    tracemalloc.start()
    try:
        result = step()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBoundedBuilds:
    """A sidecar build or append allocates its final tables plus a few
    chunk-sized temporaries, never a column-sized one: the traced peak
    exceeds the sidecar's final ``nbytes`` by at most eight chunks of
    64-bit lanes, whatever the column length."""

    ROWS = 1 << 20
    SLACK = 8 * CHUNK_VALUES * 8

    @pytest.mark.parametrize("kind", ["cacheline", "grouped"])
    def test_build_and_append_stay_within_a_few_chunks(self, kind):
        rng = np.random.default_rng(21)
        values = rng.integers(-(2**31), 2**31 - 1, 2 * self.ROWS).astype(np.int32)
        codes = rng.integers(0, 12, 2 * self.ROWS)
        if kind == "cacheline":
            build = lambda: CachelineAggregates(values[: self.ROWS], 16)  # noqa: E731
            grow = lambda sidecar: sidecar.append(values)  # noqa: E731
        else:
            build = lambda: GroupedAggregates(  # noqa: E731
                codes[: self.ROWS], values[: self.ROWS], 12, 16
            )
            grow = lambda sidecar: sidecar.append(codes, values)  # noqa: E731
        sidecar, peak = _traced_peak(build)
        assert peak <= sidecar.nbytes + self.SLACK, (peak, sidecar.nbytes)
        _, peak = _traced_peak(lambda: grow(sidecar))
        assert sidecar.n_values == 2 * self.ROWS
        assert peak <= sidecar.nbytes + self.SLACK, (peak, sidecar.nbytes)


class TestNonFiniteValues:
    """NaN and infinities stay out of the running sums: a NaN row must
    not poison every later range sum, while a range that holds one
    answers what NumPy answers over the selected values."""

    def make(self):
        values = np.random.default_rng(0).normal(0.0, 100.0, 40_000)
        values[::97] = np.nan
        codes = np.arange(values.shape[0]) % 3
        index = ColumnImprints(Column(values, name="t.nan"))
        index.attach_group_column(GROUP_BY, codes)
        return values, codes, index

    def test_selected_sums_equal_numpy(self):
        values, codes, index = self.make()
        predicate = RangePredicate.range(0.0, np.inf, index.column.ctype)
        selected = values >= 0.0
        assert index.aggregate(predicate, "sum") == pytest.approx(
            np.sum(values[selected]), rel=1e-9
        )
        assert index.aggregate(predicate, "avg") == pytest.approx(
            np.mean(values[selected]), rel=1e-9
        )
        assert index.aggregate(predicate, "var") == pytest.approx(
            np.var(values[selected]), rel=1e-6
        )
        grouped = index.aggregate_grouped(predicate, "sum", GROUP_BY)
        assert grouped == pytest.approx(
            {g: np.sum(values[selected & (codes == g)]) for g in range(3)}, rel=1e-9
        )
        everything = RangePredicate.everything()
        assert math.isnan(index.aggregate(everything, "sum"))
        assert all(
            math.isnan(total)
            for total in index.aggregate_grouped(everything, "sum", GROUP_BY).values()
        )

    def test_infinities_and_maintenance(self):
        values, codes, index = self.make()
        index.cacheline_aggregates, index.grouped_aggregates(GROUP_BY)  # build both
        index.append(np.array([np.inf, 5.0, -np.inf, np.nan, 7.0]))
        index.append_group(GROUP_BY, codes=[0, 1, 2, 0, 1])
        index.note_update(97, 3.0)  # a NaN line turns finite
        index.note_update(20_000, np.inf)  # a finite line gains +inf
        mirror = MirrorColumn(
            index.column.values, codes=np.concatenate([codes, [0, 1, 2, 0, 1]])
        )

        def close(want):
            return pytest.approx(want, rel=1e-9, abs=1e-6, nan_ok=True)

        for low, high in [(0.0, np.inf), (-np.inf, 50.0), (-np.inf, np.inf), (-20.0, 20.0)]:
            predicate = RangePredicate.range(low, high, index.column.ctype)
            for op in ("sum", "avg"):
                want = mirror.aggregate(predicate, op)
                assert index.aggregate(predicate, op) == close(want), (low, high, op)
            got = index.aggregate_grouped(predicate, "sum", GROUP_BY)
            assert got == close(mirror.grouped(predicate, "sum")), (low, high)
        fresh = CachelineAggregates(index.column.values, index.column.values_per_cacheline)
        kept = index.cacheline_aggregates
        for attr in ("nonfinite_lines", "mins", "maxs"):
            assert np.array_equal(getattr(kept, attr), getattr(fresh, attr), equal_nan=True)
        assert np.allclose(kept.prefix_sums, fresh.prefix_sums, rtol=1e-9)
        assert np.array_equal(
            index.grouped_aggregates(GROUP_BY).nonfinite_lines, fresh.nonfinite_lines
        )


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
            assert got == reduce(values[sorted_ids], op), op
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
        mirror = MirrorColumn(column.values)
        tolerance = REAL_VALUED if column.ctype.is_float else None
        for _ in range(25):
            predicate = random_predicate(column.values, column.ctype, rng)
            check_every_op(index, predicate, mirror, tolerance)

    def test_appends_and_saturation_overlay(self):
        rng = np.random.default_rng(23)
        values = make_clustered(3_000, np.int32, seed=2)
        column = Column(values, name="t.mut")
        index = ColumnImprints(column)
        predicate = RangePredicate.range(
            int(values.min()) + 50, int(np.median(values)), column.ctype
        )
        check_every_op(index, predicate, MirrorColumn(index.column.values))
        for round_ in range(4):
            index.append(rng.integers(-2_000, 30_000, 271, dtype=np.int32))
            for _ in range(20):
                victim = int(rng.integers(0, len(index.column)))
                index.note_update(victim, int(rng.integers(-2_000, 30_000)))
            check_every_op(index, predicate, MirrorColumn(index.column.values))

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
        mirror = MirrorColumn(values)
        for _ in range(20):
            predicate = random_predicate(values, column.ctype, rng)
            assert index.aggregate(predicate, "min") == mirror.aggregate(predicate, "min")
            assert index.aggregate(predicate, "max") == mirror.aggregate(predicate, "max")
            got = index.aggregate(predicate, "sum")
            want = mirror.aggregate(predicate, "sum")
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)


# ----------------------------------------------------------------------
# wide integers: the moment lanes' bound, at every layer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", ["epoch-seconds", "ns-timestamps"])
def test_wide_integer_moments_are_exact_at_every_layer(case):
    """Moments divide exact totals whatever the lanes hold, SUM wraps:
    pushdown, grouped, ``QueryResult.aggregate``, the baselines, a
    delta-aware index with a pending append, and the executor."""
    values = wide_moments(case)
    column = Column(values, name=f"t.{case}")
    mirror = MirrorColumn(values)
    indexes = [ColumnImprints(column), ZoneMap(column), SequentialScan(column)]
    indexes.append(WahBitmapIndex(column))
    for index in indexes:
        index.attach_group_column(GROUP_BY, mirror.codes.copy())
    delta = DeltaAwareImprints(column, consolidate_threshold=1.0)
    delta_mirror = MirrorColumn(values)
    delta.attach_group_column(GROUP_BY, delta_mirror.codes.copy())
    appended, codes = delta_mirror.append(values[:3])
    delta.append(appended)
    delta.append_group(GROUP_BY, codes=codes)
    middle = np.sort(values)[[300, 2_600]]
    with QueryExecutor({"c": indexes[0]}) as executor:
        targets = [IndexTarget(type(index).__name__, index) for index in indexes]
        targets.append(ExecutorTarget("executor", executor, "c"))
        for predicate in (
            RangePredicate.everything(),
            RangePredicate.range(int(middle[0]), int(middle[1]), mirror.ctype),
        ):
            check_all(mirror, targets, predicate)
            check_all(delta_mirror, [DeltaTarget("delta", delta)], predicate)
            result = indexes[0].query(predicate)
            aggs = indexes[0].cacheline_aggregates
            for op in AGGREGATE_OPS:
                want = mirror.aggregate(predicate, op)
                assert result.aggregate(op, values, aggs) == want, op


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
        mirror = MirrorColumn(values)
        aggs = index.cacheline_aggregates
        assert result.sum(values, aggs) == mirror.aggregate(predicate, "sum")
        assert result.min(values, aggs) == mirror.aggregate(predicate, "min")
        assert result.max(values, aggs) == mirror.aggregate(predicate, "max")
        # The sidecar path never forced the id array.
        assert not result.is_materialized
        # Without a sidecar the answers still agree (gather fallback).
        assert result.sum(values) == mirror.aggregate(predicate, "sum")

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
        both = pred_a.matches(a) & pred_b.matches(b)
        for target, values in ((0, a), (1, b)):
            for op in AGGREGATE_OPS:
                got = conjunctive_aggregate(
                    [ix_a, ix_b], [pred_a, pred_b], op, target=target
                )
                assert got == reduce(values[both], op), (op, target)

    def test_executor_aggregate_caches_scalars(self):
        values = make_clustered(3_000, np.int32, seed=9)
        column = Column(values, name="t.exe")
        with QueryExecutor({"col": ColumnImprints(column)}) as executor:
            predicate = executor.predicate(
                "col", int(values.min()), int(np.median(values))
            )
            first = executor.aggregate("col", predicate, "sum")
            assert first == MirrorColumn(values).aggregate(predicate, "sum")
            misses = executor.stats.cache_misses
            again = executor.aggregate("col", predicate, "sum")
            assert again == first
            assert executor.stats.cache_misses == misses  # scalar hit
            # Mutation bumps the version: the stale scalar is unreachable.
            executor.index("col").append(
                np.array([10**6], dtype=np.int32)
            )
            current = MirrorColumn(executor.index("col").column.values)
            assert executor.aggregate("col", predicate, "sum") == current.aggregate(
                predicate, "sum"
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
        values = make_clustered(2_000, np.int32, seed=14)
        column = Column(values, name="t.base")
        predicate = RangePredicate.range(
            int(values.min()) + 5, int(np.median(values)), column.ctype
        )
        mirror = MirrorColumn(values)
        for index in (ZoneMap(column), SequentialScan(column)):
            for op in AGGREGATE_OPS:
                assert index.aggregate(predicate, op) == mirror.aggregate(
                    predicate, op
                ), (type(index).__name__, op)

    def test_delta_aware_aggregates_over_logical_column(self):
        rng = np.random.default_rng(43)
        values = make_clustered(2_000, np.int32, seed=15)
        index = DeltaAwareImprints(
            Column(values, name="t.delta"), consolidate_threshold=0.9
        )
        predicate = RangePredicate.range(
            int(values.min()), int(np.median(values)), index.column.ctype
        )
        mirror = MirrorColumn(values)
        appended = rng.integers(-1_000, 40_000, 150, dtype=np.int32)
        for index_or_mirror in (index, mirror):
            index_or_mirror.append(appended)
            index_or_mirror.update(7, -123)
            index_or_mirror.delete(11)
        assert index.query(predicate).count() == mirror.count(predicate)
        for op in AGGREGATE_OPS:
            assert index.aggregate(predicate, op) == mirror.aggregate(predicate, op), op


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

            def pinned(entry) -> int:
                # Measured from the arrays themselves: the row set, the
                # rank arrays paging memoised on it, the forced ids; a
                # cached first page pins its ids beside a nominal weight.
                if isinstance(entry, tuple):
                    ((ids, _),) = entry
                    return _SCALAR_WEIGHT + ids.nbytes
                rows = entry.row_set
                ranks = rows.__dict__.get("_rank_cache", ())
                forced = entry.ids.nbytes if entry.is_materialized else 0
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
                results = [r for r in cached if not isinstance(r, tuple)]
                assert all(r.pinned_nbytes == pinned(r) for r in results)
            assert any(r.row_set.memo_nbytes for r in results)
