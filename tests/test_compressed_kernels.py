"""The compressed-domain query engine: differential and no-expansion tests.

The production kernels must (a) answer bit-identically to the scalar
Algorithm 3 port and the brute-force scan, counters included, and
(b) never expand the cacheline dictionary — the whole point of the
run-level engine is that query cost is O(stored vectors).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ColumnImprints,
    ImprintsBuilder,
    MultiLevelImprints,
    binning,
    conjunctive_query,
    disjunctive_query,
    query_in_list,
    query_ranges,
    query_scalar,
    query_vectorized,
)
from repro.core.dictionary import CachelineDictionary
from repro.predicate import RangePredicate
from repro.storage import Column, INT

from .conftest import make_clustered, make_random


def build_data(column, seed=0):
    histogram = binning(column, rng=np.random.default_rng(seed))
    builder = ImprintsBuilder(histogram, column.values_per_cacheline)
    builder.feed(column.values)
    return builder.snapshot()


def ground_truth(column, predicate):
    return np.flatnonzero(predicate.matches(column.values)).astype(np.int64)


def assert_same_result(a, b):
    assert np.array_equal(a.ids, b.ids)
    # The O(n) two-way merge in materialize_ranges depends on the full
    # and partial id chunks each arriving sorted; the final id list
    # being strictly increasing is the observable invariant.
    if b.ids.size > 1:
        assert np.all(np.diff(b.ids) > 0)
    assert a.stats.index_probes == b.stats.index_probes
    assert a.stats.value_comparisons == b.stats.value_comparisons
    assert a.stats.full_cachelines == b.stats.full_cachelines
    assert a.stats.partial_cachelines == b.stats.partial_cachelines
    assert a.stats.cachelines_fetched == b.stats.cachelines_fetched
    assert a.stats.ids_materialized == b.stats.ids_materialized


# ----------------------------------------------------------------------
# three-way differential: scalar vs range-based vs the index's batch API
# ----------------------------------------------------------------------
class TestThreeWayDifferential:
    @pytest.mark.parametrize("make", [make_random, make_clustered])
    @pytest.mark.parametrize("seed", [21, 22])
    def test_scalar_vectorized_batch_agree(self, make, seed):
        column = Column(make(6_000, np.int32, seed=seed))
        data = build_data(column, seed=seed)
        index = ColumnImprints(column, rng=np.random.default_rng(seed))
        generator = np.random.default_rng(seed)
        predicates = []
        for _ in range(12):
            lo, hi = np.sort(generator.integers(-5_000, 120_000, 2))
            predicates.append(RangePredicate.range(int(lo), int(hi), INT))
        batched = index.query_batch(predicates)
        for predicate, from_batch in zip(predicates, batched):
            scalar = query_scalar(data, column.values, predicate)
            vectorised = query_vectorized(data, column.values, predicate)
            assert np.array_equal(
                vectorised.ids, ground_truth(column, predicate)
            )
            assert_same_result(scalar, vectorised)
            assert_same_result(vectorised, from_batch)

    def test_long_runs_with_repeat_entries(self):
        column = Column(np.repeat(np.arange(40, dtype=np.int32), 500))
        data = build_data(column)
        assert bool(data.dictionary.repeats.any())
        for lo, hi in [(0, 40), (5, 6), (10, 30), (39, 200)]:
            predicate = RangePredicate.range(lo, hi, INT)
            scalar = query_scalar(data, column.values, predicate)
            vectorised = query_vectorized(data, column.values, predicate)
            assert_same_result(scalar, vectorised)

    def test_empty_and_overflow_bins(self):
        # Domain [1000, 2000): bins 0 and 63 are open-ended overflow
        # bins that no sampled value reaches.
        column = Column(make_random(4_000, np.int32, seed=9, low=1000, high=2000))
        data = build_data(column)
        for lo, hi in [(0, 500), (5_000, 9_000), (0, 10_000), (1500, 1500)]:
            predicate = RangePredicate.range(lo, hi, INT)
            scalar = query_scalar(data, column.values, predicate)
            vectorised = query_vectorized(data, column.values, predicate)
            assert np.array_equal(
                vectorised.ids, ground_truth(column, predicate)
            )
            assert np.array_equal(scalar.ids, vectorised.ids)

    def test_batch_empty_and_mixed(self):
        column = Column(make_random(2_000, np.int32, seed=30))
        data = build_data(column)
        index = ColumnImprints(column, rng=np.random.default_rng(0))
        predicates = [
            RangePredicate(9, 9),  # empty
            RangePredicate.everything(),
            RangePredicate.range(0, 1, INT),  # likely miss
            RangePredicate.range(10_000, 50_000, INT),
        ]
        batched = index.query_batch(predicates)
        assert len(batched) == len(predicates)
        for predicate, result in zip(predicates, batched):
            assert_same_result(
                result, query_vectorized(data, column.values, predicate)
            )
        assert index.query_batch([]) == []


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 400),
    n=st.integers(1, 800),
    lo=st.integers(-50, 120),
    width=st.integers(0, 150),
)
def test_batch_equals_ground_truth_property(seed, n, lo, width):
    """Randomised columns (tails, constants, tiny sizes): batch answers
    must equal the naive scan for arbitrary ranges."""
    generator = np.random.default_rng(seed)
    values = generator.integers(0, 100, n).astype(np.int16)
    column = Column(values)
    index = ColumnImprints(column, rng=np.random.default_rng(seed))
    predicates = [
        RangePredicate.range(lo, lo + width, column.ctype),
        RangePredicate.range(lo + width // 2, lo + width, column.ctype),
    ]
    for predicate, result in zip(predicates, index.query_batch(predicates)):
        assert np.array_equal(result.ids, ground_truth(column, predicate))


# ----------------------------------------------------------------------
# the saturation overlay path (Section 4.2)
# ----------------------------------------------------------------------
class TestOverlayPath:
    def test_updates_stay_correct_through_overlay(self):
        column = Column(make_clustered(8_000, np.int32, seed=40))
        index = ColumnImprints(column)
        generator = np.random.default_rng(40)
        positions = generator.integers(0, len(column), 60)
        for position in positions:
            index.note_update(int(position), int(generator.integers(0, 50_000)))
        assert index._overlay  # saturation bits actually recorded
        for _ in range(10):
            lo, hi = np.sort(generator.integers(0, 50_000, 2))
            predicate = RangePredicate.range(int(lo), int(hi), INT)
            result = index.query(predicate)
            assert np.array_equal(result.ids, ground_truth(index.column, predicate))

    def test_overlay_adds_range_candidates(self):
        # Values 10..59: a query below the domain matches no imprint
        # until an update saturates a cacheline's overlay bits.
        column = Column((np.arange(320, dtype=np.int32) % 50) + 10)
        index = ColumnImprints(column)
        predicate = RangePredicate.range(0, 5, INT)
        assert query_ranges(index.data, predicate).n_ranges == 0
        # The new value lands in the underflow bin 0.
        index.note_update(3 * column.values_per_cacheline, 1)
        poked = query_ranges(
            index.data, predicate, overlay_state=index.overlay_state()
        )
        lines, _ = poked.explode()
        assert 3 in set(lines.tolist())

    def test_overlay_inside_repeat_run_splits_range(self):
        # A constant column is one long repeat run; overlaying a middle
        # cacheline must split the run without disturbing neighbours.
        column = Column(np.full(64 * 16, 7, dtype=np.int32))
        index = ColumnImprints(column)
        index.note_update(40 * 16 + 3, 7)  # same value: only overlay bits
        predicate = RangePredicate.range(7, 8, INT)
        result = index.query(predicate)
        assert np.array_equal(result.ids, np.arange(len(column)))

    def test_in_list_sees_overlay(self):
        column = Column((np.arange(640, dtype=np.int32) % 50) + 100)
        index = ColumnImprints(column)
        index.note_update(37, 3)  # out-of-domain value lands in bin 0
        result = query_in_list(index, [3])
        assert 37 in result.ids.tolist()


# ----------------------------------------------------------------------
# the engine never expands the dictionary on query paths
# ----------------------------------------------------------------------
class TestNoExpansionOnQueryPath:
    @pytest.fixture()
    def no_expand(self, monkeypatch):
        def boom(self):  # pragma: no cover - the point is it never runs
            raise AssertionError("expand_rows() called on a query path")

        monkeypatch.setattr(CachelineDictionary, "expand_rows", boom)

    def test_query_paths_never_expand(self, no_expand):
        column_a = Column(make_clustered(6_000, np.int32, seed=50), name="t.a")
        column_b = Column(make_random(6_000, np.int32, seed=51), name="t.b")
        index_a = ColumnImprints(column_a)
        index_b = ColumnImprints(column_b)
        index_a.note_update(17, 12_345)  # exercise the overlay path too
        predicate_a = RangePredicate.range(5_000, 15_000, INT)
        predicate_b = RangePredicate.range(10_000, 60_000, INT)

        index_a.query(predicate_a)
        index_a.candidate_ranges(predicate_a)
        query_in_list(index_a, [5_000, 5_001, 9_999])
        conjunctive_query([index_a, index_b], [predicate_a, predicate_b])
        disjunctive_query([index_a, index_b], [predicate_a, predicate_b])

    def test_multilevel_query_never_expands(self, monkeypatch):
        column = Column(make_clustered(9_000, np.int32, seed=52))
        index = MultiLevelImprints(column, fanout=8)  # build may expand

        def boom(self):  # pragma: no cover
            raise AssertionError("expand_rows() called on a query path")

        monkeypatch.setattr(CachelineDictionary, "expand_rows", boom)
        predicate = RangePredicate.range(5_000, 15_000, INT)
        result = index.query(predicate)
        assert np.array_equal(result.ids, ground_truth(column, predicate))


# ----------------------------------------------------------------------
# dictionary run-boundary caches
# ----------------------------------------------------------------------
class TestDictionaryCaches:
    def test_row_spans_match_expand_rows(self):
        column = Column(make_clustered(7_000, np.int32, seed=60))
        data = build_data(column)
        dictionary = data.dictionary
        starts, stops = dictionary.row_cacheline_spans()
        rows = dictionary.expand_rows()
        for row in range(dictionary.n_imprint_rows):
            covered = np.flatnonzero(rows == row)
            assert covered.size == stops[row] - starts[row]
            if covered.size:
                assert covered[0] == starts[row]
                assert covered[-1] == stops[row] - 1

    def test_rows_of_cachelines_match_expand_rows(self):
        column = Column(np.repeat(np.arange(30, dtype=np.int32), 333))
        data = build_data(column)
        dictionary = data.dictionary
        rows = dictionary.expand_rows()
        lines = np.arange(dictionary.n_cachelines, dtype=np.int64)
        assert np.array_equal(dictionary.rows_of_cachelines(lines), rows)

    def test_expansions_are_memoized(self):
        column = Column(make_random(3_000, np.int32, seed=61))
        dictionary = build_data(column).dictionary
        assert dictionary.expand_rows() is dictionary.expand_rows()
        assert dictionary.row_offsets() is dictionary.row_offsets()
        first = dictionary.row_cacheline_spans()
        assert first[0] is dictionary.row_cacheline_spans()[0]
        assert not dictionary.expand_rows().flags.writeable
