"""Tests for Algorithm 3 — scalar port, vectorised kernel, ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ColumnImprints,
    ImprintsBuilder,
    binning,
    query_ranges,
    query_scalar,
)
from repro.core.query import query_vectorized
from repro.predicate import RangePredicate
from repro.storage import Column, DOUBLE, INT

from .conftest import make_clustered, make_random


def build_data(column, seed=0):
    histogram = binning(column, rng=np.random.default_rng(seed))
    builder = ImprintsBuilder(histogram, column.values_per_cacheline)
    builder.feed(column.values)
    return builder.snapshot()


def ground_truth(column, predicate):
    return np.flatnonzero(predicate.matches(column.values)).astype(np.int64)


class TestAgainstGroundTruth:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_data_random_ranges(self, seed):
        column = Column(make_random(7_000, np.int32, seed=seed))
        data = build_data(column)
        generator = np.random.default_rng(seed)
        for _ in range(20):
            lo, hi = np.sort(generator.integers(0, 100_000, 2))
            predicate = RangePredicate.range(int(lo), int(hi), INT)
            result = query_vectorized(data, column.values, predicate)
            assert np.array_equal(result.ids, ground_truth(column, predicate))

    def test_clustered_data(self):
        column = Column(make_clustered(9_000, np.int32, seed=4))
        data = build_data(column)
        lo, hi = np.quantile(column.values, [0.2, 0.4])
        predicate = RangePredicate.range(int(lo), int(hi), INT)
        result = query_vectorized(data, column.values, predicate)
        assert np.array_equal(result.ids, ground_truth(column, predicate))

    def test_point_query(self):
        column = Column(make_random(3_000, np.int16, seed=5, low=0, high=50))
        data = build_data(column)
        predicate = RangePredicate.point(25, column.ctype)
        result = query_vectorized(data, column.values, predicate)
        assert np.array_equal(result.ids, ground_truth(column, predicate))

    def test_unbounded_query_returns_everything(self):
        column = Column(make_random(2_000, np.int32, seed=6))
        data = build_data(column)
        result = query_vectorized(data, column.values, RangePredicate.everything())
        assert result.n_ids == len(column)

    def test_empty_predicate(self):
        column = Column(make_random(2_000, np.int32, seed=7))
        data = build_data(column)
        result = query_vectorized(data, column.values, RangePredicate(9, 9))
        assert result.n_ids == 0
        assert result.stats.cachelines_fetched == 0

    def test_miss_range_below_domain(self):
        column = Column(make_random(2_000, np.int32, seed=8, low=1000, high=2000))
        data = build_data(column)
        predicate = RangePredicate.range(0, 500, INT)
        result = query_vectorized(data, column.values, predicate)
        assert result.n_ids == 0


class TestScalarVsVectorised:
    @pytest.mark.parametrize("seed", [10, 11])
    def test_ids_and_counters_agree(self, seed):
        column = Column(make_random(2_500, np.int32, seed=seed))
        data = build_data(column)
        generator = np.random.default_rng(seed)
        for _ in range(5):
            lo, hi = np.sort(generator.integers(0, 100_000, 2))
            predicate = RangePredicate.range(int(lo), int(hi), INT)
            scalar = query_scalar(data, column.values, predicate)
            vectorised = query_vectorized(data, column.values, predicate)
            assert np.array_equal(scalar.ids, vectorised.ids)
            assert scalar.stats.index_probes == vectorised.stats.index_probes
            assert (
                scalar.stats.value_comparisons
                == vectorised.stats.value_comparisons
            )
            assert (
                scalar.stats.full_cachelines == vectorised.stats.full_cachelines
            )

    def test_clustered_with_repeat_entries(self):
        column = Column(np.repeat(np.arange(50, dtype=np.int32), 200))
        data = build_data(column)
        assert bool(data.dictionary.repeats.any())  # compression happened
        predicate = RangePredicate.range(10, 20, INT)
        scalar = query_scalar(data, column.values, predicate)
        vectorised = query_vectorized(data, column.values, predicate)
        assert np.array_equal(scalar.ids, vectorised.ids)


class TestStatsSemantics:
    def test_full_cachelines_skip_comparisons(self):
        """A query covering whole bins must produce full cachelines with
        zero comparisons for them."""
        column = Column(np.repeat(np.arange(8, dtype=np.int8), 640))
        data = build_data(column)
        # Whole-domain query: every bin inner.
        predicate = RangePredicate.everything()
        result = query_vectorized(data, column.values, predicate)
        assert result.stats.value_comparisons == 0
        assert result.stats.full_cachelines == data.n_cachelines
        assert result.stats.cachelines_fetched == 0

    def test_probes_equal_stored_vectors(self):
        column = Column(make_clustered(5_000, np.int32, seed=12))
        data = build_data(column)
        predicate = RangePredicate.range(0, 10_000, INT)
        result = query_vectorized(data, column.values, predicate)
        assert result.stats.index_probes == data.dictionary.n_imprint_rows

    def test_ids_sorted_unique(self):
        column = Column(make_random(4_000, np.int32, seed=13))
        data = build_data(column)
        lo, hi = np.quantile(column.values, [0.1, 0.9])
        result = query_vectorized(
            data, column.values, RangePredicate.range(int(lo), int(hi), INT)
        )
        assert np.all(np.diff(result.ids) > 0)


class TestCandidates:
    def test_candidates_cover_result(self):
        column = Column(make_random(4_000, np.int32, seed=14))
        data = build_data(column)
        lo, hi = np.quantile(column.values, [0.45, 0.55])
        predicate = RangePredicate.range(int(lo), int(hi), INT)
        lines, _ = query_ranges(data, predicate).explode()
        truth_lines = np.unique(
            ground_truth(column, predicate) // column.values_per_cacheline
        )
        assert np.all(np.isin(truth_lines, lines))

    def test_full_flags_are_sound(self):
        column = Column(make_clustered(6_000, np.int32, seed=15))
        data = build_data(column)
        lo, hi = np.quantile(column.values, [0.2, 0.8])
        predicate = RangePredicate.range(int(lo), int(hi), INT)
        lines, is_full = query_ranges(data, predicate).explode()
        vpc = column.values_per_cacheline
        for line in lines[is_full]:
            chunk = column.values[line * vpc : (line + 1) * vpc]
            assert predicate.matches(chunk).all()

    def test_overlay_adds_candidates(self):
        # Values 10..59: bin 0 is the (empty) underflow bin, so a query
        # below the domain matches no imprint.
        column = Column((np.arange(320, dtype=np.int32) % 50) + 10)
        index = ColumnImprints(column)
        predicate = RangePredicate.range(0, 5, INT)
        assert index.candidate_ranges(predicate).n_cachelines == 0
        # An update writes an out-of-range value into cacheline 3: its
        # overlay bit makes the cacheline a candidate again.
        index.note_update(3 * column.values_per_cacheline + 2, 0)
        lines, _ = index.candidate_ranges(predicate).explode()
        assert 3 in set(lines.tolist())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 500),
    n=st.integers(1, 900),
    lo=st.integers(-50, 120),
    width=st.integers(0, 150),
)
def test_query_equals_ground_truth_property(seed, n, lo, width):
    """The golden invariant: imprints answer == naive scan answer, for
    arbitrary columns (including tails, constants, tiny sizes) and
    arbitrary ranges (including misses and full covers)."""
    generator = np.random.default_rng(seed)
    values = generator.integers(0, 100, n).astype(np.int16)
    column = Column(values)
    data = build_data(column, seed=seed)
    predicate = RangePredicate.range(lo, lo + width, column.ctype)
    result = query_vectorized(data, column.values, predicate)
    assert np.array_equal(result.ids, ground_truth(column, predicate))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 200))
def test_scalar_vectorised_equivalence_property(seed):
    generator = np.random.default_rng(seed)
    values = generator.integers(0, 40, 500).astype(np.int8)
    column = Column(values)
    data = build_data(column, seed=seed)
    lo = int(generator.integers(-5, 45))
    predicate = RangePredicate.range(lo, lo + int(generator.integers(0, 30)),
                                     column.ctype)
    scalar = query_scalar(data, column.values, predicate)
    vectorised = query_vectorized(data, column.values, predicate)
    assert np.array_equal(scalar.ids, vectorised.ids)
