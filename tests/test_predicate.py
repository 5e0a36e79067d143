"""Unit and property tests for canonical range predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.predicate import RangePredicate
from repro.storage import CHAR, DOUBLE, INT, REAL


class TestIntCanonicalisation:
    def test_default_is_half_open(self):
        predicate = RangePredicate.range(3, 7, INT)
        assert (predicate.low, predicate.high) == (3, 7)

    def test_exclusive_low_shifts_up(self):
        predicate = RangePredicate.range(3, 7, INT, low_inclusive=False)
        assert predicate.low == 4

    def test_inclusive_high_shifts_up(self):
        predicate = RangePredicate.range(3, 7, INT, high_inclusive=True)
        assert predicate.high == 8

    def test_float_bounds_on_int_column_use_ceil(self):
        predicate = RangePredicate.range(2.5, 6.5, INT)
        # v >= 2.5 == v >= 3 ; v < 6.5 == v < 7 for integers.
        assert (predicate.low, predicate.high) == (3, 7)

    def test_point_query(self):
        predicate = RangePredicate.point(5, INT)
        assert (predicate.low, predicate.high) == (5, 6)

    def test_domain_clamping_to_unbounded(self):
        predicate = RangePredicate.range(-(2**40), 2**40, INT)
        assert predicate.low_unbounded
        assert predicate.high_unbounded

    def test_out_of_domain_collapses_to_empty(self):
        predicate = RangePredicate.range(200, 300, CHAR)
        assert predicate.is_empty
        assert predicate.count(np.array([1, 2], dtype=np.int8)) == 0

    def test_small_type_overflow_safe_matching(self):
        # 127 inclusive on int8 must not overflow numpy comparisons.
        predicate = RangePredicate.range(100, 127, CHAR, high_inclusive=True)
        values = np.array([99, 100, 127], dtype=np.int8)
        assert list(predicate.matches(values)) == [False, True, True]


class TestFloatCanonicalisation:
    def test_inclusive_high_uses_nextafter(self):
        predicate = RangePredicate.range(0.5, 1.5, DOUBLE, high_inclusive=True)
        assert predicate.high == float(np.nextafter(1.5, np.inf))
        values = np.array([1.5], dtype=np.float64)
        assert predicate.count(values) == 1

    def test_exclusive_low_uses_nextafter(self):
        predicate = RangePredicate.range(0.5, 1.5, DOUBLE, low_inclusive=False)
        values = np.array([0.5], dtype=np.float64)
        assert predicate.count(values) == 0

    def test_point_on_floats(self):
        predicate = RangePredicate.point(2.25, REAL)
        values = np.array([2.25, 2.2500002], dtype=np.float32)
        assert predicate.count(values) == 1


class TestEvaluation:
    def test_everything(self):
        predicate = RangePredicate.everything()
        assert predicate.count(np.array([1, 2, 3], dtype=np.int32)) == 3

    def test_empty(self):
        predicate = RangePredicate(low=5, high=5)
        assert predicate.is_empty
        assert predicate.count(np.array([5], dtype=np.int32)) == 0

    def test_matches_one_mirrors_matches(self):
        predicate = RangePredicate.range(2, 9, INT)
        values = np.array([1, 2, 8, 9], dtype=np.int32)
        vector = predicate.matches(values)
        scalar = [predicate.matches_one(v) for v in values]
        assert list(vector) == scalar


@settings(max_examples=200, deadline=None)
@given(
    low=st.integers(-1000, 1000),
    width=st.integers(0, 500),
    low_inclusive=st.booleans(),
    high_inclusive=st.booleans(),
    data=st.lists(st.integers(-1200, 1200), min_size=1, max_size=50),
)
def test_canonical_matches_naive_predicate(
    low, width, low_inclusive, high_inclusive, data
):
    """Canonicalisation never changes which values match."""
    high = low + width
    values = np.array(data, dtype=np.int32)
    predicate = RangePredicate.range(
        low, high, INT, low_inclusive=low_inclusive, high_inclusive=high_inclusive
    )
    expected = np.ones(len(values), dtype=bool)
    expected &= (values >= low) if low_inclusive else (values > low)
    expected &= (values <= high) if high_inclusive else (values < high)
    assert np.array_equal(predicate.matches(values), expected)


@settings(max_examples=100, deadline=None)
@given(
    low=st.floats(-1e6, 1e6, allow_nan=False),
    width=st.floats(0, 1e6, allow_nan=False),
    low_inclusive=st.booleans(),
    high_inclusive=st.booleans(),
    data=st.lists(
        st.one_of(
            st.floats(-2e6, 2e6, allow_nan=False, width=64),
            st.just(float("nan")),
        ),
        min_size=1,
        max_size=50,
    ),
)
def test_canonical_matches_naive_predicate_floats(
    low, width, low_inclusive, high_inclusive, data
):
    high = low + width
    values = np.array(data, dtype=np.float64)
    predicate = RangePredicate.range(
        low, high, DOUBLE, low_inclusive=low_inclusive, high_inclusive=high_inclusive
    )
    expected = np.ones(len(values), dtype=bool)
    expected &= (values >= low) if low_inclusive else (values > low)
    expected &= (values <= high) if high_inclusive else (values < high)
    assert np.array_equal(predicate.matches(values), expected)
    # NaN matches neither the two-sided nor the one-sided evaluation.
    at_least = RangePredicate(low=predicate.low, high=float("inf"))
    below = RangePredicate(low=float("-inf"), high=predicate.high)
    assert np.array_equal(at_least.matches(values), values >= predicate.low)
    assert np.array_equal(below.matches(values), values < predicate.high)
