"""Unit and property tests for Algorithm 2 (binning)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import binning, sample_column
from repro.core.binning import CHUNK_VALUES, Histogram
from repro.storage import ALL_TYPES, DOUBLE, INT, Column

from .conftest import column_for_type, make_random
from .oracle import budget_settings


class TestSampling:
    def test_short_column_used_in_full(self):
        column = Column(np.arange(100, dtype=np.int32))
        sample = sample_column(column, sample_size=2048)
        assert sorted(sample) == list(range(100))

    def test_long_column_sampled_to_size(self, rng):
        column = Column(make_random(10_000, np.int32))
        sample = sample_column(column, sample_size=256, rng=rng)
        assert sample.shape == (256,)

    def test_empty_column_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sample_column(Column(np.array([], dtype=np.int32)))

    def test_bad_sample_size(self):
        with pytest.raises(ValueError):
            sample_column(Column(np.arange(5, dtype=np.int32)), sample_size=0)


class TestLowCardinality:
    def test_one_value_per_bin(self):
        # 5 unique values -> 8 bins, each value in its own bin.
        column = Column(np.array([10, 20, 30, 40, 50] * 100, dtype=np.int32))
        histogram = binning(column)
        assert histogram.bins == 8
        bins = [histogram.get_bin(v) for v in (10, 20, 30, 40, 50)]
        assert len(set(bins)) == 5

    def test_power_of_two_rounding(self):
        cases = [(5, 8), (9, 16), (20, 32), (40, 64), (63, 64)]
        for n_unique, expected_bins in cases:
            column = Column(
                np.repeat(np.arange(n_unique, dtype=np.int32), 10)
            )
            histogram = binning(column)
            assert histogram.bins == expected_bins, n_unique

    def test_underflow_bin_reserved(self):
        """Values below the smallest sampled value map to bin 0."""
        column = Column(np.array([100, 200, 300] * 50, dtype=np.int32))
        histogram = binning(column)
        assert histogram.get_bin(-5) == 0
        assert histogram.get_bin(99) == 0

    def test_padding_is_type_max(self):
        column = Column(np.array([1, 2, 3] * 10, dtype=np.int32))
        histogram = binning(column)
        assert histogram.borders[-1] == INT.max_value


class TestHighCardinality:
    def test_64_bins_with_fractional_stride(self):
        column = Column(make_random(50_000, np.int32, seed=1))
        histogram = binning(column)
        assert histogram.bins == 64
        # Borders must be non-decreasing and end in the MAX pad.
        search = histogram.borders[:-1]
        assert np.all(search[:-1] <= search[1:])
        assert histogram.borders[-1] == INT.max_value

    def test_roughly_equal_height(self):
        """Quantile borders spread values roughly evenly over bins."""
        column = Column(make_random(100_000, np.float64, seed=2))
        histogram = binning(column, rng=np.random.default_rng(0))
        counts = np.bincount(histogram.get_bins(column.values), minlength=64)
        interior = counts[1:-1]
        # Every interior bin within 4x of the mean: approximate but sane.
        assert interior.max() <= 4 * max(1.0, interior.mean())

    def test_max_bins_ablation_values(self):
        column = Column(make_random(10_000, np.int32, seed=3))
        for max_bins in (8, 16, 32, 64):
            histogram = binning(column, max_bins=max_bins)
            assert histogram.bins == max_bins
            bins = histogram.get_bins(column.values)
            assert bins.max() < max_bins

    def test_two_bins_split_at_the_sample_minimum(self):
        column = Column(np.arange(100, dtype=np.int32))
        histogram = binning(column, max_bins=2)
        assert histogram.bins == 2
        assert histogram.borders[0] == 0

    def test_bad_max_bins(self):
        column = Column(np.arange(100, dtype=np.int32))
        with pytest.raises(ValueError):
            binning(column, max_bins=65)
        with pytest.raises(ValueError):
            binning(column, max_bins=1)


class TestGetBins:
    def test_left_inclusive_right_exclusive(self):
        """The paper's b[3]=10, b[4]=13 example: [10,13) is one bin and
        13 belongs to the next."""
        histogram = Histogram(
            borders=np.array(
                [1, 5, 8, 10, 13, 20, 30, INT.max_value], dtype=np.int32
            ),
            bins=8,
            ctype=INT,
        )
        assert histogram.get_bin(10) == histogram.get_bin(12)
        assert histogram.get_bin(13) == histogram.get_bin(12) + 1
        assert histogram.get_bin(9) == histogram.get_bin(10) - 1

    def test_scalar_matches_vector(self, any_ctype):
        column = column_for_type(any_ctype)
        histogram = binning(column)
        values = column.values[:500]
        vectorised = histogram.get_bins(values)
        scalar = [histogram.get_bin(v) for v in values]
        assert list(vectorised) == scalar

    def test_bin_bounds_cover_domain(self):
        column = Column(make_random(5_000, np.int32, seed=4))
        histogram = binning(column)
        lo0, _ = histogram.bin_bounds(0)
        _, hi_last = histogram.bin_bounds(histogram.bins - 1)
        assert lo0 == float("-inf")
        assert hi_last == float("inf")

    def test_bin_bounds_out_of_range(self):
        column = Column(np.arange(100, dtype=np.int32))
        histogram = binning(column)
        with pytest.raises(IndexError):
            histogram.bin_bounds(histogram.bins)

    def test_bounds_arrays_consistent_with_bin_bounds(self):
        column = Column(make_random(2_000, np.int32, seed=9))
        histogram = binning(column)
        lo, hi = histogram.bounds_arrays()
        for k in range(histogram.bins):
            assert (lo[k], hi[k]) == histogram.bin_bounds(k)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=400),
    probe=st.integers(-(2**31), 2**31 - 1),
)
def test_get_bin_is_the_border_rank(data, probe):
    """get_bin(v) == number of participating borders <= v (the exact
    left-inclusive rule), for any data and any probe value."""
    column = Column(np.array(data, dtype=np.int32))
    histogram = binning(column, rng=np.random.default_rng(0))
    expected = int(
        np.count_nonzero(
            histogram.borders[: histogram.bins - 1].astype(np.int64) <= probe
        )
    )
    assert histogram.get_bin(np.int32(probe)) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.lists(st.integers(-1000, 1000), min_size=1, max_size=300))
def test_every_value_lands_inside_its_bin_bounds(data):
    column = Column(np.array(data, dtype=np.int32))
    histogram = binning(column, rng=np.random.default_rng(1))
    for value in column.values[:50]:
        k = histogram.get_bin(value)
        lo, hi = histogram.bin_bounds(k)
        assert lo <= value < hi or (lo == float("-inf") and value < hi)


# ----------------------------------------------------------------------
# the branch-free search equals searchsorted
# ----------------------------------------------------------------------
TYPES = sorted(ALL_TYPES.values(), key=lambda ctype: ctype.name)


def extremes(ctype) -> list:
    """The dtype's domain ends and their neighbours; ±inf on floats."""
    if ctype.is_float:
        info = np.finfo(ctype.dtype)
        return [-np.inf, float(info.min), -1.0, -0.0, 0.0, float(info.tiny), float(info.max), np.inf]
    info = np.iinfo(ctype.dtype)
    return [int(info.min), int(info.min) + 1, 0, int(info.max) - 1, int(info.max)]


def values_of(ctype):
    """Values of one type: its extremes, small values and the whole
    domain, with ±inf and NaN on floats.  Columns hold them too:
    binning drops NaN from its sample and pads its borders above +inf
    (with the finite MAX alone, a low-cardinality sample holding +inf
    could not form a histogram)."""
    if ctype.is_float:
        width = 8 * ctype.dtype.itemsize
        domain = st.floats(width=width)
        small = st.floats(-100, 100, width=width)
        ends = [*extremes(ctype), np.nan]
    else:
        info = np.iinfo(ctype.dtype)
        domain = st.integers(int(info.min), int(info.max))
        small = st.integers(max(int(info.min), -100), min(int(info.max), 100))
        ends = extremes(ctype)
    return st.one_of(st.sampled_from(ends), small, domain)


def assert_bins_equal_searchsorted(histogram, probe) -> None:
    search = histogram.borders[: histogram.bins - 1]
    want = np.searchsorted(search, probe, side="right")
    assert np.array_equal(histogram.get_bins(probe), want)


@budget_settings(200)
@given(data=st.data())
def test_get_bins_equals_searchsorted(data):
    """Every column type, every ``max_bins`` (so every bin count
    ``binning`` produces, powers of two or not), dtype extremes, and
    NaN and ±inf in float columns and probes."""
    ctype = data.draw(st.sampled_from(TYPES))
    values = np.array(data.draw(st.lists(values_of(ctype), min_size=1, max_size=300)), dtype=ctype.dtype)
    max_bins = data.draw(st.integers(2, 64))
    histogram = binning(Column(values, ctype=ctype), max_bins=max_bins)
    probes = data.draw(st.lists(values_of(ctype), max_size=200))
    probe = np.concatenate(
        [values, np.array(probes + extremes(ctype), dtype=ctype.dtype), histogram.borders]
    )
    if ctype.is_float:
        probe = np.concatenate([probe, np.array([np.nan, -np.nan], dtype=ctype.dtype)])
    assert_bins_equal_searchsorted(histogram, probe)


@pytest.mark.parametrize("max_bins", range(2, 65))
def test_get_bins_at_every_bin_count(max_bins):
    """Low-cardinality (each rounding step) and high-cardinality
    columns at every ``max_bins``, probed across several chunks."""
    rng = np.random.default_rng(max_bins)
    for cardinality in sorted({1, 3, 7, 15, 31, 63, max_bins - 1, 2_000}):
        values = rng.choice(rng.integers(-50_000, 50_000, cardinality), 3_000).astype(np.int32)
        histogram = binning(Column(values), max_bins=max_bins)
        probe = np.concatenate(
            [rng.integers(-60_000, 60_000, 2 * CHUNK_VALUES + 7), extremes(INT)]
        ).astype(np.int32)
        assert_bins_equal_searchsorted(histogram, probe)


def test_get_bins_with_a_nan_border():
    """A NaN border (a histogram built before binning dropped NaN from
    its sample): searchsorted sorts NaN last, so only NaN reaches bin 1.
    Binning an all-NaN column now gives finite borders."""
    histogram = Histogram(np.array([np.nan, np.nan]), 2, DOUBLE)
    assert_bins_equal_searchsorted(histogram, np.array([np.nan, -np.inf, 0.0, np.inf]))
    binned = binning(Column(np.full(10, np.nan)), max_bins=2)
    assert np.all(np.isfinite(binned.borders))
    assert binned.get_bins(np.array([np.nan]))[0] == 1
