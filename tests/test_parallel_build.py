"""Tests for parallel imprint construction (Section 7 extension)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    ImprintsBuilder,
    binning,
    build_imprints_parallel,
    partition_bounds,
)
from repro.storage import Column

from .conftest import make_clustered, make_random
from .oracle import budget_settings


def serial_build(column, histogram):
    builder = ImprintsBuilder(histogram, column.values_per_cacheline)
    builder.feed(column.values)
    return builder.snapshot()


class TestPartitioning:
    def test_partitions_are_cacheline_aligned(self):
        bounds = partition_bounds(n_values=1000, values_per_cacheline=16,
                                  n_partitions=4)
        for start, _stop in bounds:
            assert start % 16 == 0

    def test_partitions_tile_the_column(self):
        bounds = partition_bounds(1003, 16, 4)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == 1003
        for (_, stop), (start, _) in zip(bounds, bounds[1:]):
            assert stop == start

    def test_more_partitions_than_cachelines(self):
        bounds = partition_bounds(20, 16, 8)  # only 2 cachelines
        assert bounds[-1][1] == 20
        assert len(bounds) <= 2

    def test_bad_partition_count(self):
        with pytest.raises(ValueError):
            partition_bounds(100, 16, 0)


class TestEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 4, 7])
    def test_identical_to_serial(self, n_workers):
        column = Column(make_clustered(20_000, np.int32, seed=1))
        histogram = binning(column, rng=np.random.default_rng(0))
        serial = serial_build(column, histogram)
        parallel = build_imprints_parallel(
            column, histogram, n_workers=n_workers
        )
        assert np.array_equal(serial.imprints, parallel.imprints)
        assert np.array_equal(
            serial.dictionary.counts, parallel.dictionary.counts
        )
        assert np.array_equal(
            serial.dictionary.repeats, parallel.dictionary.repeats
        )

    def test_run_spanning_partition_boundary(self):
        """A constant column: one run across all partitions must still
        compress into a single repeat entry."""
        column = Column(np.full(16_000, 5, dtype=np.int32))
        histogram = binning(column)
        parallel = build_imprints_parallel(column, histogram, n_workers=4)
        assert parallel.dictionary.n_entries == 1
        assert bool(parallel.dictionary.repeats[0])

    def test_partial_tail(self):
        column = Column(make_random(10_007, np.int32, seed=2))
        histogram = binning(column)
        serial = serial_build(column, histogram)
        parallel = build_imprints_parallel(column, histogram, n_workers=3)
        assert np.array_equal(serial.imprints, parallel.imprints)

    def test_empty_column(self):
        column = Column(np.array([], dtype=np.int32))
        histogram = binning(Column(np.array([1], dtype=np.int32)))
        data = build_imprints_parallel(column, histogram, n_workers=4)
        assert data.n_values == 0
        assert data.n_cachelines == 0

    def test_bad_worker_count(self):
        column = Column(make_random(100, np.int32, seed=3))
        histogram = binning(column)
        with pytest.raises(ValueError):
            build_imprints_parallel(column, histogram, n_workers=0)


@budget_settings(40)
@given(
    seed=st.integers(0, 300),
    n=st.integers(1, 3_000),
    n_workers=st.integers(1, 6),
)
def test_parallel_serial_differential(seed, n, n_workers):
    rng = np.random.default_rng(seed)
    column = Column(rng.integers(0, 25, n).astype(np.int8))
    histogram = binning(column, rng=np.random.default_rng(0))
    serial = serial_build(column, histogram)
    parallel = build_imprints_parallel(column, histogram, n_workers=n_workers)
    assert np.array_equal(serial.imprints, parallel.imprints)
    assert np.array_equal(serial.dictionary.counts, parallel.dictionary.counts)
    assert np.array_equal(serial.dictionary.repeats, parallel.dictionary.repeats)
