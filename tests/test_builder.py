"""Differential tests for Algorithm 1 — scalar port vs vectorised builder.

The scalar port follows the paper's pseudocode per cacheline; the
vectorised builder walks chunks and builds the dictionary in one pass
over the run boundaries, replaying the paper's step where a counter can
reach the cap.  These tests pin them to each other bit-for-bit,
including the 24-bit counter-cap splits inside and across feeds and
columns around the kernel's chunk size, and validate the structural
invariants the query algorithms rely on.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    ImprintsBuilder,
    binning,
    build_imprints_parallel,
    build_imprints_scalar,
)
from repro.core.binning import CHUNK_VALUES
from repro.storage import Column

from .conftest import make_clustered, make_random
from .oracle import budget_settings


def build_both(column, max_cnt=1 << 24, rng_seed=0):
    histogram = binning(column, rng=np.random.default_rng(rng_seed))
    scalar = build_imprints_scalar(column, histogram, max_cnt=max_cnt)
    builder = ImprintsBuilder(
        histogram, column.values_per_cacheline, max_cnt=max_cnt
    )
    builder.feed(column.values)
    vectorised = builder.snapshot()
    return scalar, vectorised


def assert_same_index(a, b):
    assert np.array_equal(a.imprints, b.imprints)
    assert np.array_equal(a.dictionary.counts, b.dictionary.counts)
    assert np.array_equal(a.dictionary.repeats, b.dictionary.repeats)
    assert a.n_values == b.n_values


class TestScalarVsVectorised:
    def test_random_column(self):
        column = Column(make_random(5_000, np.int32, seed=1))
        assert_same_index(*build_both(column))

    def test_clustered_column(self):
        column = Column(make_clustered(5_000, np.int32, seed=2))
        assert_same_index(*build_both(column))

    def test_constant_column(self):
        column = Column(np.full(1_000, 7, dtype=np.int32))
        scalar, vectorised = build_both(column)
        assert_same_index(scalar, vectorised)
        # One repeat entry describing everything.
        assert vectorised.dictionary.n_entries == 1
        assert bool(vectorised.dictionary.repeats[0])

    def test_sorted_column(self):
        column = Column(np.sort(make_random(5_000, np.int16, seed=3)))
        assert_same_index(*build_both(column))

    def test_partial_tail_cacheline(self):
        # 1003 int32 values = 62 full cachelines + 11 values.
        column = Column(make_random(1_003, np.int32, seed=4))
        scalar, vectorised = build_both(column)
        assert_same_index(scalar, vectorised)
        assert vectorised.n_cachelines == 63

    def test_single_value(self):
        column = Column(np.array([42], dtype=np.int32))
        scalar, vectorised = build_both(column)
        assert_same_index(scalar, vectorised)
        assert vectorised.n_cachelines == 1

    @pytest.mark.parametrize("max_cnt", [3, 4, 5, 8])
    def test_tiny_counter_caps(self, max_cnt):
        """Tiny caps force every split path of the state machine."""
        patterns = [
            np.repeat(np.arange(20, dtype=np.int32), 64),  # long runs
            np.tile(np.arange(40, dtype=np.int32), 32),  # all distinct
            np.repeat(np.array([1, 2] * 30, dtype=np.int32), 33),  # mixed
            np.full(2_000, 3, dtype=np.int32),  # one giant run
        ]
        for pattern in patterns:
            column = Column(pattern)
            assert_same_index(*build_both(column, max_cnt=max_cnt))


class TestStructuralInvariants:
    def test_every_value_bit_is_set(self):
        """Soundness: each value's bin bit appears in its cacheline's
        imprint — the property that makes false negatives impossible."""
        column = Column(make_random(4_000, np.int32, seed=5))
        histogram = binning(column)
        builder = ImprintsBuilder(histogram, column.values_per_cacheline)
        builder.feed(column.values)
        data = builder.snapshot()
        vectors = data.expand_vectors()
        bins = histogram.get_bins(column.values)
        vpc = column.values_per_cacheline
        for value_id in range(len(column)):
            vector = int(vectors[value_id // vpc])
            assert vector >> int(bins[value_id]) & 1

    def test_no_spurious_bits(self):
        """Tightness: an imprint has no bit without a witness value."""
        column = Column(make_random(2_000, np.int16, seed=6))
        histogram = binning(column)
        builder = ImprintsBuilder(histogram, column.values_per_cacheline)
        builder.feed(column.values)
        data = builder.snapshot()
        vectors = data.expand_vectors()
        bins = histogram.get_bins(column.values)
        vpc = column.values_per_cacheline
        for line in range(data.n_cachelines):
            witnessed = set(bins[line * vpc : (line + 1) * vpc].tolist())
            vector = int(vectors[line])
            present = {b for b in range(histogram.bins) if vector >> b & 1}
            assert present == witnessed

    def test_dictionary_covers_all_cachelines(self):
        column = Column(make_clustered(10_000, np.int32, seed=7))
        _, data = None, build_both(column)[1]
        assert data.n_cachelines == column.n_cachelines

    def test_compression_never_loses_vectors(self):
        """Round trip: expand_vectors equals the uncompressed build."""
        column = Column(make_clustered(8_000, np.int32, seed=8))
        histogram = binning(column)
        builder = ImprintsBuilder(histogram, column.values_per_cacheline)
        builder.feed(column.values)
        data = builder.snapshot()
        # Uncompressed reference: per-cacheline OR of bin bits.
        bins = histogram.get_bins(column.values).astype(np.uint64)
        bits = np.uint64(1) << bins
        starts = np.arange(0, len(column), column.values_per_cacheline)
        expected = np.bitwise_or.reduceat(bits, starts)
        assert np.array_equal(data.expand_vectors(), expected)

    def test_size_accounting(self):
        column = Column(make_random(4_000, np.int8, seed=9, low=0, high=5))
        _, data = build_both(column)
        # Low cardinality -> 8 bins -> 1 byte per stored vector.
        assert data.histogram.bins == 8
        assert data.imprints_nbytes == data.imprints.shape[0] * 1
        assert data.dictionary_nbytes == 4 * data.dictionary.n_entries
        assert data.nbytes == (
            data.imprints_nbytes + data.dictionary_nbytes + data.borders_nbytes
        )


class TestStreaming:
    def test_chunked_feed_equals_single_feed(self):
        values = make_clustered(9_137, np.int32, seed=10)
        column = Column(values)
        histogram = binning(column)

        whole = ImprintsBuilder(histogram, column.values_per_cacheline)
        whole.feed(values)

        chunked = ImprintsBuilder(histogram, column.values_per_cacheline)
        cursor = 0
        rng = np.random.default_rng(0)
        while cursor < len(values):
            step = int(rng.integers(1, 777))
            chunked.feed(values[cursor : cursor + step])
            cursor += step
        assert_same_index(whole.snapshot(), chunked.snapshot())

    def test_snapshot_does_not_disturb_streaming(self):
        values = make_random(3_000, np.int32, seed=11)
        column = Column(values)
        histogram = binning(column)
        builder = ImprintsBuilder(histogram, column.values_per_cacheline)
        builder.feed(values[:1_500])
        _ = builder.snapshot()
        _ = builder.snapshot()  # twice: still no effect
        builder.feed(values[1_500:])
        reference = ImprintsBuilder(histogram, column.values_per_cacheline)
        reference.feed(values)
        assert_same_index(builder.snapshot(), reference.snapshot())

    def test_empty_feed_is_noop(self):
        column = Column(make_random(500, np.int32, seed=12))
        histogram = binning(column)
        builder = ImprintsBuilder(histogram, column.values_per_cacheline)
        builder.feed(column.values)
        before = builder.snapshot()
        builder.feed(np.array([], dtype=np.int32))
        assert_same_index(before, builder.snapshot())

    def test_rejects_2d(self):
        column = Column(make_random(100, np.int32, seed=13))
        histogram = binning(column)
        builder = ImprintsBuilder(histogram, column.values_per_cacheline)
        with pytest.raises(ValueError, match="1-D"):
            builder.feed(np.zeros((2, 2), dtype=np.int32))


@budget_settings(60)
@given(
    data=st.lists(st.integers(0, 30), min_size=1, max_size=600),
    max_cnt=st.sampled_from([3, 5, 1 << 24]),
)
def test_differential_scalar_vs_vectorised(data, max_cnt):
    """Arbitrary small-domain data (encourages runs) with arbitrary
    caps: both builders must agree bit-for-bit."""
    column = Column(np.array(data, dtype=np.int8))
    histogram = binning(column, rng=np.random.default_rng(0))
    scalar = build_imprints_scalar(column, histogram, max_cnt=max_cnt)
    builder = ImprintsBuilder(histogram, column.values_per_cacheline, max_cnt=max_cnt)
    builder.feed(column.values)
    assert_same_index(scalar, builder.snapshot())


@budget_settings(40)
@given(
    chunks=st.lists(
        st.lists(st.integers(0, 10), min_size=0, max_size=150),
        min_size=1,
        max_size=8,
    )
)
def test_streaming_differential(chunks):
    """Feeding arbitrary chunkings equals one shot — including chunk
    borders inside cachelines and inside runs."""
    values = np.array([v for chunk in chunks for v in chunk], dtype=np.int8)
    if values.size == 0:
        return
    column = Column(values)
    histogram = binning(column, rng=np.random.default_rng(0))

    whole = ImprintsBuilder(histogram, column.values_per_cacheline)
    whole.feed(values)

    streamed = ImprintsBuilder(histogram, column.values_per_cacheline)
    for chunk in chunks:
        streamed.feed(np.array(chunk, dtype=np.int8))
    assert_same_index(whole.snapshot(), streamed.snapshot())


# ----------------------------------------------------------------------
# the counter cap inside and across feeds
# ----------------------------------------------------------------------
def lines(pattern: str) -> np.ndarray:
    """An int32 column with one cacheline (16 values) per letter: equal
    letters are equal imprint vectors, different letters differ."""
    return np.repeat(np.array([ord(c) for c in pattern], dtype=np.int32), 16)


def streamed(values, histogram, max_cnt, feeds):
    """Feed ``values`` in pieces of the given sizes (the rest last),
    snapshotting between feeds."""
    builder = ImprintsBuilder(histogram, 16, max_cnt=max_cnt)
    cursor = 0
    for size in [*feeds, len(values)]:
        builder.feed(values[cursor : cursor + size])
        cursor += size
        builder.snapshot()
    return builder.snapshot()


@pytest.mark.parametrize("max_cnt", [3, 5, 8])
@pytest.mark.parametrize(
    "pattern,feeds",
    [
        ("A" * 25, []),  # a repeat run hits the cap inside one feed
        ("A" * 25, [16 * 3, 16 * 2, 16 * 4]),  # ... and across feeds
        ("BCDEFGHIJKLMNOPQRSTUVWXYZ", []),  # a distinct stretch inside one feed
        ("BCDEFGHIJKLMNOPQRSTUVWXYZ", [16 * 2] * 6),  # ... and across feeds
        ("BCDEFGHHHHHHHHHHHHIJKLMNOP", [16 * 4, 16 * 5 + 3]),  # full entry, then a run
        ("ABABBBBBBBBBBBBCDCCCCCCCCCE", [16 + 7, 16 * 9]),  # runs after distinct pairs
    ],
)
def test_counter_cap_in_streamed_feeds(max_cnt, pattern, feeds):
    values = lines(pattern)
    column = Column(values)
    histogram = binning(column, rng=np.random.default_rng(0))
    scalar = build_imprints_scalar(column, histogram, max_cnt=max_cnt)
    assert scalar.dictionary.counts.max() == max_cnt - 1  # the cap is reached
    assert_same_index(scalar, streamed(values, histogram, max_cnt, feeds))


@budget_settings(60)
@given(
    pattern=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 12)), min_size=1, max_size=30),
    feeds=st.lists(st.integers(1, 16 * 12), max_size=8),
    max_cnt=st.sampled_from([3, 4, 5, 8, 1 << 24]),
)
def test_streamed_feed_differential_with_caps(pattern, feeds, max_cnt):
    """Runs and distinct stretches of cachelines, fed in arbitrary
    pieces (inside cachelines too): equal to the scalar port at every
    cap, so counters reach it inside a feed and across feed borders."""
    values = np.concatenate(
        [np.repeat(np.int32(value), 16 * count) for value, count in pattern]
    )
    values[::37] += 1  # break some runs into distinct lines
    column = Column(values)
    histogram = binning(column, rng=np.random.default_rng(0))
    scalar = build_imprints_scalar(column, histogram, max_cnt=max_cnt)
    assert_same_index(scalar, streamed(values, histogram, max_cnt, feeds))


# ----------------------------------------------------------------------
# columns around the kernel's chunk size
# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.float64])
@pytest.mark.parametrize("offset", ["-line", "-1", "0", "+1", "+line", "3 chunks +5"])
def test_lengths_around_the_chunk_size(dtype, offset):
    vpc = 64 // np.dtype(dtype).itemsize
    n = {
        "-line": CHUNK_VALUES - vpc,
        "-1": CHUNK_VALUES - 1,
        "0": CHUNK_VALUES,
        "+1": CHUNK_VALUES + 1,
        "+line": CHUNK_VALUES + vpc,
        "3 chunks +5": 3 * CHUNK_VALUES + 5,
    }[offset]
    column = Column(make_clustered(n, dtype, seed=n, scale=3.0))
    histogram = binning(column, rng=np.random.default_rng(0))
    scalar = build_imprints_scalar(column, histogram)
    builder = ImprintsBuilder(histogram, column.values_per_cacheline)
    builder.feed(column.values)
    assert_same_index(scalar, builder.snapshot())
    assert_same_index(scalar, build_imprints_parallel(column, histogram, n_workers=3))
