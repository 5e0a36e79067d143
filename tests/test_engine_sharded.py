"""Shard equivalence: the shard class must be invisible in answers.

``ShardedColumnImprints`` slices the one global compressed index into
cacheline-aligned shard views and walks them lazily for ``page`` and
``iter_chunks``; everything else is the inherited ``ColumnImprints``.
The contract is that ids, every Figure 11 counter, every aggregate and
every streamed page are bit-identical to a separately built
``ColumnImprints`` — across shard counts, ragged tails, appends and
saturation overlays.  Property-tested, as the seam between shards is
exactly where off-by-one bugs live.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AGGREGATE_OPS, GROUP_OPS, ColumnImprints
from repro.engine import ShardedColumnImprints, slice_imprints
from repro.predicate import RangePredicate
from repro.storage import INT, Column, GroupColumn

from .conftest import make_clustered, make_random


def assert_identical(expected, got):
    """ids and all stats equal — and the id list is sorted (the O(n)
    merge in materialize_ranges relies on chunk sortedness)."""
    assert np.array_equal(expected.ids, got.ids)
    assert expected.stats == got.stats
    if got.ids.size > 1:
        assert np.all(np.diff(got.ids) > 0)


def predicates_for(column, rng, count=10):
    lo = int(column.values.min()) - 50
    hi = int(column.values.max()) + 50
    predicates = [
        RangePredicate.range(*sorted(int(v) for v in rng.integers(lo, hi, 2)), INT)
        for _ in range(count)
    ]
    predicates.append(RangePredicate(9, 9))  # empty
    predicates.append(RangePredicate.everything())
    predicates.append(RangePredicate.point(int(column.values[0]), INT))
    return predicates


# ----------------------------------------------------------------------
# the slicing itself
# ----------------------------------------------------------------------
class TestSliceImprints:
    def test_shards_tile_the_index(self):
        column = Column(make_clustered(10_000, np.int32, seed=3))
        index = ColumnImprints(column)
        shards = slice_imprints(index.data, 4)
        assert shards[0].cl_start == 0
        assert shards[-1].cl_stop == index.data.n_cachelines
        for left, right in zip(shards, shards[1:]):
            assert left.cl_stop == right.cl_start
            assert left.value_stop == right.value_start
        assert sum(s.data.n_values for s in shards) == len(column)
        for shard in shards:
            assert shard.data.dictionary.n_cachelines == shard.n_cachelines
            # shard vectors are zero-copy views of the global array
            assert shard.data.imprints.base is not None

    def test_expanded_vectors_roundtrip(self):
        # Expanding every shard and concatenating must reproduce the
        # global per-cacheline vectors exactly.
        column = Column(np.repeat(np.arange(50, dtype=np.int32), 400))
        index = ColumnImprints(column)
        assert bool(index.data.dictionary.repeats.any())
        shards = slice_imprints(index.data, 3)
        stitched = np.concatenate([s.data.expand_vectors() for s in shards])
        assert np.array_equal(stitched, index.data.expand_vectors())

    def test_more_shards_than_cachelines(self):
        column = Column(np.arange(40, dtype=np.int32))  # 3 cachelines
        index = ColumnImprints(column)
        shards = slice_imprints(index.data, 8)
        assert len(shards) == index.data.n_cachelines
        assert all(s.n_cachelines == 1 for s in shards)

    def test_invalid_shard_count(self):
        column = Column(np.arange(100, dtype=np.int32))
        with pytest.raises(ValueError, match="n_shards"):
            slice_imprints(ColumnImprints(column).data, 0)
        with pytest.raises(ValueError, match="n_shards"):
            ShardedColumnImprints(column, n_shards=0)


# ----------------------------------------------------------------------
# differential equivalence
# ----------------------------------------------------------------------
def drain_pages(index, predicate, limit):
    """Concatenate a full cursor walk of ``index.page``."""
    chunks, cursor = [], None
    while True:
        ids, cursor = index.page(predicate, limit, cursor)
        chunks.append(ids)
        if cursor is None:
            return np.concatenate(chunks)


def assert_same_surface(plain, sharded, predicates):
    """Every answer surface of the shard class equals the plain index's:
    ids and counters (single and batched), every aggregate op, grouped
    pushdown, top-k, and the shard-walk ``page``/``iter_chunks``."""
    for expected, got in zip(
        plain.query_batch(predicates), sharded.query_batch(predicates)
    ):
        assert_identical(expected, got)
    for predicate in predicates:
        expected = plain.query(predicate)
        assert_identical(expected, sharded.query(predicate))
        for op in AGGREGATE_OPS:
            assert sharded.aggregate(predicate, op) == plain.aggregate(
                predicate, op
            ), op
        for op in GROUP_OPS:
            assert sharded.aggregate_grouped(
                predicate, op, "g"
            ) == plain.aggregate_grouped(predicate, op, "g"), op
        assert sharded.top_k(predicate, 7) == plain.top_k(predicate, 7)
        assert np.array_equal(drain_pages(sharded, predicate, 97), expected.ids)
        chunks = list(sharded.iter_chunks(predicate, 97))
        assert all(chunk.shape[0] == 97 for chunk in chunks[:-1])
        streamed = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
        assert np.array_equal(streamed, expected.ids)


class TestShardEquivalence:
    @pytest.mark.parametrize("make", [make_random, make_clustered])
    @pytest.mark.parametrize("n_shards", [1, 3, 4])
    def test_query_matches_unsharded(self, make, n_shards):
        column = Column(make(7_321, np.int32, seed=11))  # ragged tail
        plain = ColumnImprints(column)
        rng = np.random.default_rng(11)
        sharded = ShardedColumnImprints(column, n_shards=n_shards)
        for predicate in predicates_for(column, rng):
            assert_identical(plain.query(predicate), sharded.query(predicate))

    def test_query_batch_matches_unsharded(self):
        column = Column(make_clustered(9_500, np.int32, seed=4))
        plain = ColumnImprints(column)
        rng = np.random.default_rng(4)
        predicates = predicates_for(column, rng, count=20)
        sharded = ShardedColumnImprints(column, n_shards=4)
        for expected, got in zip(
            plain.query_batch(predicates), sharded.query_batch(predicates)
        ):
            assert_identical(expected, got)
        assert sharded.query_batch([]) == []

    def test_candidate_ranges_match_unsharded(self):
        column = Column(make_clustered(8_000, np.int32, seed=8))
        plain = ColumnImprints(column)
        rng = np.random.default_rng(8)
        sharded = ShardedColumnImprints(column, n_shards=5)
        for predicate in predicates_for(column, rng):
            expected = plain.candidate_ranges(predicate)
            got = sharded.candidate_ranges(predicate)
            assert np.array_equal(expected.starts, got.starts)
            assert np.array_equal(expected.stops, got.stops)
            assert np.array_equal(expected.full, got.full)
            assert expected.stats == got.stats

    @settings(deadline=None, max_examples=20)
    @given(
        n=st.integers(500, 3_000),
        n_shards=st.integers(1, 8),
        seed=st.integers(0, 50),
        n_updates=st.integers(0, 12),
        n_appended=st.integers(0, 200),
    )
    def test_property_with_appends_and_overlays(
        self, n, n_shards, seed, n_updates, n_appended
    ):
        rng = np.random.default_rng(seed)
        column = Column(make_random(n, np.int32, seed=seed))
        codes = rng.integers(0, 3, n)
        plain = ColumnImprints(column)
        sharded = ShardedColumnImprints(column, n_shards=n_shards)
        probe = predicates_for(column, rng, count=1)[0]
        for index in (plain, sharded):
            index.attach_group_column("g", GroupColumn.from_codes(codes, 3))
            # Build the aggregate and grouped sidecars before mutating,
            # so their incremental maintenance is what gets compared.
            index.aggregate(probe, "sum")
            index.aggregate_grouped(probe, "sum", "g")
        # saturating in-place updates on both
        for value_id, new_value in zip(
            rng.integers(0, n, n_updates), rng.integers(0, 200_000, n_updates)
        ):
            plain.note_update(int(value_id), int(new_value))
            sharded.note_update(int(value_id), int(new_value))
        # streaming appends on both (ragged tails re-emitted); the
        # appended group codes may widen the group domain
        if n_appended:
            extra = rng.integers(0, 200_000, n_appended).astype(np.int32)
            extra_codes = rng.integers(0, 5, n_appended)
            for index in (plain, sharded):
                index.append(extra)
                index.append_group("g", codes=extra_codes)
        assert sharded.version == plain.version
        assert sharded.saturation == pytest.approx(plain.saturation)
        assert_same_surface(
            plain, sharded, predicates_for(sharded.column, rng, count=6)
        )

    def test_rebuild_resets_both_sides(self):
        column = Column(make_random(2_000, np.int32, seed=2))
        sharded = ShardedColumnImprints(column, n_shards=3)
        for value_id in range(0, 2_000, 50):
            sharded.note_update(value_id, 1)
        old_shards = sharded.shards
        sharded.rebuild(rng=np.random.default_rng(2))
        assert sharded.shards is not old_shards  # views re-sliced
        plain = ColumnImprints(sharded.column, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        for predicate in predicates_for(sharded.column, rng, count=5):
            assert np.array_equal(
                plain.query(predicate).ids, sharded.query(predicate).ids
            )

    def test_in_list_queries_work_on_sharded_index(self):
        from repro.core import query_in_list

        column = Column(make_random(4_000, np.int32, seed=12))
        members = [int(v) for v in column.values[:5]] + [-1]
        plain = ColumnImprints(column)
        sharded = ShardedColumnImprints(column, n_shards=3)
        plain.note_update(7, int(column.values[0]))
        sharded.note_update(7, int(column.values[0]))
        assert_identical(
            query_in_list(plain, members), query_in_list(sharded, members)
        )

    def test_delegated_metadata(self):
        column = Column(make_random(3_000, np.int32, seed=6), name="t.c")
        sharded = ShardedColumnImprints(column, n_shards=2)
        plain = ColumnImprints(column)
        assert sharded.nbytes == plain.nbytes
        assert sharded.bins == plain.bins
        assert sharded.histogram.bins == plain.histogram.bins
        assert not sharded.needs_rebuild
        assert sharded.kind == "imprints"
