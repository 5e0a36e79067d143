"""The streaming top-k pipeline: lazy pages, chunks and cursors.

Contract under test, layer by layer:

* :meth:`RowSet.slice_rows`/``first_k``/``skip``/``iter_chunks`` agree
  with NumPy slicing of the materialised id array — including empty
  sets, single-id ranges, oversized chunks and extras interleaving
  with ranges in sorted order;
* :meth:`QueryResult.page` and the index-level
  :meth:`ColumnImprints.page`/:meth:`ShardedColumnImprints.page` walks
  concatenate bit-identical to the forced ``.ids``;
* page cursors are opaque, stable and *versioned*: a cursor taken
  before an ``append``/``note_update``/``rebuild`` raises a clear
  :class:`StaleCursorError` on every layer, never a silently stale
  page;
* :meth:`QueryResult.count` computes once (frozen ``.ids`` length when
  materialised, one range walk otherwise) — regression-pinned by call
  counts;
* ``first_page`` equals the full answer's count, first page and cursor
  token on every index kind, under appends, updates and deletes, and
  the ``COUNT`` pushdown equals NumPy on both sides of its dense/sparse
  choice.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import (
    ColumnImprints,
    DeltaAwareImprints,
    PageCursor,
    RowSet,
    StaleCursorError,
)
from repro.core.binning import binning
from repro.core.query import dense_span_or_ranges
from repro.engine import MultiBackendIndex, QueryExecutor, ShardedColumnImprints
from repro.index_base import QueryResult
from repro.predicate import RangePredicate
from repro.storage import Column

from .conftest import make_clustered

id_sets = st.sets(st.integers(min_value=0, max_value=400), max_size=80)


def rowset_of(ids: set[int], form: int) -> RowSet:
    """An id set in one of its legal representations."""
    sorted_ids = np.array(sorted(ids), dtype=np.int64)
    if form == 0:
        return RowSet.from_ids(sorted_ids)  # maximal runs, no extras
    if form == 1:  # every id an extra
        empty = np.empty(0, dtype=np.int64)
        return RowSet(empty, empty, sorted_ids)
    # Mixed: even ids as unit ranges, odd ids as extras.
    evens = sorted_ids[sorted_ids % 2 == 0]
    return RowSet(evens, evens + 1, sorted_ids[sorted_ids % 2 == 1])


# ----------------------------------------------------------------------
# RowSet streaming primitives vs NumPy slicing
# ----------------------------------------------------------------------
class TestRowSetStreaming:
    @given(ids=id_sets, form=st.integers(0, 2), size=st.integers(1, 37))
    @settings(max_examples=120, deadline=None)
    def test_iter_chunks_matches_numpy(self, ids, form, size):
        rowset = rowset_of(ids, form)
        reference = rowset.to_ids()
        chunks = list(rowset.iter_chunks(size))
        assert all(c.shape[0] == size for c in chunks[:-1])
        if chunks:
            assert 1 <= chunks[-1].shape[0] <= size
            assert np.array_equal(np.concatenate(chunks), reference)
        else:
            assert reference.shape[0] == 0

    @given(
        ids=id_sets,
        form=st.integers(0, 2),
        lo=st.integers(0, 90),
        hi=st.integers(0, 90),
    )
    @settings(max_examples=120, deadline=None)
    def test_slice_first_k_skip_match_numpy(self, ids, form, lo, hi):
        rowset = rowset_of(ids, form)
        reference = rowset.to_ids()
        assert np.array_equal(
            rowset.slice_rows(lo, max(lo, hi)).to_ids(),
            reference[lo : max(lo, hi)],
        )
        assert np.array_equal(rowset.first_k(lo), reference[:lo])
        assert np.array_equal(rowset.skip(lo).to_ids(), reference[lo:])

    def test_empty_set_yields_nothing(self):
        empty = RowSet.empty()
        assert list(empty.iter_chunks(4)) == []
        assert empty.first_k(10).shape == (0,)
        assert empty.skip(3).count() == 0
        assert empty.slice_rows(0, 5).count() == 0

    def test_single_id_ranges(self):
        # Unit ranges (the worst-case compressed form) page like ids.
        starts = np.array([2, 5, 9], dtype=np.int64)
        rowset = RowSet(starts, starts + 1, np.empty(0, dtype=np.int64))
        assert [c.tolist() for c in rowset.iter_chunks(2)] == [[2, 5], [9]]
        assert rowset.first_k(2).tolist() == [2, 5]

    def test_chunk_larger_than_answer(self):
        rowset = RowSet.from_ids(np.array([3, 4, 5], dtype=np.int64))
        chunks = list(rowset.iter_chunks(100))
        assert len(chunks) == 1
        assert chunks[0].tolist() == [3, 4, 5]

    def test_extras_interleave_with_ranges_sorted(self):
        # extras (1, 3) before, (12) between and (30) after the ranges
        # [5,10) and [20,25): chunks must follow global sorted order.
        rowset = RowSet(
            np.array([5, 20], dtype=np.int64),
            np.array([10, 25], dtype=np.int64),
            np.array([1, 3, 12, 30], dtype=np.int64),
        )
        streamed = np.concatenate(list(rowset.iter_chunks(4)))
        assert streamed.tolist() == sorted(
            [1, 3, 12, 30] + list(range(5, 10)) + list(range(20, 25))
        )
        assert rowset.first_k(3).tolist() == [1, 3, 5]
        assert rowset.skip(3).first_k(2).tolist() == [6, 7]

    def test_invalid_arguments(self):
        rowset = RowSet.from_ids(np.array([1, 2], dtype=np.int64))
        with pytest.raises(ValueError):
            list(rowset.iter_chunks(0))
        with pytest.raises(ValueError):
            rowset.first_k(-1)
        with pytest.raises(ValueError):
            rowset.skip(-1)


# ----------------------------------------------------------------------
# cursors: opaque tokens, validation
# ----------------------------------------------------------------------
class TestPageCursor:
    def test_token_round_trip(self):
        cursor = PageCursor(
            rank=137, segment=4, offset=11, shard=2, version=9, kind="shard"
        )
        token = cursor.encode()
        assert isinstance(token, str)
        assert PageCursor.decode(token) == cursor
        assert PageCursor.parse(token) == cursor
        assert PageCursor.parse(cursor) is cursor

    def test_versionless_round_trip(self):
        cursor = PageCursor(rank=0)
        assert PageCursor.decode(cursor.encode()).version is None

    def test_malformed_tokens_rejected_uniformly(self):
        # Every corruption mode — bad base64, truncation, garbage —
        # surfaces the designed message, never an internal error.
        for bad in ("", "notbase64!", "garbage!", "AAAA",
                    PageCursor(rank=1).encode()[:-4] + "AAAA"):
            with pytest.raises(ValueError, match="malformed page cursor"):
                PageCursor.decode(bad)
        with pytest.raises(TypeError):
            PageCursor.parse(1234)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            PageCursor(rank=-1)

    def test_foreign_kind_rejected(self):
        cursor = PageCursor(rank=5, kind="index")
        with pytest.raises(ValueError, match="paging entry point"):
            cursor.check_kind("result")
        cursor.check_kind("index")  # own kind passes
        PageCursor(rank=5).check_kind("result")  # untagged passes


# ----------------------------------------------------------------------
# paging across the layers — bit-identical to forced ids
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def column():
    return Column(make_clustered(30_000, np.int32, seed=11), name="t.stream")


@pytest.fixture(scope="module")
def predicate(column):
    return RangePredicate.range(9_000, 11_500, column.ctype)


def drain(page_fn, limit):
    chunks, cursors, cursor = [], [], None
    while True:
        ids, cursor = page_fn(limit, cursor)
        chunks.append(ids)
        if cursor is None:
            break
        cursors.append(cursor)
    return np.concatenate(chunks), cursors


class TestPagedAnswers:
    @pytest.mark.parametrize("limit", [1, 97, 1_000, 10**6])
    def test_result_page_walk_matches_ids(self, column, predicate, limit):
        index = ColumnImprints(column)
        result = index.query(predicate)
        paged, cursors = drain(result.page, limit)
        assert np.array_equal(paged, result.ids)
        # Cursor tokens work the same as cursor objects.
        if cursors:
            chunk_obj, _ = result.page(limit, cursors[0])
            chunk_tok, _ = result.page(limit, cursors[0].encode())
            assert np.array_equal(chunk_obj, chunk_tok)

    @pytest.mark.parametrize("limit", [1, 97, 1_000])
    def test_index_page_walk_matches_ids(self, column, predicate, limit):
        index = ColumnImprints(column)
        expected = index.query(predicate).ids
        paged, _ = drain(
            lambda k, cur: index.page(predicate, k, cur), limit
        )
        assert np.array_equal(paged, expected)
        chunked = np.concatenate(list(index.iter_chunks(predicate, limit)))
        assert np.array_equal(chunked, expected)

    @pytest.mark.parametrize("n_shards", [1, 3, 5])
    def test_sharded_page_walk_matches_ids(self, column, predicate, n_shards):
        sharded = ShardedColumnImprints(column, n_shards=n_shards)
        expected = sharded.query(predicate).ids
        paged, _ = drain(lambda k, cur: sharded.page(predicate, k, cur), 113)
        assert np.array_equal(paged, expected)
        chunks = list(sharded.iter_chunks(predicate, 113))
        assert all(c.shape[0] == 113 for c in chunks[:-1])
        assert np.array_equal(np.concatenate(chunks), expected)

    def test_page_of_eager_result(self):
        ids = np.array([3, 7, 8, 20], dtype=np.int64)
        result = QueryResult(ids=ids)
        first, cursor = result.page(3)
        assert first.tolist() == [3, 7, 8]
        rest, end = result.page(3, cursor)
        assert rest.tolist() == [20] and end is None

    def test_empty_answer_pages_once(self, column):
        index = ColumnImprints(column)
        impossible = RangePredicate.range(10**8, 10**8 + 1, column.ctype)
        ids, cursor = index.page(impossible, 10)
        assert ids.shape == (0,) and cursor is None
        ids, cursor = index.query(impossible).page(10)
        assert ids.shape == (0,) and cursor is None

    def test_first_k_prefix(self, column, predicate):
        index = ColumnImprints(column)
        result = index.query(predicate)
        assert np.array_equal(result.first_k(50), result.ids[:50])

    def test_page_limit_validation(self, column, predicate):
        index = ColumnImprints(column)
        with pytest.raises(ValueError):
            index.page(predicate, 0)
        with pytest.raises(ValueError):
            index.query(predicate).page(-1)


# ----------------------------------------------------------------------
# cursor stability — stale cursors fail loudly on every layer
# ----------------------------------------------------------------------
def _mutations():
    return [
        ("append", lambda index: index.append(np.array([5], dtype=np.int32))),
        ("update", lambda index: index.note_update(0, 9_999)),
        ("rebuild", lambda index: index.rebuild()),
    ]


class TestCursorStability:
    @pytest.mark.parametrize("name,mutate", _mutations())
    def test_index_page_cursor_invalidates(self, column, predicate, name, mutate):
        index = ColumnImprints(Column(column.values.copy(), name="t.m"))
        _, cursor = index.page(predicate, 10)
        assert cursor is not None
        mutate(index)
        with pytest.raises(StaleCursorError) as excinfo:
            index.page(predicate, 10, cursor)
        assert "version" in str(excinfo.value)

    @pytest.mark.parametrize("name,mutate", _mutations())
    def test_sharded_page_cursor_invalidates(
        self, column, predicate, name, mutate
    ):
        sharded = ShardedColumnImprints(
            Column(column.values.copy(), name="t.s"), n_shards=3
        )
        _, cursor = sharded.page(predicate, 10)
        mutate(sharded)
        with pytest.raises(StaleCursorError):
            sharded.page(predicate, 10, cursor)

    @pytest.mark.parametrize("name,mutate", _mutations())
    def test_result_page_cursor_invalidates(
        self, column, predicate, name, mutate
    ):
        # A cursor from the pre-mutation answer must not page the
        # post-mutation answer, even though both are valid QueryResults.
        index = ColumnImprints(Column(column.values.copy(), name="t.r"))
        _, cursor = index.query(predicate).page(10)
        mutate(index)
        with pytest.raises(StaleCursorError):
            index.query(predicate).page(10, cursor)

    @pytest.mark.parametrize("name,mutate", _mutations())
    def test_executor_paged_cursor_invalidates(
        self, column, predicate, name, mutate
    ):
        index = ColumnImprints(Column(column.values.copy(), name="t.e"))
        with QueryExecutor({"col": index}) as executor:
            _, cursor = executor.query_paged("col", predicate, 10)
            mutate(index)
            with pytest.raises(StaleCursorError):
                executor.query_paged("col", predicate, 10, cursor)

    def test_note_delete_also_invalidates(self, column, predicate):
        index = ColumnImprints(Column(column.values.copy(), name="t.d"))
        _, cursor = index.page(predicate, 10)
        index.note_delete(0)
        with pytest.raises(StaleCursorError):
            index.page(predicate, 10, cursor)

    def test_cursors_are_not_interchangeable_across_entry_points(
        self, column, predicate
    ):
        # The position fields mean different things per entry point;
        # a foreign cursor must be rejected, not silently resumed.
        index = ColumnImprints(column)
        _, index_cursor = index.page(predicate, 10)
        _, result_cursor = index.query(predicate).page(10)
        with pytest.raises(ValueError, match="paging entry point"):
            index.query(predicate).page(10, index_cursor)
        with pytest.raises(ValueError, match="paging entry point"):
            index.page(predicate, 10, result_cursor)
        sharded = ShardedColumnImprints(column, n_shards=3)
        _, shard_cursor = sharded.page(predicate, 10)
        with pytest.raises(ValueError, match="paging entry point"):
            index.page(predicate, 10, shard_cursor)
        with pytest.raises(ValueError, match="paging entry point"):
            sharded.page(predicate, 10, index_cursor)

    def test_chunk_stream_detects_mid_iteration_mutation(self, column, predicate):
        # Generators are version-guarded like cursors: a mutation mid-
        # stream raises instead of silently mixing two snapshots.
        index = ColumnImprints(Column(column.values.copy(), name="t.g"))
        stream = index.iter_chunks(predicate, 50)
        next(stream)
        index.append(np.array([5], dtype=np.int32))
        with pytest.raises(StaleCursorError, match="chunk stream"):
            next(stream)

    def test_sharded_chunk_stream_detects_mid_iteration_mutation(
        self, column, predicate
    ):
        sharded = ShardedColumnImprints(
            Column(column.values.copy(), name="t.gs"), n_shards=3
        )
        stream = sharded.iter_chunks(predicate, 50)
        next(stream)
        sharded.note_update(0, 9_999)
        with pytest.raises(StaleCursorError, match="chunk stream"):
            next(stream)

    def test_cursor_survives_unrelated_queries(self, column, predicate):
        # Queries do not mutate: a cursor stays valid across them.
        index = ColumnImprints(Column(column.values.copy(), name="t.q"))
        first, cursor = index.page(predicate, 10)
        index.query(RangePredicate.range(0, 10, column.ctype))
        second, _ = index.page(predicate, 10, cursor)
        expected = index.query(predicate).ids
        assert np.array_equal(np.concatenate([first, second]), expected[:20])


# ----------------------------------------------------------------------
# executor: pages served from the versioned LRU, no kernel re-runs
# ----------------------------------------------------------------------
class TestExecutorPaged:
    def test_pages_come_from_cache(self, column, predicate):
        index = ColumnImprints(column)
        with QueryExecutor({"col": index}) as executor:
            paged, _ = drain(
                lambda k, cur: executor.query_paged("col", predicate, k, cur),
                101,
            )
            assert np.array_equal(paged, index.query(predicate).ids)
            # One kernel evaluation total: every page after the first
            # was served from the versioned LRU.
            assert executor.stats.batched_queries == 1
            assert executor.stats.cache_hits >= 1

    def test_limit_validation(self, column, predicate):
        with QueryExecutor({"col": ColumnImprints(column)}) as executor:
            with pytest.raises(ValueError):
                executor.submit_paged("col", predicate, 0)


# ----------------------------------------------------------------------
# the count() memo — regression pinned by call counts
# ----------------------------------------------------------------------
class TestCountMemo:
    def test_lazy_count_walks_ranges_once(self, monkeypatch):
        rowset = RowSet.from_ids(np.arange(100, dtype=np.int64))
        calls = {"count": 0}
        original = RowSet.count

        def counting(self):
            calls["count"] += 1
            return original(self)

        monkeypatch.setattr(RowSet, "count", counting)
        result = QueryResult(rowset=rowset)
        baseline = calls["count"]
        assert result.count() == 100
        assert result.count() == 100
        assert result.n_ids == 100
        assert calls["count"] == baseline + 1  # one walk, then the memo

    def test_materialised_count_reuses_frozen_ids(self, monkeypatch):
        rowset = RowSet.from_ids(np.arange(50, dtype=np.int64))
        calls = {"count": 0}
        original = RowSet.count

        def counting(self):
            calls["count"] += 1
            return original(self)

        monkeypatch.setattr(RowSet, "count", counting)
        result = QueryResult(rowset=rowset)
        _ = result.ids  # force + memoise the flat array
        baseline = calls["count"]
        assert result.count() == 50
        assert result.count() == 50
        # The frozen .ids length answers; no range walk at all.
        assert calls["count"] == baseline

    def test_count_consistent_across_materialisation(self, column, predicate):
        index = ColumnImprints(column)
        result = index.query(predicate)
        lazy_count = result.count()
        assert result.ids.shape[0] == lazy_count
        assert result.count() == lazy_count


# ----------------------------------------------------------------------
# first pages — one candidate pass, equal to the full answer's page
# ----------------------------------------------------------------------
def _first_page_values(shape: str, dtype, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        values = rng.integers(-5_000, 5_000, n)
    elif shape == "clustered":
        values = np.cumsum(rng.integers(-40, 41, n))
    else:
        values = np.sort(rng.integers(-5_000, 5_000, n))
    return values.astype(dtype)


def _first_page_index(kind: str, column: Column):
    if kind == "imprints":
        return ColumnImprints(column)
    if kind == "sharded":
        return ShardedColumnImprints(column, n_shards=3)
    if kind == "multi":
        return MultiBackendIndex.for_column(column)
    return DeltaAwareImprints(column)  # the base-class default


def _mutate(index, kind: str, where: float, value) -> None:
    delta = isinstance(index, DeltaAwareImprints)
    n = index.n_rows if delta else len(index.column)
    value_id = min(int(where * n), n - 1)
    if kind == "append":
        index.append(np.full(17, value, dtype=index.column.values.dtype))
    elif delta:
        if value_id in index.delta.deleted_ids:
            return  # a deleted row can be neither updated nor deleted
        if kind == "update":
            index.update(value_id, value)
        else:
            index.delete(value_id)
    elif kind == "update":
        index.note_update(value_id, value)  # saturates the overlay
    else:
        index.note_delete(value_id)


def _matching(index, predicate) -> int:
    """NumPy oracle: how many current rows satisfy the predicate."""
    if isinstance(index, DeltaAwareImprints):
        values = index.values_at(np.arange(index.n_rows))
        keep = np.ones(values.shape[0], dtype=bool)
        keep[index.delta.deleted_ids] = False
        return int(np.count_nonzero(predicate.matches(values) & keep))
    # Imprints ignore deletes: the answer keeps a deleted row's id.
    return int(np.count_nonzero(predicate.matches(index.column.values)))


def _token(cursor):
    return None if cursor is None else cursor.encode()


def _side(index, predicate) -> str | None:
    """The side of the dense/sparse decision ``first_page`` and
    ``aggregate(p, "count")`` take (``None``: no imprint decides)."""
    imprints = getattr(index, "primary", index)
    if not isinstance(imprints, ColumnImprints):
        return None
    span, _ = dense_span_or_ranges(
        imprints.data, predicate, imprints.overlay_state()
    )
    return "sparse" if span is None else "dense"


def _side_case(shape, low, high, dense, *, n=40_000, limit=10, name=None):
    """One input of ``test_count_pushdown_matches_numpy_on_both_sides``;
    the default id is the one the first five cases have always had."""
    return pytest.param(
        shape, n, low, high, limit, dense, id=name or f"{shape}-{low}-{high}-{dense}"
    )


mutation_st = st.tuples(
    st.sampled_from(["append", "update", "delete"]),
    st.floats(0.0, 1.0, allow_nan=False),
    st.integers(-6_000, 6_000),
)


class TestFirstPage:
    @given(
        kind=st.sampled_from(["imprints", "sharded", "multi", "delta"]),
        shape=st.sampled_from(["uniform", "clustered", "sorted"]),
        dtype=st.sampled_from([np.int32, np.float64]),
        n=st.integers(20, 3_000),
        seed=st.integers(0, 2**16),
        mutations=st.lists(mutation_st, max_size=6),
        bounds=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=4,
        ),
        small=st.integers(2, 40),
    )
    @settings(max_examples=80, deadline=None)
    def test_first_page_equals_the_full_answers_page(
        self, kind, shape, dtype, n, seed, mutations, bounds, small
    ):
        column = Column(_first_page_values(shape, dtype, n, seed), name="t.fp")
        index = _first_page_index(kind, column)
        for mutation, (q_lo, q_hi) in zip(
            [None, *mutations], bounds * (len(mutations) + 1)
        ):
            if mutation is not None:
                _mutate(index, *mutation)
            ordered = np.sort(index.column.values)
            low, high = sorted(
                (
                    ordered[min(int(q * ordered.shape[0]), ordered.shape[0] - 1)]
                    for q in (q_lo, q_hi)
                )
            )
            predicate = RangePredicate.range(low, high, index.column.ctype)
            result = index.query(predicate)
            count = _matching(index, predicate)
            assert result.count() == count
            assert index.aggregate(predicate, "count") == count
            side = _side(index, predicate)
            if side is not None:
                event(f"count {side}")
            for limit in (1, small, count + 1 + small):
                got_count, ids, cursor = index.first_page(predicate, limit)
                want_ids, want_cursor = result.page(limit)
                assert got_count == count
                assert np.array_equal(ids, want_ids)
                assert _token(cursor) == _token(want_cursor)

    @pytest.mark.parametrize(
        "shape,n,low,high,limit,dense",
        [
            _side_case("uniform", -2_000, 2_000, True),
            _side_case("uniform", -5_000, 4_999, False),
            _side_case("clustered", 50, 400, True),
            _side_case("clustered", -3_000, 3_000, False),
            _side_case("sorted", -1_000, 1_000, False),
            _side_case("uniform", -2_000, 2_000, False, n=0, name="empty-column"),
            _side_case("uniform", 7, 7, False, name="mask-zero"),
            _side_case("uniform", None, None, False, name="everything"),
            _side_case(
                "uniform", -2_000, 2_000, True, limit=40_000, name="limit-over-count"
            ),
        ],
    )
    def test_count_pushdown_matches_numpy_on_both_sides(
        self, shape, n, low, high, limit, dense
    ):
        # Binned from the 40k-row column, so an empty column can be
        # indexed too.
        histogram = binning(
            Column(_first_page_values(shape, np.int32, 40_000, seed=3))
        )
        values = _first_page_values(shape, np.int32, n, seed=3)
        index = ColumnImprints(Column(values, name="t.count"), histogram=histogram)
        if n:
            # An overlaid line among the candidates.
            index.note_update(123, 0 if low is None else low)
        predicate = (
            RangePredicate.everything()
            if low is None
            else RangePredicate.range(low, high, index.column.ctype)
        )
        assert _side(index, predicate) == ("dense" if dense else "sparse")
        want = int(np.count_nonzero(predicate.matches(index.column.values)))
        assert index.aggregate(predicate, "count") == want
        count, ids, cursor = index.first_page(predicate, limit)
        want_ids, want_cursor = index.query(predicate).page(limit)
        assert count == want
        assert np.array_equal(ids, want_ids)
        assert _token(cursor) == _token(want_cursor)

    def test_overlay_widens_the_dense_span(self):
        # The first half is a constant outside the predicate, so the
        # stored vectors put the dense span on the uniform second half
        # (a sorted column would take the sparse side instead).
        rng = np.random.default_rng(5)
        values = np.concatenate(
            [np.full(20_000, -1_000), rng.integers(0, 1_000, 20_000)]
        ).astype(np.int32)
        index = ColumnImprints(Column(values, name="t.overlay"))
        predicate = RangePredicate.range(200, 600, index.column.ctype)
        assert _side(index, predicate) == "dense"
        index.note_update(0, 300)  # only the overlay knows line 0 qualifies
        assert _side(index, predicate) == "dense"
        want = int(np.count_nonzero(predicate.matches(index.column.values)))
        count, ids, _ = index.first_page(predicate, 100)
        assert count == want
        assert index.aggregate(predicate, "count") == want
        assert index.count(predicate) == want
        assert ids[0] == 0
        assert np.array_equal(ids, index.query(predicate).page(100)[0])

    @pytest.mark.parametrize("call", ["first_page", "count"])
    def test_dense_side_builds_no_sidecar_and_no_ranges(self, monkeypatch, call):
        values = _first_page_values("uniform", np.int32, 40_000, seed=3)
        index = ColumnImprints(Column(values, name="t.fresh"))
        predicate = RangePredicate.range(-2_000, 2_000, index.column.ctype)
        assert _side(index, predicate) == "dense"

        def refuse(*args, **kwargs):
            raise AssertionError("the dense side built it")

        monkeypatch.setattr("repro.core.index.CachelineAggregates", refuse)
        monkeypatch.setattr(ColumnImprints, "candidate_ranges", refuse)
        want = int(np.count_nonzero(predicate.matches(values)))
        if call == "first_page":
            assert index.first_page(predicate, 100)[0] == want
        else:
            assert index.aggregate(predicate, "count") == want
