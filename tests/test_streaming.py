"""The paging pipeline: lazy first pages, rank cursors, RowSet slices.

Contract under test, layer by layer:

* :meth:`RowSet.slice_rows` and :meth:`QueryResult.page` walks agree
  with NumPy slicing of the materialised id array — including empty
  sets, single-id ranges, oversized pages and extras interleaving
  with ranges in sorted order;
* :meth:`QueryResult.page` walks concatenate bit-identical to the
  forced ``.ids``, and a first page from :meth:`ColumnImprints.page`
  resumes them;
* page cursors are opaque, stable and *versioned*: a cursor taken
  before an ``append``/``note_update``/``rebuild`` raises a clear
  :class:`StaleCursorError` on every layer, never a silently stale
  page;
* :meth:`QueryResult.count` computes once (frozen ``.ids`` length when
  materialised, one range walk otherwise) — regression-pinned by call
  counts;
* ``page`` and ``first_page`` equal the full answer's count, first page
  and cursor token on every index kind, under appends, updates and
  deletes; the ``COUNT`` pushdown equals NumPy on both sides of its
  dense/sparse choice; and no served first page builds the answer.
"""

from __future__ import annotations

import asyncio
import base64

import numpy as np
import pytest
from hypothesis import given, settings
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
from repro.engine import MultiBackendIndex, QueryExecutor
from repro.index_base import QueryResult
from repro.predicate import RangePredicate
from repro.serving import ImprintService
from repro.storage import Column

from .conftest import make_clustered
from .oracle import (
    GROUP_BY,
    DeltaTarget,
    IndexTarget,
    MirrorColumn,
    program_settings,
    programs,
    run_program,
)
from .oracle import drain as page_walk

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
# RowSet slices and result pages vs NumPy slicing
# ----------------------------------------------------------------------
def pages_of(rowset: RowSet, size: int) -> list[np.ndarray]:
    """Every page of a rank-cursor walk over a RowSet-backed result."""
    return page_walk(QueryResult(rowset=rowset).page, size)


class TestRowSetStreaming:
    @given(ids=id_sets, form=st.integers(0, 2), size=st.integers(1, 37))
    @settings(max_examples=120, deadline=None)
    def test_page_walk_matches_numpy(self, ids, form, size):
        rowset = rowset_of(ids, form)
        reference = rowset.to_ids()
        pages = pages_of(rowset, size)
        assert all(p.shape[0] == size for p in pages[:-1])
        assert pages[-1].shape[0] <= size
        assert np.array_equal(np.concatenate(pages), reference)

    @given(
        ids=id_sets,
        form=st.integers(0, 2),
        lo=st.integers(0, 90),
        hi=st.integers(0, 90),
    )
    @settings(max_examples=120, deadline=None)
    def test_slice_rows_match_numpy(self, ids, form, lo, hi):
        rowset = rowset_of(ids, form)
        reference = rowset.to_ids()
        assert np.array_equal(
            rowset.slice_rows(lo, max(lo, hi)).to_ids(),
            reference[lo : max(lo, hi)],
        )
        assert np.array_equal(rowset.slice_rows(lo).to_ids(), reference[lo:])

    def test_empty_set_yields_nothing(self):
        empty = RowSet.empty()
        ids, cursor = QueryResult(rowset=empty).page(4)
        assert ids.shape == (0,) and cursor is None
        assert empty.slice_rows(3).count() == 0
        assert empty.slice_rows(0, 5).count() == 0

    def test_single_id_ranges(self):
        # Unit ranges (the worst-case compressed form) page like ids.
        starts = np.array([2, 5, 9], dtype=np.int64)
        rowset = RowSet(starts, starts + 1, np.empty(0, dtype=np.int64))
        assert [p.tolist() for p in pages_of(rowset, 2)] == [[2, 5], [9]]
        assert rowset.slice_rows(0, 2).to_ids().tolist() == [2, 5]

    def test_chunk_larger_than_answer(self):
        rowset = RowSet.from_ids(np.array([3, 4, 5], dtype=np.int64))
        ids, cursor = QueryResult(rowset=rowset).page(100)
        assert ids.tolist() == [3, 4, 5] and cursor is None

    def test_extras_interleave_with_ranges_sorted(self):
        # extras (1, 3) before, (12) between and (30) after the ranges
        # [5,10) and [20,25): pages must follow global sorted order.
        rowset = RowSet(
            np.array([5, 20], dtype=np.int64),
            np.array([10, 25], dtype=np.int64),
            np.array([1, 3, 12, 30], dtype=np.int64),
        )
        streamed = np.concatenate(pages_of(rowset, 4))
        assert streamed.tolist() == sorted(
            [1, 3, 12, 30] + list(range(5, 10)) + list(range(20, 25))
        )
        assert rowset.slice_rows(0, 3).to_ids().tolist() == [1, 3, 5]
        assert rowset.slice_rows(3, 5).to_ids().tolist() == [6, 7]

    def test_invalid_arguments(self):
        result = QueryResult(rowset=RowSet.from_ids(np.array([1, 2])))
        with pytest.raises(ValueError):
            result.page(0)
        with pytest.raises(ValueError):
            PageCursor(rank=-1)


# ----------------------------------------------------------------------
# cursors: opaque tokens, validation
# ----------------------------------------------------------------------
class TestPageCursor:
    def test_token_round_trip(self):
        cursor = PageCursor(rank=137, version=9)
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
        # A token of the earlier seven-field format (rank, segment,
        # offset, shard, version, kind) is malformed too.
        old_format = base64.urlsafe_b64encode(b"1:5:0:0:0:3:result").decode()
        for bad in ("", "notbase64!", "garbage!", "AAAA",
                    PageCursor(rank=1).encode()[:-4] + "AAAA", old_format):
            with pytest.raises(ValueError, match="malformed page cursor"):
                PageCursor.decode(bad)
        with pytest.raises(TypeError):
            PageCursor.parse(1234)

    def test_negative_fields_rejected(self):
        with pytest.raises(ValueError):
            PageCursor(rank=-1)


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
        # The lazy first page, then the rank cursor resumes the result.
        index = ColumnImprints(column)
        expected = index.query(predicate).ids
        first, cursor = index.page(predicate, limit)
        want, want_cursor = index.query(predicate).page(limit)
        assert np.array_equal(first, want)
        assert _token(cursor) == _token(want_cursor)
        pages = [first]
        while cursor is not None:
            ids, cursor = index.query(predicate).page(limit, cursor)
            pages.append(ids)
        assert np.array_equal(np.concatenate(pages), expected)

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
            index.query(predicate).page(10, cursor)
        assert "version" in str(excinfo.value)

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
            index.query(predicate).page(10, cursor)

    def test_cursor_survives_unrelated_queries(self, column, predicate):
        # Queries do not mutate: a cursor stays valid across them.
        index = ColumnImprints(Column(column.values.copy(), name="t.q"))
        first, cursor = index.page(predicate, 10)
        index.query(RangePredicate.range(0, 10, column.ctype))
        second, _ = index.query(predicate).page(10, cursor)
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
            # The first page is the index's lazy page, the second
            # evaluates the full answer once, and every later page is
            # served from the versioned LRU.
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
def _first_page_values(shape: str, n: int, seed: int = 3) -> np.ndarray:
    """One column of ``test_count_pushdown_matches_numpy_on_both_sides``:
    int32, or float64 for the shapes holding ±inf or NaN."""
    rng = np.random.default_rng(seed)
    if shape == "uniform":
        values = rng.integers(-5_000, 5_000, n)
    elif shape == "clustered":  # a random walk
        values = np.cumsum(rng.integers(-40, 41, n))
    elif shape == "sorted":
        values = np.sort(rng.integers(-5_000, 5_000, n))
    elif shape == "run":  # a constant run, a narrow block, uniform values
        quarter = n // 4
        values = np.concatenate(
            [
                np.full(quarter, -1),
                rng.integers(100, 1_900, quarter),
                rng.integers(-5_000, 5_000, n - 2 * quarter),
            ]
        )
    elif shape == "overlay":  # a constant below the predicates, then uniform
        values = np.concatenate(
            [np.full(n // 2, -1_000), rng.integers(0, 1_000, n - n // 2)]
        )
    elif shape == "inf":
        return np.array([1.0, 2.0, np.inf])
    elif shape == "nan-last":
        return np.append(np.arange(100.0), np.nan)
    else:  # "nan": every 97th value, so the binning sample holds NaN
        values = rng.normal(0.0, 100.0, n)
        values[::97] = np.nan
        return values
    return values.astype(np.int32)


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


def _side_case(
    shape, low, high, dense, *, n=40_000, limit=10, overlaid=123, name=None
):
    """One input of ``test_count_pushdown_matches_numpy_on_both_sides``;
    the default id is the one the first five cases have always had.
    ``limit`` may be ``"count"`` or ``"count-1"``; ``overlaid`` is the
    row updated to ``low`` (``None`` or past the end: no update)."""
    return pytest.param(
        shape,
        n,
        low,
        high,
        limit,
        dense,
        overlaid,
        id=name or f"{shape}-{low}-{high}-{dense}",
    )


class TestFirstPage:
    @program_settings
    @given(program=programs(dtypes=("int", "double"), max_rows=3_000))
    def test_first_page_equals_the_full_answers_page(self, program):
        """On imprints, planner-routed and delta-aware indexes, through
        appends, overlay updates and deletes: ``page`` and
        ``first_page`` equal the oracle's count and first page, and
        their cursors are the full answer's
        (:class:`tests.oracle.IndexTarget`)."""
        plain = [
            ColumnImprints(program.column("t.fp")),
            MultiBackendIndex.for_column(program.column("t.fpm")),
        ]
        targets = [
            IndexTarget(name, index)
            for name, index in zip(("imprints", "multi"), plain)
        ]
        run_program(program, program.plain_mirror(plain), targets, plain)
        delta = DeltaAwareImprints(program.column("t.fpd"))
        mirror = MirrorColumn(program.values)
        delta.attach_group_column(GROUP_BY, mirror.codes.copy())
        run_program(program, mirror, [DeltaTarget("delta", delta)], [delta])

    @pytest.mark.parametrize(
        "shape,n,low,high,limit,dense,overlaid",
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
            # 157 partial candidate ranges on a 400k-row random walk,
            # the page reaching deep into them.
            *(
                _side_case(
                    "clustered", -1_513, -1_510, False, n=400_000, limit=limit,
                    name=f"narrow-walk-limit-{limit}",
                )
                for limit in (100, "count", "count-1")
            ),
            # The first candidate range is a partial run of 10,000
            # values, none matching, so the first id lies behind it; at
            # FIRST_WINDOW = 4096 the page's third window starts inside
            # a full range.
            _side_case(
                "run", 0, 2_000, True, limit=3_000, overlaid=None,
                name="match-behind-a-run",
            ),
            # Line 7 is a candidate only through the saturation overlay.
            _side_case("overlay", 200, 600, True, name="overlay-widened-line"),
            # Binning drops NaN and pads above +inf.
            _side_case("inf", 1.5, np.inf, True, n=3, name="inf-in-sample"),
            _side_case("nan-last", 50.0, np.inf, True, n=101, name="nan-last"),
            _side_case("nan", -50.0, 50.0, True, name="nan-in-sample"),
            _side_case("nan", 0.0, np.inf, True, name="nan-in-sample-half-open"),
        ],
    )
    def test_count_pushdown_matches_numpy_on_both_sides(
        self, shape, n, low, high, limit, dense, overlaid
    ):
        """Count, ids, first page and lazy page equal NumPy, cursor
        tokens included, on both sides of the dense/sparse choice."""
        # Binned from the 40k-row column when empty, so an empty column
        # can be indexed too.
        histogram = binning(Column(_first_page_values(shape, n or 40_000)))
        values = _first_page_values(shape, n)
        index = ColumnImprints(Column(values, name="t.count"), histogram=histogram)
        if overlaid is not None and overlaid < n:
            # An overlaid line among the candidates.
            index.note_update(overlaid, 0 if low is None else low)
        predicate = (
            RangePredicate.everything()
            if low is None
            else RangePredicate.range(low, high, index.column.ctype)
        )
        assert _side(index, predicate) == ("dense" if dense else "sparse")
        matched = np.flatnonzero(predicate.matches(index.column.values))
        want = int(matched.shape[0])
        limit = {"count": want, "count-1": want - 1}.get(limit, limit)
        assert index.aggregate(predicate, "count") == want
        assert np.array_equal(index.query(predicate).ids, matched)
        want_ids, want_cursor = index.query(predicate).page(limit)
        assert np.array_equal(want_ids, matched[:limit])
        count, ids, cursor = index.first_page(predicate, limit)
        page_ids, page_cursor = index.page(predicate, limit)
        assert count == want
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(page_ids, want_ids)
        assert _token(cursor) == _token(page_cursor) == _token(want_cursor)

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
        values = _first_page_values("uniform", 40_000)
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

    @pytest.mark.parametrize(
        "read",
        ["executor /page", "service /page", "index page", "delta page",
         "delta first_page"],
    )
    def test_served_first_pages_build_no_answer(self, monkeypatch, read):
        values = _first_page_values("clustered", 40_000)
        index = ColumnImprints(Column(values, name="t.lazy"))
        delta = DeltaAwareImprints(Column(values, name="t.lazyd"))
        predicate = RangePredicate.range(-3_000, 3_000, index.column.ctype)
        assert _side(index, predicate) == "sparse"
        want_ids, want_cursor = index.query(predicate).page(100)
        count = index.count(predicate)

        def refuse(*args, **kwargs):
            raise AssertionError("a first page built the whole answer")

        for cls in (ColumnImprints, DeltaAwareImprints):
            monkeypatch.setattr(cls, "query", refuse)
        if read == "executor /page":
            with QueryExecutor({"c": index}) as executor:
                ids, cursor = executor.query_paged("c", predicate, 100)
        elif read == "service /page":

            async def serve():
                async with ImprintService(QueryExecutor({"c": index})) as service:
                    return await service.page("c", -3_000, 3_000, limit=100)

            body = asyncio.run(serve())
            ids, cursor = np.array(body["ids"]), body["cursor"]
            cursor = None if cursor is None else PageCursor.decode(cursor)
        elif read == "index page":
            ids, cursor = index.page(predicate, 100)
        elif read == "delta page":
            ids, cursor = delta.page(predicate, 100)
        else:
            got_count, ids, cursor = delta.first_page(predicate, 100)
            assert got_count == count
        assert np.array_equal(ids, want_ids)
        assert _token(cursor) == _token(want_cursor)
