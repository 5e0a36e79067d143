"""Cross-layer differential fuzzing — randomised programs vs a NumPy oracle.

Hypothesis generates little *programs* — build an index, then a random
interleaving of queries, paged reads, aggregates, appends and in-place
updates over random dtypes, shard counts and page sizes — and replays
each against every layer of the stack at once:

* a NumPy mirror of the column (the oracle: ``flatnonzero`` + reduce);
* the serial :class:`ColumnImprints` (forced ``.ids``, the lazy
  ``page``/``iter_chunks`` walks, aggregates);
* a :class:`ShardedColumnImprints` (lazy shard-order streaming);
* a :class:`QueryExecutor` (batched/coalesced/cached ``submit_paged``).

At every step the paged concatenations, the forced id arrays and the
oracle must agree bit-for-bit, and aggregates must match the NumPy
reduction — after any prefix of mutations.  Failures are reproducible:
examples shrink deterministically and ``print_blob`` emits the
``@reproduce_failure`` decorator to replay an exact failure locally.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, note, settings
from hypothesis import strategies as st

from repro.core import ColumnImprints
from repro.engine import QueryExecutor, ShardedColumnImprints
from repro.indexes import SequentialScan, WahBitmapIndex, ZoneMap
from repro.predicate import RangePredicate
from repro.storage import DOUBLE, INT, LONG, SHORT, Column

# Value domain shared by every dtype under test (fits SHORT).
_LOW, _HIGH = -6_000, 6_000

_CTYPES = {
    "short": (SHORT, np.int16),
    "int": (INT, np.int32),
    "long": (LONG, np.int64),
    "double": (DOUBLE, np.float64),
}

values_st = st.lists(
    st.integers(min_value=_LOW, max_value=_HIGH), min_size=1, max_size=120
)

# The group domain for GROUP BY steps.  Codes derive deterministically
# from the raw appended payload (not from the mutable column), so they
# stay stable across in-place value updates — exactly how a real group
# column behaves.
_GROUPS = 5


def _group_codes(raw) -> np.ndarray:
    return np.abs(np.asarray(raw, dtype=np.int64)) % _GROUPS


# One program step: (kind, payload...).  Bounds are drawn as raw values
# in the shared domain; ids are drawn as fractions of the current
# column length so they stay valid as the column grows.
step_st = st.one_of(
    st.tuples(
        st.just("query"),
        st.integers(_LOW, _HIGH),
        st.integers(_LOW, _HIGH),
        st.integers(1, 64),  # page size
    ),
    st.tuples(
        st.just("aggregate"),
        st.sampled_from(["count", "sum", "min", "max", "avg", "var", "std"]),
        st.integers(_LOW, _HIGH),
        st.integers(_LOW, _HIGH),
    ),
    st.tuples(
        st.just("grouped"),
        st.sampled_from(["count", "sum", "avg"]),
        st.integers(_LOW, _HIGH),
        st.integers(_LOW, _HIGH),
    ),
    st.tuples(
        st.just("topk"),
        st.integers(0, 200),
        st.integers(_LOW, _HIGH),
        st.integers(_LOW, _HIGH),
    ),
    st.tuples(st.just("append"), values_st),
    st.tuples(
        st.just("update"),
        st.floats(0.0, 1.0, allow_nan=False),  # position fraction
        st.integers(_LOW, _HIGH),
    ),
)


def _predicate(low, high, ctype) -> RangePredicate:
    low, high = sorted((low, high))
    return RangePredicate.range(low, max(high, low + 1), ctype)


def _drain_pages(page_fn, limit: int) -> np.ndarray:
    chunks, cursor = [], None
    while True:
        ids, cursor = page_fn(limit, cursor)
        chunks.append(ids)
        if cursor is None:
            break
    return np.concatenate(chunks)


def _check_query(mirror, serial, sharded, executor, pred, size) -> None:
    oracle = np.flatnonzero(pred.matches(mirror)).astype(np.int64)
    result = serial.query(pred)
    assert np.array_equal(result.ids, oracle), "serial forced ids"
    assert result.count() == oracle.shape[0]

    paged = _drain_pages(lambda k, c: serial.page(pred, k, c), size)
    assert np.array_equal(paged, oracle), "serial paged concatenation"

    result_paged = _drain_pages(serial.query(pred).page, size)
    assert np.array_equal(result_paged, oracle), "result paged concatenation"

    chunked = list(sharded.iter_chunks(pred, size))
    chunked = (
        np.concatenate(chunked) if chunked else np.empty(0, dtype=np.int64)
    )
    assert np.array_equal(chunked, oracle), "sharded chunk stream"

    sharded_paged = _drain_pages(lambda k, c: sharded.page(pred, k, c), size)
    assert np.array_equal(sharded_paged, oracle), "sharded paged concatenation"
    assert np.array_equal(sharded.query(pred).ids, oracle), "sharded forced ids"

    executor_paged = _drain_pages(
        lambda k, c: executor.query_paged("col", pred, k, c), size
    )
    assert np.array_equal(executor_paged, oracle), "executor paged concatenation"


def _oracle_moment(selected: np.ndarray, op: str):
    """Exact-sum NumPy reference for ``avg``/``var``/``std``."""
    if selected.size == 0:
        return None
    if selected.dtype.kind == "f":
        acc = selected.astype(np.float64)
        total, total_sq = float(np.sum(acc)), float(np.sum(acc * acc))
    else:
        total = int(np.sum(selected.astype(object)))
        total_sq = int(np.sum(selected.astype(object) ** 2))
    mean = total / selected.size
    if op == "avg":
        return float(mean)
    var = total_sq / selected.size - mean * mean
    var = var if var > 0.0 else 0.0
    return float(var) if op == "var" else float(np.sqrt(var))


def _check_aggregate(mirror, serial, sharded, executor, op, pred) -> None:
    oracle_ids = np.flatnonzero(pred.matches(mirror))
    selected = mirror[oracle_ids]
    for name, got in (
        ("serial", serial.aggregate(pred, op)),
        ("sharded", sharded.aggregate(pred, op)),
        ("executor", executor.aggregate("col", pred, op)),
    ):
        if op == "count":
            assert got == oracle_ids.shape[0], name
        elif op == "sum":
            # SUM of an empty selection is the identity (0), not None.
            if mirror.dtype.kind == "f":
                assert got == pytest.approx(float(np.sum(selected, dtype=np.float64)))
            else:
                assert got == int(np.sum(selected.astype(np.int64))), name
        elif op in ("avg", "var", "std"):
            want = _oracle_moment(selected, op)
            if want is None:
                assert got is None, name
            elif mirror.dtype.kind == "f":
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), name
            else:
                # Integer moments are bit-identical at every layer.
                assert got == want, (name, op)
        elif selected.size == 0:
            assert got is None, name
        else:
            reduced = np.min(selected) if op == "min" else np.max(selected)
            assert got == reduced, name


def _check_grouped(mirror, gcodes, serial, sharded, executor, op, pred) -> None:
    selection = pred.matches(mirror)
    want = {}
    for code in range(_GROUPS):
        member = selection & (gcodes == code)
        n = int(np.count_nonzero(member))
        if n == 0:
            continue  # present-groups-only: empty groups never appear
        if op == "count":
            want[code] = n
        else:
            selected = mirror[member]
            if op == "sum":
                want[code] = (
                    float(np.sum(selected, dtype=np.float64))
                    if mirror.dtype.kind == "f"
                    else int(np.sum(selected.astype(np.int64)))
                )
            else:
                want[code] = _oracle_moment(selected, "avg")
    for name, got in (
        ("serial", serial.aggregate_grouped(pred, op, "g")),
        ("sharded", sharded.aggregate_grouped(pred, op, "g")),
        ("executor", executor.aggregate_grouped("col", pred, op, "g")),
    ):
        assert set(got) == set(want), (name, op)
        for code, value in want.items():
            if mirror.dtype.kind == "f" and op != "count":
                assert got[code] == pytest.approx(value, rel=1e-9, abs=1e-9), (
                    name, op, code,
                )
            else:
                assert got[code] == value, (name, op, code)


def _check_topk(mirror, serial, sharded, executor, k, pred) -> None:
    selected = mirror[pred.matches(mirror)]
    want = [v.item() for v in np.sort(selected)[::-1][:k]] if k > 0 else []
    assert serial.top_k(pred, k) == want, "serial top-k"
    assert sharded.top_k(pred, k) == want, "sharded top-k"
    assert executor.top_k("col", pred, k) == want, "executor top-k"


@given(
    dtype=st.sampled_from(sorted(_CTYPES)),
    seed_values=st.lists(
        st.integers(_LOW, _HIGH), min_size=8, max_size=400
    ),
    n_shards=st.integers(1, 5),
    steps=st.lists(step_st, min_size=1, max_size=8),
)
@settings(
    max_examples=40,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_random_programs_agree_with_oracle(dtype, seed_values, n_shards, steps):
    ctype, np_dtype = _CTYPES[dtype]
    mirror = np.array(seed_values, dtype=np_dtype)
    gcodes = _group_codes(seed_values)
    serial = ColumnImprints(Column(mirror.copy(), ctype=ctype, name="fuzz"))
    sharded = ShardedColumnImprints(
        Column(mirror.copy(), ctype=ctype, name="fuzz.s"),
        n_shards=n_shards,
    )
    executor = QueryExecutor(
        {"col": ColumnImprints(Column(mirror.copy(), ctype=ctype, name="fuzz.e"))},
    )
    for index in (serial, sharded, executor.index("col")):
        index.attach_group_column("g", gcodes)
    try:
        for step in steps:
            note(f"step: {step}")
            kind = step[0]
            if kind == "query":
                _, low, high, size = step
                _check_query(
                    mirror,
                    serial,
                    sharded,
                    executor,
                    _predicate(low, high, ctype),
                    size,
                )
            elif kind == "aggregate":
                _, op, low, high = step
                _check_aggregate(
                    mirror,
                    serial,
                    sharded,
                    executor,
                    op,
                    _predicate(low, high, ctype),
                )
            elif kind == "grouped":
                _, op, low, high = step
                _check_grouped(
                    mirror,
                    gcodes,
                    serial,
                    sharded,
                    executor,
                    op,
                    _predicate(low, high, ctype),
                )
            elif kind == "topk":
                _, k, low, high = step
                _check_topk(
                    mirror,
                    serial,
                    sharded,
                    executor,
                    k,
                    _predicate(low, high, ctype),
                )
            elif kind == "append":
                _, raw = step
                fresh = np.array(raw, dtype=np_dtype)
                fresh_codes = _group_codes(raw)
                mirror = np.concatenate([mirror, fresh])
                gcodes = np.concatenate([gcodes, fresh_codes])
                for index in (serial, sharded, executor.index("col")):
                    index.append(fresh)
                    index.append_group("g", codes=fresh_codes)
            elif kind == "update":
                _, fraction, raw = step
                position = min(
                    int(fraction * mirror.shape[0]), mirror.shape[0] - 1
                )
                value = np_dtype(raw)
                mirror[position] = value
                for index in (serial, sharded, executor.index("col")):
                    index.note_update(position, value)
        # Every program ends with one full re-check so trailing
        # mutations are always exercised.
        _check_query(
            mirror,
            serial,
            sharded,
            executor,
            _predicate(_LOW, _HIGH, ctype),
            17,
        )
        _check_aggregate(
            mirror, serial, sharded, executor, "sum",
            _predicate(_LOW, _HIGH, ctype),
        )
        _check_aggregate(
            mirror, serial, sharded, executor, "var",
            _predicate(_LOW, _HIGH, ctype),
        )
        _check_grouped(
            mirror, gcodes, serial, sharded, executor, "avg",
            _predicate(_LOW, _HIGH, ctype),
        )
        _check_topk(
            mirror, serial, sharded, executor, 11,
            _predicate(_LOW, _HIGH, ctype),
        )
    finally:
        executor.close()


# ----------------------------------------------------------------------
# baseline-backend conformance — RowSet contract vs the imprints oracle
# ----------------------------------------------------------------------
_BACKENDS = {
    "zonemap": ZoneMap,
    "wah": WahBitmapIndex,
    "scan": SequentialScan,
}


@given(
    backend=st.sampled_from(sorted(_BACKENDS)),
    dtype=st.sampled_from(sorted(_CTYPES)),
    seed_values=st.lists(st.integers(_LOW, _HIGH), min_size=1, max_size=300),
    steps=st.lists(step_st, min_size=1, max_size=8),
)
@settings(
    max_examples=60,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_baseline_backends_conform_to_imprints(
    backend, dtype, seed_values, steps
):
    """Every baseline index is a drop-in RowSet-backed replacement.

    The same random program (queries, pages, aggregates, appends,
    updates) runs against a baseline backend and the serial imprints
    index; ids, ``count()``, paged concatenations and aggregates must
    agree bit-for-bit after any prefix of mutations — the property the
    planner relies on when it swaps access paths mid-stream.
    """
    ctype, np_dtype = _CTYPES[dtype]
    mirror = np.array(seed_values, dtype=np_dtype)
    oracle_index = ColumnImprints(Column(mirror.copy(), ctype=ctype, name="o"))
    baseline = _BACKENDS[backend](Column(mirror.copy(), ctype=ctype, name="b"))
    for index in (oracle_index, baseline):
        index.attach_group_column("g", _group_codes(seed_values))

    def check(pred: RangePredicate, size: int) -> None:
        expected = oracle_index.query(pred)
        got = baseline.query(pred)
        assert np.array_equal(got.ids, expected.ids), "forced ids"
        assert got.count() == expected.count(), "count()"
        assert got.version == baseline.version, "version stamp"
        paged = _drain_pages(baseline.query(pred).page, size)
        assert np.array_equal(paged, expected.ids), "paged concatenation"

    def check_aggregates(pred: RangePredicate) -> None:
        for op in ("count", "sum", "min", "max", "avg", "var", "std"):
            got = baseline.aggregate(pred, op)
            want = oracle_index.aggregate(pred, op)
            if (
                mirror.dtype.kind == "f"
                and op in ("sum", "avg", "var", "std")
                and want is not None
            ):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), op
            else:
                assert got == want, op

    def check_grouped_and_topk(pred: RangePredicate) -> None:
        for op in ("count", "sum", "avg"):
            got = baseline.aggregate_grouped(pred, op, "g")
            want = oracle_index.aggregate_grouped(pred, op, "g")
            if mirror.dtype.kind == "f" and op != "count":
                assert set(got) == set(want), op
                for code, value in want.items():
                    assert got[code] == pytest.approx(
                        value, rel=1e-9, abs=1e-9
                    ), (op, code)
            else:
                assert got == want, op
        for k in (0, 3, 10_000):
            assert baseline.top_k(pred, k) == oracle_index.top_k(pred, k), k

    for step in steps:
        note(f"step: {step}")
        kind = step[0]
        if kind == "query":
            _, low, high, size = step
            check(_predicate(low, high, ctype), size)
        elif kind == "aggregate":
            _, op, low, high = step
            pred = _predicate(low, high, ctype)
            got = baseline.aggregate(pred, op)
            want = oracle_index.aggregate(pred, op)
            if (
                mirror.dtype.kind == "f"
                and op in ("sum", "avg", "var", "std")
                and want is not None
            ):
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), op
            else:
                assert got == want, op
        elif kind == "grouped":
            _, op, low, high = step
            pred = _predicate(low, high, ctype)
            got = baseline.aggregate_grouped(pred, op, "g")
            want = oracle_index.aggregate_grouped(pred, op, "g")
            if mirror.dtype.kind == "f" and op != "count":
                assert set(got) == set(want), op
                for code, value in want.items():
                    assert got[code] == pytest.approx(
                        value, rel=1e-9, abs=1e-9
                    ), (op, code)
            else:
                assert got == want, op
        elif kind == "topk":
            _, k, low, high = step
            pred = _predicate(low, high, ctype)
            assert baseline.top_k(pred, k) == oracle_index.top_k(pred, k)
        elif kind == "append":
            _, raw = step
            fresh = np.array(raw, dtype=np_dtype)
            mirror = np.concatenate([mirror, fresh])
            oracle_index.append(fresh)
            baseline.append(fresh)
            fresh_codes = _group_codes(raw)
            oracle_index.append_group("g", codes=fresh_codes)
            baseline.append_group("g", codes=fresh_codes)
        elif kind == "update":
            _, fraction, raw = step
            position = min(int(fraction * mirror.shape[0]), mirror.shape[0] - 1)
            value = np_dtype(raw)
            mirror[position] = value
            oracle_index.note_update(position, value)
            baseline.note_update(position, value)
    check(_predicate(_LOW, _HIGH, ctype), 13)
    check_aggregates(_predicate(_LOW, _HIGH, ctype))
    check_grouped_and_topk(_predicate(_LOW, _HIGH, ctype))
