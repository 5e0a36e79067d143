"""One NumPy oracle and one program generator for the differential suites.

The paper answers a range predicate with exactly the ids a scan of the
column returns: Algorithm 3 weeds every false positive by value.  One
NumPy mirror of the column therefore referees every layer of the stack,
and one Hypothesis strategy writes the programs the layers replay:

* :class:`MirrorColumn` — the column, its group codes and its deletes in
  NumPy, answering every result type;
* :func:`programs` — a seed column, then queries, aggregates, GROUP BY,
  top-k, appends, updates and deletes, over per-dtype value domains
  that include the magnitudes where 64-bit lanes wrap;
* :func:`run_program` — the one step loop: each write goes to the mirror
  and to every index, each read is checked on every target.

The semantics are the documented ones (``repro.core.aggregates``):
integer ``SUM`` wraps in the 64-bit accumulator, as ``np.sum`` does,
grouped sums included; integer ``avg``/``var``/``std`` come from exact
Python-int totals through ``total_sq / n - mean * mean``, clamped at 0;
float sums and moments agree to :data:`FLOAT_TOLERANCE`; everything else
is exact.
"""

from __future__ import annotations

import math
from copy import deepcopy
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, note, settings
from hypothesis import strategies as st

from repro.core import AGGREGATE_OPS, GROUP_OPS, DeltaAwareImprints
from repro.predicate import RangePredicate
from repro.storage import DOUBLE, INT, LONG, SHORT, Column
from repro.storage.types import type_for_dtype

#: Program dtypes: name -> (column type, NumPy dtype).
DTYPES = {
    "short": (SHORT, np.int16),
    "int": (INT, np.int32),
    "long": (LONG, np.int64),
    "double": (DOUBLE, np.float64),
}

#: Every dtype draws values in ``[-SMALL, SMALL]``.
SMALL = 6_000

#: Where a dtype's 64-bit lanes wrap: the squares of two int32 values
#: near 2**31, the plain sum of two int64 values near 2**62.
WIDE = {"int": 2**31, "long": 2**62}

#: Group domain of the ``GROUP_BY`` column every program attaches.
N_GROUPS = 5
GROUP_BY = "g"

#: Examples each program test runs in tier-1.
PROGRAM_EXAMPLES = 40

#: The Hypothesis profile (registered in ``tests/conftest.py``) that runs
#: every program test ten times deeper:
#: ``pytest --hypothesis-profile=programs-deep``.
DEEP_PROFILE = "programs-deep"

#: (rel, abs) tolerance of a float column's results per op; integer
#: columns compare exactly, moments included.
FLOAT_TOLERANCE = {
    "sum": (1e-9, 1e-12),
    "avg": (1e-9, 1e-9),
    "var": (1e-9, 1e-9),
    "std": (1e-9, 1e-9),
}

#: A read the target refused in a way its case allows (say a 503 under
#: chaos, or GROUP BY on an index without the group column): nothing to
#: compare.
REFUSED = object()


def budget_settings(examples: int, **kwargs) -> settings:
    """Settings of a property test that runs ``examples`` examples in
    tier-1 and ten times as many under :data:`DEEP_PROFILE`.

    Applied when the test module is collected, after pytest loaded the
    Hypothesis profile, so the deep budget reaches it.
    """
    deep = settings.get_current_profile_name() == DEEP_PROFILE
    return settings(
        max_examples=10 * examples if deep else examples,
        deadline=None,
        print_blob=True,
        **kwargs,
    )


def program_settings(test):
    """The one settings object of every program test."""
    return budget_settings(
        PROGRAM_EXAMPLES,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )(test)


# ----------------------------------------------------------------------
# the semantics
# ----------------------------------------------------------------------
def reduce(selected: np.ndarray, op: str):
    """Aggregate ``op`` of the selected values, as documented."""
    if op == "count":
        return int(selected.shape[0])
    floating = selected.dtype.kind == "f"
    if op == "sum":
        if floating:
            return float(np.sum(selected, dtype=np.float64))
        return int(np.sum(selected, dtype=np.int64))
    if selected.shape[0] == 0:
        return None
    if op in ("min", "max"):
        return (selected.min() if op == "min" else selected.max()).item()
    if floating:
        acc = selected.astype(np.float64)
        total, total_sq = float(np.sum(acc)), float(np.sum(acc * acc))
    else:
        items = selected.tolist()
        total, total_sq = sum(items), sum(v * v for v in items)
    mean = total / selected.shape[0]
    if op == "avg":
        return float(mean)
    var = total_sq / selected.shape[0] - mean * mean
    var = var if var > 0.0 else 0.0
    return float(var) if op == "var" else math.sqrt(var)


def assert_agrees(got, want, op: str, label, tolerance=None) -> None:
    """``got`` equals the oracle's ``want``: to ``tolerance[op]`` when
    the column is float and the op has one, exactly otherwise."""
    if tolerance and op in tolerance and want is not None:
        rel, abs_ = tolerance[op]
        assert got == pytest.approx(want, rel=rel, abs=abs_), (label, op, got, want)
    else:
        assert got == want, (label, op, got, want)


def group_codes(values) -> np.ndarray:
    """Codes derived from the written values themselves, so they stay
    put when a value is later updated in place, as a real group column
    does."""
    return np.array(
        [abs(int(v)) % N_GROUPS for v in np.asarray(values).tolist()], dtype=np.int64
    )


class MirrorColumn:
    """A NumPy mirror of one column and its group codes.

    ``hide_deleted`` says what a delete means to the targets: stores
    and delta-aware indexes drop the row from every answer, while plain
    indexes (``note_delete``) keep answering it and only bump their
    version, which :func:`run_program` checks.  Ids are positions in
    the current id space; :meth:`checkpoint` compacts deleted rows away
    the way ``DurableStore.checkpoint`` and a delta consolidation do.
    """

    def __init__(self, values, *, codes=None, hide_deleted: bool = True) -> None:
        self.values = np.array(values)
        self.codes = group_codes(self.values) if codes is None else np.array(codes)
        self.live = np.ones(self.values.shape[0], dtype=bool)
        self.hide_deleted = hide_deleted
        self.ctype = type_for_dtype(self.values.dtype)

    @property
    def tolerance(self):
        """What :func:`assert_agrees` allows this column's results."""
        return FLOAT_TOLERANCE if self.values.dtype.kind == "f" else None

    @property
    def logical(self) -> np.ndarray:
        """The live rows' values: what a materialised store holds."""
        return self.values[self.live]

    @classmethod
    def states(cls, base, schedule) -> list["MirrorColumn"]:
        """The mirror after each prefix of a fixed schedule:
        ``states[k]`` has applied the first ``k`` entries.

        Entries are ``("append", values)``, ``("update", (row, value))``,
        ``("delete", row)`` and ``("checkpoint", None)``; rows address
        the id space of the moment, so after a checkpoint they count the
        compacted rows.
        """
        mirror = cls(base)
        out = [deepcopy(mirror)]
        for kind, payload in schedule:
            if kind == "append":
                mirror.append(payload)
            elif kind == "update":
                mirror.update(*payload)
            elif kind == "delete":
                mirror.delete(payload)
            else:
                mirror.checkpoint()
            out.append(deepcopy(mirror))
        return out

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def append(self, values):
        """Append rows; returns the typed values and their group codes."""
        fresh = np.asarray(values, dtype=self.values.dtype)
        codes = group_codes(fresh)
        self.values = np.concatenate([self.values, fresh])
        self.codes = np.concatenate([self.codes, codes])
        self.live = np.concatenate([self.live, np.ones(fresh.shape[0], dtype=bool)])
        return fresh, codes

    def row(self, fraction: float) -> int:
        """The live row ``fraction`` of the way through the live rows."""
        rows = np.flatnonzero(self.live)
        return int(rows[min(int(fraction * rows.shape[0]), rows.shape[0] - 1)])

    def update(self, row: int, value):
        """Overwrite one row; returns the value as the column stores it."""
        self.values[row] = value
        return self.values[row]

    def delete(self, row: int) -> None:
        if self.hide_deleted:
            self.live[row] = False

    def checkpoint(self) -> None:
        self.values = self.values[self.live]
        self.codes = self.codes[self.live]
        self.live = np.ones(self.values.shape[0], dtype=bool)

    # ------------------------------------------------------------------
    # answers
    # ------------------------------------------------------------------
    def predicate(self, low, high) -> RangePredicate:
        """The non-empty range between two drawn bounds."""
        low, high = sorted((low, high))
        return RangePredicate.range(low, max(high, low + 1), self.ctype)

    def mask(self, predicate: RangePredicate) -> np.ndarray:
        return predicate.matches(self.values) & self.live

    def ids(self, predicate: RangePredicate) -> np.ndarray:
        return np.flatnonzero(self.mask(predicate)).astype(np.int64)

    def count(self, predicate: RangePredicate) -> int:
        return int(np.count_nonzero(self.mask(predicate)))

    def selected(self, predicate: RangePredicate) -> np.ndarray:
        return self.values[self.mask(predicate)]

    def pages(self, predicate: RangePredicate, limit: int) -> list[np.ndarray]:
        """The rank-cursor page walk: ``limit`` ids a page, the last one
        short; an empty answer is one empty page."""
        ids = self.ids(predicate)
        return [ids[at : at + limit] for at in range(0, max(ids.shape[0], 1), limit)]

    def first_page(self, predicate: RangePredicate, limit: int):
        """``(count, first ids, whether a cursor follows)``."""
        ids = self.ids(predicate)
        return ids.shape[0], ids[:limit], limit < ids.shape[0]

    def aggregate(self, predicate: RangePredicate, op: str):
        return reduce(self.selected(predicate), op)

    def grouped(self, predicate: RangePredicate, op: str) -> dict:
        """``{code: value}`` over the groups present in the answer."""
        mask = self.mask(predicate)
        return {
            int(code): reduce(self.values[mask & (self.codes == code)], op)
            for code in np.unique(self.codes[mask])
        }

    def top_k(self, predicate: RangePredicate, k: int) -> list:
        if k <= 0:
            return []
        return [v.item() for v in np.sort(self.selected(predicate))[::-1][:k]]


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
def domain(dtype: str):
    """Values of one program dtype: small ones, and wide ones where the
    dtype's 64-bit lanes wrap."""
    small = st.integers(-SMALL, SMALL)
    top = WIDE.get(dtype)
    if top is None:
        return small
    wide = st.integers(top - 2**20, top - 1)
    return st.one_of(small, wide, wide.map(lambda v: -v))


@dataclass
class Program:
    dtype: str
    values: np.ndarray
    steps: list

    def column(self, name: str) -> Column:
        """A fresh column holding the seed values."""
        return Column(self.values.copy(), ctype=DTYPES[self.dtype][0], name=name)

    def plain_mirror(self, indexes) -> "MirrorColumn":
        """The mirror for plain indexes (a delete keeps the row), with
        the group column attached to each of ``indexes``."""
        mirror = MirrorColumn(self.values, hide_deleted=False)
        for index in indexes:
            index.attach_group_column(GROUP_BY, mirror.codes.copy())
        return mirror


def generated_column(dtype: str, shape: str, n: int, seed: int) -> np.ndarray:
    """A seed column too long to draw value by value: ``uniform``,
    ``clustered`` (a random walk) or ``sorted`` small values, about one
    in twenty swapped for a wide one where the dtype has them."""
    rng = np.random.default_rng(seed)
    if shape == "clustered":
        values = np.clip(np.cumsum(rng.integers(-40, 41, n)), -SMALL, SMALL)
    else:
        values = rng.integers(-SMALL, SMALL + 1, n)
    top = WIDE.get(dtype)
    if top is not None:
        wide = rng.random(n) < 0.05
        spread = rng.integers(1, 2**20, n)
        values = np.where(wide, np.where(values < 0, spread - top, top - spread), values)
    if shape == "sorted":
        values = np.sort(values)
    return values.astype(DTYPES[dtype][1])


@st.composite
def programs(draw, dtypes=tuple(DTYPES), max_rows=2_000, max_append=120):
    """One random program: a dtype, a seed column and 1-8 steps.

    The seed column is a short drawn list (shrinks value by value) or a
    :func:`generated_column` of up to ``max_rows`` rows.  Query steps
    carry a page size, aggregate and GROUP BY steps an op, top-k steps
    a k; updates and deletes pick their row as a fraction of the live
    rows, so they stay valid as the column changes.
    """
    dtype = draw(st.sampled_from(sorted(dtypes)))
    np_dtype = DTYPES[dtype][1]
    value = domain(dtype)
    drawn = st.lists(value, min_size=1, max_size=40).map(partial(np.array, dtype=np_dtype))
    generated = st.builds(
        generated_column,
        st.just(dtype),
        st.sampled_from(["uniform", "clustered", "sorted"]),
        st.integers(1, max_rows),
        st.integers(0, 2**16),
    )
    values = draw(st.one_of(drawn, generated))
    fraction = st.floats(0.0, 1.0, allow_nan=False)
    step = st.one_of(
        st.tuples(st.just("query"), value, value, st.integers(1, 64)),
        st.tuples(st.just("aggregate"), value, value, st.sampled_from(AGGREGATE_OPS)),
        st.tuples(st.just("grouped"), value, value, st.sampled_from(GROUP_OPS)),
        st.tuples(st.just("top_k"), value, value, st.integers(0, 200)),
        st.tuples(st.just("append"), st.lists(value, min_size=1, max_size=max_append)),
        st.tuples(st.just("update"), fraction, value),
        st.tuples(st.just("delete"), fraction),
    )
    return Program(dtype, values, draw(st.lists(step, min_size=1, max_size=8)))


# ----------------------------------------------------------------------
# targets: one system under test each, read the way it is read
# ----------------------------------------------------------------------
def drain(page, limit: int) -> list[np.ndarray]:
    """Every page of a cursor walk: ``page(limit, cursor)`` to the end."""
    pages, cursor = [], None
    while True:
        ids, cursor = page(limit, cursor)
        pages.append(ids)
        if cursor is None:
            return pages


def _token(cursor):
    return None if cursor is None else cursor.encode()


class IndexTarget:
    """An index read directly: forced ids, every page walk and chunk
    stream it offers, counts, first pages, aggregates, GROUP BY, top-k.

    An id answer is an array (compared whole) or a list of pages (a
    rank-cursor walk, compared page by page).
    """

    def __init__(self, name: str, index) -> None:
        self.name = name
        self.index = index

    def answers(self, predicate, size):
        result = self.index.query(predicate)
        assert result.version == self.index.version, f"{self.name}: version stamp"
        yield "forced ids", result.ids
        yield "result pages", drain(self.index.query(predicate).page, size)
        if hasattr(self.index, "page"):
            yield "index pages", np.concatenate(drain(partial(self.index.page, predicate), size))
        if hasattr(self.index, "iter_chunks"):
            chunks = list(self.index.iter_chunks(predicate, size))
            yield "chunk stream", np.concatenate([np.empty(0, np.int64), *chunks])

    def counts(self, predicate):
        yield "count()", self.index.query(predicate).count()
        yield "count pushdown", self.index.aggregate(predicate, "count")

    def first_page(self, predicate, limit):
        count, ids, cursor = self.index.first_page(predicate, limit)
        _, full = self.index.query(predicate).page(limit)
        assert _token(cursor) == _token(full), f"{self.name}: first-page cursor"
        return count, ids, cursor is not None

    def aggregate(self, predicate, op):
        return self.index.aggregate(predicate, op)

    def grouped(self, predicate, op):
        return self.index.aggregate_grouped(predicate, op, GROUP_BY)

    def top_k(self, predicate, k):
        return self.index.top_k(predicate, k)


class DeltaTarget(IndexTarget):
    """A delta-aware index.  Recovered and follower stores carry no
    group column, so GROUP BY is read where one is attached."""

    def grouped(self, predicate, op):
        if GROUP_BY not in self.index.group_column_names:
            return REFUSED
        return super().grouped(predicate, op)


class ExecutorTarget:
    """A column read through a :class:`QueryExecutor`: batched ids,
    cached rank-cursor walks, first pages, aggregates, GROUP BY, top-k."""

    def __init__(self, name: str, executor, column: str) -> None:
        self.name = name
        self.executor = executor
        self.column = column

    def answers(self, predicate, size):
        yield "batched ids", self.executor.query(self.column, predicate).ids
        yield "paged", drain(partial(self.executor.query_paged, self.column, predicate), size)

    def counts(self, predicate):
        yield "count pushdown", self.executor.aggregate(self.column, predicate, "count")

    def first_page(self, predicate, limit):
        count, ids, cursor = self.executor.submit_aggregate(
            self.column, predicate, limit=limit
        ).result()
        return count, ids, cursor is not None

    def aggregate(self, predicate, op):
        return self.executor.aggregate(self.column, predicate, op)

    def grouped(self, predicate, op):
        return self.executor.aggregate_grouped(self.column, predicate, op, GROUP_BY)

    def top_k(self, predicate, k):
        return self.executor.top_k(self.column, predicate, k)


class ForcedPlan:
    """One backend of a :class:`MultiBackendIndex`, forced: its ids and
    counts (aggregates always ride the primary)."""

    def __init__(self, multi, backend: str) -> None:
        self.name = f"forced {backend}"
        self.query = partial(multi.query, backend=backend)

    def answers(self, predicate, size):
        yield "forced ids", self.query(predicate).ids
        yield "result pages", drain(self.query(predicate).page, size)

    def counts(self, predicate):
        yield "count()", self.query(predicate).count()


# ----------------------------------------------------------------------
# the one step loop
# ----------------------------------------------------------------------
def _write(mirror, indexes, step) -> None:
    """Resolve one write against the mirror, then apply it to each index
    the way that index takes writes."""
    kind = step[0]
    if kind == "append":
        values, codes = mirror.append(step[1])
    elif kind == "delete" and mirror.live.sum() < 2:
        return  # every program keeps a live row
    else:
        row = mirror.row(step[1])
        if kind == "update":
            value = mirror.update(row, step[2])
        else:
            mirror.delete(row)
    before = [(index.version, getattr(index, "consolidations", 0)) for index in indexes]
    for index in indexes:
        if kind == "append":
            index.append(values)
            if GROUP_BY in index.group_column_names:
                index.append_group(GROUP_BY, codes=codes)
        elif kind == "update":
            if isinstance(index, DeltaAwareImprints):
                index.update(row, value)
            else:
                index.note_update(row, value)
        elif isinstance(index, DeltaAwareImprints):
            index.delete(row)
        else:
            index.note_delete(row)
    for index, (version, consolidations) in zip(indexes, before):
        assert index.version != version, f"{index!r}: a {kind} must bump the version"
        if getattr(index, "consolidations", 0) != consolidations:
            mirror.checkpoint()


#: A cursor walk takes at most this many pages: long columns page
#: coarser than the step's page size, so a walk stays cheap to replay.
WALK_PAGES = 64


def check(mirror, targets, kind: str, predicate, arg) -> None:
    """Check one read on every target that offers it."""
    if kind == "query":
        ids = mirror.ids(predicate)
        size = max(arg, -(-mirror.values.shape[0] // WALK_PAGES))
        pages = mirror.pages(predicate, size)
        for target in targets:
            for label, got in target.answers(predicate, size):
                label = (target.name, label)
                if isinstance(got, list):
                    assert len(got) == len(pages), label
                    for page, want in zip(got, pages):
                        assert np.array_equal(page, want), label
                else:
                    assert np.array_equal(got, ids), label
            for label, got in target.counts(predicate):
                assert got == ids.shape[0], (target.name, label)
            first_page = getattr(target, "first_page", None)
            for limit in (1, arg, ids.shape[0] + arg + 1) if first_page else ():
                got = first_page(predicate, limit)
                if got is REFUSED:
                    continue
                count, first, more = mirror.first_page(predicate, limit)
                assert got[0] == count and got[2] == more, (target.name, limit)
                assert np.array_equal(got[1], first), (target.name, limit)
        return
    for target in targets:
        read = getattr(target, kind, None)
        if read is None:
            continue
        got = read(predicate, arg)
        if got is REFUSED:
            continue
        if kind == "aggregate":
            want = mirror.aggregate(predicate, arg)
            assert_agrees(got, want, arg, target.name, mirror.tolerance)
        elif kind == "grouped":
            want = mirror.grouped(predicate, arg)
            assert set(got) == set(want), (target.name, arg, got, want)
            for key, value in want.items():
                assert_agrees(got[key], value, arg, (target.name, key), mirror.tolerance)
        else:
            assert got == mirror.top_k(predicate, arg), (target.name, arg)


#: The reads every program ends with, over the whole column, so
#: trailing writes are always read back (:func:`check_all`).
FINAL_READS = (
    ("query", 13),
    *(("aggregate", op) for op in AGGREGATE_OPS),
    *(("grouped", op) for op in GROUP_OPS),
    *(("top_k", k) for k in (0, 3, 11, 10_000)),
)


def check_all(mirror, targets, predicate=RangePredicate.everything()) -> None:
    """Every read once over ``predicate``: how each program ends, and
    what a recovered or follower store must answer."""
    for kind, arg in FINAL_READS:
        check(mirror, targets, kind, predicate, arg)


def run_program(program: Program, mirror: MirrorColumn, targets, indexes) -> None:
    """Replay ``program`` on the mirror and check every target.

    Each write is resolved once against the mirror, then applied to each
    of ``indexes`` (several targets may read one index); every index
    must bump its version, and a delta consolidation compacts the
    mirror.  Each read is checked on every target that offers it.
    """
    for step in program.steps:
        note(f"step: {step}")
        kind = step[0]
        if kind in ("append", "update", "delete"):
            _write(mirror, indexes, step)
        else:
            _, low, high, arg = step
            check(mirror, targets, kind, mirror.predicate(low, high), arg)
    check_all(mirror, targets)
