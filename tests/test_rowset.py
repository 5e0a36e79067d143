"""Lazy compressed result sets: RowSet algebra, QueryResult laziness,
cache accounting and the throughput regression gate.

The contract under test: every compressed-domain query path returns a
:class:`RowSet`-backed result whose O(ranges) ``count``/``contains``/
``intersect``/``union`` agree exactly with the eager id-array answers,
and whose forced ``.ids`` is bit-identical to what the eager paths
produce — across random predicates, appends and saturation overlays.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ColumnImprints, RowSet, conjunctive_query, disjunctive_query
from repro.core.query import query_scalar
from repro.engine import QueryExecutor
from repro.engine.cache import LRUCache
from repro.bench.regression import gate
from repro.index_base import QueryResult
from repro.predicate import RangePredicate
from repro.storage import Column, Table

from .conftest import make_clustered, make_random


# ----------------------------------------------------------------------
# RowSet algebra against a plain python-set reference
# ----------------------------------------------------------------------
id_sets = st.sets(st.integers(min_value=0, max_value=300), max_size=60)


def rowset_of(ids: set[int], rng_seed: int = 0) -> RowSet:
    """Random split of an id set into ranges + extras (both legal)."""
    sorted_ids = np.array(sorted(ids), dtype=np.int64)
    if rng_seed % 2:
        return RowSet.from_ids(sorted_ids)
    # Alternate representation: every id an extra (worst case split).
    return RowSet(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), sorted_ids
    )


class TestRowSetAlgebra:
    @given(ids=id_sets, form=st.integers(0, 1))
    @settings(max_examples=120, deadline=None)
    def test_round_trip_count_contains(self, ids, form):
        rowset = rowset_of(ids, form)
        rowset.validate()
        assert rowset.count() == len(ids)
        assert list(rowset.to_ids()) == sorted(ids)
        probe = list(ids)[:3] + [-1, 301, 77]
        for value in probe:
            assert rowset.contains(value) == (value in ids)

    @given(a=id_sets, b=id_sets, fa=st.integers(0, 1), fb=st.integers(0, 1))
    @settings(max_examples=120, deadline=None)
    def test_set_algebra_matches_reference(self, a, b, fa, fb):
        ra, rb = rowset_of(a, fa), rowset_of(b, fb)
        for op, reference in [
            ("intersect", a & b),
            ("union", a | b),
            ("difference", a - b),
        ]:
            combined = getattr(ra, op)(rb)
            combined.validate()
            assert list(combined.to_ids()) == sorted(reference), op
            assert combined.count() == len(reference), op

    def test_from_ids_compresses_runs(self):
        rowset = RowSet.from_ids(np.array([0, 1, 2, 3, 9, 10, 50], dtype=np.int64))
        assert rowset.n_ranges == 3
        assert rowset.count() == 7

    def test_nbytes_is_compact(self):
        dense = RowSet.from_ranges([0], [1_000_000], [])
        assert dense.count() == 1_000_000
        assert dense.nbytes == 16  # two int64 endpoints
        assert dense.to_ids().nbytes == 8_000_000


# ----------------------------------------------------------------------
# QueryResult laziness + agreement on a real index
# ----------------------------------------------------------------------
def build_exercised_index(n: int = 20_000, seed: int = 7):
    """A clustered index that has seen appends and saturating updates."""
    column = Column(make_clustered(n, np.int32, seed=seed), name="t.lazy")
    index = ColumnImprints(column)
    index.append(make_clustered(n // 4, np.int32, seed=seed + 1))
    rng = np.random.default_rng(seed)
    for value_id in rng.integers(0, len(index.column), 25):
        index.note_update(int(value_id), int(index.column.values[0]) + 500)
    return index


class TestLazyQueryResult:
    @pytest.fixture(scope="class")
    def index(self):
        return build_exercised_index()

    def predicates(self, index, count=40, seed=11):
        rng = np.random.default_rng(seed)
        values = index.column.values
        lo, hi = int(values.min()), int(values.max())
        for _ in range(count):
            a, b = sorted(rng.integers(lo, hi + 1, 2).tolist())
            yield RangePredicate.range(int(a), int(b) + 1, index.column.ctype)

    def test_results_are_lazy_until_forced(self, index):
        predicate = next(iter(self.predicates(index, count=1)))
        result = index.query(predicate)
        assert not result.is_materialized
        n = result.count()  # O(ranges) — must not force
        assert not result.is_materialized
        assert result.ids.shape[0] == n
        assert result.is_materialized

    def test_agreement_with_scalar_reference(self, index):
        for predicate in self.predicates(index, count=15):
            lazy = index.query(predicate)
            truth = np.flatnonzero(
                predicate.matches(index.column.values)
            ).astype(np.int64)
            assert lazy.count() == truth.shape[0]
            assert np.array_equal(lazy.ids, truth)
            assert lazy.ids.dtype == np.int64

    def test_count_contains_without_materialising(self, index):
        rng = np.random.default_rng(3)
        for predicate in self.predicates(index, count=10, seed=23):
            result = index.query(predicate)
            truth = set(
                np.flatnonzero(predicate.matches(index.column.values)).tolist()
            )
            assert result.count() == len(truth)
            for value_id in rng.integers(0, len(index.column), 20):
                assert result.contains(int(value_id)) == (
                    int(value_id) in truth
                )
            assert not result.is_materialized

    def test_intersect_union_match_eager(self, index):
        predicates = list(self.predicates(index, count=8, seed=31))
        for p, q in zip(predicates[::2], predicates[1::2]):
            a, b = index.query(p), index.query(q)
            both = a.intersect(b)
            either = a.union(b)
            assert np.array_equal(
                both.ids, np.intersect1d(a.ids, b.ids, assume_unique=True)
            )
            assert np.array_equal(either.ids, np.union1d(a.ids, b.ids))

    def test_index_count_api(self, index):
        predicate = next(iter(self.predicates(index, count=1, seed=5)))
        assert index.count(predicate) == index.query(predicate).ids.shape[0]

    def test_scalar_reference_still_eager(self, index):
        predicate = next(iter(self.predicates(index, count=1, seed=9)))
        # The overlay makes vectorized-vs-scalar comparison need a fresh
        # unmutated index; just check the eager form works.
        column = Column(make_random(4_096, np.int32, seed=2), name="t.e")
        eager_index = ColumnImprints(column)
        eager = query_scalar(
            eager_index.data, column.values,
            RangePredicate.range(100, 5_000, column.ctype),
        )
        assert eager.is_materialized
        assert eager.row_set.count() == eager.ids.shape[0]

    def test_table_reconstruct_accepts_lazy_forms(self, index):
        table = Table.from_arrays(
            "t", {"x": make_random(1_000, np.int32, seed=4)}
        )
        idx = ColumnImprints(table.column("x"))
        result = idx.query_range(0, 50_000)
        by_result = table.reconstruct(result)
        by_rowset = table.reconstruct(result.row_set)
        by_ids = table.reconstruct(result.ids)
        assert np.array_equal(by_result["x"], by_ids["x"])
        assert np.array_equal(by_rowset["x"], by_ids["x"])


class TestLazyCombinators:
    def test_conjunctive_and_disjunctive_stay_lazy(self):
        a = Column(make_clustered(12_000, np.int32, seed=1), name="t.a")
        b = Column(make_clustered(12_000, np.int32, seed=2), name="t.b")
        ia, ib = ColumnImprints(a), ColumnImprints(b)
        pa = RangePredicate.range(
            int(np.quantile(a.values, 0.2)),
            int(np.quantile(a.values, 0.8)),
            a.ctype,
        )
        pb = RangePredicate.range(
            int(np.quantile(b.values, 0.1)),
            int(np.quantile(b.values, 0.9)),
            b.ctype,
        )
        conj = conjunctive_query([ia, ib], [pa, pb])
        disj = disjunctive_query([ia, ib], [pa, pb])
        assert not conj.is_materialized
        assert not disj.is_materialized
        truth_and = np.flatnonzero(
            pa.matches(a.values) & pb.matches(b.values)
        ).astype(np.int64)
        truth_or = np.flatnonzero(
            pa.matches(a.values) | pb.matches(b.values)
        ).astype(np.int64)
        assert conj.count() == truth_and.shape[0]
        assert disj.count() == truth_or.shape[0]
        assert np.array_equal(conj.ids, truth_and)
        assert np.array_equal(disj.ids, truth_or)


# ----------------------------------------------------------------------
# cache accounting: eviction budgets use the compact RowSet.nbytes
# ----------------------------------------------------------------------
class TestCompactCacheAccounting:
    def test_executor_charges_rowset_bytes(self):
        column = Column(
            np.arange(200_000, dtype=np.int32), name="cache.compact"
        )
        index = ColumnImprints(column)
        with QueryExecutor(
            {"c": index}, cache_size=64, cache_bytes=64_000
        ) as executor:
            # ~50% selectivity: ids would be 100k * 8 B = 800 kB — far
            # over the byte budget — but the RowSet (range endpoints +
            # boundary-cacheline exceptions) fits with room to spare.
            predicate = executor.predicate("c", 0, 100_000)
            result = executor.query("c", predicate)
            assert not result.is_materialized
            assert result.nbytes <= 64_000 < result.count() * 8
            assert executor.cache.bytes == result.nbytes
            hit = executor.query("c", predicate)
            assert hit is result  # served from cache, still compact

    def test_lru_evicts_by_compact_weight(self):
        cache = LRUCache(capacity=16, max_bytes=100)
        dense = QueryResult(rowset=RowSet.from_ranges([0], [1_000_000], []))
        for key in range(6):  # 6 * 16 B = 96 B fits; the 7th evicts
            cache.put(key, dense, weight=dense.nbytes)
        assert len(cache) == 6
        cache.put("one more", dense, weight=dense.nbytes)
        assert len(cache) == 6
        assert cache.bytes <= 100

    def test_frozen_results_protect_shared_arrays(self):
        column = Column(np.arange(10_000, dtype=np.int32), name="cache.frozen")
        with QueryExecutor({"c": ColumnImprints(column)}) as ex:
            result = ex.query("c", ex.predicate("c", 10, 5_000))
            with pytest.raises(ValueError):
                result.row_set.starts[0] = 99
            with pytest.raises(ValueError):
                result.ids[0] = 99  # memoised ids frozen too


# ----------------------------------------------------------------------
# the throughput regression gate
# ----------------------------------------------------------------------
def gate_fixture(sharded=1.05, executor=3.5, verified=True, **config):
    return {
        "config": {
            "n_rows": 100, "n_queries": 10, "n_shards": 4,
            "cpu_count": 1, "smoke": False, **config,
        },
        "modes": {
            "serial": {"speedup_vs_serial": 1.0},
            "sharded": {"speedup_vs_serial": sharded},
            "executor": {"speedup_vs_serial": executor},
        },
        "verified_bit_identical": verified,
    }


class TestThroughputRegressionGate:
    def test_passes_identical_runs(self):
        fresh = gate_fixture()
        assert gate("throughput", fresh, gate_fixture()) == []

    def test_fails_on_sharded_slower_than_serial(self):
        failures = gate("throughput", gate_fixture(sharded=0.72))
        assert any("slower than serial" in f for f in failures)

    def test_fails_on_speedup_regression(self):
        failures = gate(
            "throughput",
            gate_fixture(executor=2.0), gate_fixture(executor=4.0)
        )
        assert any(
            "modes.executor.speedup_vs_serial regressed" in f for f in failures
        )

    def test_tolerates_within_band(self):
        failures = gate(
            "throughput",
            gate_fixture(executor=3.1), gate_fixture(executor=4.0)
        )
        assert failures == []

    def test_incomparable_configs_skip_speedup_check(self):
        baseline = gate_fixture(executor=9.0, n_rows=999)
        failures = gate("throughput", gate_fixture(), baseline)
        assert failures == []

    def test_cpu_count_mismatch_still_compares(self):
        # The committed baseline comes from the reference container; CI
        # runners have different core counts but the same workload.
        baseline = gate_fixture(executor=9.0, cpu_count=8)
        failures = gate("throughput", gate_fixture(), baseline)
        assert any(
            "modes.executor.speedup_vs_serial regressed" in f for f in failures
        )

    def test_smoke_runs_skip_wallclock_invariant(self):
        failures = gate("throughput", gate_fixture(sharded=0.5, smoke=True))
        assert failures == []

    def test_unverified_run_always_fails(self):
        failures = gate("throughput", gate_fixture(verified=False))
        assert any("bit-identical" in f for f in failures)
