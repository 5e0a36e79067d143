"""Directed tests for the dashboard lanes: GROUP BY, top-k, the study.

The fuzz differential (``test_fuzz_differential.py``) exercises the
grouped/moment/top-k surface against the NumPy oracle
(``tests/oracle.py``) under random programs; this file pins the
directed contracts — sidecar prefix tables, append/update maintenance,
domain widening across layers, label rendering, pruning, the
smoke-size study, and the dashboard gate row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ColumnImprints, GroupedAggregates, finalize_grouped
from repro.core.aggregates import BLOCK_LINES
from repro.bench.regression import gate
from repro.bench.studies import STUDIES
from repro.engine import QueryExecutor
from repro.predicate import RangePredicate
from repro.storage import Column, GroupColumn

from .conftest import make_clustered
from .oracle import MirrorColumn


def _pred(index, low, high):
    return RangePredicate.range(low, high, index.column.ctype)


def _make_indexed(n=20_000, seed=3, n_groups=4):
    values = make_clustered(n, np.int32, seed=seed)
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, n_groups, size=n, dtype=np.int64)
    column = Column(values, name="t.grouped")
    index = ColumnImprints(column)
    index.attach_group_column("g", GroupColumn.from_codes(codes, n_groups))
    return values, codes, index


def _make_huge_int64(n=4_003, seed=5, n_groups=4):
    """int64 values above 2**53 (both signs), where float64 sums round."""
    rng = np.random.default_rng(seed)
    magnitudes = 2**53 + rng.integers(1, 1 << 20, size=n, dtype=np.int64)
    values = np.where(rng.random(n) < 0.5, -magnitudes, magnitudes)
    codes = rng.integers(0, n_groups, size=n, dtype=np.int64)
    index = ColumnImprints(Column(values, name="t.huge"))
    index.attach_group_column("g", GroupColumn.from_codes(codes, n_groups))
    return values, codes, index


class TestGroupedSidecar:
    def test_block_tables_and_lines_match_bincount(self):
        """Every block's counts and exact sums, and every single line
        read as a range, on int32 values and on int64 values above
        2**53, where float64 sums would round."""
        for values, codes, index in (_make_indexed(), _make_huge_int64()):
            grouped = index.grouped_aggregates("g")
            assert isinstance(grouped, GroupedAggregates)
            vpc, n_groups, n = grouped.vpc, grouped.n_groups, values.shape[0]
            assert grouped.block_rows == BLOCK_LINES * vpc
            assert grouped.prefix_counts.shape == (-(-n // grouped.block_rows) + 1, n_groups)

            def exact(lo, hi):
                rows, row_codes = values[lo:hi].astype(object), codes[lo:hi]
                return (
                    np.bincount(row_codes, minlength=n_groups).tolist(),
                    [int(rows[row_codes == g].sum()) for g in range(n_groups)],
                )

            for block in range(grouped.n_blocks):
                lo = block * grouped.block_rows
                counts, sums = (
                    (table[block + 1] - table[block]).tolist()
                    for table in (grouped.prefix_counts, grouped.prefix_sums)
                )
                assert (counts, sums) == exact(lo, lo + grouped.block_rows), block
            for line in range(grouped.n_cachelines):
                counts, sums = grouped.range_groups(
                    np.array([line]), np.array([line + 1]), codes, values
                )
                assert (counts.tolist(), sums.tolist()) == exact(
                    line * vpc, (line + 1) * vpc
                ), line
            # Ranges with whole blocks and ragged ends, up to the last line.
            rng = np.random.default_rng(n)
            ends = np.sort(rng.integers(0, grouped.n_cachelines + 1, (40, 2)), axis=1)
            ends[0] = (3, grouped.n_cachelines)
            for lo, hi in ends:
                counts, sums = grouped.range_groups(
                    np.array([lo]), np.array([hi]), codes, values
                )
                assert (counts.tolist(), sums.tolist()) == exact(lo * vpc, hi * vpc)

    def test_nbytes_counts_every_table(self):
        """``nbytes`` is every array either sidecar holds, the
        non-finite line lists included."""
        values = np.random.default_rng(8).normal(0.0, 100.0, 20_000)
        values[::97] = np.nan
        codes = np.arange(values.shape[0]) % 4
        index = ColumnImprints(Column(values, name="t.nan"))
        index.attach_group_column("g", GroupColumn.from_codes(codes, 4))
        for sidecar in (index.grouped_aggregates("g"), index.cacheline_aggregates):
            assert sidecar.nonfinite_lines.shape[0] > 0
            arrays = [v for v in vars(sidecar).values() if isinstance(v, np.ndarray)]
            assert sidecar.nbytes == sum(array.nbytes for array in arrays)

    def test_pushdown_matches_oracle_across_ops(self):
        values, codes, index = _make_indexed()
        low, high = int(np.percentile(values, 20)), int(np.percentile(values, 70))
        predicate = _pred(index, low, high)
        mirror = MirrorColumn(values, codes=codes)
        for op in ("count", "sum", "avg"):
            assert index.aggregate_grouped(predicate, op, "g") == mirror.grouped(
                predicate, op
            )

    def test_empty_answer_is_empty_dict(self):
        values, _, index = _make_indexed()
        nothing = _pred(index, int(values.max()) + 10, int(values.max()) + 20)
        for op in ("count", "sum", "avg"):
            assert index.aggregate_grouped(nothing, op, "g") == {}

    def test_labels_render_and_unknown_group_raises(self):
        values = make_clustered(5_000, np.int32, seed=9)
        labels = np.array(["red", "green", "blue"])[
            np.random.default_rng(9).integers(0, 3, size=5_000)
        ]
        index = ColumnImprints(Column(values, name="t.labels"))
        index.attach_group_column("colour", list(labels))
        predicate = _pred(index, int(values.min()), int(np.median(values)))
        grouped = index.aggregate_grouped(predicate, "count", "colour")
        assert set(grouped) <= {"red", "green", "blue"}
        assert sum(grouped.values()) == int(
            ((values >= values.min()) & (values < np.median(values))).sum()
        )
        with pytest.raises(ValueError, match="no group column"):
            index.aggregate_grouped(predicate, "count", "missing")

    def test_append_widens_domain_across_layers(self):
        values, codes, index = _make_indexed(n_groups=3)
        fresh_values = make_clustered(4_096, np.int32, seed=77)
        fresh_codes = np.random.default_rng(77).integers(
            3, 5, size=4_096, dtype=np.int64
        )
        index.append(fresh_values)
        index.append_group("g", codes=fresh_codes)
        mirror = MirrorColumn(
            np.concatenate([values, fresh_values]),
            codes=np.concatenate([codes, fresh_codes]),
        )
        low = int(np.percentile(mirror.values, 10))
        high = int(np.percentile(mirror.values, 90))
        predicate = _pred(index, low, high)
        want = mirror.grouped(predicate, "sum")
        assert index.aggregate_grouped(predicate, "sum", "g") == want
        with QueryExecutor({"col": index}) as executor:
            assert executor.aggregate_grouped("col", predicate, "sum", "g") == want

    def test_reattached_group_column_rebuilds_its_tables(self):
        values, codes, index = _make_indexed()
        predicate = _pred(index, int(values.min()), int(np.median(values)))
        index.aggregate_grouped(predicate, "count", "g")  # builds the tables
        flipped = (codes + 1) % 4
        index.attach_group_column("g", GroupColumn.from_codes(flipped, 4))
        want = MirrorColumn(values, codes=flipped).grouped(predicate, "sum")
        assert index.aggregate_grouped(predicate, "sum", "g") == want

    def test_update_patches_group_histograms(self):
        values, codes, index = _make_indexed()
        target = int(np.argmax(values))
        index.note_update(target, int(values.min()) - 5)
        mirror = MirrorColumn(values, codes=codes)
        mirror.update(target, int(values.min()) - 5)
        predicate = _pred(index, int(mirror.values.min()), int(np.median(mirror.values)))
        assert index.aggregate_grouped(predicate, "sum", "g") == mirror.grouped(
            predicate, "sum"
        )

    def test_misaligned_group_column_is_a_clear_error(self):
        values, _, index = _make_indexed()
        index.append(make_clustered(1_000, np.int32, seed=1))
        predicate = _pred(index, int(values.min()), int(values.max()))
        with pytest.raises(ValueError, match="lockstep"):
            index.aggregate_grouped(predicate, "count", "g")

    def test_finalize_grouped_only_present_groups(self):
        counts = np.array([3, 0, 2], dtype=np.int64)
        sums = np.array([30, 0, 11], dtype=np.int64)
        assert finalize_grouped("count", counts, None) == {0: 3, 2: 2}
        assert finalize_grouped("sum", counts, sums) == {0: 30, 2: 11}
        assert finalize_grouped("avg", counts, sums) == {0: 10.0, 2: 5.5}
        empty = np.zeros(3, dtype=np.int64)
        assert finalize_grouped("count", empty, None) == {}


class TestTopK:
    def test_matches_sorted_oracle_across_layers(self):
        values, _, index = _make_indexed()
        low = int(np.percentile(values, 30))
        high = int(np.percentile(values, 80))
        predicate = _pred(index, low, high)
        want = MirrorColumn(values).top_k(predicate, 25)
        assert index.top_k(predicate, 25) == want
        with QueryExecutor({"col": index}) as executor:
            assert executor.top_k("col", predicate, 25) == want

    def test_k_larger_than_answer_returns_everything(self):
        values, _, index = _make_indexed(n=2_000)
        predicate = _pred(index, int(values.min()), int(values.max()) + 1)
        got = index.top_k(predicate, 10_000_000)
        assert got == [int(v) for v in np.sort(values)[::-1]]

    def test_empty_and_zero_k(self):
        values, _, index = _make_indexed(n=2_000)
        nothing = _pred(index, int(values.max()) + 10, int(values.max()) + 20)
        assert index.top_k(nothing, 5) == []
        predicate = _pred(index, int(values.min()), int(values.max()))
        assert index.top_k(predicate, 0) == []

    def test_negative_k_rejected_at_the_executor(self):
        # The index layer folds k <= 0 into the empty answer; the
        # executor (and through it the serving layer's 400) rejects
        # negatives before touching the cache.
        values, _, index = _make_indexed(n=2_000)
        predicate = _pred(index, int(values.min()), int(values.max()))
        assert index.top_k(predicate, -3) == []
        with QueryExecutor({"col": index}) as executor:
            with pytest.raises(ValueError, match="k must be >= 0"):
                executor.top_k("col", predicate, -3)


class TestDashboardStudySmoke:
    def test_smoke_study_verifies_and_has_schema(self):
        from repro.bench.dashboard import run_dashboard_study

        result = run_dashboard_study(smoke=True, repeats=1)
        assert result["verified_bit_identical"] is True
        assert result["experiment"] == "dashboard"
        config = result["config"]
        assert config["smoke"] is True
        headline = result["headline"]
        assert set(headline["grouped_speedups_vs_eager"]) == {
            "count", "sum", "avg",
        }
        assert headline["min_grouped_speedup_vs_eager"] > 0
        assert result["sweep"], "sweep must not be empty"
        for point in result["sweep"]:
            assert point["n_ids"] >= 0


def _dashboard_gate_fixture(
    min_speedup: float = 7.5,
    cached: float = 1_000.0,
    topk: float = 1.8,
    smoke: bool = False,
    verified: bool = True,
    n_rows: int = 6_000_000,
) -> dict:
    """A minimal ``BENCH_dashboard.json`` shape for gate tests."""
    return {
        "config": {
            "n_rows": n_rows,
            "seed": 0,
            "n_regions": 12,
            "smoke": smoke,
        },
        "headline": {
            "min_grouped_speedup_vs_eager": min_speedup,
            "cached_speedup_grouped_sum": cached,
            "topk_speedup_vs_eager": topk,
        },
        "verified_bit_identical": verified,
    }


class TestDashboardRegressionGate:
    """The dashboard row of the declarative gate (repro.bench.regression)."""

    def test_passes_clean_full_run(self):
        assert gate("dashboard", _dashboard_gate_fixture()) == []
        assert (
            gate(
                "dashboard",
                _dashboard_gate_fixture(), _dashboard_gate_fixture()
            )
            == []
        )

    def test_unverified_run_always_fails(self):
        failures = gate(
            "dashboard",
            _dashboard_gate_fixture(smoke=True, verified=False)
        )
        assert any("verify" in f for f in failures)

    def test_losing_the_acceptance_headline_fails(self):
        # 2x < 5.0 * (1 - 25%) — the grouped pushdown lost its edge.
        failures = gate("dashboard", _dashboard_gate_fixture(min_speedup=2.0))
        assert any("acceptance headline" in f for f in failures)
        assert STUDIES["dashboard"]["full"][0][2] == 5.0

    def test_smoke_runs_skip_wallclock_invariants(self):
        assert (
            gate(
                "dashboard",
                _dashboard_gate_fixture(min_speedup=0.1, smoke=True)
            )
            == []
        )

    def test_baseline_drift_gates(self):
        baseline = _dashboard_gate_fixture(min_speedup=9.0, topk=2.0)
        worse = _dashboard_gate_fixture(min_speedup=6.0, topk=2.0)
        failures = gate("dashboard", worse, baseline)
        assert any(
            "min_grouped_speedup_vs_eager regressed" in f for f in failures
        )
        worse_topk = _dashboard_gate_fixture(min_speedup=9.0, topk=1.0)
        failures = gate("dashboard", worse_topk, baseline)
        assert any("topk_speedup_vs_eager regressed" in f for f in failures)

    def test_incomparable_baseline_skips_drift_check(self):
        baseline = _dashboard_gate_fixture(min_speedup=50.0, n_rows=100_000)
        assert (
            gate("dashboard", _dashboard_gate_fixture(), baseline)
            == []
        )
