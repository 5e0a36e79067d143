"""Tests for the update study and the ablation drivers."""

import pytest

from repro.bench.ablations import (
    bins_ablation_rows,
    cacheline_ablation_rows,
    compression_ablation_rows,
    getbin_rows,
    sample_size_ablation_rows,
)
from repro.bench.updates_study import (
    append_study_rows,
    distribution_shift_rows,
    saturation_study_rows,
)

N = 20_000  # keep the studies quick under pytest


class TestUpdateStudy:
    def test_appends_always_equal_rebuild(self):
        rows = append_study_rows(n_initial=N, batch=2_000, n_batches=3)
        assert len(rows) == 3
        assert all(row[3] is True or row[3] == True for row in rows)  # noqa: E712

    def test_incremental_append_cheaper_than_rebuild(self):
        rows = append_study_rows(n_initial=N, batch=2_000, n_batches=3)
        # By the last batch the rebuild scans 6k+N rows; the append only
        # 2k — incremental must win.
        assert rows[-1][1] < rows[-1][2]

    def test_distribution_shift_detected_and_cleared(self):
        rows = distribution_shift_rows(n_initial=N, batch=N // 2)
        assert rows[-2][2] is True or rows[-2][2] == True  # noqa: E712
        assert rows[-1][2] is False or rows[-1][2] == False  # noqa: E712

    def test_saturation_monotone_until_rebuild_flag(self):
        rows = saturation_study_rows(n=N, update_batches=(0, 200, 2_000, 20_000))
        saturations = [row[1] for row in rows]
        assert saturations == sorted(saturations)
        fractions = [row[2] for row in rows]
        assert fractions[-1] > fractions[0]


class TestAblations:
    def test_bins_tradeoff(self):
        rows = bins_ablation_rows(n=N)
        assert [row[0] for row in rows] == [8, 16, 32, 64]
        sizes = [row[2] for row in rows]
        comparisons = [row[6] for row in rows]
        # More bins -> bigger index ...
        assert sizes == sorted(sizes)
        # ... but better pruning (fewer false-positive checks).
        assert comparisons == sorted(comparisons, reverse=True)

    def test_cacheline_granularity_tradeoff(self):
        rows = cacheline_ablation_rows(n=N)
        overheads = [row[3] for row in rows]
        comparisons = [row[6] for row in rows]
        # Coarser vectors -> smaller index, more value checks.
        assert overheads == sorted(overheads, reverse=True)
        assert comparisons == sorted(comparisons)

    def test_compression_ratio_ordering(self):
        rows = compression_ablation_rows(n=N)
        by_name = {row[0]: row[5] for row in rows}
        assert by_name["sorted"] > by_name["clustered+noisy"] >= by_name["shuffled"]
        assert by_name["shuffled"] == pytest.approx(1.0, abs=0.2)

    def test_sample_size_improves_balance(self):
        rows = sample_size_ablation_rows(n=N)
        balance = [row[4] for row in rows]
        assert balance[-1] <= balance[0]

    def test_getbin_comparison_counts(self):
        rows = getbin_rows(n=2_000)
        by_name = {row[0]: row[1] for row in rows}
        assert by_name["unrolled (paper 2.5)"] == 18.0
        assert by_name["loop binary search"] == 6.0
        assert by_name["vectorised level search (get_bins)"] == 6
