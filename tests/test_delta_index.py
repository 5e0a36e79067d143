"""Tests for the delta-aware imprints index (Section 4.2 end to end)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DeltaAwareImprints
from repro.indexes import SequentialScan
from repro.predicate import RangePredicate
from repro.storage import Column

from .conftest import make_clustered, make_random


def make_index(n=10_000, seed=1, threshold=0.25):
    column = Column(make_clustered(n, np.int32, seed=seed), name="t.x")
    return DeltaAwareImprints(column, consolidate_threshold=threshold)


class TestReads:
    def test_clean_index_equals_plain_imprints(self):
        index = make_index()
        lo, hi = np.quantile(index.column.values, [0.3, 0.5])
        plain = index.base_index.query_range(int(lo), int(hi))
        assert np.array_equal(
            index.query_range(int(lo), int(hi)).ids, plain.ids
        )

    def test_append_visible_without_consolidation(self):
        index = make_index(threshold=0.99)
        tail = make_clustered(500, np.int32, seed=2)
        index.append(tail)
        assert index.consolidations == 0
        lo = int(tail.min())
        hi = int(tail.max()) + 1
        result = index.query_range(lo, hi)
        # Appended qualifying ids live past the base rows.
        appended_hits = result.ids[result.ids >= 10_000]
        expected = np.flatnonzero((tail >= lo) & (tail < hi)) + 10_000
        assert np.array_equal(appended_hits, expected)

    def test_update_and_delete_respected(self):
        index = make_index(threshold=0.99)
        values = index.column.values
        lo, hi = int(np.quantile(values, 0.4)), int(np.quantile(values, 0.6))
        base_ids = index.query_range(lo, hi).ids
        victim = int(base_ids[0])
        dodger = int(np.flatnonzero((values < lo) | (values >= hi))[0])

        index.delete(victim)
        index.update(dodger, lo)  # now qualifies
        result = index.query_range(lo, hi)
        assert victim not in result.ids.tolist()
        assert dodger in result.ids.tolist()

    def test_values_at_sees_updates(self):
        index = make_index(threshold=0.99)
        index.update(7, 123_456)
        assert index.values_at(np.array([7]))[0] == 123_456


class TestConsolidation:
    def test_threshold_triggers_rebuild(self):
        index = make_index(n=1_000, threshold=0.1)
        index.append(make_random(150, np.int32, seed=3))
        assert index.consolidations == 1
        assert index.n_pending == 0
        # The consolidated column includes the appended rows.
        assert len(index.base_index.column) == 1_150

    def test_deletes_compact_on_consolidation(self):
        index = make_index(n=1_000, threshold=0.01)
        for victim in range(20):
            index.delete(victim)
        assert index.consolidations >= 1
        assert len(index.base_index.column) < 1_000

    def test_bad_threshold(self):
        with pytest.raises(ValueError, match="consolidate_threshold"):
            DeltaAwareImprints(
                Column(make_random(100, np.int32, seed=4)),
                consolidate_threshold=0.0,
            )


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 200),
    ops=st.lists(
        st.tuples(st.sampled_from(["append", "update", "delete"]),
                  st.integers(0, 10_000)),
        min_size=0,
        max_size=25,
    ),
)
def test_delta_aware_equals_materialised_scan(seed, ops):
    """After any operation mix, the delta-aware answer over surviving
    base+append ids selects exactly the values a scan of the
    materialised column selects."""
    rng = np.random.default_rng(seed)
    base = Column(rng.integers(0, 1000, 400).astype(np.int32))
    index = DeltaAwareImprints(base, consolidate_threshold=0.99)
    for op, arg in ops:
        if op == "append":
            index.append(rng.integers(0, 1000, 5).astype(np.int32))
        elif op == "update":
            vid = arg % index.n_rows
            if vid not in set(index.delta.deleted_ids.tolist()):
                try:
                    index.update(vid, int(rng.integers(0, 1000)))
                except IndexError:
                    pass
        else:
            vid = arg % index.n_rows
            if vid not in set(index.delta.updated_ids.tolist()):
                try:
                    index.delete(vid)
                except (IndexError, ValueError):
                    pass
    lo, hi = 200, 600
    answer = index.query(RangePredicate.range(lo, hi, base.ctype))
    truth = SequentialScan(index.delta.materialize()).query_range(lo, hi)
    selected = np.sort(index.values_at(answer.ids))
    expected = np.sort(index.delta.materialize().values[truth.ids])
    assert np.array_equal(selected, expected)


class TestLogicalReads:
    """Top-k and GROUP BY read the logical column: the merged ids, the
    values :meth:`values_at` applies the pending writes to, and the
    group codes at those ids."""

    def make(self):
        index = DeltaAwareImprints(
            Column(np.arange(100, dtype=np.int32), name="t.a"), consolidate_threshold=1.0
        )
        index.attach_group_column("g", np.arange(100) % 2)
        return index

    def test_top_k_sees_a_pending_update(self):
        index = self.make()
        index.update(3, 400)
        assert index.top_k(RangePredicate.everything(), 2) == [400, 99]

    def test_top_k_and_groups_after_a_pending_append(self):
        index = self.make()
        index.append([500, 501])
        index.append_group("g", codes=[0, 1])
        index.update(3, 400)
        everything = RangePredicate.everything()
        assert index.top_k(everything, 3) == [501, 500, 400]
        assert index.aggregate_grouped(everything, "sum", "g") == {
            0: 2_450 + 500,
            1: 2_500 - 3 + 400 + 501,
        }
        assert index.values_at(np.array([101, 3, 50, 100])).tolist() == [501, 400, 50, 500]

    def test_consolidation_drops_deleted_group_rows(self):
        index = self.make()
        index.delete(1)
        index.consolidate()
        assert index.aggregate_grouped(RangePredicate.everything(), "count", "g") == {
            0: 50,
            1: 49,
        }
