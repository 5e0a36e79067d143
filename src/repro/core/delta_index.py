"""Delta-aware imprints: the full Section 4.2 story in one object.

The paper's update model splits responsibilities: the imprint index
answers over the *base* column, a delta structure records pending
changes, and query answers are merged at query time ("a delta structure
is used that keeps track of the updates, and merges them at query
time").  :class:`DeltaAwareImprints` wires the two together and owns the
consolidation policy:

* reads go through the base imprint, then
  :meth:`repro.storage.delta.DeltaColumn.merge_result`;
* writes (append / update / delete) land in the delta only — the base
  column and index stay immutable, so there is no saturation at all on
  this path;
* when the delta outgrows ``consolidate_threshold`` (a fraction of the
  base rows), the delta is materialised and the index rebuilt — the
  rebuild-on-scan policy, triggered by delta pressure instead of bit
  saturation.

Every read answers over the *logical* column: ids come from the merge,
and values (aggregates, top-k, GROUP BY) from :meth:`values_at`, which
applies the pending appends and updates to the gathered ids only.
Attached group columns span the logical rows: append group rows in
lockstep with :meth:`append`, and a consolidation drops the deleted
rows' codes with the rows.
"""

from __future__ import annotations

import numpy as np

from ..index_base import QueryResult, SecondaryIndex
from ..predicate import RangePredicate
from ..storage.column import Column
from ..storage.delta import DeltaColumn
from .aggregates import reduce_gathered
from .index import ColumnImprints

__all__ = ["DeltaAwareImprints"]


class DeltaAwareImprints(SecondaryIndex):
    """Imprints over a base column + merge-at-query-time delta."""

    kind = "imprints-delta"

    def __init__(
        self,
        column: Column,
        consolidate_threshold: float = 0.25,
        **imprints_kwargs,
    ) -> None:
        super().__init__(column)
        if not 0.0 < consolidate_threshold <= 1.0:
            raise ValueError(
                f"consolidate_threshold must be in (0, 1], got "
                f"{consolidate_threshold}"
            )
        self.consolidate_threshold = consolidate_threshold
        self._imprints_kwargs = imprints_kwargs
        self.base_index = ColumnImprints(column, **imprints_kwargs)
        self.delta = DeltaColumn(column)
        self.consolidations = 0
        # Version counter for cursor/cache invalidation: every mutation
        # and every consolidation bumps it, and recovery advances it by
        # a whole epoch, so a page cursor can never silently span two
        # logical states of the column (see StaleCursorError).
        self.version = 0

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Logical rows (base + pending appends)."""
        return self.delta.n_rows

    @property
    def n_pending(self) -> int:
        return self.delta.n_pending

    @property
    def nbytes(self) -> int:
        return self.base_index.nbytes

    # ------------------------------------------------------------------
    # writes: delta only
    # ------------------------------------------------------------------
    def append(self, values) -> None:
        self.delta.append(values)
        self.version += 1
        self._maybe_consolidate()

    def update(self, value_id: int, value) -> None:
        self.delta.update(value_id, value)
        self.version += 1
        self._maybe_consolidate()

    def delete(self, value_id: int) -> None:
        self.delta.delete(value_id)
        self.version += 1
        self._maybe_consolidate()

    def _maybe_consolidate(self) -> None:
        base_rows = max(1, len(self.base_index.column))
        if self.delta.n_pending / base_rows > self.consolidate_threshold:
            self.consolidate()

    def consolidate(self) -> None:
        """Materialise the delta and rebuild the index (one scan)."""
        deleted = self.delta.deleted_ids
        if deleted.size:
            for name, group in self._group_columns.items():
                self._group_columns[name] = group.without(deleted)
        self.rebase(self.delta.materialize())

    def rebase(self, column: Column) -> None:
        """Rebuild in place over ``column`` with an empty delta.

        The object stays the one every executor and cache registered;
        the version bump makes cursors over the old state go stale.
        """
        self.base_index = ColumnImprints(column, **self._imprints_kwargs)
        self.delta = DeltaColumn(column)
        self.column = column
        self.consolidations += 1
        self.version += 1

    # ------------------------------------------------------------------
    # reads: base answer + merge
    # ------------------------------------------------------------------
    def query(self, predicate: RangePredicate) -> QueryResult:
        base = self.base_index.query(predicate)
        if self.delta.n_pending == 0:
            # Re-stamp: cursors and cache keys must track *this* index's
            # version, not the inner base imprint's.
            return base.stamp_version(self.version)
        merged = self.delta.merge_result(base.ids, predicate.low, predicate.high)
        stats = base.stats
        stats.ids_materialized = int(merged.shape[0])
        return QueryResult(ids=merged, stats=stats).stamp_version(self.version)

    def aggregate(self, predicate: RangePredicate, op: str):
        """``COUNT``/``SUM``/``MIN``/``MAX`` over the *logical* column.

        While the delta is empty this delegates to the base imprint's
        pushdown (pre-aggregate sidecar and all).  With pending
        appends/updates/deletes the base sidecar summarises stale
        values, so the merged answer ids are gathered through
        :meth:`values_at` — correctness over speed until the next
        consolidation restores the fast path.
        """
        if self.delta.n_pending == 0:
            return self.base_index.aggregate(predicate, op)
        result = self.query(predicate)
        if op == "count":
            return result.count()
        return reduce_gathered(self.values_at(result.ids), op)

    def values_at(self, ids: np.ndarray) -> np.ndarray:
        """Current (delta-applied) values for an id list — what a tuple
        reconstruction would see.  Gathers only ``ids``: base rows from
        the base column, appended rows from the appended values, then
        the pending updates among ``ids`` on top."""
        ids = np.asarray(ids, dtype=np.int64)
        base = self.base_index.column.values
        n_base = base.shape[0]
        if self.delta.n_rows == n_base:
            values = base[ids]
        else:
            values = np.empty(ids.shape, dtype=base.dtype)
            in_base = ids < n_base
            values[in_base] = base[ids[in_base]]
            values[~in_base] = self.delta.appended_values[ids[~in_base] - n_base]
        updates = self.delta.updated_items()
        if updates:
            updated = np.array([vid for vid, _ in updates], dtype=np.int64)
            at = np.minimum(np.searchsorted(updated, ids), updated.shape[0] - 1)
            hit = updated[at] == ids
            new_values = np.array([value for _, value in updates], dtype=base.dtype)
            values[hit] = new_values[at[hit]]
        return values
