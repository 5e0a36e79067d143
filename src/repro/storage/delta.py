"""Delta structures: merge-at-query-time updates (paper Section 4.2).

Columnar systems never update in place; a *delta structure* records
pending insertions and deletions and merges them into query answers.
This module implements the simple two-table delta the paper describes:

* **appends** — new values logically extend the column past its current
  length (the common case, handled cheaply by imprints, Section 4.1);
* **deletions** — a set of deleted ids, removed from answers with a set
  difference;
* **in-place updates** — modelled as the paper models them: the new
  value is recorded for its id, queries check updated ids against the
  predicate directly, and the base index may over-report the old value's
  cacheline (a false positive the value check weeds out).

The delta is index-agnostic: :meth:`DeltaColumn.merge_result` takes the
id list produced by *any* secondary index over the base column and
produces the correct answer for the logical (updated) column.  Tests use
it to validate that imprints + delta equals a fresh scan of the fully
materialised column.
"""

from __future__ import annotations

import numpy as np

from .column import Column

__all__ = ["DeltaColumn"]


class DeltaColumn:
    """A base column plus pending appends, deletes and point updates."""

    def __init__(self, base: Column) -> None:
        self.base = base
        self._appends: list[np.ndarray] = []
        self._n_appended = 0
        self._deleted: set[int] = set()
        self._updated: dict[int, object] = {}

    # ------------------------------------------------------------------
    # recording changes
    # ------------------------------------------------------------------
    def append(self, values) -> None:
        """Record appended values (ids continue past the base column)."""
        batch = self.base.ctype.cast(values)
        if batch.ndim != 1:
            raise ValueError(f"appended values must be 1-D, got shape {batch.shape}")
        self._appends.append(batch)
        self._n_appended += batch.shape[0]

    def delete(self, value_id: int) -> None:
        """Record the deletion of one id."""
        if not 0 <= value_id < self.n_rows:
            raise IndexError(f"id {value_id} out of range [0, {self.n_rows})")
        self._deleted.add(int(value_id))
        self._updated.pop(int(value_id), None)

    def check_update(self, value_id: int) -> None:
        """Raise what :meth:`update` would for ``value_id``; record nothing."""
        if not 0 <= value_id < self.n_rows:
            raise IndexError(f"id {value_id} out of range [0, {self.n_rows})")
        if value_id in self._deleted:
            raise ValueError(f"id {value_id} was deleted; cannot update it")

    def update(self, value_id: int, value) -> None:
        """Record an in-place update of one id."""
        self.check_update(value_id)
        self._updated[int(value_id)] = value

    # ------------------------------------------------------------------
    # logical state
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Logical row count: base rows plus appended rows."""
        return len(self.base) + self._n_appended

    @property
    def n_pending(self) -> int:
        """Total pending changes (a rebuild-policy input)."""
        return self._n_appended + len(self._deleted) + len(self._updated)

    @property
    def appended_values(self) -> np.ndarray:
        """All appended values in append order."""
        if not self._appends:
            return np.empty(0, dtype=self.base.ctype.dtype)
        return np.concatenate(self._appends)

    @property
    def updated_ids(self) -> np.ndarray:
        return np.array(sorted(self._updated), dtype=np.int64)

    def updated_items(self) -> list[tuple[int, object]]:
        """Pending in-place updates as sorted ``(id, new value)`` pairs."""
        return sorted(self._updated.items())

    @property
    def deleted_ids(self) -> np.ndarray:
        return np.array(sorted(self._deleted), dtype=np.int64)

    def materialize(self) -> Column:
        """The fully merged logical column (appends, updates, deletes).

        Deleted rows are *removed*, so the materialised column can be
        shorter than :attr:`n_rows`; it is the ground truth used when the
        delta is consolidated and indexes rebuilt.
        """
        merged = np.concatenate([self.base.values, self.appended_values])
        for value_id, value in self._updated.items():
            merged[value_id] = value
        if self._deleted:
            keep = np.ones(merged.shape[0], dtype=bool)
            keep[self.deleted_ids] = False
            merged = merged[keep]
        return Column(
            merged,
            ctype=self.base.ctype,
            name=self.base.name,
            cacheline_bytes=self.base.geometry.cacheline_bytes,
        )

    # ------------------------------------------------------------------
    # query-time merge
    # ------------------------------------------------------------------
    def merge_result(
        self,
        base_ids: np.ndarray,
        low,
        high,
    ) -> np.ndarray:
        """Merge a base-index answer into the logical answer.

        Parameters
        ----------
        base_ids:
            Sorted ids the secondary index returned for the predicate
            ``low <= v < high`` evaluated over the *base* column.
        low, high:
            The half-open range predicate, re-applied to appended and
            updated values.

        Returns
        -------
        Sorted ids (in the logical id space, deletions removed) whose
        current value satisfies the predicate.
        """
        base_ids = np.asarray(base_ids, dtype=np.int64)
        n_base = len(self.base)

        # Updated *base* ids: drop them from the base answer (their old
        # value qualified, their new value may not) and re-check the new
        # value.  Updates to appended ids are handled below by patching
        # the appended values before evaluating the predicate.
        if self._updated:
            updated_ids = np.array(
                sorted(vid for vid in self._updated if vid < n_base),
                dtype=np.int64,
            )
            if updated_ids.size:
                base_ids = np.setdiff1d(base_ids, updated_ids, assume_unique=True)
                new_values = np.array(
                    [self._updated[int(i)] for i in updated_ids],
                    dtype=self.base.ctype.dtype,
                )
                requalified = updated_ids[(new_values >= low) & (new_values < high)]
                base_ids = np.union1d(base_ids, requalified)

        # Appended ids: evaluate the predicate on the *current* appended
        # values (pending updates applied).
        if self._n_appended:
            appended = self.appended_values
            appended_updates = [
                (vid - n_base, value)
                for vid, value in self._updated.items()
                if vid >= n_base
            ]
            if appended_updates:
                appended = appended.copy()
                for offset, value in appended_updates:
                    appended[offset] = value
            hits = np.flatnonzero((appended >= low) & (appended < high))
            appended_ids = hits.astype(np.int64) + n_base
            base_ids = np.concatenate([base_ids, appended_ids])

        # Deletions: a set difference, as in the paper's union/difference
        # description of delta merging.
        if self._deleted:
            base_ids = np.setdiff1d(base_ids, self.deleted_ids, assume_unique=True)
        return np.sort(base_ids)
