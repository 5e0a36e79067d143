"""The cacheline dictionary — the imprints compression bookkeeping.

The paper compresses the per-cacheline imprint vectors *horizontally*:
runs of identical consecutive vectors are stored once, and a dictionary
of ``(cnt:24, repeat:1, flags:7)`` entries records how stored vectors map
back onto cachelines:

* ``repeat == 0``: the next ``cnt`` cachelines each have their own
  (stored) imprint vector — ``cnt`` vectors, ``cnt`` cachelines;
* ``repeat == 1``: the next ``cnt`` cachelines all share one stored
  imprint vector — 1 vector, ``cnt`` cachelines.

The counter is 24 bits wide, so a single entry can describe at most
``2^24 - 1`` cachelines; longer runs split exactly the way Algorithm 1's
state machine splits them (see :mod:`repro.core.builder`).

This module holds the dictionary as a compact structure-of-arrays and
provides the expansions the query kernels need: cacheline → stored-row
mapping and per-entry row offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CNT_BITS", "MAX_CNT", "CachelineDictionary"]

#: Width of the ``cnt`` field (paper: ``uint cnt:24``).
CNT_BITS = 24
#: The paper's ``max_cnt``: counters stay strictly below this value.
MAX_CNT = 1 << CNT_BITS


@dataclass(frozen=True, eq=False)
class CachelineDictionary:
    """Structure-of-arrays view of the cacheline dictionary.

    Attributes
    ----------
    counts:
        ``uint32`` array of ``cnt`` values, one per entry (values in
        ``[1, MAX_CNT)`` — 24 bits in the paper's packed struct).
    repeats:
        ``bool`` array of the ``repeat`` flags, parallel to ``counts``.
    """

    counts: np.ndarray
    repeats: np.ndarray

    def __post_init__(self) -> None:
        counts = np.ascontiguousarray(self.counts, dtype=np.uint32)
        repeats = np.ascontiguousarray(self.repeats, dtype=bool)
        if counts.shape != repeats.shape:
            raise ValueError(
                f"counts and repeats must be parallel, got shapes "
                f"{counts.shape} and {repeats.shape}"
            )
        if counts.size and (counts.min() < 1 or counts.max() >= MAX_CNT):
            raise ValueError(f"dictionary counts must lie in [1, {MAX_CNT})")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "repeats", repeats)
        # Derived-array memo: the dictionary is immutable, so every
        # cumulative/expanded view is computed at most once.  Cached
        # arrays are marked read-only because they are shared.
        object.__setattr__(self, "_cache", {})

    def _cached(self, key: str, compute):
        value = self._cache.get(key)
        if value is None:
            value = compute()
            arrays = value if isinstance(value, tuple) else (value,)
            for array in arrays:
                if isinstance(array, np.ndarray):
                    array.setflags(write=False)
            self._cache[key] = value
        return value

    # ------------------------------------------------------------------
    # sizes
    # ------------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        return int(self.counts.shape[0])

    @property
    def n_cachelines(self) -> int:
        """Total cachelines described (every entry covers ``cnt``)."""
        return self._cached("n_cachelines", lambda: int(self.counts.sum()))

    @property
    def n_imprint_rows(self) -> int:
        """Stored imprint vectors described (1 per repeat entry)."""
        return self._cached(
            "n_imprint_rows",
            lambda: int(np.where(self.repeats, 1, self.counts).sum()),
        )

    @property
    def nbytes(self) -> int:
        """On-disk size: each entry is the paper's packed 4-byte struct."""
        return 4 * self.n_entries

    # ------------------------------------------------------------------
    # expansions used by the query kernels
    # ------------------------------------------------------------------
    def row_offsets(self) -> np.ndarray:
        """Index of the first stored imprint row of each entry (cached).

        Length ``n_entries + 1``; the final element equals
        :attr:`n_imprint_rows`, so entry ``i`` owns stored rows
        ``row_offsets[i] : row_offsets[i + 1]``.
        """
        return self._cached("row_offsets", self._compute_row_offsets)

    def _compute_row_offsets(self) -> np.ndarray:
        rows_per_entry = np.where(self.repeats, 1, self.counts.astype(np.int64))
        offsets = np.empty(self.n_entries + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(rows_per_entry, out=offsets[1:])
        return offsets

    def cacheline_offsets(self) -> np.ndarray:
        """Index of the first cacheline of each entry (length +1, cached)."""
        return self._cached("cacheline_offsets", self._compute_cacheline_offsets)

    def _compute_cacheline_offsets(self) -> np.ndarray:
        offsets = np.empty(self.n_entries + 1, dtype=np.int64)
        offsets[0] = 0
        np.cumsum(self.counts.astype(np.int64), out=offsets[1:])
        return offsets

    def row_entries(self) -> np.ndarray:
        """Dictionary entry owning each stored imprint row (cached)."""
        return self._cached(
            "row_entries",
            lambda: np.repeat(
                np.arange(self.n_entries, dtype=np.int64),
                np.where(self.repeats, 1, self.counts.astype(np.int64)),
            ),
        )

    def row_cacheline_spans(self) -> tuple[np.ndarray, np.ndarray]:
        """Half-open cacheline interval covered by each stored row (cached).

        The compressed-domain inverse of :meth:`expand_rows`: instead of
        one stored-row index per cacheline (O(cachelines)), this is one
        ``[start, stop)`` cacheline interval per *stored vector*
        (O(stored rows)).  A non-repeat row spans exactly one cacheline;
        a repeat row spans its entry's full ``cnt`` — so the query
        kernels can test a mask once per stored vector and emit the
        whole interval.
        """
        return self._cached("row_cacheline_spans", self._compute_row_spans)

    def _compute_row_spans(self) -> tuple[np.ndarray, np.ndarray]:
        entries = self.row_entries()
        row_offsets = self.row_offsets()
        cl_offsets = self.cacheline_offsets()
        within = np.arange(self.n_imprint_rows, dtype=np.int64) - row_offsets[entries]
        starts = cl_offsets[entries] + within
        spans = np.where(self.repeats[entries], self.counts[entries].astype(np.int64), 1)
        return starts, starts + spans

    def row_run_lengths(self) -> np.ndarray:
        """Cachelines covered by each stored imprint row (cached)."""
        return self._cached("row_run_lengths", self._compute_run_lengths)

    def _compute_run_lengths(self) -> np.ndarray:
        starts, stops = self.row_cacheline_spans()
        return stops - starts

    def rows_of_cachelines(self, cachelines: np.ndarray) -> np.ndarray:
        """Stored-row index of each given cacheline (vectorised).

        Point lookups without materialising :meth:`expand_rows` — used
        by the overlay patch-up, which touches a handful of cachelines.
        """
        lines = np.asarray(cachelines, dtype=np.int64)
        cl_offsets = self.cacheline_offsets()
        entries = np.searchsorted(cl_offsets, lines, side="right") - 1
        within = lines - cl_offsets[entries]
        return self.row_offsets()[entries] + np.where(
            self.repeats[entries], 0, within
        )

    def expand_rows(self) -> np.ndarray:
        """Stored-row index for every cacheline, in cacheline order.

        The inverse of the compression: element ``c`` is the index into
        the stored imprint array holding cacheline ``c``'s vector.
        O(cachelines) — the query kernels avoid it entirely (they use
        :meth:`row_cacheline_spans`); remaining users are the entropy
        metric, the Figure 3 renderer and round-trip tests, so the
        result is memoised (the dictionary is immutable) and returned
        read-only.
        """
        return self._cached("expand_rows", self._compute_expand_rows)

    def _compute_expand_rows(self) -> np.ndarray:
        if self.n_entries == 0:
            return np.empty(0, dtype=np.int64)
        counts = self.counts.astype(np.int64)
        row_starts = self.row_offsets()[:-1]
        cl_starts = self.cacheline_offsets()[:-1]
        rows = np.repeat(row_starts, counts)
        ramp = np.arange(self.n_cachelines, dtype=np.int64) - np.repeat(cl_starts, counts)
        rows += ramp * np.repeat(~self.repeats, counts)
        return rows

    def entry_of_cacheline(self, cacheline: int) -> int:
        """Dictionary entry covering one cacheline (for point updates)."""
        if not 0 <= cacheline < self.n_cachelines:
            raise IndexError(
                f"cacheline {cacheline} out of range [0, {self.n_cachelines})"
            )
        offsets = self.cacheline_offsets()
        return int(np.searchsorted(offsets, cacheline, side="right") - 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CachelineDictionary(entries={self.n_entries}, "
            f"cachelines={self.n_cachelines}, rows={self.n_imprint_rows})"
        )
