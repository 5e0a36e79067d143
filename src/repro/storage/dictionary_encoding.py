"""Dictionary encoding for string columns and GROUP BY group columns.

The Airtraffic and Cnet datasets contain ``str`` columns.  Column stores
(and this reproduction) never index raw strings directly: the strings are
dictionary-encoded into dense integer codes and the secondary index is
built over the code column.  Range queries on the encoded column are
meaningful because the dictionary is kept *sorted*, so code order equals
lexicographic string order — exactly the property a range predicate
needs.

:class:`GroupColumn` is the second dictionary flavour: an
**append-stable** encoding (codes assigned by first appearance, new
labels only ever appended) used for GROUP BY pushdown.  Stability is
what lets the per-cacheline group histograms
(:class:`~repro.core.aggregates.GroupedAggregates`) survive appends
without re-coding history — a sorted dictionary would shift every code
when a new label lands in the middle.
"""

from __future__ import annotations

import numpy as np

from .column import Column
from .types import STR_CODE

__all__ = ["GroupColumn", "StringDictionary", "encode_strings"]


class StringDictionary:
    """A sorted value dictionary mapping strings to dense int32 codes.

    The dictionary is immutable after construction.  ``encode`` maps
    strings to codes (raising on unknown strings), ``decode`` maps codes
    back.  Because the dictionary is sorted, ``encode_range`` can
    translate a lexicographic string range into a code range usable by
    any integer secondary index.
    """

    def __init__(self, values) -> None:
        unique = sorted(set(map(str, values)))
        self._strings: list[str] = unique
        self._codes: dict[str, int] = {s: i for i, s in enumerate(unique)}

    def __len__(self) -> int:
        return len(self._strings)

    def __contains__(self, value: str) -> bool:
        return value in self._codes

    @property
    def strings(self) -> list[str]:
        """The sorted dictionary entries."""
        return list(self._strings)

    def encode_one(self, value: str) -> int:
        """Code of one string; raises ``KeyError`` on unknown values."""
        try:
            return self._codes[value]
        except KeyError:
            raise KeyError(f"string {value!r} is not in the dictionary") from None

    def encode(self, values) -> np.ndarray:
        """Codes for a sequence of strings."""
        return np.fromiter(
            (self.encode_one(str(v)) for v in values),
            dtype=STR_CODE.dtype,
            count=len(values),
        )

    def decode_one(self, code: int) -> str:
        """String for one code."""
        if not 0 <= code < len(self._strings):
            raise IndexError(f"code {code} out of range [0, {len(self._strings)})")
        return self._strings[code]

    def decode(self, codes) -> list[str]:
        """Strings for a sequence of codes."""
        return [self.decode_one(int(c)) for c in np.asarray(codes)]

    def encode_range(self, low: str, high: str) -> tuple[int, int]:
        """Translate a string range ``[low, high)`` into a code range.

        The bounds need not be dictionary members; they are positioned by
        binary search, preserving the half-open semantics: a string ``s``
        satisfies ``low <= s < high`` iff its code ``c`` satisfies
        ``lo_code <= c < hi_code``.
        """
        import bisect

        lo_code = bisect.bisect_left(self._strings, low)
        hi_code = bisect.bisect_left(self._strings, high)
        return lo_code, hi_code


class GroupColumn:
    """An append-stable dictionary-encoded grouping column.

    Rides next to an indexed value column and assigns each row a dense
    ``int64`` group code.  Construct :meth:`from_labels` (arbitrary
    hashable labels, codes by first appearance) or :meth:`from_codes`
    (pre-encoded small ints).  Appends keep existing codes stable —
    unseen labels get the next free code — so downstream per-cacheline
    group histograms extend incrementally instead of rebuilding.
    """

    def __init__(self, codes: np.ndarray, labels: list | None, n_groups: int) -> None:
        self._codes = np.ascontiguousarray(codes, dtype=np.int64)
        self._labels = labels
        self._index = (
            {label: code for code, label in enumerate(labels)}
            if labels is not None
            else None
        )
        self._n_groups = int(n_groups)
        if self._codes.shape[0] and (
            int(self._codes.min()) < 0 or int(self._codes.max()) >= self._n_groups
        ):
            raise ValueError(f"group codes must lie in [0, {self._n_groups})")

    @classmethod
    def from_labels(cls, labels) -> "GroupColumn":
        """Encode arbitrary labels, assigning codes by first appearance."""
        column = cls(np.empty(0, dtype=np.int64), [], 0)
        column.append_labels(labels)
        return column

    @classmethod
    def from_codes(cls, codes, n_groups: int | None = None) -> "GroupColumn":
        """Wrap pre-encoded codes (``0 <= code < n_groups``)."""
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        if n_groups is None:
            n_groups = int(codes.max()) + 1 if codes.shape[0] else 1
        return cls(codes, None, n_groups)

    def __len__(self) -> int:
        return int(self._codes.shape[0])

    @property
    def codes(self) -> np.ndarray:
        """The dense per-row code array (``int64``)."""
        return self._codes

    @property
    def n_groups(self) -> int:
        """Size of the group domain (codes lie in ``[0, n_groups)``)."""
        return self._n_groups

    @property
    def labels(self) -> list | None:
        """The label dictionary (``labels[code]``), or ``None`` for
        raw-code columns."""
        return list(self._labels) if self._labels is not None else None

    def append_labels(self, labels) -> None:
        """Append rows by label; unseen labels extend the dictionary."""
        if self._index is None:
            raise ValueError("raw-code GroupColumn: use append_codes()")
        fresh = np.empty(len(labels), dtype=np.int64)
        for at, label in enumerate(labels):
            code = self._index.get(label)
            if code is None:
                code = len(self._labels)
                self._labels.append(label)
                self._index[label] = code
            fresh[at] = code
        self._codes = np.concatenate([self._codes, fresh])
        self._n_groups = max(self._n_groups, len(self._labels))

    def append_codes(self, codes) -> None:
        """Append pre-encoded rows; the domain widens to cover them."""
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        if codes.shape[0]:
            if int(codes.min()) < 0:
                raise ValueError("group codes must be non-negative")
            self._n_groups = max(self._n_groups, int(codes.max()) + 1)
        self._codes = np.concatenate([self._codes, codes])

    def without(self, rows) -> "GroupColumn":
        """A copy with ``rows`` removed (the rows a delta consolidation
        deletes); codes and labels stay as they are."""
        labels = None if self._labels is None else list(self._labels)
        return GroupColumn(np.delete(self._codes, rows), labels, self._n_groups)

    def key_of(self, code: int):
        """The user-facing key for one code: its label, or the raw code."""
        if self._labels is not None:
            return self._labels[code]
        return int(code)

    def render(self, by_code: dict) -> dict:
        """Re-key a ``{code: value}`` aggregate answer by label."""
        return {self.key_of(code): value for code, value in by_code.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "labels" if self._labels is not None else "codes"
        return (
            f"GroupColumn(rows={len(self)}, groups={self._n_groups}, {kind})"
        )


def encode_strings(
    values,
    name: str = "",
    cacheline_bytes: int = 64,
) -> tuple[Column, StringDictionary]:
    """Dictionary-encode strings into an indexable int32 code column.

    Returns the code :class:`~repro.storage.column.Column` (type
    ``str``, stored as int32) and the :class:`StringDictionary` needed to
    translate query predicates.
    """
    dictionary = StringDictionary(values)
    codes = dictionary.encode([str(v) for v in values])
    column = Column(codes, ctype=STR_CODE, name=name, cacheline_bytes=cacheline_bytes)
    return column, dictionary
