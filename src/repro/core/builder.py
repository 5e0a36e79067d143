"""Imprint construction — the paper's Algorithm 1, twice.

Two interchangeable implementations live here:

* :func:`build_imprints_scalar` is a line-by-line port of the paper's
  ``imprints()`` pseudocode: one pass over the values, a bin lookup per
  value, and the cacheline-dictionary update (:func:`_dictionary_step`)
  per cacheline.  It is the ground truth the tests compare against,
  including the 24-bit counter-cap corner cases.
* :class:`ImprintsBuilder` is the production path.  :func:`cacheline_vectors`
  walks the values in cacheline-aligned chunks of
  :data:`~repro.core.binning.CHUNK_VALUES`: the branch-free bin search
  (:meth:`Histogram.get_bins`), a bit per value from a 64-entry table,
  and one OR per cacheline through ``reshape(-1, vpc)``, so no
  column-sized temporary exists.  One vectorised pass over the run
  boundaries of the new vectors then extends the dictionary
  (:func:`_grow`): every run stores its vector once, a run of two or
  more cachelines is a repeat entry, and consecutive one-cacheline runs
  share a non-repeat entry.  A push in which a counter could reach the
  24-bit cap replays :func:`_dictionary_step` instead, which splits
  exactly as the paper does.  The builder is streaming — ``feed()`` may
  be called repeatedly, which is exactly how Section 4.1 appends work:
  new cachelines extend the imprint list without touching any stored
  vector.

Both produce identical output bit-for-bit (property-tested with tiny
injected caps to reach the cap inside and across pushes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..storage.column import Column
from .binning import CHUNK_VALUES, Histogram
from .dictionary import MAX_CNT, CachelineDictionary

__all__ = [
    "ImprintsData",
    "ImprintsBuilder",
    "build_imprints_scalar",
    "cacheline_vectors",
    "compress",
]

_U64 = np.uint64
#: ``_BIT[k]`` is imprint bit ``k``: a value's bit is one gather.
_BIT = np.left_shift(_U64(1), np.arange(64, dtype=_U64))


@dataclass(frozen=True, eq=False)
class ImprintsData:
    """The materialised imprint index of one column.

    Attributes
    ----------
    imprints:
        The stored (compressed) imprint vectors, ``uint64``.
    dictionary:
        The cacheline dictionary mapping stored vectors to cachelines.
    histogram:
        The binning used; imprint bit ``k`` corresponds to histogram
        bin ``k``.
    n_values:
        Number of column values covered.
    values_per_cacheline:
        The ``vpc`` constant of the column layout.
    """

    imprints: np.ndarray
    dictionary: CachelineDictionary
    histogram: Histogram
    n_values: int
    values_per_cacheline: int

    def __post_init__(self) -> None:
        imprints = np.ascontiguousarray(self.imprints, dtype=_U64)
        object.__setattr__(self, "imprints", imprints)
        if imprints.shape[0] != self.dictionary.n_imprint_rows:
            raise ValueError(
                f"{imprints.shape[0]} stored vectors but the dictionary "
                f"describes {self.dictionary.n_imprint_rows}"
            )

    @property
    def n_cachelines(self) -> int:
        return self.dictionary.n_cachelines

    def expand_vectors(self) -> np.ndarray:
        """The uncompressed per-cacheline imprint vectors.

        Inverse of the compression; used by the entropy metric, the
        Figure 3 renderer and the round-trip tests.
        """
        return self.imprints[self.dictionary.expand_rows()]

    # ------------------------------------------------------------------
    # size accounting (paper Section 6.2)
    # ------------------------------------------------------------------
    @property
    def imprints_nbytes(self) -> int:
        """Stored vectors at their logical width (bins / 8 bytes each)."""
        return self.imprints.shape[0] * self.histogram.imprint_width_bytes

    @property
    def dictionary_nbytes(self) -> int:
        return self.dictionary.nbytes

    @property
    def borders_nbytes(self) -> int:
        """The ``b[64]`` borders array of Algorithm 1's ``imp_idx``."""
        return self.histogram.borders.nbytes

    @property
    def nbytes(self) -> int:
        """Total index size in bytes."""
        return self.imprints_nbytes + self.dictionary_nbytes + self.borders_nbytes


def cacheline_vectors(
    histogram: Histogram, values: np.ndarray, values_per_cacheline: int
) -> np.ndarray:
    """The imprint vector of every cacheline of ``values`` (uint64).

    ``values`` starts on a cacheline boundary; a partial last cacheline
    gets the OR of the values it holds.  The values are walked in
    chunks of :data:`CHUNK_VALUES` rounded down to whole cachelines:
    bins, bits from :data:`_BIT`, one OR per cacheline.  The result, one
    word per cacheline, is the only allocation that grows with
    ``values``.
    """
    vpc = values_per_cacheline
    n = values.shape[0]
    vectors = np.empty(-(-n // vpc), dtype=_U64)
    step = max(1, CHUNK_VALUES // vpc) * vpc
    for start in range(0, n, step):
        chunk = values[start : start + step]
        # Bins are below 64 by construction; "wrap" skips the bounds check.
        bits = _BIT.take(histogram.get_bins(chunk), mode="wrap")
        line, full = start // vpc, chunk.shape[0] // vpc
        np.bitwise_or.reduce(
            bits[: full * vpc].reshape(-1, vpc), axis=1, out=vectors[line : line + full]
        )
        if full * vpc < chunk.shape[0]:
            vectors[line + full] = np.bitwise_or.reduce(bits[full * vpc :])
    return vectors


def _dictionary_step(imprints: list, counts: list, repeats: list, vector: int, cap: int) -> None:
    """Algorithm 1's dictionary update for one cacheline, in place.

    ``imprints[-1]`` is the previous cacheline's vector and
    ``counts[-1]``/``repeats[-1]`` the open entry.  The ``< cap`` guards
    are the paper's ``cnt < max_cnt - 1``: a repeat run that outgrows
    the cap stores its vector again and restarts, and a full distinct
    entry followed by an identical vector stores that vector again.
    """
    if imprints and vector == imprints[-1] and counts[-1] < cap:
        if not repeats[-1]:
            if counts[-1] != 1:
                counts[-1] -= 1
                counts.append(1)
                repeats.append(False)
            repeats[-1] = True
        counts[-1] += 1
    else:
        imprints.append(vector)
        if not repeats[-1] and counts[-1] < cap:
            counts[-1] += 1
        else:
            counts.append(1)
            repeats.append(False)


@dataclass(frozen=True)
class _Open:
    """Where the dictionary stands: the last cacheline's vector (also the
    last stored one; ``None`` before the first) and the open entry,
    which later cachelines may still grow (``count`` 0 before the first)."""

    last: int | None = None
    count: int = 0
    repeat: bool = False


def _grow(state: _Open, vectors: np.ndarray, cap: int):
    """What ``vectors`` (one per cacheline, at least one) add after
    ``state``: ``(stored vectors, closed counts, closed repeats, new
    state)``.  The closed entries replace ``state``'s open entry.

    Below the cap the dictionary is a function of the runs of equal
    vectors: each run stores its vector once (the run continuing
    ``state.last`` is stored already), a run of two or more cachelines
    is one repeat entry, and consecutive one-cacheline runs share a
    non-repeat entry.  No counter exceeds ``state.count + len(vectors)``
    in this push, so when that stays below ``cap`` one vectorised pass
    over the run boundaries equals Algorithm 1; otherwise the paper's
    per-cacheline step is replayed.
    """
    if state.count + vectors.shape[0] >= cap:
        return _replay(state, vectors, cap)
    n = vectors.shape[0]
    head = np.empty(n, dtype=bool)
    head[0] = state.last is None or vectors[0] != state.last
    np.not_equal(vectors[1:], vectors[:-1], out=head[1:])
    heads = np.flatnonzero(head)
    stored = vectors[heads]
    # Runs over the previous cacheline (if any) and the new ones.
    if state.last is None:
        starts, total = heads, n
    else:
        starts, total = np.concatenate(([0], heads + 1)), n + 1
    lengths = np.diff(starts, append=total)
    long = lengths >= 2
    closed = []
    if state.last is not None:
        if state.repeat:
            lengths[0] += state.count - 1
            long[0] = True
        elif not long[0]:
            lengths[0] += state.count - 1
        elif state.count > 1:
            # The last vector leaves its distinct entry for a repeat one.
            closed.append(state.count - 1)
    first = np.empty(lengths.shape[0], dtype=bool)
    first[0] = True
    np.logical_or(long[1:], long[:-1], out=first[1:])
    entries = np.flatnonzero(first)
    counts = np.add.reduceat(lengths, entries)
    repeats = long[entries]
    opened = _Open(int(vectors[-1]), int(counts[-1]), bool(repeats[-1]))
    return (
        stored,
        np.concatenate((np.array(closed, dtype=np.int64), counts[:-1])),
        np.concatenate((np.zeros(len(closed), dtype=bool), repeats[:-1])),
        opened,
    )


def _replay(state: _Open, vectors: np.ndarray, cap: int):
    """:func:`_grow` by the paper's per-cacheline step."""
    seeded = state.last is not None
    imprints = [state.last] if seeded else []
    counts, repeats = [state.count], [state.repeat]
    for vector in vectors.tolist():
        _dictionary_step(imprints, counts, repeats, vector, cap)
    return (
        np.array(imprints[seeded:], dtype=_U64),
        np.array(counts[:-1], dtype=np.int64),
        np.array(repeats[:-1], dtype=bool),
        _Open(imprints[-1], counts[-1], repeats[-1]),
    )


def _join(arrays, dtype) -> np.ndarray:
    return np.concatenate([np.empty(0, dtype), *arrays]).astype(dtype, copy=False)


def _assemble(parts: list, state: _Open):
    """Stored vectors and dictionary from the closed ``(stored, counts,
    repeats)`` parts and the open entry."""
    if state.count:
        parts = [*parts, (np.empty(0, _U64), [state.count], [state.repeat])]
    stored, counts, repeats = zip(*parts) if parts else ((), (), ())
    dictionary = CachelineDictionary(
        counts=_join(counts, np.uint32), repeats=_join(repeats, bool)
    )
    return _join(stored, _U64), dictionary


def _check_max_cnt(max_cnt: int) -> int:
    if max_cnt < 3:
        raise ValueError(f"max_cnt must be at least 3, got {max_cnt}")
    return max_cnt - 1


def compress(vectors: np.ndarray, max_cnt: int = MAX_CNT):
    """``(stored vectors, dictionary)`` of a whole cacheline sequence."""
    vectors = np.asarray(vectors, dtype=_U64)
    cap = _check_max_cnt(max_cnt)
    if vectors.shape[0] == 0:
        return _assemble([], _Open())
    *part, state = _grow(_Open(), vectors, cap)
    return _assemble([part], state)


class ImprintsBuilder:
    """Streaming, vectorised imprint construction.

    Feed values in any batch sizes; the builder keeps the partial
    trailing cacheline and the open dictionary entry so that appends
    (Section 4.1) are exactly "more feeds".  Stored vectors, counts and
    repeat flags are kept as NumPy arrays; :meth:`snapshot` emits the
    current index without disturbing the streaming state.
    """

    def __init__(
        self,
        histogram: Histogram,
        values_per_cacheline: int,
        max_cnt: int = MAX_CNT,
    ) -> None:
        if values_per_cacheline <= 0:
            raise ValueError(
                f"values_per_cacheline must be positive, got {values_per_cacheline}"
            )
        self.histogram = histogram
        self.vpc = values_per_cacheline
        self._cap = _check_max_cnt(max_cnt)
        # Closed (stored vectors, counts, repeats) arrays, one per push.
        self._parts: list = []
        self._state = _Open()
        self._n_values = 0
        self._tail_vector = 0  # imprint bits of the incomplete cacheline
        self._tail_count = 0  # values already in the incomplete cacheline

    @property
    def n_values(self) -> int:
        return self._n_values

    def feed(self, values) -> None:
        """Imprint a batch of values (chunked, vectorised)."""
        values = np.asarray(values, dtype=self.histogram.ctype.dtype)
        if values.ndim != 1:
            raise ValueError(f"values must be 1-D, got shape {values.shape}")
        if values.size == 0:
            return
        self._n_values += int(values.size)

        lines = []
        start = 0
        if self._tail_count:
            # Complete the partial cacheline first.
            start = min(self.vpc - self._tail_count, int(values.size))
            bits = _BIT.take(self.histogram.get_bins(values[:start]))
            self._tail_vector |= int(np.bitwise_or.reduce(bits))
            self._tail_count += start
            if self._tail_count < self.vpc:
                return
            lines.append(np.array([self._tail_vector], dtype=_U64))
            self._tail_vector = self._tail_count = 0

        body = values[start:]
        vectors = cacheline_vectors(self.histogram, body, self.vpc)
        partial = body.size % self.vpc
        if partial:
            self._tail_vector, self._tail_count = int(vectors[-1]), partial
            vectors = vectors[:-1]
        lines.append(vectors)
        vectors = np.concatenate(lines) if len(lines) > 1 else lines[0]
        if vectors.size:
            *part, self._state = _grow(self._state, vectors, self._cap)
            self._parts.append(part)

    def snapshot(self) -> ImprintsData:
        """Materialise the index for the values fed so far."""
        if len(self._parts) > 1:
            self._parts = [[np.concatenate(field) for field in zip(*self._parts)]]
        parts, state = list(self._parts), self._state
        if self._tail_count:
            tail = np.array([self._tail_vector], dtype=_U64)
            *part, state = _grow(state, tail, self._cap)
            parts.append(part)
        imprints, dictionary = _assemble(parts, state)
        return ImprintsData(
            imprints=imprints,
            dictionary=dictionary,
            histogram=self.histogram,
            n_values=self._n_values,
            values_per_cacheline=self.vpc,
        )


def build_imprints_scalar(
    column: Column,
    histogram: Histogram,
    max_cnt: int = MAX_CNT,
) -> ImprintsData:
    """Line-by-line port of the paper's Algorithm 1 (``imprints()``).

    One pass over the column; per value a bin lookup and a bit OR; per
    cacheline the dictionary update (:func:`_dictionary_step`).  Far
    slower than :class:`ImprintsBuilder` in Python terms but exactly the
    paper's control flow — the differential-testing ground truth.
    """
    cap = max_cnt - 1
    vpc = column.values_per_cacheline
    values = column.values

    imprints: list[int] = []
    counts: list[int] = [0]
    repeats: list[bool] = [False]

    imprint_v = 0
    in_cacheline = 0
    for value in values:
        bin_index = histogram.get_bin(value)
        imprint_v |= 1 << bin_index
        in_cacheline += 1
        if in_cacheline == vpc:
            _dictionary_step(imprints, counts, repeats, imprint_v, cap)
            imprint_v = 0
            in_cacheline = 0
    if in_cacheline:
        _dictionary_step(imprints, counts, repeats, imprint_v, cap)

    if counts[0] == 0:
        # The sentinel first entry was never used (empty column).
        counts.pop(0)
        repeats.pop(0)
    return ImprintsData(
        imprints=np.array(imprints, dtype=_U64),
        dictionary=CachelineDictionary(
            counts=np.array(counts, dtype=np.uint32),
            repeats=np.array(repeats, dtype=bool),
        ),
        histogram=histogram,
        n_values=int(values.shape[0]),
        values_per_cacheline=vpc,
    )
