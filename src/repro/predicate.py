"""Range predicates with canonical half-open semantics.

The paper's query algorithm checks ``low <= v < high`` (Algorithm 3's
false-positive test), so the half-open interval is the canonical form
used throughout this library.  :meth:`RangePredicate.range` converts any
combination of inclusive/exclusive bounds into it, honouring the column
type:

* integer domains shift by one (``v > 3``  ->  ``v >= 4``), with ceil
  adjustments when a float bound is given for an integer column;
* float domains step to the adjacent representable value with
  ``nextafter``;
* bounds outside the type's domain collapse to ``-inf`` / ``+inf``
  sentinels, which every index treats as unbounded.

Keeping the bounds in the column's own number kind matters: the mask
construction compares them against histogram borders with *exact*
arithmetic (a float64 round-trip would corrupt comparisons for large
``int64`` borders and could produce false negatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .storage.types import ColumnType

__all__ = ["RangePredicate"]


def _next_up_int(value: int) -> int:
    return value + 1


def _next_up_float(value: float, dtype) -> float:
    """The next representable value *in the column's dtype*.

    NumPy compares a Python-float bound against a float32 array by
    casting the bound to float32 (NEP 50 weak promotion), so a float64
    epsilon step would round away to nothing; the step must happen at
    the column type's own resolution.
    """
    ftype = np.dtype(dtype).type
    return float(np.nextafter(ftype(value), ftype(np.inf)))


@dataclass(frozen=True)
class RangePredicate:
    """The canonical predicate ``low <= v < high``.

    ``low`` may be ``-inf`` and ``high`` may be ``+inf`` (unbounded
    sides).  For integer columns finite bounds are always Python ints;
    for float columns they are floats.  Construct via :meth:`range` or
    :meth:`point` rather than directly, unless the bounds are already
    canonical.
    """

    low: float | int
    high: float | int

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def range(
        cls,
        low,
        high,
        ctype: ColumnType,
        low_inclusive: bool = True,
        high_inclusive: bool = False,
    ) -> "RangePredicate":
        """Build the canonical predicate for a range query.

        Parameters mirror a user-level query ``low (<|<=) v (<|<=) high``
        through the two inclusivity flags (defaults reproduce the
        paper's ``low <= v < high``).
        """
        if ctype.is_float:
            # Quantise the bounds to the column's resolution first: the
            # comparisons inside ``matches`` happen at that resolution
            # anyway (weak scalar promotion casts the bound down).
            ftype = ctype.dtype.type
            lo = float(ftype(low)) if math.isfinite(low) else float(low)
            hi = float(ftype(high)) if math.isfinite(high) else float(high)
            if not low_inclusive and math.isfinite(lo):
                lo = _next_up_float(lo, ctype.dtype)
            if high_inclusive and math.isfinite(hi):
                hi = _next_up_float(hi, ctype.dtype)
        else:
            # Integer domain: float bounds are tightened to integers
            # first, then the inclusivity shifts happen in int space.
            lo = math.ceil(low) if math.isfinite(low) else low
            hi = math.ceil(high) if math.isfinite(high) else high
            if math.isfinite(lo):
                if not low_inclusive and lo == low:
                    lo = _next_up_int(int(lo))
                lo = int(lo)
            if math.isfinite(hi):
                if high_inclusive and hi == high:
                    hi = _next_up_int(int(hi))
                hi = int(hi)
        # Clamp to the domain: anything at or below the minimum is
        # unbounded below, anything above the maximum unbounded above.
        if lo <= ctype.min_value:
            lo = float("-inf")
        if hi > ctype.max_value:
            hi = float("inf")
        # Bounds entirely outside the domain make the predicate empty;
        # normalising here keeps out-of-range numbers away from NumPy
        # comparisons (which reject e.g. 300 against an int8 array).
        if (math.isfinite(lo) and lo > ctype.max_value) or (
            math.isfinite(hi) and hi <= ctype.min_value
        ):
            return cls(low=float("inf"), high=float("-inf"))
        return cls(low=lo, high=hi)

    @classmethod
    def point(cls, value, ctype: ColumnType) -> "RangePredicate":
        """The point query ``v == value`` as a canonical range."""
        return cls.range(value, value, ctype, high_inclusive=True)

    @classmethod
    def everything(cls) -> "RangePredicate":
        """The predicate matching every value."""
        return cls(low=float("-inf"), high=float("inf"))

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when no value can satisfy the predicate."""
        return not self.low < self.high

    @property
    def is_point(self) -> bool:
        """True for genuine equality predicates (``v == low``).

        In canonical half-open form a point query spans exactly one
        representable value: ``[v, v+1)`` on integer domains,
        ``[v, nextafter(v))`` on float domains (checked at both float32
        and float64 resolution, since the canonical bound was stepped at
        the column's own resolution).  A merely *narrow* float range —
        sub-unit width but many representable values — is not a point.
        """
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            return False
        if isinstance(self.low, int) and isinstance(self.high, int):
            return self.high == self.low + 1
        return self.high in (
            float(np.nextafter(np.float64(self.low), np.inf)),
            float(np.nextafter(np.float32(self.low), np.float32(np.inf))),
        )

    @property
    def low_unbounded(self) -> bool:
        return math.isinf(self.low) and self.low < 0

    @property
    def high_unbounded(self) -> bool:
        return math.isinf(self.high) and self.high > 0

    def matches(self, values: np.ndarray) -> np.ndarray:
        """Vectorised ``low <= v < high`` over an array."""
        values = np.asarray(values)
        if self.is_empty:
            return np.zeros(values.shape, dtype=bool)
        if not (self.low_unbounded or self.high_unbounded):
            # Two-sided: the first comparison is the result buffer.
            result = values >= self.low
            result &= values < self.high
            return result
        result = np.ones(values.shape, dtype=bool)
        if not self.low_unbounded:
            result &= values >= self.low
        if not self.high_unbounded:
            result &= values < self.high
        return result

    def matches_one(self, value) -> bool:
        """Scalar predicate test (used by the scalar Algorithm 3 port)."""
        if self.is_empty:
            return False
        ok = True
        if not self.low_unbounded:
            ok = ok and value >= self.low
        if not self.high_unbounded:
            ok = ok and value < self.high
        return bool(ok)

    def count(self, values: np.ndarray) -> int:
        """Number of matching values — the workload generator's
        exact-selectivity helper."""
        return int(np.count_nonzero(self.matches(values)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.low}, {self.high})"
