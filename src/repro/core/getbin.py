"""Scalar ``get_bin`` ports — the paper's cache-conscious binary search.

Section 2.5 describes an unusual implementation of the 64-way bin
search: the binary search is *unrolled* into nested if-statements
without else-branches, built from three macros — ``right`` (is the value
at or above a border?), ``middle`` (does it fall inside a bin?) and
``left`` (is it below a border?) — invoked in that order while halving
the search space.  Because every if is independent, a CPU can evaluate
the branches in parallel; the paper measured a 3x speed-up over a loop.
All branches may fire, and the *last* assignment to the result variable
wins, which is why the emitted code walks the bins from high to low.

Python has no branch-level parallelism, so the unrolled form brings no
speed here (the vectorised, branch-free level search of
:meth:`~repro.core.binning.Histogram.get_bins` is the fast path).  What this
module preserves is the *algorithm*: :func:`generate_unrolled_getbin`
emits the same right/middle/left structure the paper describes and
compiles it, and :func:`get_bin_loop` is the plain binary-search loop
used as the differential reference.  Both count comparisons so the
"3 x log2(64) = 18 comparisons per value" cost claim of Section 2.5 can
be measured (see ``benchmarks/bench_ablation_getbin.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ComparisonCounter",
    "get_bin_loop",
    "generate_unrolled_getbin",
    "UnrolledGetBin",
]


class ComparisonCounter:
    """Mutable comparison counter threaded through the scalar searches."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n

    def reset(self) -> None:
        self.count = 0


def get_bin_loop(
    borders,
    bins: int,
    value,
    counter: ComparisonCounter | None = None,
) -> int:
    """Plain binary-search ``get_bin``: the loop the paper unrolled.

    ``borders[k]`` is the exclusive right border of bin ``k``; only the
    first ``bins - 1`` entries participate.  Returns the bin index in
    ``[0, bins)``.
    """
    lo = 0
    hi = bins - 1  # candidate bins form [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if counter is not None:
            counter.add()
        if value < borders[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def generate_unrolled_getbin(bins: int) -> str:
    """Emit Python source for the paper's unrolled right/middle/left search.

    The generated function has the signature
    ``_getbin(b, v, counter)`` where ``b`` is the border array, ``v`` the
    value and ``counter`` a :class:`ComparisonCounter` (or ``None``).
    Following Section 2.5, the statements are generated from the highest
    bin downwards, every if-statement is independent (no else), and each
    halving level performs three comparisons — ``right``, ``middle``,
    ``left`` — so 64 bins cost 3 * log2(64) = 18 comparisons.
    """
    if bins < 2 or bins & (bins - 1):
        raise ValueError(f"bins must be a power of two >= 2, got {bins}")

    lines = [
        "def _getbin(b, v, counter):",
        "    res = 0",
        "    if counter is not None:",
        f"        counter.add({3 * (bins.bit_length() - 1)})",
    ]

    def emit(lo: int, hi: int, depth: int) -> None:
        """Emit checks for candidate bins ``[lo, hi]``.

        The paper's three macros map onto this structure as follows:
        ``right`` is the ``v >= border`` guard selecting the upper half
        (emitted first, like the paper's high-to-low scan), ``left`` is
        the ``v < border`` guard selecting the lower half, and ``middle``
        is the base-case assignment once a single bin remains.  No
        else-branches are used, matching Section 2.5.
        """
        pad = "    " * depth
        if lo == hi:
            lines.append(f"{pad}res = {lo}")
            return
        mid = (lo + hi + 1) // 2  # first bin of the upper half
        lines.append(f"{pad}if v >= b[{mid - 1}]:")
        emit(mid, hi, depth + 1)
        lines.append(f"{pad}if v < b[{mid - 1}]:")
        emit(lo, mid - 1, depth + 1)

    emit(0, bins - 1, 1)
    lines.append("    return res")
    return "\n".join(lines) + "\n"


class UnrolledGetBin:
    """A compiled unrolled ``get_bin`` for a fixed power-of-two bin count.

    >>> import numpy as np
    >>> g = UnrolledGetBin(8)
    >>> borders = np.array([10, 20, 30, 40, 50, 60, 70, 2**31 - 1])
    >>> g(borders, 5), g(borders, 10), g(borders, 69), g(borders, 70)
    (0, 1, 6, 7)
    """

    def __init__(self, bins: int) -> None:
        self.bins = bins
        self.source = generate_unrolled_getbin(bins)
        namespace: dict[str, object] = {}
        exec(compile(self.source, f"<unrolled getbin {bins}>", "exec"), namespace)
        self._fn = namespace["_getbin"]

    def __call__(self, borders, value, counter: ComparisonCounter | None = None) -> int:
        return self._fn(borders, value, counter)

    def over_array(self, borders, values: np.ndarray) -> np.ndarray:
        """Apply the unrolled search to every value (test/bench helper)."""
        return np.fromiter(
            (self._fn(borders, v, None) for v in values),
            dtype=np.int64,
            count=len(values),
        )
