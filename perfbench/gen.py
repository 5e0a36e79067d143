"""Seeded inputs and reference answers for every workload.

The serving process and the load generator both call these functions
with the same seed, so the program receives only the generated columns
and the load generator can compute every expected answer itself.  Nothing here imports
the program under test: the reference answers are plain NumPy.
"""

from __future__ import annotations

import math

import numpy as np

LOOKUP_ROWS = 4_000_000
DASHBOARD_ROWS = 4_000_000
INGEST_BASE_ROWS = 1_000_000

#: Requests on ``lookup``: share of ``/query?mode=full`` on ``ts``.
LOOKUP_FULL_SHARE = 0.7
LOOKUP_FULL_SELECTIVITY = (1e-5, 5e-3)     # log-uniform
LOOKUP_PAGE_SELECTIVITY = (0.05, 0.40)     # uniform
PAGE_LIMIT = 100

#: ``dashboard``: hot predicates x request kinds = keys the LRU must hold.
DASHBOARD_HOT = 64
DASHBOARD_HOT_SHARE = 0.8
DASHBOARD_SELECTIVITY = (2e-3, 0.2)        # log-uniform
#: ``fares`` is a seasonal cycle plus jitter: every value band is crossed
#: ``2 * DASHBOARD_PERIODS`` times, each crossing smeared over a few
#: cachelines, so the cost of a miss is the same for every seed.
DASHBOARD_PERIODS = 64
DASHBOARD_SPAN = 100_000
DASHBOARD_JITTER = 80.0
N_REGIONS = 12
TOP_K = 10
#: The panel kinds, equally likely: (endpoint kind, op).
DASHBOARD_KINDS = (
    ("scalar", "count"), ("scalar", "sum"), ("scalar", "avg"),
    ("scalar", "var"), ("group", "count"), ("group", "sum"),
    ("group", "avg"), ("topk", None),
)

#: ``ingest`` mix and sizes.
INGEST_APPEND_ROWS = 1000
INGEST_MIX = (("append", 0.4), ("update", 0.1), ("count", 1 / 6),
              ("sum", 1 / 6), ("page", 1 / 6))
INGEST_SELECTIVITY = (1e-4, 0.05)          # log-uniform share of the value range
#: Mutations applied by the seeded pre-run whose WAL a reopen replays.
PRERUN_APPENDS = 100
PRERUN_UPDATES = 50


#: Why each workload exists, and its sizes.
WORKLOADS = {
    "lookup": {
        "why": "Id-heavy HTTP queries on two 4M-row columns through the "
               "planner: JSON ids, 2 ms batching, plan choice, kernels, "
               "RowSets. Unique predicates overflow the result cache.",
        "loop": "closed; a second process, 2 keep-alive HTTP connections",
        "rows": {"ts (random walk)": LOOKUP_ROWS, "fare (uniform)": LOOKUP_ROWS},
        "mix": {
            "/query mode=full on ts, 0.001%-0.5% log-uniform": LOOKUP_FULL_SHARE,
            "/query mode=page limit=100 on fare, 5%-40% uniform":
                round(1 - LOOKUP_FULL_SHARE, 3),
        },
        "cache": "every predicate unique; no request repeats a key of the "
                 "1024-entry LRU",
        "absent": "durability",
    },
    "dashboard": {
        "why": "Aggregate panels over HTTP on one 4M-row column: 80% zipf "
               "draws from 64 hot predicates (512 keys fit the 1024-entry "
               "LRU), 20% fresh. Cache hits plus pushdown.",
        "loop": "closed; a second process, 2 keep-alive HTTP connections",
        "rows": {f"fares ({DASHBOARD_PERIODS} triangle periods plus "
                 f"jitter)": DASHBOARD_ROWS,
                 f"region ({N_REGIONS} zipf groups)": DASHBOARD_ROWS},
        "mix": {f"/aggregate {shape}" + (f" {op}" if op else f" k={TOP_K}"):
                round(1 / len(DASHBOARD_KINDS), 4)
                for shape, op in DASHBOARD_KINDS},
        "cache": f"{DASHBOARD_HOT} hot predicates x {len(DASHBOARD_KINDS)} "
                 f"kinds = {DASHBOARD_HOT * len(DASHBOARD_KINDS)} keys against "
                 f"1024 entries; {DASHBOARD_HOT_SHARE:.0%} of requests hot; "
                 "fresh ones at 0.2%-20%",
        "absent": "planner, batching, large responses",
    },
    "ingest": {
        "why": "Writes while reading on a durable store with the serve "
               "--store defaults: WAL fsyncs, checkpoints, delta-overlay "
               "reads and cache invalidation. Not a declared workload.",
        "loop": "closed; in-process, one thread",
        "rows": {"base (random walk)": INGEST_BASE_ROWS,
                 "per append": INGEST_APPEND_ROWS},
        "mix": {name: round(share, 4) for name, share in INGEST_MIX},
        "cache": "reads keyed by unique predicates; writes invalidate",
        "absent": "HTTP, planner",
    },
}


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, *stream.encode()])


def random_walk(rng, n: int, step: float, start: float = 50_000.0):
    return (np.cumsum(rng.normal(0.0, step, n)) + start).astype(np.int32)


# ----------------------------------------------------------------------
# columns
# ----------------------------------------------------------------------
def lookup_columns(seed: int) -> dict[str, np.ndarray]:
    """``ts`` is clustered (a random walk), ``fare`` is uniform."""
    rng = _rng(seed, "lookup-data")
    return {
        "ts": random_walk(rng, LOOKUP_ROWS, 25.0),
        "fare": rng.integers(100, 100_000, LOOKUP_ROWS, dtype=np.int32),
    }


def dashboard_columns(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A clustered ``fares`` column and zipf-skewed region codes.

    ``fares`` rises and falls ``DASHBOARD_PERIODS`` times with Gaussian
    jitter.  A single random walk would cluster too, but how often it
    revisits a value band depends on the seed: over ten seeds its range
    spanned 49k-182k and a 2% band straddled 645-2445 cachelines, which
    set the cost of every miss, so on a 2-vCPU VM throughput ran from
    1.1k to 1.5k ops/s and p99 from 4.7 to 7.1 ms by seed alone.  Here
    the seed moves only the jitter.
    """
    rng = _rng(seed, "dashboard-data")
    phase = np.arange(DASHBOARD_ROWS) * (2.0 * DASHBOARD_PERIODS
                                         / DASHBOARD_ROWS) % 2.0
    cycle = DASHBOARD_SPAN * np.minimum(phase, 2.0 - phase)
    jitter = rng.normal(0.0, DASHBOARD_JITTER, DASHBOARD_ROWS)
    fares = (cycle + jitter + 10_000).astype(np.int32)
    weights = 1.0 / np.arange(1, N_REGIONS + 1)
    regions = rng.choice(
        N_REGIONS, size=DASHBOARD_ROWS, p=weights / weights.sum()
    ).astype(np.int64)
    return fares, regions


def ingest_base(seed: int) -> np.ndarray:
    return random_walk(_rng(seed, "ingest-data"), INGEST_BASE_ROWS, 25.0)


# ----------------------------------------------------------------------
# a sorted view answering range questions in O(log n)
# ----------------------------------------------------------------------
class SortedColumn:
    """Values sorted once, with prefix sums over the sort order.

    A half-open range ``low <= v < high`` is one contiguous slice of
    the sort order, so counts, id sums and value moments are two
    ``searchsorted`` calls and two prefix lookups.
    """

    def __init__(self, values: np.ndarray, *, ids: bool = False,
                 moments: bool = False) -> None:
        self.values = values
        self.order = np.argsort(values, kind="stable")
        self.sorted = values[self.order]
        if ids:
            self.id_prefix = np.concatenate(([0], np.cumsum(self.order)))
        if moments:
            wide = self.sorted.astype(np.int64)
            self.sum_prefix = np.concatenate(([0], np.cumsum(wide)))
            self.sq_prefix = np.concatenate(([0], np.cumsum(wide * wide)))

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def bounds_at(self, rank: int, width: int) -> tuple[int, int]:
        """``[low, high)`` starting at the value of sort rank ``rank``
        and covering about ``width`` rows."""
        n = len(self)
        low = int(self.sorted[rank])
        high = int(self.sorted[min(rank + width, n - 1)])
        return low, max(high, low + 1)

    def slice(self, low: int, high: int) -> tuple[int, int]:
        # Keys in the array's own dtype: a Python int would make NumPy
        # cast the whole array to int64 on every call.
        key = self.sorted.dtype.type
        return (
            int(self.sorted.searchsorted(key(low), "left")),
            int(self.sorted.searchsorted(key(high), "left")),
        )

    def count(self, low: int, high: int) -> int:
        a, b = self.slice(low, high)
        return b - a

    def id_sum(self, low: int, high: int) -> int:
        a, b = self.slice(low, high)
        return int(self.id_prefix[b] - self.id_prefix[a])

    def moments(self, low: int, high: int) -> tuple[int, int, int]:
        a, b = self.slice(low, high)
        return (
            b - a,
            int(self.sum_prefix[b] - self.sum_prefix[a]),
            int(self.sq_prefix[b] - self.sq_prefix[a]),
        )


def first_ids(values: np.ndarray, low: int, high: int, limit: int) -> list[int]:
    """The first ``limit`` row ids (ascending) with ``low <= v < high``."""
    found: list[int] = []
    start, chunk = 0, 8192
    n = values.shape[0]
    while start < n and len(found) < limit:
        part = values[start:start + chunk]
        hits = np.flatnonzero((part >= low) & (part < high))
        found.extend(int(start + i) for i in hits[: limit - len(found)])
        start += chunk
        chunk *= 4
    return found


def finalize_moment(op: str, count: int, total: int, total_sq: int):
    """AVG/VAR from exact integer moments, rounded the way the program
    documents it (correctly rounded big-int division, clamped var)."""
    if not count:
        return None
    mean = total / count
    if op == "avg":
        return float(mean)
    var = total_sq / count - mean * mean
    return float(var if var > 0.0 else 0.0)


# ----------------------------------------------------------------------
# request streams
# ----------------------------------------------------------------------
def _log_uniform(rng, bounds) -> float:
    lo, hi = bounds
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class LookupRequests:
    """The deterministic ``lookup`` request stream (unique predicates)."""

    def __init__(self, seed: int, ts: SortedColumn, fare: SortedColumn) -> None:
        self.rng = _rng(seed, "lookup-requests")
        self.columns = {"ts": ts, "fare": fare}
        self.seen: set = set()

    def first_of_each_class(self) -> list[dict]:
        """One request per class at the middle of its selectivity range,
        so set-up time does not hinge on one random draw."""
        return [self._make("full", math.sqrt(math.prod(LOOKUP_FULL_SELECTIVITY))),
                self._make("page", sum(LOOKUP_PAGE_SELECTIVITY) / 2)]

    def next(self) -> dict:
        kind = "full" if self.rng.random() < LOOKUP_FULL_SHARE else "page"
        return self._make(kind)

    def _make(self, kind: str, selectivity: float | None = None) -> dict:
        column = "ts" if kind == "full" else "fare"
        view = self.columns[column]
        n = len(view)
        if selectivity is None:
            selectivity = (
                _log_uniform(self.rng, LOOKUP_FULL_SELECTIVITY)
                if kind == "full"
                else self.rng.uniform(*LOOKUP_PAGE_SELECTIVITY)
            )
        width = max(1, int(round(selectivity * n)))
        while True:
            rank = int(self.rng.integers(0, n - width))
            low, high = view.bounds_at(rank, width)
            key = (column, low, high)
            if key not in self.seen:
                self.seen.add(key)
                break
        if kind == "full":
            path = f"/query?column={column}&low={low}&high={high}&mode=full"
        else:
            path = (f"/query?column={column}&low={low}&high={high}"
                    f"&mode=page&limit={PAGE_LIMIT}")
        return {"kind": kind, "column": column, "low": low, "high": high,
                "path": path}


def lookup_expected(request: dict, views: dict[str, SortedColumn]):
    view = views[request["column"]]
    low, high = request["low"], request["high"]
    if request["kind"] == "full":
        return ("full", view.count(low, high), view.id_sum(low, high))
    return ("page", view.count(low, high),
            first_ids(view.values, low, high, PAGE_LIMIT))


def lookup_digest(request: dict, body: dict):
    """What the check compares: count + id sum, or count + first page."""
    ids = body.get("ids") or []
    if request["kind"] == "full":
        if body.get("served_as") != "full" or len(ids) != body.get("count"):
            return ("full", -1, -1)
        return ("full", body["count"], sum(ids))
    if body.get("served_as") != "page":
        return ("page", -1, [])
    return ("page", body.get("count"), ids)


class DashboardRequests:
    """The ``dashboard`` stream: zipf draws from a hot predicate set,
    plus fresh one-off predicates."""

    def __init__(self, seed: int, fares: SortedColumn) -> None:
        self.rng = _rng(seed, "dashboard-requests")
        self.view = fares
        self.seen: set = set()
        # One hot selectivity from each of DASHBOARD_HOT equal slices of
        # the log range, in random rank order: every seed's hot set
        # spans the range the same way.
        strata = (np.arange(DASHBOARD_HOT)
                  + self.rng.random(DASHBOARD_HOT)) / DASHBOARD_HOT
        lo, hi = DASHBOARD_SELECTIVITY
        self.hot = [self._predicate(lo * (hi / lo) ** float(u))
                    for u in self.rng.permutation(strata)]
        weights = 1.0 / np.arange(1, DASHBOARD_HOT + 1)
        self.hot_cdf = np.cumsum(weights / weights.sum())

    def _predicate(self, selectivity: float | None = None) -> tuple[int, int]:
        n = len(self.view)
        while True:
            if selectivity is None:
                selectivity = _log_uniform(self.rng, DASHBOARD_SELECTIVITY)
            width = max(1, int(round(selectivity * n)))
            rank = int(self.rng.integers(0, n - width))
            bounds = self.view.bounds_at(rank, width)
            if bounds not in self.seen:
                self.seen.add(bounds)
                return bounds

    def first_of_each_class(self) -> list[dict]:
        """One request per class on one predicate at the middle of the
        selectivity range, grouped panels first.  With a scalar panel
        first, 8 of 18 serving processes kept ~60 MB more resident
        (which worker thread builds which sidecar is a race, and each
        thread has its own malloc arena), so peak_rss_mb had two modes
        11% apart; grouped first, 32 of 32 sat in the lower one."""
        bounds = self._predicate(math.sqrt(math.prod(DASHBOARD_SELECTIVITY)))
        kinds = sorted(DASHBOARD_KINDS, key=lambda kind: kind[0] != "group")
        return [self._make(bounds, kind) for kind in kinds]

    def next(self) -> dict:
        if self.rng.random() < DASHBOARD_HOT_SHARE:
            slot = int(np.searchsorted(self.hot_cdf, self.rng.random()))
            bounds = self.hot[min(slot, DASHBOARD_HOT - 1)]
        else:
            bounds = self._predicate()
        kind = DASHBOARD_KINDS[int(self.rng.integers(0, len(DASHBOARD_KINDS)))]
        return self._make(bounds, kind)

    @staticmethod
    def _make(bounds, kind) -> dict:
        low, high = bounds
        shape, op = kind
        path = f"/aggregate?column=fares&low={low}&high={high}"
        if shape == "scalar":
            path += f"&op={op}"
        elif shape == "group":
            path += f"&op={op}&group_by=region"
        else:
            path += f"&top_k={TOP_K}"
        return {"kind": f"{shape}:{op}" if op else shape, "shape": shape,
                "op": op, "low": low, "high": high, "path": path}


class DashboardReference:
    """Exact dashboard answers in O(groups * log n) per request: the
    fares sorted overall and within each region, with prefix sums."""

    def __init__(self, fares: np.ndarray, regions: np.ndarray) -> None:
        self.view = SortedColumn(fares, moments=True)
        self.groups = [
            SortedColumn(fares[regions == g], moments=True)
            for g in range(N_REGIONS)
        ]

    def answer(self, request: dict):
        low, high = request["low"], request["high"]
        shape, op = request["shape"], request["op"]
        if shape == "scalar":
            count, total, total_sq = self.view.moments(low, high)
            if op == "count":
                return count
            if op == "sum":
                return total
            return finalize_moment(op, count, total, total_sq)
        if shape == "topk":
            a, b = self.view.slice(low, high)
            return [int(v) for v in self.view.sorted[max(a, b - TOP_K):b][::-1]]
        out = {}
        for g, group in enumerate(self.groups):
            count, total, _ = group.moments(low, high)
            if count:
                out[str(g)] = (count if op == "count" else
                               total if op == "sum" else total / count)
        return out


def dashboard_digest(request: dict, body: dict):
    shape = request["shape"]
    if shape == "scalar":
        return body.get("value")
    if shape == "topk":
        return body.get("values")
    return body.get("groups")


class IngestOps:
    """The ``ingest`` operation stream.

    Appends continue the base walk; updates and read predicates are
    drawn against the row count and value range acknowledged so far, so the stream never depends on the program's
    answers.
    """

    def __init__(self, seed: int, stream: str, last_value: int) -> None:
        self.rng = _rng(seed, stream)
        self.last = float(last_value)
        names, weights = zip(*INGEST_MIX)
        self.names = names
        self.cdf = np.cumsum(weights) / sum(weights)

    def append_values(self) -> np.ndarray:
        steps = self.rng.normal(0.0, 25.0, INGEST_APPEND_ROWS)
        walk = self.last + np.cumsum(steps)
        self.last = float(walk[-1])
        return walk.astype(np.int32)

    def next(self, n_rows: int, lo_value: int, hi_value: int) -> dict:
        name = self.names[int(np.searchsorted(self.cdf, self.rng.random()))]
        if name == "append":
            return {"kind": "append", "values": self.append_values()}
        if name == "update":
            return self.next_update(n_rows, lo_value, hi_value)
        return self.next_read(name, lo_value, hi_value)

    def next_update(self, n_rows: int, lo_value: int, hi_value: int) -> dict:
        row = int(self.rng.integers(0, n_rows))
        value = int(self.rng.integers(lo_value, hi_value + 1))
        return {"kind": "update", "row": row, "value": value}

    def next_read(self, kind: str, lo_value: int, hi_value: int) -> dict:
        selectivity = _log_uniform(self.rng, INGEST_SELECTIVITY)
        span = max(1, int((hi_value - lo_value) * selectivity))
        low = int(self.rng.integers(lo_value, max(lo_value + 1, hi_value - span)))
        return {"kind": kind, "low": low, "high": low + span}
