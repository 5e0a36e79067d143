"""Spans recorded from outside the program, and their reduction.

:class:`Tracer` wraps the public entry points of each layer (plus the
HTTP server's per-request handler, the only code that knows which
connection a request came on, and the executor's batch start) with
timing code installed by attribute replacement, so the program under
test is unchanged on disk.
Spans are kept in memory as ``(id, parent, name, start_ns, end_ns, tag,
n)`` tuples and written out when the run ends:

* ``parent`` comes from a context variable, so a span opened inside a
  request's asyncio task (or a thread started with ``to_thread``) is
  the child of the span that caused it; executor worker threads start
  without a parent and their batch span is the root there;
* ``tag`` is ``(client port, request number on that connection)``: the
  load generator numbers its requests the same way, so a client round trip and
  the server spans of the same request share an identifier;
* ``n`` is how many predicates a kernel span answered.

A layer's self time is its span durations minus the time their child
spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict

_now = time.perf_counter_ns

#: Span name -> the layer its self time is reported under.
SPAN_LAYERS = {
    "serving.http": "serving.http",
    "serving.admission": "serving.admission",
    "serving.service": "serving.service",
    "engine.executor": "engine.executor",
    "engine.executor.batch": "engine.executor",
    "engine.planner.choose": "engine.planner",
    "engine.planner.observe": "engine.planner",
    "core.index": "core.index",
    "indexes.zonemap": "indexes.zonemap",
    "indexes.scan": "indexes.scan",
    "indexes.wah": "indexes.wah",
    "core.aggregates": "core.aggregates",
    "core.rowset.ids": "core.rowset",
    "core.rowset.page": "core.rowset",
    "core.delta_index": "core.delta_index",
    "storage.durability": "storage.durability",
    "storage.checkpoint": "storage.durability",
}

#: Kernel span name -> planner backend kind.
BACKENDS = {
    "core.index": "imprints",
    "indexes.zonemap": "zonemap",
    "indexes.scan": "scan",
    "indexes.wah": "wah",
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.submitted: dict = {}          # future -> (submit ns, span)
        self.batch_waits_ns: list[int] = []
        self.batch_sizes: list[int] = []
        self.links: list[tuple] = []       # (submission span, batch span)
        # kind -> [predicted s, measured ns, value checks, cachelines, ids]
        self.kernels = defaultdict(lambda: [0.0, 0, 0, 0, 0])
        self.evictions = 0
        self.pending_rows: list[int] = []
        self._ids = itertools.count(1)
        self._span = contextvars.ContextVar("perfbench_span", default=None)
        self._tag = contextvars.ContextVar("perfbench_tag", default=None)
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _open(self):
        sid = next(self._ids)
        return sid, self._span.get(), self._span.set(sid), _now()

    def _close(self, sid, parent, token, start, name, n=1) -> int:
        end = _now()
        self._span.reset(token)
        self.spans.append((sid, parent, name, start, end, self._tag.get(), n))
        return end

    def timed(self, name: str, function):
        """``function`` (sync or async) wrapped in a span."""
        tracer = self
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def async_wrapper(*args, **kwargs):
                sid, parent, token, start = tracer._open()
                try:
                    return await function(*args, **kwargs)
                finally:
                    tracer._close(sid, parent, token, start, name)
            return async_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            sid, parent, token, start = tracer._open()
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(sid, parent, token, start, name)
        return wrapper

    def patch(self, owner, attr: str, replacement) -> None:
        own = attr in owner.__dict__
        self._patches.append((owner, attr, owner.__dict__.get(attr), own))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        self.patch(owner, attr, self.timed(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # ------------------------------------------------------------------
    # the layer wrappers
    # ------------------------------------------------------------------
    def install(self, *, http: bool = False, storage: bool = False) -> None:
        from repro.core import ColumnImprints, DeltaAwareImprints
        from repro.engine.cache import LRUCache
        from repro.engine.executor import QueryExecutor
        from repro.engine.planner import QueryPlanner
        from repro.index_base import QueryResult
        from repro.indexes import SequentialScan, WahBitmapIndex, ZoneMap
        from repro.serving.admission import AdmissionController
        from repro.serving.service import ImprintService

        if http:
            self._install_http()
        for method in ("query", "aggregate", "aggregate_grouped", "top_k"):
            self.wrap(ImprintService, method, "serving.service")
        self.wrap(AdmissionController, "acquire", "serving.admission")
        self._install_executor(QueryExecutor)
        for method in ("aggregate", "aggregate_grouped", "top_k"):
            self.wrap(QueryExecutor, method, "engine.executor")
        self.wrap(QueryPlanner, "choose", "engine.planner.choose")
        self.wrap(QueryPlanner, "observe", "engine.planner.observe")
        self._install_cache(LRUCache)
        for cls, name in ((ColumnImprints, "core.index"),
                          (ZoneMap, "indexes.zonemap"),
                          (SequentialScan, "indexes.scan"),
                          (WahBitmapIndex, "indexes.wah")):
            self._install_kernel(cls, name)
        for method in ("aggregate", "aggregate_grouped", "top_k"):
            self.wrap(ColumnImprints, method, "core.aggregates")
        self._install_result(QueryResult)
        self._install_delta(DeltaAwareImprints)
        if storage:
            from repro.storage.durability.recovery import DurableStore

            self.wrap(DurableStore, "append", "storage.durability")
            self.wrap(DurableStore, "update", "storage.durability")
            self.wrap(DurableStore, "checkpoint", "storage.checkpoint")

    def _install_http(self) -> None:
        from repro.serving.http import ServingHTTPServer

        tracer = self
        handle_request = ServingHTTPServer._handle_request
        served: dict = defaultdict(int)   # client port -> requests so far

        # Only the connection loop knows which connection a request came
        # on; the load generator opens fresh connections once tracing is on.
        async def on_request(server, head, reader, writer, buffer):
            peer = writer.get_extra_info("peername")[1]
            served[peer] += 1
            token = tracer._tag.set((peer, served[peer]))
            sid, parent, span_token, start = tracer._open()
            try:
                return await handle_request(server, head, reader, writer,
                                            buffer)
            finally:
                tracer._close(sid, parent, span_token, start, "serving.http")
                tracer._tag.reset(token)

        self.patch(ServingHTTPServer, "_handle_request", on_request)

    def _install_executor(self, executor_cls) -> None:
        tracer = self
        submit = executor_cls.submit
        run_batch = executor_cls._run_batch

        def on_submit(executor, *args, **kwargs):
            sid = next(tracer._ids)
            parent, tag, start = tracer._span.get(), tracer._tag.get(), _now()
            future = submit(executor, *args, **kwargs)
            with tracer._lock:
                tracer.submitted[future] = (start, sid)

            def done(_future):
                tracer.spans.append(
                    (sid, parent, "engine.executor", start, _now(), tag, 1)
                )
                with tracer._lock:  # answered without a batch (cache hit)
                    tracer.submitted.pop(_future, None)
            future.add_done_callback(done)
            return future

        # The batch start is the only point that sees which submissions
        # waited for it; no public method runs there.  Each submission
        # span is linked to the batch that answered it, so the batch's
        # work counts as the submission's child, not as its self time.
        def on_batch(executor, name, entries):
            sid, parent, token, start = tracer._open()
            with tracer._lock:
                for entry in entries:
                    submitted = tracer.submitted.pop(entry[1], None)
                    if submitted is not None:
                        tracer.batch_waits_ns.append(start - submitted[0])
                        tracer.links.append((submitted[1], sid))
                tracer.batch_sizes.append(len(entries))
            try:
                return run_batch(executor, name, entries)
            finally:
                tracer._close(sid, parent, token, start,
                              "engine.executor.batch", len(entries))

        self.patch(executor_cls, "submit", on_submit)
        self.patch(executor_cls, "_run_batch", on_batch)

    def _install_cache(self, cache_cls) -> None:
        tracer = self
        put, reweight = cache_cls.put, cache_cls.reweight

        # The LRU counts hits and misses but not evictions: an insert of
        # a new key that leaves the entry count unchanged evicted one.
        # Whether the key was new is visible only in the entry map.
        def on_put(cache, key, value, weight=0):
            before = len(cache) + (0 if key in cache._entries else 1)
            put(cache, key, value, weight)
            with tracer._lock:
                tracer.evictions += max(0, before - len(cache))

        def on_reweight(cache, key, weight):
            before = len(cache)
            kept = reweight(cache, key, weight)
            with tracer._lock:
                tracer.evictions += max(0, before - len(cache))
            return kept

        self.patch(cache_cls, "put", on_put)
        self.patch(cache_cls, "reweight", on_reweight)

    def _install_kernel(self, cls, name: str) -> None:
        from repro.sim import DEFAULT_COST_MODEL

        tracer = self
        kind = BACKENDS[name]
        inside = contextvars.ContextVar(f"perfbench_{kind}", default=False)

        def make(method, batched: bool):
            original = getattr(cls, method)

            @functools.wraps(original)
            def wrapper(index, *args, **kwargs):
                # A baseline's inherited query_batch calls its own
                # query per predicate: time the outermost call only.
                if inside.get():
                    return original(index, *args, **kwargs)
                flag = inside.set(True)
                sid, parent, token, start = tracer._open()
                n = len(args[0]) if batched else 1
                try:
                    results = original(index, *args, **kwargs)
                finally:
                    end = tracer._close(sid, parent, token, start, name, n)
                    inside.reset(flag)
                stats = [r.stats for r in (results if batched else [results])]
                with tracer._lock:
                    record = tracer.kernels[kind]
                    record[0] += sum(DEFAULT_COST_MODEL.query_time(s)
                                     for s in stats)
                    record[1] += end - start
                    record[2] += sum(s.value_comparisons for s in stats)
                    record[3] += sum(s.cachelines_fetched for s in stats)
                    record[4] += sum(s.ids_materialized for s in stats)
                return results
            return wrapper

        self.patch(cls, "query", make("query", False))
        self.patch(cls, "query_batch", make("query_batch", True))

    def _install_result(self, result_cls) -> None:
        tracer = self
        ids_property = result_cls.ids

        def ids_getter(result):
            if result.is_materialized:
                return ids_property.fget(result)
            sid, parent, token, start = tracer._open()
            try:
                return ids_property.fget(result)
            finally:
                tracer._close(sid, parent, token, start, "core.rowset.ids")

        self.patch(result_cls, "ids", property(ids_getter))
        self.wrap(result_cls, "page", "core.rowset.page")

    def _install_delta(self, delta_cls) -> None:
        tracer = self
        inside = contextvars.ContextVar("perfbench_delta", default=False)

        def make(method):
            original = getattr(delta_cls, method)

            # aggregate() calls query() while rows are pending: time and
            # count the outermost call only.
            @functools.wraps(original)
            def wrapper(index, *args, **kwargs):
                if inside.get():
                    return original(index, *args, **kwargs)
                flag = inside.set(True)
                tracer.pending_rows.append(index.n_pending)
                sid, parent, token, start = tracer._open()
                try:
                    return original(index, *args, **kwargs)
                finally:
                    tracer._close(sid, parent, token, start, "core.delta_index")
                    inside.reset(flag)
            return wrapper

        self.patch(delta_cls, "query", make("query"))
        self.patch(delta_cls, "aggregate", make("aggregate"))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export(self) -> dict:
        """Everything the reduction needs, JSON-ready."""
        return {
            "spans": [list(span) for span in self.spans],
            "batch_waits_ns": self.batch_waits_ns,
            "batch_sizes": self.batch_sizes,
            "links": self.links,
            "kernels": {kind: list(v) for kind, v in self.kernels.items()},
            "evictions": self.evictions,
            "pending_rows": self.pending_rows,
        }


# ----------------------------------------------------------------------
# reduction
# ----------------------------------------------------------------------
def self_times(spans, links=()) -> tuple[dict, dict]:
    """Per-layer total self time (ms) and span count.

    ``links`` are extra ``(span, child)`` pairs: a batch answers several
    submissions, so it covers part of each one's interval.
    """
    covered: dict = defaultdict(int)
    durations = {}
    for sid, parent, _name, start, end, _tag, _n in spans:
        durations[sid] = end - start
        if parent is not None:
            covered[parent] += end - start
    for span, child in links:
        covered[span] += durations.get(child, 0)
    total: dict = defaultdict(float)
    count: dict = defaultdict(int)
    for sid, _parent, name, start, end, _tag, _n in spans:
        layer = SPAN_LAYERS.get(name, name)
        total[layer] += max(0, end - start - covered.get(sid, 0)) / 1e6
        count[layer] += 1
    return dict(total), dict(count)


def span_layers(export: dict, ops: int) -> dict:
    """The per-layer metrics every workload derives the same way from
    its spans; ``None`` where no call reached the layer while tracing.
    ``self_ms_per_op`` maps each layer to its self time per operation."""
    from metrics import mean

    spans = export["spans"]
    totals, counts = self_times(spans, export["links"])

    def mean_ms(name: str):
        return mean(span_durations_ms(spans, name))

    choose_ms = mean_ms("engine.planner.choose")
    service_spans = counts.get("serving.service", 0)
    return {
        "serving.admission.wait_ms": mean_ms("serving.admission"),
        "serving.service.self_ms": (
            totals["serving.service"] / service_spans if service_spans else None),
        "engine.executor.wait_ms": mean(
            w / 1e6 for w in export["batch_waits_ns"]),
        "engine.executor.batch_size": mean(export["batch_sizes"]),
        "engine.cache.evictions": float(export["evictions"]),
        "engine.planner.choose_us": (
            None if choose_ms is None else 1e3 * choose_ms),
        "core.rowset.ids_ms": mean_ms("core.rowset.ids"),
        "core.rowset.page_ms": mean_ms("core.rowset.page"),
        "core.aggregates.ms": mean_ms("core.aggregates"),
        "core.delta_index.query_ms": mean_ms("core.delta_index"),
        "core.delta_index.pending_rows": mean(export["pending_rows"]),
        **kernel_metrics(export),
        "self_ms_per_op": {
            layer: ms / max(1, ops) for layer, ms in totals.items()},
    }


def span_durations_ms(spans, name: str) -> list[float]:
    return [(s[4] - s[3]) / 1e6 for s in spans if s[2] == name]


def kernel_metrics(export: dict) -> dict:
    """Per-backend ms per predicate, QueryStats ratios, counter/wall;
    ``None`` where no predicate reached the backend while tracing."""
    spans = export["spans"]
    out = {}
    for name, kind in BACKENDS.items():
        mine = [s for s in spans if s[2] == name]
        predicates = sum(s[6] for s in mine)
        wall = sum(s[4] - s[3] for s in mine)
        out[f"{name}.query_ms"] = wall / 1e6 / predicates if predicates else None
        predicted, measured, checks, lines, ids = export["kernels"].get(
            kind, [0.0, 0, 0, 0, 0]
        )
        out[f"sim.cost.predicted_over_measured.{kind}"] = (
            predicted / (measured / 1e9) if measured else None
        )
        if kind == "imprints":
            out["core.query.value_checks_per_id"] = checks / ids if ids else None
            out["core.query.cachelines_per_id"] = lines / ids if ids else None
    return out
