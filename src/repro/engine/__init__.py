"""The execution engine: batched, planned serving of imprint queries.

Layers, bottom up:

* :mod:`repro.engine.planner` — :class:`QueryPlanner` prices every
  candidate backend for a predicate (cost model × observed statistics)
  and :class:`MultiBackendIndex` hosts several access paths over one
  column, mutated in lockstep so any of them can serve any query;
* :mod:`repro.engine.executor` — :class:`QueryExecutor` sends a miss
  to its worker pool at once when the column is idle and batches the
  misses that arrive while one of the column's batches runs, coalesces
  identical in-flight predicates into one ``query`` each, caches hot
  results in a version-keyed LRU, and picks each predicate's access
  path through the planner at dispatch time;
* :mod:`repro.engine.cache` — the bounded LRU and the serving counters.
"""

from .cache import ExecutorStats, LRUCache
from .executor import QueryExecutor
from .planner import (
    MultiBackendIndex,
    PlanChoice,
    PlanStatistics,
    QueryPlanner,
    predicate_shape,
)

__all__ = [
    "ExecutorStats",
    "LRUCache",
    "MultiBackendIndex",
    "PlanChoice",
    "PlanStatistics",
    "QueryExecutor",
    "QueryPlanner",
    "predicate_shape",
]
