"""Column Imprints — a cache-conscious secondary index.

Reproduction of Sidirourgos & Kersten, *Column Imprints: A Secondary
Index Structure*, SIGMOD 2013.

Quickstart::

    import numpy as np
    from repro import Column, ColumnImprints

    column = Column(np.random.default_rng(0).integers(0, 10**6, 2_000_000,
                                                      dtype=np.int32))
    index = ColumnImprints(column)
    result = index.query_range(1000, 5000)
    print(result.n_ids, "matching ids,",
          result.stats.cachelines_fetched, "cachelines touched")

Packages:

* :mod:`repro.core` — the imprints index (the paper's contribution);
* :mod:`repro.engine` — the execution engine: the micro-batching/
  coalescing/caching query executor and the access-path planner;
* :mod:`repro.storage` — the column-store substrate;
* :mod:`repro.indexes` — zonemap / WAH-bitmap / scan baselines;
* :mod:`repro.sim` — the memory-traffic cost model;
* :mod:`repro.workloads` — the five dataset simulators + query
  generator;
* :mod:`repro.bench` — the experiment harness regenerating every table
  and figure of the paper;
* :mod:`repro.serving` — the network-facing asyncio service: admission
  control, deadlines, graceful degradation, fault injection;
* :mod:`repro.errors` — the shared exception hierarchy
  (:class:`ReproError` and friends).
"""

from .errors import (
    AdmissionRejected,
    CorruptColumnError,
    DeadlineExceeded,
    ExecutorClosedError,
    QuarantinedColumnError,
    ReproError,
    StaleCursorError,
)
from .core import (
    ColumnImprints,
    Histogram,
    ImprintsBuilder,
    ImprintsData,
    RowSet,
    binning,
    column_entropy,
    conjunctive_query,
    render_imprints,
)
from .engine import QueryExecutor
from .index_base import QueryResult, QueryStats, SecondaryIndex
from .indexes import SequentialScan, WahBitmapIndex, ZoneMap
from .predicate import RangePredicate
from .sim import DEFAULT_COST_MODEL, CostModel
from .storage import CACHELINE_BYTES, Column, DeltaColumn, Table, encode_strings

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "StaleCursorError",
    "ExecutorClosedError",
    "AdmissionRejected",
    "DeadlineExceeded",
    "CorruptColumnError",
    "QuarantinedColumnError",
    "ColumnImprints",
    "Histogram",
    "ImprintsBuilder",
    "ImprintsData",
    "RowSet",
    "binning",
    "column_entropy",
    "conjunctive_query",
    "render_imprints",
    "QueryExecutor",
    "QueryResult",
    "QueryStats",
    "SecondaryIndex",
    "SequentialScan",
    "WahBitmapIndex",
    "ZoneMap",
    "RangePredicate",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "CACHELINE_BYTES",
    "Column",
    "DeltaColumn",
    "Table",
    "encode_strings",
]
