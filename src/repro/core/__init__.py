"""The paper's contribution: the column imprints index.

Public surface:

* :class:`~repro.core.index.ColumnImprints` — the index (build, query,
  append, update, rebuild);
* :func:`~repro.core.binning.binning` / :class:`~repro.core.binning.Histogram`
  — Algorithm 2;
* :class:`~repro.core.builder.ImprintsBuilder` /
  :func:`~repro.core.builder.build_imprints_scalar` — Algorithm 1
  (vectorised and paper-exact scalar);
* :func:`~repro.core.query.query_vectorized` /
  :func:`~repro.core.query.query_scalar` — Algorithm 3;
* :func:`~repro.core.conjunction.conjunctive_query` — multi-attribute
  late materialisation;
* :func:`~repro.core.entropy.column_entropy` — the clustering metric E;
* :mod:`~repro.core.render` — Figure 3 prints.
"""

from .advisor import AccessPlan, execute_with_plan, plan_query
from .aggregates import (
    AGGREGATE_OPS,
    GROUP_OPS,
    MOMENT_OPS,
    CachelineAggregates,
    GroupedAggregates,
    aggregate_candidates,
    aggregate_rowset,
    candidate_moments,
    finalize_grouped,
    grouped_candidates,
    grouped_gathered,
    reduce_gathered,
    topk_candidates,
    topk_gathered,
)
from .binning import DEFAULT_SAMPLE_SIZE, MAX_BINS, Histogram, binning, sample_column
from .bitvec import bits_to_str, hamming, popcount, str_to_bits
from .builder import ImprintsBuilder, ImprintsData, build_imprints_scalar
from .conjunction import (
    candidate_difference,
    candidate_union,
    conjunctive_aggregate,
    conjunctive_query,
    conjunctive_query_eager,
    disjunctive_query,
)
from .cursor import PageCursor, StaleCursorError
from .delta_index import DeltaAwareImprints
from .dictionary import CNT_BITS, MAX_CNT, CachelineDictionary
from .entropy import column_entropy, entropy_of_vectors
from .inlist import in_list_masks, query_in_list
from .getbin import ComparisonCounter, UnrolledGetBin, get_bin_loop
from .index import ColumnImprints
from .masks import cached_masks, edge_bins, make_masks
from .multilevel import MultiLevelImprints
from .parallel import build_imprints_parallel, partition_bounds
from .query import (
    materialize_ranges,
    query_ranges,
    query_scalar,
    query_vectorized,
)
from .ranges import (
    CandidateRanges,
    coalesce_ranges,
    difference_ranges,
    expand_ranges,
    ids_to_ranges,
    intersect_ranges,
    union_ranges,
)
from .render import render_compressed, render_imprints
from .rowset import RowSet
from .serialize import SerializationError, dump_imprints, load_imprints

__all__ = [
    "ColumnImprints",
    "Histogram",
    "binning",
    "sample_column",
    "DEFAULT_SAMPLE_SIZE",
    "MAX_BINS",
    "ImprintsBuilder",
    "ImprintsData",
    "build_imprints_scalar",
    "CachelineDictionary",
    "MAX_CNT",
    "CNT_BITS",
    "make_masks",
    "cached_masks",
    "edge_bins",
    "query_scalar",
    "query_vectorized",
    "query_ranges",
    "materialize_ranges",
    "CandidateRanges",
    "RowSet",
    "PageCursor",
    "StaleCursorError",
    "AGGREGATE_OPS",
    "CachelineAggregates",
    "GroupedAggregates",
    "GROUP_OPS",
    "MOMENT_OPS",
    "candidate_moments",
    "finalize_grouped",
    "grouped_candidates",
    "grouped_gathered",
    "topk_candidates",
    "topk_gathered",
    "aggregate_candidates",
    "aggregate_rowset",
    "reduce_gathered",
    "expand_ranges",
    "ids_to_ranges",
    "coalesce_ranges",
    "intersect_ranges",
    "union_ranges",
    "difference_ranges",
    "conjunctive_query",
    "conjunctive_query_eager",
    "conjunctive_aggregate",
    "disjunctive_query",
    "candidate_union",
    "candidate_difference",
    "column_entropy",
    "entropy_of_vectors",
    "MultiLevelImprints",
    "DeltaAwareImprints",
    "query_in_list",
    "in_list_masks",
    "build_imprints_parallel",
    "partition_bounds",
    "dump_imprints",
    "load_imprints",
    "SerializationError",
    "AccessPlan",
    "plan_query",
    "execute_with_plan",
    "ComparisonCounter",
    "UnrolledGetBin",
    "get_bin_loop",
    "render_imprints",
    "render_compressed",
    "bits_to_str",
    "str_to_bits",
    "popcount",
    "hamming",
]
