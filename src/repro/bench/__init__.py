"""Benchmark harness regenerating every table and figure of the paper.

One :func:`~repro.bench.runner.get_context` call builds all datasets
and indexes; the per-figure drivers consume it:

=========  ====================================  =========================
Exp.       Driver                                Bench file
=========  ====================================  =========================
Table 1    :mod:`repro.bench.datasets_table`     bench_table1_datasets.py
Figure 3   :mod:`repro.bench.prints_fig3`        bench_fig3_prints.py
Figure 4   :mod:`repro.bench.entropy_fig4`       bench_fig4_entropy_cdf.py
Figure 5   :mod:`repro.bench.size_time`          bench_fig5_size_time.py
Figure 6   :mod:`repro.bench.size_time`          bench_fig6_overhead.py
Figure 7   :mod:`repro.bench.size_time`          bench_fig7_overhead_entropy.py
Figures    :mod:`repro.bench.queries_fig8_11`    bench_fig8..11_*.py
8-11
=========  ====================================  =========================

The gated studies (throughput, materialisation, ..., dashboard) are
rows of :data:`repro.bench.studies.STUDIES`, run by ``python -m repro
<study>`` and gated by :mod:`repro.bench.regression`.
"""

from .datasets_table import render_table1, table1_rows
from .entropy_fig4 import entropy_cdf_rows, render_fig4
from .prints_fig3 import FIG3_COLUMNS, fig3_entropies, render_fig3
from .queries_fig8_11 import (
    QueryMeasurement,
    fig8_rows,
    fig9_rows,
    fig10_rows,
    fig11_rows,
    render_fig8,
    render_fig9,
    render_fig10,
    render_fig11,
    run_query_sweep,
)
from .query_kernels import (
    kernel_study_rows,
    query_compressed,
    query_expanded,
    render_kernel_study,
)
from .runner import METHODS, BenchContext, BuiltColumn, get_context, time_call
from .size_time import (
    fig5_rows,
    fig5_summary,
    fig6_rows,
    fig7_rows,
    render_fig5,
    render_fig6,
    render_fig7,
)
from .tables import format_bytes, format_seconds, format_table

__all__ = [
    "get_context",
    "BenchContext",
    "BuiltColumn",
    "METHODS",
    "time_call",
    "render_table1",
    "table1_rows",
    "render_fig3",
    "fig3_entropies",
    "FIG3_COLUMNS",
    "render_fig4",
    "entropy_cdf_rows",
    "render_fig5",
    "fig5_rows",
    "fig5_summary",
    "render_fig6",
    "fig6_rows",
    "render_fig7",
    "fig7_rows",
    "run_query_sweep",
    "QueryMeasurement",
    "render_fig8",
    "fig8_rows",
    "render_fig9",
    "fig9_rows",
    "render_fig10",
    "fig10_rows",
    "render_fig11",
    "fig11_rows",
    "render_kernel_study",
    "kernel_study_rows",
    "query_expanded",
    "query_compressed",
    "format_table",
    "format_bytes",
    "format_seconds",
]
