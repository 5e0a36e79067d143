"""One-shot experiment report: every table and figure into a directory.

``python -m repro.bench [output_dir] [--scale S]`` regenerates the full
evaluation — Table 1, Figures 3-11, the Section 4 update study, all
ablations and every gated study of :data:`repro.bench.studies.STUDIES`
— writing one text file per experiment plus an ``INDEX.md`` linking
them.
"""

from __future__ import annotations

import pathlib
import time

from .ablations import render_ablations
from .datasets_table import render_table1
from .entropy_fig4 import render_fig4
from .prints_fig3 import render_fig3
from .query_kernels import render_kernel_study
from .queries_fig8_11 import (
    render_fig8,
    render_fig9,
    render_fig10,
    render_fig11,
    run_query_sweep,
)
from .runner import get_context
from .size_time import render_fig5, render_fig6, render_fig7
from .studies import STUDIES, render_study, run_study
from .updates_study import render_update_study

__all__ = ["generate_report"]


def generate_report(
    output_dir,
    scale: float = 1.0,
    seed: int = 0,
    verbose: bool = True,
) -> pathlib.Path:
    """Run everything; returns the output directory path."""
    output = pathlib.Path(output_dir)
    output.mkdir(parents=True, exist_ok=True)

    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    started = time.perf_counter()
    log(f"building datasets and indexes (scale={scale}) ...")
    context = get_context(scale=scale, seed=seed)
    log(f"  {len(context.built)} columns ready "
        f"({time.perf_counter() - started:.1f}s)")

    log("running the query sweep (all methods verified per query) ...")
    measurements = run_query_sweep(context)
    n_queries = len(measurements) // 4
    log(f"  {n_queries} queries x 4 methods")

    experiments = [
        ("table1_datasets", "Table 1 - dataset statistics",
         lambda: render_table1(context)),
        ("fig3_prints", "Figure 3 - imprint prints and entropy",
         lambda: render_fig3(context)),
        ("fig4_entropy_cdf", "Figure 4 - entropy CDF",
         lambda: render_fig4(context)),
        ("fig5_size_time", "Figure 5 - index size and creation time",
         lambda: render_fig5(context, per_column=True)),
        ("fig6_overhead", "Figure 6 - size overhead per dataset",
         lambda: render_fig6(context)),
        ("fig7_overhead_entropy", "Figure 7 - size overhead vs entropy",
         lambda: render_fig7(context)),
        ("fig8_query_selectivity", "Figure 8 - query time vs selectivity",
         lambda: render_fig8(measurements)),
        ("fig9_query_cdf", "Figure 9 - query time CDF",
         lambda: render_fig9(measurements)),
        ("fig10_improvement", "Figure 10 - improvement factors",
         lambda: render_fig10(measurements)),
        ("fig11_probes", "Figure 11 - probes and comparisons",
         lambda: render_fig11(measurements)),
        ("update_study", "Section 4 - update study",
         lambda: render_update_study()),
        ("query_kernels", "Query kernels - expanded vs compressed-domain",
         lambda: render_kernel_study(n=max(10_000, int(400_000 * scale)))),
        ("ablations", "Ablations - design-choice sweeps",
         lambda: render_ablations()),
    ] + [
        (name, row["title"],
         lambda name=name: render_study(name, run_study(name, scale, seed)))
        for name, row in STUDIES.items()
    ]

    index_lines = [
        "# Column Imprints reproduction report",
        "",
        f"scale = {scale}, seed = {seed}, "
        f"{len(context.built)} columns, {n_queries} queries per method",
        "",
    ]
    for name, title, renderer in experiments:
        log(f"rendering {name} ...")
        text = renderer()
        (output / f"{name}.txt").write_text(text + "\n")
        index_lines.append(f"- [{title}]({name}.txt)")
    (output / "INDEX.md").write_text("\n".join(index_lines) + "\n")
    log(f"report complete in {time.perf_counter() - started:.1f}s -> {output}")
    return output
