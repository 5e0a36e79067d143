"""Smoke test for the one-shot experiment report generator."""

import pathlib

from repro.bench.report import generate_report
from repro.bench.studies import STUDIES


def test_report_writes_every_experiment(tmp_path):
    output = generate_report(tmp_path / "report", scale=0.05, verbose=False)
    names = {p.name for p in output.iterdir()}
    expected = {
        "INDEX.md",
        "table1_datasets.txt",
        "fig3_prints.txt",
        "fig4_entropy_cdf.txt",
        "fig5_size_time.txt",
        "fig6_overhead.txt",
        "fig7_overhead_entropy.txt",
        "fig8_query_selectivity.txt",
        "fig9_query_cdf.txt",
        "fig10_improvement.txt",
        "fig11_probes.txt",
        "update_study.txt",
        "ablations.txt",
        *(f"{name}.txt" for name in STUDIES),
    }
    assert expected <= names
    index_text = (output / "INDEX.md").read_text()
    for name in sorted(expected - {"INDEX.md"}):
        assert name in index_text
    # Every experiment file is non-trivial.
    for name in expected - {"INDEX.md"}:
        assert len((output / name).read_text()) > 100, name
