"""Gate replay: the declarative gate makes every decision the per-study
gates made.

``CASES`` feeds the nine committed ``BENCH_<study>.json`` artifacts
through :func:`repro.bench.regression.gate` — against themselves,
without a baseline, smoke-flipped, against a baseline of another
workload shape, and as mutated copies that trip every check.  Each
case's expected failure count was recorded from the hand-written
``check_<study>_regression`` functions and the opt-in
``REPRO_ASSERT_SPEEDUP`` asserts the gate rows replaced (``aggregates``
had no gate function: its benchmark exited non-zero on an unverified
run).  A case whose name starts with ``opt-in`` gates with the opt-in
rows on.
"""

from __future__ import annotations

import copy
import inspect
import json
import pathlib
import re
import shutil

import pytest

from repro.bench.regression import gate, main
from repro.bench.studies import STUDIES, TOLERANCE, _resolve, gate_table

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks/results"

#: An edit value that deletes the key instead of setting it.
DROP = object()

#: (study, case, expected failures, edits to the fresh copy, edits to
#: the baseline copy or ``None`` for no baseline).
CASES = [
    ("throughput", "self", 0, {}, {}),
    ("throughput", "no-baseline", 0, {}, None),
    ("throughput", "unverified", 1, {"verified_bit_identical": False}, {}),
    ("throughput", "executor-drop", 1,
     {"modes.executor.speedup_vs_serial": 2.0}, {}),
    ("throughput", "executor-within-band", 0,
     {"modes.executor.speedup_vs_serial": 3.5}, {}),
    ("throughput", "smoke", 0,
     {"config.smoke": True, "modes.executor.speedup_vs_serial": 2.0}, {}),
    ("throughput", "smoke-vs-smoke-drop", 1,
     {"config.smoke": True, "modes.executor.speedup_vs_serial": 2.0},
     {"config.smoke": True}),
    ("throughput", "config-mismatch-drop", 0,
     {"config.n_rows": 1000, "modes.executor.speedup_vs_serial": 2.0}, {}),
    ("throughput", "cpu-count-mismatch-drop", 1,
     {"config.cpu_count": 64, "modes.executor.speedup_vs_serial": 2.0}, {}),
    ("throughput", "fresh-mode-missing", 0, {"modes.executor": DROP}, {}),
    ("throughput", "opt-in", 0, {}, {}),
    ("throughput", "opt-in-executor-below", 1,
     {"modes.executor.speedup_vs_serial": 2.5}, None),
    ("throughput", "opt-in-smoke", 0,
     {"config.smoke": True, "modes.executor.speedup_vs_serial": 2.5}, None),
    ("materialization", "self", 0, {}, {}),
    ("materialization", "no-baseline", 0, {}, None),
    ("materialization", "unverified", 1,
     {"verified_bit_identical": False}, {}),
    ("materialization", "count-drop", 1,
     {"headline.speedup_count_vs_eager": 1.0}, {}),
    ("materialization", "cached-drop", 1,
     {"headline.speedup_cached_vs_eager": 100.0}, {}),
    ("materialization", "smoke", 0,
     {"config.smoke": True, "headline.speedup_count_vs_eager": 1.0}, {}),
    ("materialization", "smoke-vs-smoke-drop", 1,
     {"config.smoke": True, "headline.speedup_count_vs_eager": 1.0},
     {"config.smoke": True}),
    ("materialization", "config-mismatch-drop", 0,
     {"config.n_rows": 1000, "headline.speedup_count_vs_eager": 1.0}, {}),
    ("materialization", "fresh-key-missing", 1,
     {"headline.speedup_cached_vs_eager": DROP}, {}),
    ("materialization", "opt-in", 1, {}, {}),
    ("materialization", "opt-in-above", 0,
     {"headline.speedup_count_vs_eager": 6.0}, None),
    ("materialization", "opt-in-smoke", 0, {"config.smoke": True}, None),
    ("aggregates", "self", 0, {}, {}),
    ("aggregates", "no-baseline", 0, {}, None),
    ("aggregates", "unverified", 1, {"verified_bit_identical": False}, None),
    ("aggregates", "opt-in", 0, {}, {}),
    ("aggregates", "opt-in-below", 1,
     {"headline.min_speedup_vs_eager": 4.0}, None),
    ("aggregates", "opt-in-smoke", 0,
     {"config.smoke": True, "headline.min_speedup_vs_eager": 4.0}, None),
    ("streaming", "self", 0, {}, {}),
    ("streaming", "no-baseline", 0, {}, None),
    ("streaming", "unverified", 1, {"verified_bit_identical": False}, {}),
    ("streaming", "first-page-below-floor", 1,
     {"headline.speedup_first_page_vs_eager": 5.0}, None),
    ("streaming", "first-page-below-floor-vs-base", 2,
     {"headline.speedup_first_page_vs_eager": 5.0}, {}),
    ("streaming", "executor-page-drop", 1,
     {"headline.speedup_executor_page_vs_eager": 30.0}, {}),
    ("streaming", "smoke", 0,
     {"config.smoke": True, "headline.speedup_first_page_vs_eager": 5.0}, {}),
    ("streaming", "smoke-vs-smoke-drop", 1,
     {"config.smoke": True, "headline.speedup_executor_page_vs_eager": 30.0},
     {"config.smoke": True}),
    ("streaming", "page-size-mismatch-drop", 0,
     {"config.page_size": 50, "headline.speedup_executor_page_vs_eager": 30.0},
     {}),
    ("streaming", "opt-in", 0, {}, {}),
    ("streaming", "opt-in-below", 1,
     {"headline.speedup_first_page_vs_eager": 8.0}, None),
    ("serving", "self", 0, {}, {}),
    ("serving", "no-baseline", 0, {}, None),
    ("serving", "incomplete", 1, {"completed": False}, {}),
    ("serving", "unbalanced", 1, {"accounting_balanced": False}, {}),
    ("serving", "errors", 1, {"errors": 3}, {}),
    ("serving", "wrong-counts", 1, {"verified_counts": False}, {}),
    ("serving", "none-served", 1, {"served": 0}, {}),
    ("serving", "p99-over-budget", 1, {"latency_ms.p99": 3000.0}, None),
    ("serving", "p99-over-budget-vs-base", 2, {"latency_ms.p99": 3000.0}, {}),
    ("serving", "reject-slower-than-serving", 1,
     {"reject_latency_ms.p95": 300.0}, None),
    ("serving", "reject-p95-missing", 0,
     {"reject_latency_ms.p95": None}, None),
    ("serving", "tail-widened", 1, {"latency_ms.p50": 40.0}, {}),
    ("serving", "tail-p50-missing", 0, {"latency_ms.p50": None}, {}),
    ("serving", "smoke", 0,
     {"config.smoke": True, "latency_ms.p99": 3000.0}, {}),
    ("serving", "smoke-vs-smoke-tail", 1,
     {"config.smoke": True, "latency_ms.p50": 40.0}, {"config.smoke": True}),
    ("serving", "config-mismatch-tail", 0,
     {"config.rate_multiplier": 8.0, "latency_ms.p50": 40.0}, {}),
    ("durability", "self", 0, {}, {}),
    ("durability", "no-baseline", 0, {}, None),
    ("durability", "unverified", 1, {"verified_bit_identical": False}, {}),
    ("durability", "one-recovery-point", 1,
     {"recovery.1.bit_identical": False}, {}),
    ("durability", "every-recovery-point", 3,
     {"recovery.0.bit_identical": False,
      "recovery.1.bit_identical": False,
      "recovery.2.bit_identical": False},
     None),
    ("durability", "wal-overhead-grew", 1,
     {"headline.wal_overhead_ratio": 30.0}, {}),
    ("durability", "group-commit-drop", 1,
     {"headline.group_commit_speedup": 5.0}, {}),
    ("durability", "overhead-missing", 0,
     {"headline.wal_overhead_ratio": DROP}, {}),
    ("durability", "group-commit-missing", 1,
     {"headline.group_commit_speedup": DROP}, {}),
    ("durability", "smoke-vs-smoke-drop", 0,
     {"config.smoke": True, "headline.group_commit_speedup": 5.0},
     {"config.smoke": True}),
    ("durability", "config-mismatch-drop", 0,
     {"config.n_mutations": 400, "headline.group_commit_speedup": 5.0}, {}),
    ("replication", "self", 0, {}, {}),
    ("replication", "no-baseline", 0, {}, None),
    ("replication", "unverified", 1, {"verified_bit_identical": False}, {}),
    ("replication", "lagging", 1, {"headline.final_lag": 7}, {}),
    ("replication", "lag-missing", 1, {"headline.final_lag": DROP}, None),
    ("replication", "ship-overhead-grew", 1,
     {"headline.ship_overhead_ratio": 20.0}, {}),
    ("replication", "smoke-vs-smoke-grew", 0,
     {"config.smoke": True, "headline.ship_overhead_ratio": 20.0},
     {"config.smoke": True}),
    ("replication", "config-mismatch-grew", 0,
     {"config.n_rows": 20000, "headline.ship_overhead_ratio": 20.0}, {}),
    ("planner", "self", 0, {}, {}),
    ("planner", "no-baseline", 0, {}, None),
    ("planner", "unverified-smoke", 1,
     {"config.smoke": True, "verified_bit_identical": False}, None),
    ("planner", "strayed", 2,
     {"headline.max_planner_vs_best_static": 1.5}, {}),
    ("planner", "strayed-full-size-only", 1,
     {"headline.max_planner_vs_best_static": 1.38}, {}),
    ("planner", "strayed-from-baseline", 1,
     {"headline.max_planner_vs_best_static": 1.05},
     {"headline.max_planner_vs_best_static": 0.8}),
    ("planner", "ratio-missing", 1,
     {"headline.max_planner_vs_best_static": DROP}, {}),
    ("planner", "unselective-lost", 1,
     {"headline.low_selectivity_speedup_vs_imprints": 0.5}, None),
    ("planner", "unselective-lost-vs-base", 2,
     {"headline.low_selectivity_speedup_vs_imprints": 0.5}, {}),
    ("planner", "unselective-drift", 1,
     {"headline.low_selectivity_speedup_vs_imprints": 1.5}, {}),
    ("planner", "smoke", 0,
     {"config.smoke": True,
      "headline.max_planner_vs_best_static": 3.0,
      "headline.low_selectivity_speedup_vs_imprints": 0.2},
     {}),
    ("planner", "smoke-vs-smoke-drift", 0,
     {"config.smoke": True,
      "headline.low_selectivity_speedup_vs_imprints": 1.5},
     {"config.smoke": True}),
    ("planner", "seed-mismatch-drift", 0,
     {"config.seed": 1, "headline.low_selectivity_speedup_vs_imprints": 1.5},
     {}),
    ("dashboard", "self", 0, {}, {}),
    ("dashboard", "no-baseline", 0, {}, None),
    ("dashboard", "unverified-smoke", 1,
     {"config.smoke": True, "verified_bit_identical": False}, None),
    ("dashboard", "grouped-below-floor", 1,
     {"headline.min_grouped_speedup_vs_eager": 3.0}, None),
    ("dashboard", "grouped-below-floor-vs-base", 2,
     {"headline.min_grouped_speedup_vs_eager": 3.0}, {}),
    ("dashboard", "grouped-drift", 1,
     {"headline.min_grouped_speedup_vs_eager": 5.0}, {}),
    ("dashboard", "cached-drop", 1,
     {"headline.cached_speedup_grouped_sum": 100.0}, {}),
    ("dashboard", "topk-drop", 1, {"headline.topk_speedup_vs_eager": 1.0}, {}),
    ("dashboard", "smoke", 0,
     {"config.smoke": True, "headline.min_grouped_speedup_vs_eager": 0.1}, {}),
    ("dashboard", "smoke-vs-smoke-drop", 0,
     {"config.smoke": True, "headline.topk_speedup_vs_eager": 1.0},
     {"config.smoke": True}),
    ("dashboard", "regions-mismatch-drop", 0,
     {"config.n_regions": 6, "headline.topk_speedup_vs_eager": 1.0}, {}),
    ("dashboard", "opt-in", 0, {}, {}),
    ("dashboard", "opt-in-below", 1,
     {"headline.min_grouped_speedup_vs_eager": 4.0}, None),
]


def committed(study: str) -> dict:
    return json.loads((RESULTS / f"BENCH_{study}.json").read_text())


def edited(doc: dict, edits: dict) -> dict:
    doc = copy.deepcopy(doc)
    for path, value in edits.items():
        *parents, leaf = path.split(".")
        node = doc
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if isinstance(node, list):
            node[int(leaf)] = value
        elif value is DROP:
            del node[leaf]
        else:
            node[leaf] = value
    return doc


def run_case(study, case, fresh_edits, baseline_edits) -> list[str]:
    doc = committed(study)
    baseline = None if baseline_edits is None else edited(doc, baseline_edits)
    return gate(
        study,
        edited(doc, fresh_edits),
        baseline,
        opt_in=case.startswith("opt-in"),
    )


@pytest.mark.parametrize(
    "study, case, expected, fresh_edits, baseline_edits",
    CASES,
    ids=[f"{study}-{case}" for study, case, *_ in CASES],
)
def test_replays_the_recorded_decision(
    study, case, expected, fresh_edits, baseline_edits
):
    failures = run_case(study, case, fresh_edits, baseline_edits)
    assert len(failures) == expected, failures


def any_key(path: str) -> str:
    """``path`` as a regex, ``*`` matching one concrete key."""
    return re.escape(path).replace(re.escape("*"), "[^.]+")


def test_every_gate_check_is_tripped_by_some_case():
    failures = [
        failure
        for study, case, _, fresh_edits, baseline_edits in CASES
        for failure in run_case(study, case, fresh_edits, baseline_edits)
    ]
    for study, row in STUDIES.items():
        patterns = [
            f"{study}: {re.escape(check[3])}: "
            for kind in ("invariants", "full", "opt_in")
            for check in row.get(kind, ())
        ] + [
            rf"{study} {any_key(path)} (regressed|grew)"
            for path in (*row.get("floors", ()), *row.get("ceilings", ()))
        ]
        for pattern in patterns:
            assert any(re.match(pattern, f) for f in failures), pattern


def test_tolerance_is_the_documented_25_percent():
    assert TOLERANCE == 0.25


def test_benchmarks_doc_shows_the_current_gate_table():
    doc = RESULTS.parents[1] / "docs" / "BENCHMARKS.md"
    assert gate_table() in doc.read_text()


def test_table_sizes_are_the_run_functions_full_size_defaults():
    for study, row in STUDIES.items():
        parameters = inspect.signature(_resolve(row["run"])).parameters
        for key, (default, _) in row["sizes"].items():
            assert parameters[key].default == default, (study, key)
        assert committed(study)["config"]["n_rows"] == row["sizes"]["n_rows"][0]


def test_every_study_has_a_committed_artifact():
    assert sorted(p.name for p in RESULTS.glob("BENCH_*.json")) == sorted(
        f"BENCH_{study}.json" for study in STUDIES
    )


def test_committed_artifacts_pass_against_themselves(capsys):
    assert main([str(RESULTS), "--baseline", str(RESULTS)]) == 0
    assert "gate passed: " + ", ".join(STUDIES) in capsys.readouterr().out


def test_directory_gate_reports_failures_and_skips_unknown_files(
    tmp_path, capsys
):
    for study in ("throughput", "durability"):
        shutil.copy(RESULTS / f"BENCH_{study}.json", tmp_path)
    doc = edited(committed("planner"), {"verified_bit_identical": False})
    (tmp_path / "BENCH_planner.json").write_text(json.dumps(doc))
    (tmp_path / "BENCH_unknown.json").write_text("{}")  # no row: ignored
    assert main([str(tmp_path), "--baseline", str(RESULTS)]) == 1
    out = capsys.readouterr().out
    assert out.count("REGRESSION: ") == 1
    assert "REGRESSION: planner: did not verify" in out


def test_incomparable_baseline_is_noted_and_skipped(tmp_path, capsys):
    doc = edited(committed("streaming"), {"config.smoke": True})
    (tmp_path / "BENCH_streaming.json").write_text(json.dumps(doc))
    assert main([str(tmp_path), "--baseline", str(RESULTS)]) == 0
    assert "note: streaming baseline config differs" in capsys.readouterr().out


def test_nothing_to_gate_is_an_error(tmp_path, capsys):
    assert main([str(tmp_path)]) == 2
    assert "no BENCH_<study>.json" in capsys.readouterr().out


def test_opt_in_rows_follow_the_environment(monkeypatch, capsys):
    # The committed full-size materialisation artifact measures 2.83x
    # against its opt-in 5x count-only claim.
    monkeypatch.setenv("REPRO_ASSERT_SPEEDUP", "1")
    assert main([str(RESULTS)]) == 1
    out = capsys.readouterr().out
    assert out.count("REGRESSION: ") == 1
    assert "materialization: count-only below its 5x headline" in out
