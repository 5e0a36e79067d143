"""Self-test of the benchmark's own machinery, on small inputs.

    python3 perfbench/selftest.py

Checks that the answer check rejects a corrupted answer, that a failed
operation sorts above every success in the percentiles, that the
``ingest`` mirror equals a store reopened from the run's directory
(and that a wrong mirror would not), that ``BENCHMARK.json`` and
``catalog.json`` agree with ``metrics.py``, and that without the
program's source the benchmark exits non-zero and prints no result.
Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import catalog  # noqa: E402
import gen  # noqa: E402
import metrics  # noqa: E402

# Small inputs: the checks exercise logic, not scale.
gen.LOOKUP_ROWS = gen.DASHBOARD_ROWS = 60_000
gen.INGEST_BASE_ROWS = 40_000
gen.PRERUN_APPENDS = 5

import ingest  # noqa: E402
import served  # noqa: E402

FAILURES: list[str] = []


def check(name: str, condition: bool) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {name}")
    if not condition:
        FAILURES.append(name)


def record(workload, request, body) -> "served.Record":
    raw = json.dumps(body).encode()
    return served.Record(request, (0, 1), 0.0, 0.001, 200, raw)


def answer_checks() -> None:
    lookup = served.Workload("lookup", seed=5)
    ts = lookup.views["ts"].values
    fare = lookup.views["fare"].values
    full = lookup.stream._make("full")
    ids = np.flatnonzero((ts >= full["low"]) & (ts < full["high"]))
    body = {"served_as": "full", "count": int(ids.shape[0]),
            "ids": [int(i) for i in ids]}
    good = record(lookup, full, body)
    shifted = dict(body, ids=body["ids"][:-1] + [body["ids"][-1] + 1])
    bad = record(lookup, full, shifted)
    check("lookup full: the true answer passes", lookup.check([good]) == 0)
    check("lookup full: one id shifted by one fails", lookup.check([bad]) == 1)

    page = lookup.stream._make("page")
    ids = np.flatnonzero((fare >= page["low"]) & (fare < page["high"]))
    body = {"served_as": "page", "count": int(ids.shape[0]),
            "ids": [int(i) for i in ids[: gen.PAGE_LIMIT]]}
    shifted = dict(body, ids=[body["ids"][0] + 1] + body["ids"][1:])
    check("lookup page: the true answer passes",
          lookup.check([record(lookup, page, body)]) == 0)
    check("lookup page: one id shifted by one fails",
          lookup.check([record(lookup, page, shifted)]) == 1)
    check("lookup: a non-200 fails", lookup.check([served.Record(
        full, (0, 1), 0.0, 1.0, 504, b"{}")]) == 1)

    dashboard = served.Workload("dashboard", seed=5)
    fares = dashboard.reference.view.values
    regions = gen.dashboard_columns(5)[1]
    for shape, op in gen.DASHBOARD_KINDS:
        request = dashboard.stream._make(dashboard.stream.hot[3], (shape, op))
        mask = (fares >= request["low"]) & (fares < request["high"])
        picked = fares[mask].astype(np.int64)
        if shape == "topk":
            truth = {"values": [int(v) for v in np.sort(picked)[::-1][:gen.TOP_K]]}
            wrong = {"values": truth["values"][:-1] + [truth["values"][-1] - 1]}
        elif shape == "group":
            groups = {}
            for g in np.unique(regions[mask]):
                member = picked[regions[mask] == g]
                total, n = int(member.sum()), int(member.shape[0])
                groups[str(g)] = {"count": n, "sum": total,
                                  "avg": total / n}[op]
            truth = {"groups": groups}
            key = sorted(groups)[0]
            wrong = {"groups": dict(groups, **{key: groups[key] + 1})}
        else:
            n, total = int(picked.shape[0]), int(picked.sum())
            mean = total / n
            value = {"count": n, "sum": total, "avg": mean,
                     "var": int((picked * picked).sum()) / n - mean * mean}[op]
            truth = {"value": value}
            wrong = {"value": value + 1}
        label = f"{shape} {op}" if op else shape
        check(f"dashboard {label}: the true answer passes",
              dashboard.check([record(dashboard, request, truth)]) == 0)
        check(f"dashboard {label}: a wrong answer fails",
              dashboard.check([record(dashboard, request, wrong)]) == 1)


def percentile_checks() -> None:
    successes = [float(i) for i in range(1, 99)]
    check("p99 of successes is a success",
          metrics.percentile(successes + [200.0, 300.0], 99) == 200.0)
    with_failures = successes + [math.inf, math.inf]
    check("a failed operation sorts above every success in p99",
          metrics.percentile(with_failures, 99) == math.inf)
    check("one failure in 100 leaves p99 at the slowest success",
          metrics.percentile(successes + [99.0, math.inf], 99) == 99.0)


def ingest_checks() -> None:
    root = tempfile.mkdtemp(prefix="selftest-ingest-", dir=ensure_out())
    live = os.path.join(root, "live")
    harness = ingest.Harness(7, root, None)
    try:
        harness.open(live)
        harness.window(0.5, part=0)
        outcomes = harness.check()
        check("ingest: the log replays on the mirror",
              len(outcomes) == len(harness.log) - 1)
        check("ingest: the mirror equals the reopened store",
              harness.reopened_matches(live))
        harness.final_mirror.values[0] += 1
        check("ingest: a mirror off by one row value does not",
              not harness.reopened_matches(live))
    finally:
        harness.close()
        shutil.rmtree(root, ignore_errors=True)


def record_checks() -> None:
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as source:
        declared = json.load(source)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]}
    check("BENCHMARK.json end-to-end metrics are the declared ones",
          list(e2e) == list(metrics.DECLARED_END_TO_END))
    check("BENCHMARK.json end-to-end units and directions match",
          all(e2e[n] == metrics.END_TO_END[n][:2] for n in e2e))
    layers = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    check("BENCHMARK.json per-layer metrics match metrics.py",
          layers == {n: v[:2] for n, v in metrics.PER_LAYER.items()})
    check("BENCHMARK.json workloads are the declared ones",
          [w["name"] for w in declared["workloads"]]
          == catalog.record()["declared_workloads"])
    check("BENCHMARK.json workload reasons match gen.WORKLOADS",
          all(w["why"] == gen.WORKLOADS[w["name"]]["why"]
              for w in declared["workloads"]))
    with open(catalog.PATH) as source:
        check("catalog.json is current", source.read() == catalog.render())


def missing_source_check() -> None:
    bare = tempfile.mkdtemp(prefix="selftest-bare-", dir=ensure_out())
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        os.mkdir(os.path.join(bare, "perfbench"))
        for name in os.listdir(HERE):
            if name.endswith((".py", ".json")):
                shutil.copy(os.path.join(HERE, name),
                            os.path.join(bare, "perfbench"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lookup",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check("without src/ the run exits non-zero",
              done.returncode != 0)
        check("without src/ the run prints no result", done.stdout == "")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def ensure_out() -> str:
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    return out


def main() -> int:
    answer_checks()
    percentile_checks()
    ingest_checks()
    record_checks()
    missing_source_check()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
