"""One benchmark for the served column-imprints system.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 45 --trace 0

Workloads (see ``catalog.json`` for sizes and the reasons each exists):

``lookup``     "find the rows": id-heavy HTTP queries over two 4M-row
               columns routed by the access-path planner;
``dashboard``  "refresh the panels": HTTP aggregates on one 4M-row
               column, mostly served from the result cache;
``ingest``     "write while reading": a durable store taking fsynced
               writes and checkpoints while an in-process executor reads.

Data and load come from ``--seed``.  Every answer is checked.  With
``--trace 0`` the run measures the untraced program and prints the
end-to-end metrics; with ``--trace 1`` the window alternates untraced
and traced quarters (span wrappers from ``spans.py``), and the run
prints the per-layer metrics from the traced ones plus the tracing
overhead.  Human-readable lines come first; the last line of stdout is
the JSON result.  ``python3 perfbench/selftest.py`` checks the
benchmark itself.  The program is built from ``src/`` next to this
directory; without it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("lookup", "dashboard", "ingest")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.makedirs(OUT, exist_ok=True)

    import metrics

    if args.workload == "ingest":
        import ingest

        result = ingest.run(args.seed, args.seconds, bool(args.trace), OUT)
    else:
        import served

        result = served.run(args.workload, args.seed, args.seconds,
                            bool(args.trace), SRC, OUT)
    for note in result["notes"]:
        print(note)
    chosen = report(args.workload, result, bool(args.trace), metrics)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics.render(chosen),
    }))
    return 0


def report(workload: str, result: dict, trace: bool, metrics) -> dict:
    """Print every metric with its unit; return those for the result
    line: the end-to-end ones untraced, the per-layer ones traced."""
    end_to_end = result["end_to_end"]
    print(f"end-to-end ({'traced run: see per-layer' if trace else 'untraced'})")
    for name, value in end_to_end.items():
        unit = metrics.END_TO_END[name][0]
        shown = "unbounded (failures)" if not math.isfinite(value) else f"{value:.6g}"
        print(f"  {name:<24} {shown} {unit}")
    if not trace:
        return {name: value for name, value in end_to_end.items()
                if name in metrics.reported_end_to_end(workload)}
    layers = result["per_layer"]
    self_ms = layers.pop("self_ms_per_op")
    chosen = {}
    print("per-layer (traced run)")
    for name, (unit, _better, _layer, _moves) in metrics.PER_LAYER.items():
        reason = metrics.absent_reason(workload, name)
        value = None if reason else layers.get(name)
        if reason is None and value is None:
            reason = "no call reached this layer while tracing"
        chosen[name] = 0.0 if value is None else float(value)
        shown = f"not measured: {reason}" if reason else f"{value:.6g} {unit}"
        print(f"  {name:<44} {shown}")
    print("self time per operation, by layer (traced run)")
    for layer, ms in sorted(self_ms.items(), key=lambda item: -item[1]):
        print(f"  {layer:<24} {ms:.4f} ms")
    overhead = chosen["trace.overhead"]
    print(f"tracing overhead: untraced ops/s is {overhead:.3f}x traced ops/s")
    return chosen


if __name__ == "__main__":
    sys.exit(main())
