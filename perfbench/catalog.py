"""The benchmark's full record: every metric and every workload.

``BENCHMARK.json`` holds only what the benchmark contract allows
(names, units, better directions, bounds, one line per workload).  This
record adds each metric's layer, what each per-layer metric should
move and where, and each workload's sizes and op mix.  It is built
from ``metrics.py`` and ``gen.py``; ``catalog.json`` is its committed
output, and ``selftest.py`` fails when the two drift apart.

    python3 perfbench/catalog.py            # print the record
    python3 perfbench/catalog.py --write    # refresh catalog.json
"""

from __future__ import annotations

import json
import os
import sys

import gen
import metrics

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog.json")


def record() -> dict:
    return {
        "declared_workloads": ["lookup", "dashboard"],
        "declared_end_to_end": list(metrics.DECLARED_END_TO_END),
        "workloads": gen.WORKLOADS,
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "layer": layer,
             "workloads": workloads.split()}
            for name, (unit, better, layer, workloads)
            in metrics.END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better, "layer": layer,
             "should_move": moves,
             "measured_on": [w for w in ("lookup", "dashboard", "ingest")
                             if metrics.absent_reason(w, name) is None]}
            for name, (unit, better, layer, moves)
            in metrics.PER_LAYER.items()
        ],
    }


def render() -> str:
    return json.dumps(record(), indent=2) + "\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        with open(PATH, "w") as out:
            out.write(render())
    else:
        sys.stdout.write(render())
