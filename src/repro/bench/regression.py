"""Benchmark regression gate — compare fresh study runs to baselines.

Every gated study has a gate row in :data:`repro.bench.studies.STUDIES`
and :func:`gate` evaluates any of them.  Wall-clock numbers are not
comparable across machines (CI runners differ from the reference box),
so a row checks the *machine-portable* parts of a run:

* hard invariants — answers verified bit-identical, the serving
  overload contract, recovery and replication convergence — which
  fail immediately, no tolerance;
* full-size floors and ceilings — the acceptance headline each study
  exists to prove (sharded not slower than serial, first page >= 10x
  eager, planner within 10% of the best static backend, ...), widened
  by the ±25% tolerance and skipped on ``--smoke`` runs, whose timings
  sit at the noise floor;
* within-run ratios that must not drift more than ±25% from a baseline
  run of the same workload shape (the row's ``comparable`` config
  keys; ``cpu_count`` is deliberately not one of them, so a CI runner
  still compares against the reference box).

With ``REPRO_ASSERT_SPEEDUP`` set, full-size runs must also clear the
opt-in speedup claims.

Usage (what CI runs after writing fresh artifacts into ``FRESH_DIR``)::

    python -m repro.bench.regression FRESH_DIR --baseline benchmarks/results

Every ``BENCH_<study>.json`` in ``FRESH_DIR`` with a gate row is gated
against the same-named file in the baseline directory, if any.  Exit
status 0 means no regression; 1 lists the failures; 2 means there was
nothing to gate.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import pathlib

from .studies import STUDIES, TOLERANCE

__all__ = ["comparable", "gate", "main"]

_OPS = {">=": operator.ge, "<=": operator.le, "==": operator.eq}


def _child(doc, key):
    if isinstance(doc, list):
        return doc[int(key)] if -len(doc) <= int(key) < len(doc) else None
    return doc.get(key) if isinstance(doc, dict) else None


def _expand(doc, path: str, other=None) -> list[tuple[str, object]]:
    """``(concrete path, value)`` pairs for ``path`` (value ``None`` if
    missing).  ``*`` matches every list element or dict key — only the
    ones ``other`` also has, when given."""
    head, _, rest = path.partition(".")
    keys = [head]
    if head == "*":
        keys = range(len(doc)) if isinstance(doc, list) else list(doc or ())
        if other is not None:
            keys = [key for key in keys if _child(other, key) is not None]
    pairs = []
    for key in keys:
        child = _child(doc, key)
        if not rest:
            pairs.append((str(key), child))
            continue
        nested = None if other is None else _child(other, key)
        pairs += [
            (f"{key}.{where}", value)
            for where, value in _expand(child, rest, nested)
        ]
    return pairs


def _fmt(value) -> str:
    return f"{value:.2f}" if isinstance(value, float) else repr(value)


def _value(doc, path: str):
    """One field by dotted path (``None`` if missing); ``a/b`` divides
    two fields and is ``None`` unless both are non-zero."""
    if "/" in path:
        numerator, denominator = (_value(doc, p) for p in path.split("/"))
        return numerator / denominator if numerator and denominator else None
    return _expand(doc, path)[0][1]


def comparable(name: str, fresh: dict, baseline: dict) -> bool:
    """Whether two runs share the workload shape the row compares on."""
    fresh_config = fresh.get("config", {})
    baseline_config = baseline.get("config", {})
    return all(
        fresh_config.get(key) == baseline_config.get(key)
        for key in STUDIES[name].get("comparable", ())
    )


def _widen(limit: float, op: str, tolerance: float) -> float:
    """``limit`` loosened by ``tolerance`` in the direction ``op`` allows."""
    if op == ">=":
        return limit * (1.0 - tolerance)
    return limit * (1.0 + tolerance) if op == "<=" else limit


def _check(name: str, fresh: dict, check, tolerance: float) -> list[str]:
    path, op, limit, why = check
    failures = []
    for where, got in _expand(fresh, path):
        if isinstance(limit, str):  # cross-field: both sides must exist
            bound = _value(fresh, limit)
            if got is None or not bound:
                continue
        else:
            bound = _widen(limit, op, tolerance)
        if got is None or not _OPS[op](got, bound):
            failures.append(
                f"{name}: {why}: {where} = {_fmt(got)}, needs {op} {_fmt(bound)}"
            )
    return failures


def _drift(name: str, fresh: dict, baseline: dict, path: str, op: str):
    pairs = (
        [(path, _value(fresh, path))]
        if "/" in path
        else _expand(fresh, path, baseline)
    )
    failures = []
    for where, got in pairs:
        base = _value(baseline, where)
        if base is None:
            continue
        bound = _widen(base, op, TOLERANCE)
        got = 0.0 if got is None else got
        if not _OPS[op](got, bound):
            failures.append(
                f"{name} {where} {'regressed' if op == '>=' else 'grew'}: "
                f"{got:.2f}, needs {op} {bound:.2f} (baseline {base:.2f} "
                f"± {TOLERANCE:.0%})"
            )
    return failures


def gate(
    name: str,
    fresh: dict,
    baseline: dict | None = None,
    opt_in: bool = False,
) -> list[str]:
    """Evaluate study ``name``'s gate row; returns the failures.

    An empty list means the gate passes.  ``baseline`` may be ``None``
    (first run ever): only the self-contained checks run.  ``opt_in``
    adds the ``REPRO_ASSERT_SPEEDUP`` claims.
    """
    row = STUDIES[name]
    full_size = not fresh.get("config", {}).get("smoke")
    failures = []
    for check in row.get("invariants", ()):
        failures += _check(name, fresh, check, 0.0)
    if full_size:
        for check in row.get("full", ()):
            failures += _check(name, fresh, check, TOLERANCE)
        for check in row.get("opt_in", ()) if opt_in else ():
            failures += _check(name, fresh, check, 0.0)
    if (
        baseline is not None
        and (full_size or not row.get("full_size_baseline"))
        and comparable(name, fresh, baseline)
    ):
        for path in row.get("floors", ()):
            failures += _drift(name, fresh, baseline, path, ">=")
        for path in row.get("ceilings", ()):
            failures += _drift(name, fresh, baseline, path, "<=")
    return failures


def _load(path: pathlib.Path) -> dict | None:
    return json.loads(path.read_text()) if path.is_file() else None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.regression",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("fresh", help="directory of fresh BENCH_<study>.json")
    parser.add_argument(
        "--baseline", default=None,
        help="directory of baseline BENCH_<study>.json (optional)",
    )
    args = parser.parse_args(argv)
    opt_in = bool(os.environ.get("REPRO_ASSERT_SPEEDUP"))

    failures, gated = [], []
    for name in STUDIES:
        fresh = _load(pathlib.Path(args.fresh) / f"BENCH_{name}.json")
        if fresh is None:
            continue
        baseline = None
        if args.baseline:
            baseline = _load(pathlib.Path(args.baseline) / f"BENCH_{name}.json")
        if baseline is not None and not comparable(name, fresh, baseline):
            print(f"note: {name} baseline config differs; baseline "
                  f"comparison skipped, invariants still gate")
        failures += gate(name, fresh, baseline, opt_in=opt_in)
        gated.append(name)
    if not gated:
        print(f"no BENCH_<study>.json to gate in {args.fresh}")
        return 2
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        return 1
    print(f"gate passed: {', '.join(gated)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
