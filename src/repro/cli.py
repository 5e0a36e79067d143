"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    Print Table 1 (dataset statistics) for the generated workloads.
``summary DATASET COLUMN``
    Build an imprint index over one generated column and print its
    summary (sizes, compression, entropy).
``print DATASET COLUMN``
    Render the column's imprint index the way the paper's Figure 3 does.
``entropy DATASET``
    Entropy E of every column of one dataset.
``query DATASET COLUMN LOW HIGH``
    Answer a range query with all four access methods, report agreement
    and per-method statistics.
``figure {3,4,5,6,7,8,9,10,11}``
    Regenerate one figure of the paper.
``STUDY [--rows N] [--smoke] [--json PATH]``
    Run one gated study of :data:`repro.bench.studies.STUDIES` —
    ``throughput``, ``materialization``, ``aggregates``, ``streaming``,
    ``serving``, ``durability``, ``replication``, ``planner`` or
    ``dashboard`` — at full size and print its table.  ``--smoke``
    shrinks it to CI size, ``--rows`` overrides the column length, and
    ``--json PATH`` also writes the ``BENCH_<study>.json`` artifact the
    regression gate reads.
``recover``
    Open a durable column store, replay its write-ahead log, and print
    the recovery report (replayed records, truncated torn tails,
    removed orphans, quarantined columns).
``replicate``
    Run a warm follower: poll a primary's ``/replicate/*`` endpoints,
    apply shipped WAL frames, optionally promote.
``serve``
    Run the HTTP serving layer (``/query`` ``/aggregate`` ``/page``
    ``/healthz`` ``/stats``) over a dataset's columns — or a synthetic
    demo column — until interrupted.  With ``--store ROOT`` the server
    fronts a ``DurableStore`` as a replication primary and the
    ``/replicate/*`` ship endpoints come alive.

Global options: ``--scale`` (dataset scale factor, default from
``REPRO_SCALE`` or 1.0) and ``--seed``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench.studies import STUDIES, render_study, run_study, write_json

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Column imprints (SIGMOD 2013) reproduction toolkit",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="dataset scale factor (default: REPRO_SCALE or 1.0)")
    parser.add_argument("--seed", type=int, default=0)
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="print Table 1")

    summary = commands.add_parser("summary", help="index summary of a column")
    summary.add_argument("dataset")
    summary.add_argument("column")

    prints = commands.add_parser("print", help="Figure-3 style imprint print")
    prints.add_argument("dataset")
    prints.add_argument("column")
    prints.add_argument("--lines", type=int, default=48)

    entropy = commands.add_parser("entropy", help="entropy of every column")
    entropy.add_argument("dataset")

    query = commands.add_parser("query", help="range query via all methods")
    query.add_argument("dataset")
    query.add_argument("column")
    query.add_argument("low", type=float)
    query.add_argument("high", type=float)

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=[3, 4, 5, 6, 7, 8, 9, 10, 11])

    for name, row in STUDIES.items():
        study = commands.add_parser(name, help=row["help"])
        rows, _ = row["sizes"]["n_rows"]
        study.add_argument("--rows", type=int, default=None,
                           help=f"column length (default: {rows:,} * scale)")
        study.add_argument("--smoke", action="store_true",
                           help="shrunken CI-sized workload")
        study.add_argument("--json", metavar="PATH", default=None,
                           help="also write the machine-readable result")

    recover = commands.add_parser(
        "recover",
        help="open a durable column store, replay its WAL and report",
    )
    recover.add_argument("root", help="column-store root directory")
    recover.add_argument("--table", default=None,
                         help="recover only this table (default: all)")
    recover.add_argument("--checkpoint", action="store_true",
                         help="checkpoint after recovery (fold the replayed "
                              "delta into fresh base snapshots, rotate WAL)")
    recover.add_argument("--json", action="store_true",
                         help="print machine-readable reports")

    replicate = commands.add_parser(
        "replicate",
        help="run a warm follower against a primary's /replicate endpoints",
    )
    replicate.add_argument("--follow", required=True, metavar="HOST:PORT",
                           help="the primary's serving address")
    replicate.add_argument("--root", required=True,
                           help="the follower's own column-store root")
    replicate.add_argument("--table", required=True,
                           help="the table to replicate")
    replicate.add_argument("--poll", type=float, default=0.5,
                           help="seconds between catch-up passes")
    replicate.add_argument("--max-lag", type=int, default=None,
                           help="bounded-staleness read gate (records)")
    replicate.add_argument("--once", action="store_true",
                           help="one catch-up pass, report, exit")
    replicate.add_argument("--promote", action="store_true",
                           help="catch up, promote to primary, report, exit")
    replicate.add_argument("--json", action="store_true",
                           help="print a machine-readable report")

    serve = commands.add_parser(
        "serve", help="run the HTTP serving layer until interrupted"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8100)
    serve.add_argument("--dataset", default=None,
                       help="serve every column of this generated dataset "
                            "(default: one synthetic demo column 'serve')")
    serve.add_argument("--rows", type=int, default=1_000_000,
                       help="demo column length when no --dataset is given")
    serve.add_argument("--store", metavar="ROOT", default=None,
                       help="serve a DurableStore at this root as a "
                            "replication primary (/replicate/* comes "
                            "alive; an empty store is seeded with the "
                            "demo column)")
    serve.add_argument("--table", default="t",
                       help="table name within --store (default: t)")
    serve.add_argument("--max-inflight", type=int, default=8)
    serve.add_argument("--max-waiting", type=int, default=32)
    serve.add_argument("--timeout", type=float, default=1.0,
                       help="default per-request budget in seconds")
    return parser


def _scale(args) -> float:
    if args.scale is not None:
        return args.scale
    from .workloads import default_scale

    return default_scale()


def _load_column(args):
    from .workloads import load_dataset

    dataset = load_dataset(args.dataset, scale=_scale(args), seed=args.seed)
    return dataset.column(args.column)


def _cmd_datasets(args) -> str:
    from .bench import get_context, render_table1

    return render_table1(get_context(scale=_scale(args), seed=args.seed))


def _cmd_summary(args) -> str:
    from .core import ColumnImprints
    from .core.render import render_column_summary

    entry = _load_column(args)
    index = ColumnImprints(entry.column)
    return render_column_summary(index.data, name=entry.qualified_name)


def _cmd_print(args) -> str:
    from .core import ColumnImprints, render_imprints

    entry = _load_column(args)
    index = ColumnImprints(entry.column)
    return render_imprints(index.data, max_lines=args.lines,
                           title=entry.qualified_name)


def _cmd_entropy(args) -> str:
    from .bench.tables import format_table
    from .core import ColumnImprints, column_entropy
    from .workloads import load_dataset

    dataset = load_dataset(args.dataset, scale=_scale(args), seed=args.seed)
    rows = []
    for entry in dataset:
        index = ColumnImprints(entry.column)
        rows.append(
            [entry.qualified_name, entry.type_name,
             column_entropy(index.data), 100.0 * index.overhead]
        )
    return format_table(
        headers=["column", "type", "entropy E", "imprints %"],
        rows=rows,
        title=f"column entropy: {args.dataset}",
    )


def _cmd_query(args) -> str:
    from .bench.tables import format_table
    from .core import ColumnImprints
    from .indexes import SequentialScan, WahBitmapIndex, ZoneMap

    entry = _load_column(args)
    column = entry.column
    imprints = ColumnImprints(column)
    methods = [
        ("scan", SequentialScan(column)),
        ("imprints", imprints),
        ("zonemap", ZoneMap(column)),
        ("wah", WahBitmapIndex(column, histogram=imprints.histogram)),
    ]
    rows = []
    reference = None
    for name, index in methods:
        result = index.query_range(args.low, args.high)
        if reference is None:
            reference = result.ids
        agreement = bool(np.array_equal(reference, result.ids))
        rows.append(
            [name, result.n_ids, agreement, result.stats.index_probes,
             result.stats.value_comparisons, result.stats.cachelines_fetched]
        )
    return format_table(
        headers=["method", "ids", "agrees", "probes", "comparisons", "fetched"],
        rows=rows,
        title=f"{entry.qualified_name} in [{args.low}, {args.high})",
    )


def _cmd_figure(args) -> str:
    from .bench import (
        get_context,
        render_fig3,
        render_fig4,
        render_fig5,
        render_fig6,
        render_fig7,
        render_fig8,
        render_fig9,
        render_fig10,
        render_fig11,
        run_query_sweep,
    )

    context = get_context(scale=_scale(args), seed=args.seed)
    if args.number == 3:
        return render_fig3(context)
    if args.number == 4:
        return render_fig4(context)
    if args.number == 5:
        return render_fig5(context)
    if args.number == 6:
        return render_fig6(context)
    if args.number == 7:
        return render_fig7(context)
    measurements = run_query_sweep(context)
    renderer = {8: render_fig8, 9: render_fig9, 10: render_fig10,
                11: render_fig11}[args.number]
    return renderer(measurements)


def _cmd_study(args) -> str:
    result = run_study(
        args.command, scale=_scale(args), seed=args.seed, smoke=args.smoke,
        n_rows=args.rows,
    )
    if args.json:
        write_json(result, args.json)
    return render_study(args.command, result)


def _cmd_recover(args) -> str:
    import json as json_module

    from .storage.durability.recovery import DurableStore
    from .storage.persist import ColumnStore

    store = ColumnStore(args.root)
    tables = [args.table] if args.table else store.tables()
    if not tables:
        return f"no tables under {args.root}"
    reports = []
    for table in tables:
        with DurableStore(args.root, table) as durable:
            if args.checkpoint:
                durable.checkpoint()
            reports.append(durable.report)
    if args.json:
        return json_module.dumps(
            [report.as_dict() for report in reports], indent=2
        )
    lines = []
    for report in reports:
        verdict = "clean" if report.clean else "recovered"
        lines.append(f"{report.table}: {verdict} (epoch {report.epoch})")
        lines.append(f"  columns: {', '.join(report.columns) or '-'}")
        if report.replayed:
            replayed = ", ".join(
                f"{name}={count}" for name, count in sorted(report.replayed.items())
            )
            lines.append(f"  replayed WAL records: {replayed}")
        if report.skipped_records:
            lines.append(
                f"  skipped (already checkpointed): {report.skipped_records}"
            )
        if report.torn_bytes:
            lines.append(f"  torn WAL tail truncated: {report.torn_bytes} bytes")
        if report.orphans_removed:
            lines.append(
                f"  orphans removed: {', '.join(report.orphans_removed)}"
            )
        for name, reason in sorted(report.quarantined.items()):
            lines.append(f"  QUARANTINED {name}: {reason}")
    return "\n".join(lines)


def _cmd_replicate(args) -> str:
    import json as json_module
    import time as time_module

    from .errors import DivergenceError
    from .storage.durability.replication import (
        HttpShipSource,
        ReplicaStore,
        ReplicationPartition,
    )

    address = args.follow
    if address.startswith("http://"):
        address = address[len("http://"):]
    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(f"--follow must be HOST:PORT, got {args.follow!r}")
    source = HttpShipSource(host, int(port_text))
    replica = ReplicaStore(
        args.root, args.table, source,
        max_lag_seq=args.max_lag,
    )

    def describe(report) -> list[str]:
        lines = []
        if report.bootstrapped:
            lines.append(
                f"bootstrapped ({replica.files_fetched} fetched so far, "
                f"{replica.files_reused} reused)"
            )
        if report.frames_applied:
            lines.append(f"applied {report.frames_applied} frames")
        for reason in report.divergences:
            lines.append(f"diverged: {reason}")
        return lines

    try:
        if args.once or args.promote:
            try:
                report = replica.catch_up()
            except ReplicationPartition as exc:
                raise SystemExit(f"primary unreachable: {exc}") from exc
            payload = replica.replication_info()
            payload["last_pass"] = report.as_dict()
            if args.promote:
                replica.promote()
                payload = replica.replication_info()
                payload["last_pass"] = report.as_dict()
            if args.json:
                return json_module.dumps(payload, indent=2)
            lines = describe(report) or ["caught up, nothing to apply"]
            lines.append(
                f"role={payload['role']} epoch={payload['epoch']} "
                f"applied_seq={payload['applied_seq']} lag={payload['lag']}"
            )
            return "\n".join(lines)
        while True:
            try:
                report = replica.catch_up()
            except ReplicationPartition as exc:
                print(f"partition: {exc}; retrying", flush=True)
            except DivergenceError as exc:
                print(f"diverged: {exc}; re-bootstrapping", flush=True)
            else:
                for line in describe(report):
                    print(line, flush=True)
            time_module.sleep(args.poll)
    except KeyboardInterrupt:
        pass
    finally:
        replica.close()
    return "stopped"


def _build_serve_indexes(args) -> dict:
    from .core import ColumnImprints

    if args.dataset:
        from .workloads import load_dataset

        dataset = load_dataset(args.dataset, scale=_scale(args),
                               seed=args.seed)
        return {
            entry.qualified_name: ColumnImprints(entry.column)
            for entry in dataset
        }
    from .storage import Column

    rng = np.random.default_rng(args.seed)
    walk = np.cumsum(rng.normal(0.0, 25.0, args.rows)) + 50_000.0
    column = Column(walk.astype(np.int32), name="serve")
    return {"serve": ColumnImprints(column)}


def _cmd_serve(args) -> str:
    import asyncio

    from .engine.executor import QueryExecutor
    from .serving.http import ServingHTTPServer
    from .serving.service import ImprintService, ServingConfig

    store = primary = None
    if args.store:
        from .storage.durability.recovery import DurableStore
        from .storage.durability.replication import ReplicationPrimary

        store = DurableStore(args.store, args.table)
        if not store.columns():
            rng = np.random.default_rng(args.seed)
            walk = np.cumsum(rng.normal(0.0, 25.0, args.rows)) + 50_000.0
            store.create_column("serve", walk.astype(np.int32))
        primary = ReplicationPrimary(store)
        indexes = {name: store.index(name) for name in store.columns()}
    else:
        indexes = _build_serve_indexes(args)
    config = ServingConfig(
        max_inflight=args.max_inflight,
        max_waiting=args.max_waiting,
        default_timeout=args.timeout,
    )

    async def run() -> None:
        executor = QueryExecutor(indexes)
        service = ImprintService(executor, config)
        if primary is not None:
            service.attach_replication(primary)
        try:
            async with ServingHTTPServer(
                service, host=args.host, port=args.port
            ) as server:
                host, port = server.address
                print(f"serving {sorted(indexes)} on http://{host}:{port}",
                      flush=True)
                if primary is not None:
                    print(f"  replication primary: table "
                          f"'{args.table}' at {args.store}, "
                          f"epoch {primary.epoch}", flush=True)
                print(f"  in flight <= {config.max_inflight}, "
                      f"waiting <= {config.max_waiting}, "
                      f"budget {config.default_timeout:.3g}s", flush=True)
                await server.serve_forever()
        finally:
            await service.close()
            if store is not None:
                store.close()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    return "stopped"


_COMMANDS = {
    "datasets": _cmd_datasets,
    "summary": _cmd_summary,
    "print": _cmd_print,
    "entropy": _cmd_entropy,
    "query": _cmd_query,
    "figure": _cmd_figure,
    "recover": _cmd_recover,
    "replicate": _cmd_replicate,
    "serve": _cmd_serve,
    **dict.fromkeys(STUDIES, _cmd_study),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        output = _COMMANDS[args.command](args)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
