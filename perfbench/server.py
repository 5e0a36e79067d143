"""The serving process of the ``lookup`` and ``dashboard`` workloads.

Started by ``served.py`` as ``python3 server.py <workload> <seed> <src dir>
<spans file>``.
It makes the workload's columns from the seed, then obeys one command
per line on stdin and answers with one JSON line on stdout:

``build``   construct the program (indexes, executor, service, HTTP
            server on a free localhost port) and report ``{"port",
            "t0"}`` — ``t0`` is the monotonic clock when construction
            started, which the load generator subtracts from its first answers
            to get set-up time.  One build per process: a serving
            process starts once, and its peak memory is the measure;
``trace``   install the span wrappers (a traced slice follows);
``untrace`` remove them again (spans recorded so far are kept);
``finish``  stop the program, write the spans to the path given on the
            command line, and report memory and index sizes.

The program is built only from public constructors with their
defaults; it never sees anything but the generated columns.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import time


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def vm_hwm_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Program:
    """One constructed serving stack and its size accounting."""

    def __init__(self, workload: str, data) -> None:
        from repro.engine.executor import QueryExecutor
        from repro.serving.http import ServingHTTPServer
        from repro.serving.service import ImprintService
        from repro.storage import Column

        self.workload = workload
        if workload == "lookup":
            from repro.engine.planner import MultiBackendIndex, QueryPlanner

            self.indexes = {
                name: MultiBackendIndex.for_column(Column(values, name=name))
                for name, values in data.items()
            }
            executor = QueryExecutor(self.indexes, planner=QueryPlanner())
        else:
            from repro.core import ColumnImprints
            from repro.storage import GroupColumn

            fares, regions = data
            index = ColumnImprints(Column(fares, name="fares"))
            index.attach_group_column(
                "region", GroupColumn.from_codes(regions, int(regions.max()) + 1)
            )
            self.indexes = {"fares": index}
            executor = QueryExecutor(self.indexes)
        self.service = ImprintService(executor)
        self.server = ServingHTTPServer(self.service)

    async def start(self) -> int:
        await self.server.start()
        return self.server.port

    async def close(self) -> None:
        await self.server.close()
        await self.service.close()

    def sizes(self) -> dict:
        """Index bytes per row, per backend (and for the aggregate
        sidecars, which exist once a request has built them)."""
        rows = sum(len(index.column) for index in self.indexes.values())
        if self.workload == "lookup":
            per_kind: dict = {}
            for index in self.indexes.values():
                for kind, backend in index.backends.items():
                    per_kind[kind] = per_kind.get(kind, 0) + backend.nbytes
            return {f"engine.planner.bytes_per_row.{kind}": nbytes / rows
                    for kind, nbytes in per_kind.items()}
        index = self.indexes["fares"]
        sidecars = (index.cacheline_aggregates.nbytes
                    + index.grouped_aggregates("region").nbytes)
        return {"core.aggregates.bytes_per_row": sidecars / rows}


async def serve(workload: str, seed: int, trace_path: str) -> None:
    import gen

    data = (gen.lookup_columns(seed) if workload == "lookup"
            else gen.dashboard_columns(seed))
    loop = asyncio.get_running_loop()
    commands: asyncio.Queue = asyncio.Queue()

    def read_commands() -> None:
        for line in sys.stdin:
            loop.call_soon_threadsafe(commands.put_nowait, line.strip())
        loop.call_soon_threadsafe(commands.put_nowait, "")

    threading.Thread(target=read_commands, daemon=True).start()
    emit({"event": "started"})
    program = tracer = None
    try:
        while True:
            command = await commands.get()
            if command == "build" and program is None:
                t0 = time.monotonic()
                program = Program(workload, data)
                port = await program.start()
                emit({"event": "ready", "port": port, "t0": t0})
            elif command == "trace":
                if tracer is None:
                    from spans import Tracer

                    tracer = Tracer()
                tracer.install(http=True)
                emit({"event": "tracing"})
            elif command == "untrace":
                tracer.uninstall()
                emit({"event": "untraced"})
            elif command == "finish":
                if tracer is not None:
                    tracer.uninstall()
                    with open(trace_path, "w") as out:
                        json.dump(tracer.export(), out)
                sizes = program.sizes() if program is not None else {}
                emit({"event": "done", "peak_rss_mb": vm_hwm_mb(),
                      "sizes": sizes})
                return
            else:
                return  # stdin closed: the load generator is gone
    finally:
        if program is not None:
            await program.close()


def main() -> None:
    workload, seed, src, trace_path = sys.argv[1:5]
    sys.path.insert(0, src)
    asyncio.run(serve(workload, int(seed), trace_path))


if __name__ == "__main__":
    main()
