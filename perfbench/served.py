"""The ``lookup`` and ``dashboard`` load generator: a second process,
two keep-alive HTTP connections, closed loop.

Each caller sends its next request only after the previous reply
arrived.  A latency is the time from sending the request to reading
the last byte of the reply.  Replies are kept as bytes; decoding them,
reducing each to the digest the check compares, and computing the
expected answers from the seed all happen after the last window.
"""

from __future__ import annotations

import json
import math
import os
import queue
import socket
import subprocess
import sys
import threading
import time

import gen

SETUP_REPEATS = 3
#: A traced run alternates untraced and traced slices of the window.
TRACE_SLICES = 4
WARMUP_SECONDS = 3.0
CALLERS = 2
#: Client-side socket timeout; the service's own deadline is 1 s.
SOCKET_TIMEOUT = 30.0
#: How long the serving process may take to answer one command.
COMMAND_TIMEOUT = 120.0


class Connection:
    """One keep-alive HTTP/1.1 connection over a plain socket.

    A request is one pre-formatted write and a reply is framed by its
    ``Content-Length`` (the server always sends one), so the client
    spends microseconds per request and little of its own cost lands in
    the measured latency.  Requests are numbered from 1, the same way
    the traced server numbers them.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self._open()

    def _open(self) -> None:
        self.sock = socket.create_connection(
            ("127.0.0.1", self.port), timeout=SOCKET_TIMEOUT
        )
        self.local_port = self.sock.getsockname()[1]
        self.buffer = bytearray()
        self.seq = 0

    def get(self, path: str):
        """``(tag, start, end, status, body)``; status None on a
        transport failure (the connection is then re-opened)."""
        self.seq += 1
        tag = (self.local_port, self.seq)
        request = f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode()
        start = time.perf_counter()
        try:
            self.sock.sendall(request)
            status, body = self._response()
            return tag, start, time.perf_counter(), status, body
        except (OSError, ValueError):
            end = time.perf_counter()
            self.close()
            self._open()
            return tag, start, end, None, b""

    def _response(self) -> tuple[int, bytes]:
        buffer = self.buffer
        while (head_end := buffer.find(b"\r\n\r\n")) < 0:
            self._fill()
        status_line, *headers = bytes(buffer[:head_end]).decode(
            "latin-1").split("\r\n")
        for header in headers:
            name, _, value = header.partition(":")
            if name.lower() == "content-length":
                length = int(value)
                break
        else:
            raise ValueError("reply without Content-Length")
        end = head_end + 4 + length
        while len(buffer) < end:
            self._fill()
        body = bytes(buffer[head_end + 4:end])
        del buffer[:end]
        return int(status_line.split(" ", 2)[1]), body

    def _fill(self) -> None:
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


class Record:
    """One request as sent and answered; the body is decoded and
    reduced to its digest by :meth:`Workload.check`, after the window."""

    __slots__ = ("request", "tag", "start", "end", "status", "body",
                 "nbytes", "ok")

    def __init__(self, request, tag, start, end, status, body):
        self.request = request
        self.tag = tag
        self.start = start
        self.end = end
        self.status = status
        self.body = body
        self.nbytes = len(body)
        self.ok = False

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class ServingProcess:
    """The program's process, driven line by line over its stdin."""

    def __init__(self, workload: str, seed: int, src: str, trace_path: str):
        here = os.path.dirname(os.path.abspath(__file__))
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(here, "server.py"), workload,
             str(seed), src, trace_path],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()
        self.expect("started")

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def expect(self, event: str) -> dict:
        try:
            line = self.lines.get(timeout=COMMAND_TIMEOUT)
        except queue.Empty:
            raise RuntimeError(f"serving process silent, wanted {event}")
        if line is None:
            raise RuntimeError(f"serving process exited, wanted {event}")
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"serving process sent {message}, wanted {event}")
        return message

    def command(self, name: str, reply: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self.expect(reply)

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=5)


class Workload:
    """Request stream, digests and reference answers of one workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self._expected: dict = {}
        if name == "lookup":
            columns = gen.lookup_columns(seed)
            self.views = {column: gen.SortedColumn(values, ids=column == "ts")
                          for column, values in columns.items()}
            self.stream = gen.LookupRequests(
                seed, self.views["ts"], self.views["fare"]
            )
            self.digest = gen.lookup_digest
        else:
            self.reference = gen.DashboardReference(*gen.dashboard_columns(seed))
            self.stream = gen.DashboardRequests(seed, self.reference.view)
            self.digest = gen.dashboard_digest
        self.firsts = self.stream.first_of_each_class()
        self.lock = threading.Lock()

    def next_request(self) -> dict:
        with self.lock:
            return self.stream.next()

    def expected(self, request: dict):
        key = request["path"]
        if key not in self._expected:
            if self.name == "lookup":
                answer = gen.lookup_expected(request, self.views)
            else:
                answer = self.reference.answer(request)
            self._expected[key] = answer
        return self._expected[key]

    def check(self, records) -> int:
        """Mark each record; returns how many failed."""
        failed = 0
        for record in records:
            if record.status == 200:
                try:
                    digest = self.digest(record.request, json.loads(record.body))
                except ValueError:
                    digest = None
                record.ok = digest == self.expected(record.request)
            record.body = None
            failed += not record.ok
        return failed


def window(workload: Workload, connections, seconds: float):
    """Closed-loop callers until the deadline; ``(records, start, end)``."""
    records: list[Record] = []
    deadline = time.perf_counter() + seconds

    def caller(connection: Connection) -> None:
        mine = []
        while time.perf_counter() < deadline:
            request = workload.next_request()
            mine.append(Record(request, *connection.get(request["path"])))
        records.extend(mine)

    start = time.perf_counter()
    threads = [threading.Thread(target=caller, args=(c,)) for c in connections]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = max((r.end for r in records), default=time.perf_counter())
    return records, start, end


def get_stats(port: int) -> dict:
    connection = Connection(port)
    try:
        _tag, _s, _e, status, body = connection.get("/stats")
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"/stats answered {status}")
    return json.loads(body)


def stats_delta(before: dict, after: dict) -> dict:
    """Counter increments between two ``/stats`` reads: every count in
    the service, admission, engine and cache sections, and the plans."""
    delta = {
        f"{section}.{key}": value - before[section][key]
        for section in ("service", "admission", "engine", "cache")
        for key, value in after[section].items()
    }
    old_plans = before.get("planner", {}).get("plans", {})
    for kind, count in after.get("planner", {}).get("plans", {}).items():
        delta[f"plans.{kind}"] = count - old_plans.get(kind, 0)
    return delta


def summed(deltas: list[dict]) -> dict:
    return {key: sum(d.get(key, 0) for d in deltas) for key in deltas[0]}


def stats_note(total: dict, sent: int) -> str:
    """The served-request accounting, as ``/stats`` saw it."""
    counts = ", ".join(
        f"{key} {total[key]:+d}" for key in (
            "service.requests", "service.served", "service.degraded",
            "service.rejected", "service.timed_out", "service.failed",
            "admission.admitted", "admission.rejected", "cache.hits",
            "cache.misses")
    )
    return f"/stats over the window: {counts}; {sent} requests sent"


def counter_layers(total: dict) -> dict:
    """Per-layer metrics from summed ``/stats`` increments."""
    lookups = total["engine.cache_hits"] + total["engine.cache_misses"]
    out = {
        "engine.executor.expired": float(total["engine.expired"]),
        "engine.cache.hit_ratio": (
            total["engine.cache_hits"] / lookups if lookups else 0.0),
    }
    plans = {key[6:]: n for key, n in total.items() if key.startswith("plans.")}
    for kind, n in plans.items():
        out[f"engine.planner.share.{kind}"] = n / max(1, sum(plans.values()))
    return out


def run(name: str, seed: int, seconds: float, trace: bool, src: str,
        out_dir: str) -> dict:
    from metrics import subwindow_medians

    began = time.perf_counter()
    workload = Workload(name, seed)
    trace_path = os.path.join(out_dir, f"spans-{name}.json")
    prepared = time.perf_counter()
    connections: list[Connection] = []
    checked: list[Record] = []
    setups: list[float] = []
    server = None
    try:
        # Each set-up sample is a fresh serving process; the last one
        # serves the timed window.
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server = ServingProcess(name, seed, src, trace_path)
            ready = server.command("build", "ready")
            port = ready["port"]
            first = Connection(port)
            for request in workload.firsts:
                checked.append(Record(request, *first.get(request["path"])))
            setups.append(time.monotonic() - ready["t0"])
            first.close()
        connections = [Connection(port) for _ in range(CALLERS)]
        warm, _start, _end = window(workload, connections, WARMUP_SECONDS)
        checked += warm
        # Traced runs alternate untraced and traced slices, so drift in
        # the program's state over the run cancels out of the overhead.
        slices = []
        count = TRACE_SLICES if trace else 1
        for index in range(count):
            traced = trace and index % 2 == 1
            if traced:
                server.command("trace", "tracing")
            elif index:
                server.command("untrace", "untraced")
            for connection in connections:
                connection.close()
            connections = [Connection(port) for _ in range(CALLERS)]
            before = get_stats(port)
            part, start, end = window(workload, connections, seconds / count)
            slices.append((traced, part, start, end,
                           stats_delta(before, get_stats(port))))
        for connection in connections:
            connection.close()
        connections = []
        done = server.command("finish", "done")
    finally:
        for connection in connections:
            connection.close()
        if server is not None:
            server.stop()
    measured = time.perf_counter()

    measuring = [s for s in slices if s[0] == trace]
    records = [record for s in measuring for record in s[1]]
    elapsed = sum(s[3] - s[2] for s in measuring)
    failed = workload.check(records)
    untraced = [record for s in slices if not s[0] for record in s[1]]
    failed_elsewhere = workload.check(checked) + (
        workload.check(untraced) if trace else 0)
    ok_count = sum(r.ok for r in records)
    counters = summed([s[4] for s in measuring])
    figures = subwindow_medians([
        ([(r.end, r.ms if r.ok else math.inf, r.ok) for r in s[1]], s[2], s[3])
        for s in measuring
    ])
    result = {
        "attempted": len(records),
        "failed": failed,
        "correct": failed == 0 and failed_elsewhere == 0,
        "end_to_end": {
            "ops_per_s": figures["ops_per_s"],
            "read_p50_ms": figures["p50_ms"],
            "read_p99_ms": figures["p99_ms"],
            "error_rate": failed / max(1, len(records)),
            "setup_s": sorted(setups)[len(setups) // 2],
            "peak_rss_mb": done["peak_rss_mb"],
        },
        "notes": [
            f"{len(records)} operations in {elapsed:.2f} s over "
            f"{CALLERS} connections; rates and percentiles are medians of "
            f"{figures['subwindows']} sub-windows; setup samples "
            + ", ".join(f"{s:.3f}" for s in setups) + " s",
            f"failed outside the measured window: {failed_elsewhere} of "
            f"{len(checked) + (len(untraced) if trace else 0)} (set-up, "
            "warm-up and untraced-slice requests)",
            stats_note(counters, len(records)),
            f"phases: inputs {prepared - began:.1f} s, serving "
            f"{measured - prepared:.1f} s, answer checks "
            f"{time.perf_counter() - measured:.1f} s",
        ],
    }
    if trace:
        untraced_s = sum(s[3] - s[2] for s in slices if not s[0])
        result["per_layer"] = traced_layers(
            trace_path, records, counter_layers(counters),
            done["sizes"],
            untraced_ops=sum(r.ok for r in untraced) / untraced_s,
            traced_ops=ok_count / elapsed,
        )
    return result


def traced_layers(trace_path, records, deltas, sizes, untraced_ops,
                  traced_ops) -> dict:
    from metrics import mean
    from spans import span_layers

    with open(trace_path) as source:
        export = json.load(source)
    # A request's HTTP self time is its round trip at the client minus
    # the service span the server recorded under the same tag.
    service = {tuple(s[5]): (s[4] - s[3]) / 1e6 for s in export["spans"]
               if s[2] == "serving.service" and s[5] is not None}
    http_self = [r.ms - service[r.tag] for r in records if r.tag in service]
    return {
        **span_layers(export, len(records)),
        "serving.http.self_ms": mean(http_self),
        "serving.http.response_bytes": mean(r.nbytes for r in records),
        "trace.overhead": untraced_ops / traced_ops,
        **deltas,
        **sizes,
    }
