"""The HTTP front end — stdlib ``asyncio`` only, no framework.

A deliberately small HTTP/1.1 server exposing the
:class:`~repro.serving.service.ImprintService` endpoints:

=========================  ================================================
``GET /query``             ``column``, ``low``, ``high`` (+ ``mode``,
                           ``limit``, ``timeout_ms``) — range query,
                           degradable
``GET /aggregate``         ``column``, ``low``, ``high``, ``op`` (count/
                           sum/min/max/avg/var/std) — scalar pushdown;
                           plus ``group_by=`` (grouped count/sum/avg) or
                           ``top_k=`` (largest values, descending)
``GET /page``              ``column``, ``low``, ``high``, ``limit``
                           (+ ``cursor``, ``timeout_ms``) — cursor paging
``GET /healthz``           liveness + pressure (never admission-controlled)
``GET /stats``             service / admission / engine / cache counters
``GET /replicate/manifest``  bootstrap manifest (primary role only)
``GET /replicate/wal``     ``generation``, ``after`` (+ ``limit``,
                           ``follower``) — acknowledged WAL frames, base64
``GET /replicate/file``    ``name`` — one base file, base64 + CRC32
=========================  ================================================

The ``/replicate/*`` endpoints are never admission-controlled: shipping
to a follower must keep working precisely when read traffic saturates
the admission queue (otherwise load converts into replica lag).

Error mapping (the contract ``docs/SERVING.md`` documents)::

    AdmissionRejected      -> 429  + Retry-After header
    DeadlineExceeded       -> 504
    StaleCursorError       -> 410
    ExecutorClosedError    -> 503
    QuarantinedColumnError -> 503  (degraded, not dead: one corrupt
                                    column is fenced off, the rest of
                                    the store keeps answering)
    FollowerLagging        -> 503  + Retry-After header, lag in body
    DivergenceError        -> 503  (the follower is re-bootstrapping)
    NotPrimaryError        -> 409  (wrong role for the request)
    StalePrimaryError      -> 409  (fenced epoch; epochs in body)
    unknown column         -> 404
    bad parameters         -> 400
    anything else          -> 500

Responses are JSON.  Request lines, headers and bodies are
size-capped; a malformed or oversized request gets a 400 and the
connection is closed — a network-facing parser must never allocate
proportionally to hostile input.

Connection-level cancellation: while a request is being served the
connection is watched for client death.  If the socket reaches EOF (or
resets) before the response is written, the in-flight dispatch task is
**cancelled** — the service's ``try/finally`` releases the admission
slot immediately and the engine-side future is cancelled — instead of
the abandoned request holding capacity until its batch completes.
Bytes a pipelining client sends early are buffered, not mistaken for a
disconnect.
"""

from __future__ import annotations

import asyncio
import json
import math
import urllib.parse

from ..errors import (
    AdmissionRejected,
    DeadlineExceeded,
    DivergenceError,
    ExecutorClosedError,
    FollowerLagging,
    NotPrimaryError,
    QuarantinedColumnError,
    StaleCursorError,
    StalePrimaryError,
)
from .service import ImprintService

__all__ = ["ServingHTTPServer", "status_for_exception", "error_body"]

#: Upper bound on the request head (request line + headers).
MAX_HEAD_BYTES = 16 * 1024

#: How much the connection loop reads per call while buffering.
_READ_CHUNK = 64 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    410: "Gone",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _ClientDisconnected(Exception):
    """The client's socket died mid-request; the dispatch was cancelled."""


def status_for_exception(exc: BaseException) -> int:
    """The HTTP status one of the service's failures maps to."""
    if isinstance(exc, AdmissionRejected):
        return 429
    if isinstance(exc, DeadlineExceeded):
        return 504
    if isinstance(exc, StaleCursorError):
        return 410
    if isinstance(exc, (NotPrimaryError, StalePrimaryError)):
        return 409
    if isinstance(
        exc,
        (
            ExecutorClosedError,
            QuarantinedColumnError,
            FollowerLagging,
            DivergenceError,
        ),
    ):
        return 503
    if isinstance(exc, KeyError):
        return 404
    if isinstance(exc, (ValueError, TypeError)):
        return 400
    return 500


def error_body(exc: BaseException, status: int) -> dict:
    """The JSON body describing a failed request."""
    body = {
        "error": type(exc).__name__,
        "status": status,
        "detail": str(exc),
    }
    if isinstance(exc, AdmissionRejected):
        body["retry_after"] = exc.retry_after
    if isinstance(exc, FollowerLagging):
        body["retry_after"] = exc.retry_after
        body["lag"] = exc.lag
        body["max_lag_seq"] = exc.max_lag_seq
    if isinstance(exc, StalePrimaryError):
        body["seen_epoch"] = exc.seen_epoch
        body["current_epoch"] = exc.current_epoch
    if isinstance(exc, NotPrimaryError):
        body["role"] = exc.role
    return body


class ServingHTTPServer:
    """One listening socket serving one :class:`ImprintService`."""

    def __init__(
        self,
        service: ImprintService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ServingHTTPServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # port 0 means "pick one" — record what the kernel chose.
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> tuple[str, int]:
        return self.host, self.port

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def __aenter__(self) -> "ServingHTTPServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # the connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # The loop buffers reads itself (instead of readuntil) so the
        # same stream can be watched for EOF *while* a request is being
        # served — see _dispatch_watched.  Pipelined bytes the watcher
        # swallows land back in this buffer.
        buffer = bytearray()
        try:
            while True:
                head_end = buffer.find(b"\r\n\r\n")
                while head_end == -1:
                    if len(buffer) > MAX_HEAD_BYTES:
                        break
                    chunk = await reader.read(_READ_CHUNK)
                    if not chunk:
                        return  # client closed between requests
                    buffer += chunk
                    head_end = buffer.find(b"\r\n\r\n")
                if head_end == -1 or head_end + 4 > MAX_HEAD_BYTES:
                    await self._respond(
                        writer, 400,
                        {"error": "RequestTooLarge", "status": 400,
                         "detail": "request head exceeds limit"},
                        close=True,
                    )
                    return
                head = bytes(buffer[:head_end + 4])
                del buffer[:head_end + 4]
                keep_alive = await self._handle_request(
                    head, reader, writer, buffer
                )
                if not keep_alive:
                    return
        except _ClientDisconnected:
            return  # the dispatch was cancelled; nothing left to write
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            # Client went away (or the server is shutting down) —
            # admission slots are released by the service's own
            # try/finally, so a disconnect can never leak capacity.
            raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _handle_request(self, head, reader, writer, buffer) -> bool:
        try:
            request_line, *header_lines = (
                head.decode("latin-1").split("\r\n")
            )
            method, target, _version = request_line.split(" ", 2)
        except ValueError:
            await self._respond(
                writer, 400,
                {"error": "MalformedRequest", "status": 400,
                 "detail": "unparseable request line"},
                close=True,
            )
            return False
        headers = {}
        for line in header_lines:
            if ":" in line:
                key, value = line.split(":", 1)
                headers[key.strip().lower()] = value.strip()
        # Drain (and ignore) any body so keep-alive framing survives.
        length = int(headers.get("content-length", 0) or 0)
        if length:
            if length > MAX_HEAD_BYTES:
                await self._respond(
                    writer, 400,
                    {"error": "RequestTooLarge", "status": 400,
                     "detail": "request body exceeds limit"},
                    close=True,
                )
                return False
            while len(buffer) < length:
                chunk = await reader.read(_READ_CHUNK)
                if not chunk:
                    return False  # body truncated by a disconnect
                buffer += chunk
            del buffer[:length]
        keep_alive = headers.get("connection", "").lower() != "close"

        if method != "GET":
            await self._respond(
                writer, 405,
                {"error": "MethodNotAllowed", "status": 405,
                 "detail": f"{method} not supported"},
                close=not keep_alive,
            )
            return keep_alive

        parsed = urllib.parse.urlsplit(target)
        params = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parsed.query).items()
        }
        status, payload, extra_headers = await self._dispatch_watched(
            parsed.path, params, reader, buffer
        )
        await self._respond(
            writer, status, payload,
            close=not keep_alive, extra_headers=extra_headers,
        )
        return keep_alive

    # ------------------------------------------------------------------
    # dispatch with client-death watching
    # ------------------------------------------------------------------
    async def _dispatch_watched(
        self, path: str, params: dict[str, str], reader, buffer
    ) -> tuple[int, dict, dict]:
        """Run ``_dispatch`` while watching the socket for client death.

        A concurrent read on the connection distinguishes three cases:

        * it yields bytes — a pipelining client sent its next request
          early; the bytes go back into the connection buffer and the
          watch continues;
        * it yields EOF (or resets) — the client is gone: the dispatch
          task is **cancelled**, which unwinds the service coroutine's
          ``try/finally`` (releasing the admission slot now, not when
          the batch completes) and cancels the engine-side future;
        * the dispatch finishes first — the watch read is cancelled
          (an un-consumed read leaves the stream intact) and the
          response is returned normally.
        """
        dispatch = asyncio.ensure_future(self._dispatch(path, params))
        try:
            while True:
                watch = asyncio.ensure_future(reader.read(_READ_CHUNK))
                await asyncio.wait(
                    {dispatch, watch}, return_when=asyncio.FIRST_COMPLETED
                )
                if dispatch.done():
                    if watch.done():
                        try:
                            chunk = watch.result()
                        except (ConnectionResetError, BrokenPipeError, OSError):
                            chunk = b""
                        buffer += chunk
                    else:
                        watch.cancel()
                        try:
                            await watch
                        except (asyncio.CancelledError, ConnectionResetError,
                                BrokenPipeError, OSError):
                            pass
                    return await dispatch
                try:
                    chunk = watch.result()
                except (ConnectionResetError, BrokenPipeError, OSError):
                    chunk = b""
                if chunk:
                    buffer += chunk  # pipelined early bytes, keep serving
                    continue
                # EOF mid-dispatch: the client died.  Cancel the work.
                dispatch.cancel()
                try:
                    await dispatch
                except asyncio.CancelledError:
                    pass
                raise _ClientDisconnected()
        except asyncio.CancelledError:
            # The server itself is shutting down: take the dispatch
            # task down with the connection handler.
            dispatch.cancel()
            raise

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, path: str, params: dict[str, str]
    ) -> tuple[int, dict, dict]:
        try:
            if path == "/healthz":
                return 200, self.service.healthz(), {}
            if path == "/stats":
                return 200, self.service.stats_payload(), {}
            if path == "/query":
                payload = await self.service.query(
                    _required(params, "column"),
                    _number(params, "low"),
                    _number(params, "high"),
                    mode=params.get("mode", "auto"),
                    limit=_optional_int(params, "limit"),
                    timeout=_timeout(params),
                )
                return 200, payload, {}
            if path == "/aggregate":
                top_k = _optional_int(params, "top_k")
                group_by = params.get("group_by")
                if top_k is not None and group_by is not None:
                    raise ValueError(
                        "parameters 'top_k' and 'group_by' are exclusive"
                    )
                if top_k is not None:
                    payload = await self.service.top_k(
                        _required(params, "column"),
                        _number(params, "low"),
                        _number(params, "high"),
                        top_k,
                        timeout=_timeout(params),
                    )
                elif group_by is not None:
                    payload = await self.service.aggregate_grouped(
                        _required(params, "column"),
                        _number(params, "low"),
                        _number(params, "high"),
                        _required(params, "op").lower(),
                        group_by,
                        timeout=_timeout(params),
                    )
                else:
                    payload = await self.service.aggregate(
                        _required(params, "column"),
                        _number(params, "low"),
                        _number(params, "high"),
                        _required(params, "op").lower(),
                        timeout=_timeout(params),
                    )
                return 200, payload, {}
            if path == "/page":
                payload = await self.service.page(
                    _required(params, "column"),
                    _number(params, "low"),
                    _number(params, "high"),
                    limit=_optional_int(params, "limit", 100, minimum=1),
                    cursor=params.get("cursor"),
                    timeout=_timeout(params),
                )
                return 200, payload, {}
            if path == "/replicate/manifest":
                payload = self.service.replication_manifest(
                    epoch=_optional_int(params, "epoch")
                )
                return 200, payload, {}
            if path == "/replicate/wal":
                payload = self.service.replication_wal(
                    _optional_int(params, "generation", 1, minimum=1),
                    _optional_int(params, "after", 0, minimum=0),
                    _optional_int(params, "limit", 256, minimum=1),
                    params.get("follower"),
                    epoch=_optional_int(params, "epoch"),
                )
                return 200, payload, {}
            if path == "/replicate/file":
                payload = self.service.replication_file(
                    _required(params, "name"),
                    epoch=_optional_int(params, "epoch"),
                )
                return 200, payload, {}
            return 404, {
                "error": "NotFound", "status": 404,
                "detail": f"no route {path!r}",
            }, {}
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - becomes the response
            status = status_for_exception(exc)
            extra = {}
            if isinstance(exc, (AdmissionRejected, FollowerLagging)):
                # RFC 9110 §10.2.3: the header form of Retry-After is a
                # non-negative *integer* delta-seconds.  The precise
                # float hint travels in the JSON body (``retry_after``),
                # which well-behaved clients prefer.
                extra["Retry-After"] = str(
                    math.ceil(max(0.0, exc.retry_after))
                )
            return status, error_body(exc, status), extra

    # ------------------------------------------------------------------
    # response writing
    # ------------------------------------------------------------------
    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        *,
        close: bool,
        extra_headers: dict | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        headers = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'close' if close else 'keep-alive'}",
        ]
        for key, value in (extra_headers or {}).items():
            headers.append(f"{key}: {value}")
        writer.write("\r\n".join(headers).encode("latin-1") + b"\r\n\r\n" + body)
        await writer.drain()


# ----------------------------------------------------------------------
# parameter parsing (400 on anything malformed)
# ----------------------------------------------------------------------
def _required(params: dict[str, str], name: str) -> str:
    try:
        return params[name]
    except KeyError:
        raise ValueError(f"missing required parameter {name!r}") from None


def _number(params: dict[str, str], name: str):
    raw = _required(params, name)
    try:
        return int(raw)
    except ValueError:
        try:
            return float(raw)
        except ValueError:
            raise ValueError(
                f"parameter {name!r} must be a number, got {raw!r}"
            ) from None


def _optional_int(
    params: dict[str, str],
    name: str,
    default: int | None = None,
    *,
    minimum: int | None = None,
) -> int | None:
    """An integer parameter; ``default`` only when it is absent, so an
    explicit ``0`` is checked against ``minimum``, never swallowed."""
    raw = params.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"parameter {name!r} must be an integer, got {raw!r}"
        ) from None
    if minimum is not None and value < minimum:
        raise ValueError(
            f"parameter {name!r} must be >= {minimum}, got {value}"
        )
    return value


def _timeout(params: dict[str, str]) -> float | None:
    raw = params.get("timeout_ms")
    if raw is None:
        return None
    try:
        return float(raw) / 1000.0
    except ValueError:
        raise ValueError(
            f"parameter 'timeout_ms' must be a number, got {raw!r}"
        ) from None
