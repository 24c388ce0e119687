"""Shared asyncio HTTP/1.1 plumbing for the service processes.

One tiny, dependency-free HTTP implementation serves both network
daemons in this package -- the single-engine worker
(:class:`repro.service.AllocationServer`) and the fleet coordinator
(:class:`repro.service.FleetCoordinator`):

* :class:`HttpServerBase` -- connection handling, request parsing,
  bounded bodies, JSON responses, and dispatch over the one v1 route
  table (:data:`ENDPOINTS`).  Subclasses implement one
  ``_handle_<endpoint>`` method per endpoint.
* :class:`HttpError` -- typed refusal; the base turns it into a
  ``service-error`` JSON body with the matching HTTP status (and the
  optional machine-readable ``error_code``).
* :func:`fetch_json` -- the matching asyncio client, used by the
  coordinator to talk to its workers without blocking the event loop.
* :class:`ServerThreadBase` -- run any :class:`HttpServerBase` on a
  daemon thread as a context manager (tests, benchmarks, notebooks).

The surface stays deliberately minimal: HTTP/1.1, one request per
connection, ``Connection: close``.  Enough for the thin clients, curl,
and a load balancer's health checks, with zero dependencies.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Optional,
    Tuple,
)

from ..io.service import SCHEMA_VERSION, check_schema_version, error_to_dict

__all__ = [
    "DEFAULT_MAX_BODY_BYTES",
    "HttpError",
    "HttpServerBase",
    "ServerThreadBase",
    "fetch_json",
]

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}

# Generous but bounded: a batch of large TGFF graphs is ~MBs; anything
# beyond this is a client bug, not a workload.
DEFAULT_MAX_BODY_BYTES = 64 * 1024 * 1024

#: The v1 wire surface both daemons serve: endpoint -> HTTP method.
#: ``/v1/<endpoint>`` is answered by the server's ``_handle_<endpoint>``:
#: a GET handler takes no argument, a POST handler the parsed,
#: version-checked JSON body; either returns the HTTP 200 payload.
ENDPOINTS = {
    "healthz": "GET",
    "stats": "GET",
    "allocate": "POST",
    "batch": "POST",
    "delta": "POST",
}

#: Route table entry: (HTTP method, handler).
Route = Tuple[str, Callable[..., Awaitable[Dict[str, Any]]]]


class HttpError(Exception):
    """A request the service refuses; becomes a JSON error response.

    ``error_code`` flows into the ``service-error`` payload so clients
    can branch on typed refusals (``"shed"``, ``"worker_exhausted"``)
    without parsing prose.
    """

    def __init__(
        self, status: int, message: str, error_code: Optional[str] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.error_code = error_code


class HttpServerBase:
    """Asyncio HTTP/JSON server core; subclasses supply the handlers."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        self.host = host
        self.port = port
        self.max_body_bytes = max_body_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._routes: Dict[str, Route] = {
            f"/v1/{name}": (method, getattr(self, f"_handle_{name}"))
            for name, method in ENDPOINTS.items()
        }

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    async def _on_start(self) -> None:
        """Called once the listening socket is bound."""

    async def _on_stop(self) -> None:
        """Called after the listening socket is closed."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections (non-blocking)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        await self._on_start()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._on_stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
                status, payload = 200, await self._dispatch(method, path, body)
            except HttpError as exc:
                status, payload = exc.status, error_to_dict(
                    exc.status, exc.message, error_code=exc.error_code
                )
            except Exception as exc:  # noqa: BLE001 -- never a hung socket
                status, payload = 500, error_to_dict(
                    500, f"{type(exc).__name__}: {exc}"
                )
            await self._write_response(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # The server is stopping with this request in flight.  Nothing
            # awaits this task, but Python 3.11's start_server done-callback
            # calls task.exception() on it, which raises for a cancelled
            # task and logs a traceback; ending normally stays quiet.
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        request_line = await _read_line(reader)
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise HttpError(400, f"malformed request line: {request_line!r}")
        method, target = parts[0].upper(), parts[1]
        path = target.split("?", 1)[0]
        content_length = 0
        while True:
            line = await _read_line(reader)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                text = value.strip()
                if not (text.isascii() and text.isdigit()):
                    raise HttpError(400, f"bad Content-Length: {text!r}")
                content_length = int(text)
        if content_length > self.max_body_bytes:
            raise HttpError(
                413, f"body of {content_length} bytes exceeds the "
                     f"{self.max_body_bytes}-byte limit"
            )
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method, path, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Dict[str, Any]:
        route = self._routes.get(path)
        if route is None:
            raise HttpError(
                404, f"unknown path {path!r}; endpoints: {sorted(self._routes)}"
            )
        expected, handler = route
        if method != expected:
            raise HttpError(405, f"{path} expects {expected}, got {method}")
        if method == "GET":
            payload = await handler()
        else:
            payload = await handler(_parse_body(body))
        payload["schema_version"] = SCHEMA_VERSION
        return payload


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    try:
        return await reader.readline()
    except ValueError:  # no newline within the reader's buffer limit
        raise HttpError(400, "request line or header line too long") from None


def _parse_body(body: bytes) -> Any:
    """A POST body as JSON, refusing versions this package does not speak."""
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise HttpError(400, f"request body is not JSON: {exc}") from None
    try:
        check_schema_version(data)
    except ValueError as exc:
        raise HttpError(400, str(exc)) from None
    return data


async def fetch_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, Any]] = None,
    timeout: float = 600.0,
) -> Tuple[int, Any]:
    """One HTTP/JSON exchange over a fresh connection, fully async.

    Returns ``(status, parsed body)`` -- the caller decides what a
    non-200 means.  Transport failures surface as the underlying
    ``OSError`` / ``asyncio.TimeoutError``; the coordinator treats both
    as "this worker is gone" and requeues.
    """

    async def _exchange() -> Tuple[int, Any]:
        reader, writer = await asyncio.open_connection(host, port)
        try:
            body = (
                json.dumps(payload, sort_keys=True).encode("utf-8")
                if payload is not None
                else b""
            )
            head = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + body)
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise ConnectionError(
                    f"malformed status line: {status_line!r}"
                )
            status = int(parts[1])
            content_length: Optional[int] = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    content_length = int(value.strip())
            data = (
                await reader.readexactly(content_length)
                if content_length is not None
                else await reader.read()
            )
            parsed = json.loads(data.decode("utf-8")) if data else None
            return status, parsed
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return await asyncio.wait_for(_exchange(), timeout=timeout)


class ServerThreadBase:
    """Run an :class:`HttpServerBase` on a daemon thread.

    Context manager used by the tests, the benchmarks and the docs
    fences: enter -> server is bound (``.url`` is live); exit -> server
    stopped, thread joined.  Subclasses implement :meth:`_create`.
    """

    thread_name = "repro-http"

    def __init__(self) -> None:
        self.server: Optional[HttpServerBase] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None

    def _create(self) -> HttpServerBase:
        raise NotImplementedError

    @property
    def url(self) -> str:
        assert self.server is not None, "server not started"
        return self.server.url

    def __enter__(self) -> "ServerThreadBase":
        self._thread = threading.Thread(
            target=self._main, name=self.thread_name, daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError(
                "server failed to start"
            ) from self._startup_error
        if self.server is None:
            raise RuntimeError("server did not start within 30s")
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def _main(self) -> None:
        try:
            asyncio.run(self._run())
        except BaseException as exc:  # noqa: BLE001 -- surface to __enter__
            self._startup_error = exc
            self._ready.set()

    async def _run(self) -> None:
        server = self._create()
        await server.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.server = server
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop()
