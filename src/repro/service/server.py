"""Stdlib-only asyncio HTTP/JSON allocation worker (``repro serve``).

:class:`AllocationServer` exposes an :class:`~repro.service.AsyncEngine`
over five endpoints, versioned under ``/v1``:

* ``POST /v1/allocate`` -- body: one ``allocation-request`` payload;
  response: one ``allocation-result`` envelope plus the
  worker-computed ``content_key`` (what the fleet coordinator keys its
  fleet-wide memo on) and ``schema_version``;
* ``POST /v1/batch`` -- body: ``allocation-batch-request``; response:
  an ``allocation-batch`` payload with results ordered like the
  requests (the exact shape ``repro batch --json`` writes), each entry
  carrying its ``content_key``;
* ``POST /v1/delta`` -- body: one ``delta-request`` payload (base
  problem or fingerprint plus an edit sequence); response: one
  ``allocation-result`` envelope, canonical-byte identical to a cold
  ``/v1/allocate`` of the edited problem, with the warm-start strategy
  in its non-canonical ``delta`` field;
* ``GET /v1/healthz`` -- liveness + version + supported
  ``schema_versions``;
* ``GET /v1/stats`` -- cache hit rate, in-flight/queued counts,
  p50/p95 latency, executor counters (see ``AsyncEngine.stats``).

Every response body carries ``schema_version``; any other path is a 404.

Failed solves are *successful HTTP responses*: infeasibility, timeouts,
validation failures and crashed workers all come back as ``error``
fields of a 200 envelope, exactly like the offline engine.  HTTP error
statuses (400/404/405/413/500) are reserved for requests the service
could not interpret, and carry a ``service-error`` JSON body.

The HTTP surface (shared with the fleet coordinator via
:mod:`repro.service.http`) is deliberately tiny -- HTTP/1.1, one
request per connection, ``Connection: close`` -- enough for the thin
client in :mod:`repro.service.client`, ``curl``, and any load
balancer's health checks, with zero dependencies.
:class:`ServerThread` runs the whole server on a background thread for
tests, benchmarks and notebooks.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional, TypeVar

from .. import __version__
from ..engine import Engine
from ..engine.engine import request_content_key, versioned_content_key
from ..io.json_io import (
    allocation_request_from_dict,
    allocation_result_to_dict,
)
from ..io.service import (
    SUPPORTED_SCHEMA_VERSIONS,
    batch_request_from_dict,
    batch_results_to_dict,
    delta_request_from_dict,
)
from .async_engine import AsyncEngine
from .http import (
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    HttpServerBase,
    ServerThreadBase,
)

__all__ = ["AllocationServer", "ServerThread"]

T = TypeVar("T")


def _parse(parser: Callable[[Any], T], kind: str, data: Any) -> T:
    """Deserialise a request body, refusing a malformed one with a 400."""
    try:
        return parser(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise HttpError(400, f"bad {kind}: {exc}") from None


class AllocationServer(HttpServerBase):
    """Asyncio HTTP server wrapping one engine + async front-end.

    Args:
        engine: the engine every request runs through (shared cache,
            shared executor counters).  Default: a fresh
            ``Engine(executor="process")`` so solves are preemptible.
        host/port: bind address; ``port=0`` picks a free port (read
            ``self.port`` after :meth:`start`).
        max_concurrency: concurrent solve bound (see ``AsyncEngine``).
        default_timeout: budget applied to requests without their own.
        max_body_bytes: reject larger request bodies with HTTP 413.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 4,
        default_timeout: Optional[float] = None,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        super().__init__(host=host, port=port, max_body_bytes=max_body_bytes)
        if engine is None:
            engine = Engine(executor="process")
        self.async_engine = AsyncEngine(
            engine,
            max_concurrency=max_concurrency,
            default_timeout=default_timeout,
        )

    async def _on_stop(self) -> None:
        self.async_engine.close()

    # ------------------------------------------------------------------
    # endpoints (routed by HttpServerBase)
    # ------------------------------------------------------------------
    async def _handle_healthz(self) -> Dict[str, Any]:
        return {
            "kind": "service-health",
            "status": "ok",
            "version": __version__,
            "role": "worker",
            "schema_versions": list(SUPPORTED_SCHEMA_VERSIONS),
        }

    async def _handle_stats(self) -> Dict[str, Any]:
        # stats() takes the cache lock (first use may still scan the
        # directory to build the manifest view): run it on the default
        # thread pool -- not the bounded solve pool, which may be
        # saturated by long solves -- so a /stats poller never stalls
        # the event loop.
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.async_engine.stats)

    async def _handle_allocate(self, data: Any) -> Dict[str, Any]:
        request = _parse(allocation_request_from_dict, "allocation-request", data)
        result = await self.async_engine.run(request)
        payload = allocation_result_to_dict(result)
        _attach_content_key(payload, request)
        return payload

    async def _handle_batch(self, data: Any) -> Dict[str, Any]:
        requests = _parse(
            batch_request_from_dict, "allocation-batch-request", data
        )
        results = await self.async_engine.run_batch(requests)
        payload = batch_results_to_dict(results)
        for request, entry in zip(requests, payload["results"]):
            _attach_content_key(entry, request)
        return payload

    async def _handle_delta(self, data: Any) -> Dict[str, Any]:
        request = _parse(delta_request_from_dict, "delta-request", data)
        result = await self.async_engine.run_delta(request)
        return allocation_result_to_dict(result)


def _attach_content_key(payload: Dict[str, Any], request: Any) -> None:
    """Add the authoritative cache/memo key, computed server-side from
    the parsed problem -- never trusted from the client."""
    key = versioned_content_key(request_content_key(request))
    if key is not None:
        payload["content_key"] = key


class ServerThread(ServerThreadBase):
    """Run an :class:`AllocationServer` on a daemon thread.

    Context manager used by the tests, the benchmark and the docs
    fences: enter -> server is bound and healthy (``.url``
    is live); exit -> server stopped, thread joined.  Constructor
    arguments are forwarded to :class:`AllocationServer`.
    """

    thread_name = "repro-serve"

    def __init__(self, **server_kwargs: Any) -> None:
        super().__init__()
        self._kwargs = server_kwargs

    def _create(self) -> AllocationServer:
        return AllocationServer(**self._kwargs)
