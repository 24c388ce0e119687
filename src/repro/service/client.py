"""Thin stdlib HTTP client for the allocation service.

:class:`ServiceClient` round-trips problems and envelopes through the
same :mod:`repro.io` serialisation the server uses, so a served result
deserialises into exactly the :class:`~repro.engine.AllocationResult`
the offline engine would have returned (canonical JSON byte-identical).
It satisfies the :class:`repro.engine.Backend` protocol -- the same
``run`` / ``run_delta`` / ``run_batch`` surface as ``Engine`` -- so
callers accept local-or-remote interchangeably::

    from repro.service import ServiceClient

    client = ServiceClient("http://127.0.0.1:8035")
    client.wait_healthy()
    result = client.run(AllocationRequest(problem, "dpalloc"))
    results = client.run_batch(requests)      # ordered like requests
    print(client.stats()["cache_hit_rate"])

Every call speaks the ``/v1`` wire schema: request payloads carry
``schema_version`` and a ``fingerprint`` routing hint.

HTTP-level failures -- an error status, an unreachable server, a
truncated, stalled or non-JSON response -- raise :class:`ServiceError`
(with the server's ``service-error`` payload when one was sent);
*solver*-level failures never raise -- they are ``error`` fields of
the returned envelopes, exactly like ``Engine.run``.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from typing import Any, Dict, List, Optional, Sequence

from ..engine import AllocationRequest, AllocationResult, DeltaRequest
from ..io.json_io import allocation_result_from_dict
from ..io.service import (
    SCHEMA_VERSION,
    allocate_request_payload,
    batch_request_to_dict,
    batch_results_from_dict,
    delta_request_to_dict,
)

__all__ = ["ServiceClient", "ServiceError"]

# Per-request socket timeout: generous because an /allocate call spans
# the whole solve (cap solves with AllocationRequest.timeout / the
# server's --timeout, not the transport).
DEFAULT_HTTP_TIMEOUT = 600.0


class ServiceError(RuntimeError):
    """The service refused or failed a request at the HTTP level.

    ``error_code`` carries the typed discriminator from the
    ``service-error`` payload when the server sent one -- ``"shed"``
    for an admission-control 429, ``"worker_exhausted"`` for a request
    whose every requeue attempt died.
    """

    def __init__(
        self, status: int, message: str, payload: Optional[Dict] = None
    ) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.payload = payload or {}

    @property
    def error_code(self) -> Optional[str]:
        code = self.payload.get("error_code")
        return str(code) if code is not None else None


class ServiceClient:
    """Synchronous client for one allocation-service base URL.

    Args:
        base_url: e.g. ``http://127.0.0.1:8035`` -- a single worker
            (``repro serve``) or a fleet coordinator (``repro fleet``);
            the wire contract is identical.
        timeout: per-request socket timeout in seconds.
    """

    #: The wire schema version every request speaks.
    schema_version = SCHEMA_VERSION

    def __init__(
        self, base_url: str, timeout: float = DEFAULT_HTTP_TIMEOUT
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, payload: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        body = (
            json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None
            else None
        )
        request = urllib.request.Request(
            f"{self.base_url}{path}",
            data=body,
            headers={"Content-Type": "application/json"},
            method=method,
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                raw = resp.read()
        except urllib.error.HTTPError as exc:
            detail: Dict[str, Any] = {}
            message = str(exc)
            try:
                detail = json.loads(exc.read().decode("utf-8"))
                message = detail.get("error", message)
            except Exception:  # noqa: BLE001 -- non-JSON error body
                pass
            raise ServiceError(exc.code, message, detail) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, f"cannot reach {self.base_url}: {exc.reason}"
            ) from None
        except (http.client.HTTPException, OSError) as exc:
            # A truncated or stalled response (IncompleteRead, timeout,
            # reset) after the connection was made.
            raise ServiceError(
                0, f"{method} {path}: response failed: {exc!r}"
            ) from None
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise ServiceError(
                0, f"{method} {path}: response is not JSON: {exc}"
            ) from None

    # ------------------------------------------------------------------
    # endpoints (Backend protocol: run / run_delta / run_batch)
    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        """``GET /v1/healthz``: liveness + server version."""
        return self._request("GET", "/v1/healthz")

    def stats(self) -> Dict[str, Any]:
        """``GET /v1/stats``: the server's statistics payload.

        A worker answers with its ``AsyncEngine.stats()`` view; a fleet
        coordinator with fleet-wide counters (per-class latency/shed,
        per-worker health).
        """
        return self._request("GET", "/v1/stats")

    def run(self, request: AllocationRequest) -> AllocationResult:
        """``POST /v1/allocate``: run one request, return its envelope."""
        payload = self._request(
            "POST", "/v1/allocate", allocate_request_payload(request)
        )
        return allocation_result_from_dict(payload)

    def run_delta(self, request: DeltaRequest) -> AllocationResult:
        """``POST /v1/delta``: warm-start re-solve of an edited problem.

        The returned envelope is canonical-byte identical to a cold
        :meth:`run` of the edited problem; the strategy the server
        took (``replay``/``resumed``/``diverged``/``scratch``/...) rides
        in its non-canonical ``delta`` field.
        """
        body = delta_request_to_dict(request)
        body["schema_version"] = SCHEMA_VERSION
        body["fingerprint"] = request.fingerprint()
        payload = self._request("POST", "/v1/delta", body)
        return allocation_result_from_dict(payload)

    def run_batch(
        self,
        requests: Sequence[AllocationRequest],
        workers: Optional[int] = None,
    ) -> List[AllocationResult]:
        """``POST /v1/batch``: run a batch, envelopes ordered like requests.

        ``workers`` is advisory (Backend-protocol compatibility): the
        server's own concurrency bound decides the fan-out, not the
        client.
        """
        del workers  # advisory; the server's concurrency bound decides
        payload = self._request(
            "POST", "/v1/batch", batch_request_to_dict(requests)
        )
        results = batch_results_from_dict(payload)
        if len(results) != len(requests):
            raise ServiceError(
                0,
                f"batch returned {len(results)} results "
                f"for {len(requests)} requests",
            )
        return results

    def wait_healthy(self, deadline_seconds: float = 10.0) -> Dict[str, Any]:
        """Poll ``/healthz`` until it answers; raise after the deadline."""
        deadline = time.monotonic() + deadline_seconds
        last: Optional[ServiceError] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except ServiceError as exc:
                last = exc
                time.sleep(0.05)
        raise ServiceError(
            0,
            f"{self.base_url} not healthy after {deadline_seconds:g}s "
            f"({last})",
        )
