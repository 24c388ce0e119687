"""Wire payload schemas for the allocation service (:mod:`repro.service`).

The service speaks plain JSON over HTTP, reusing the envelope
serialisation from :mod:`repro.io.json_io` so that everything that goes
over the wire is byte-compatible with the offline artefacts
(``repro batch --json`` files, shard results, the on-disk result cache):

* ``POST /v1/allocate`` body: one ``allocation-request`` payload
  (:func:`allocate_request_payload`); response: one
  ``allocation-result`` payload.
* ``POST /v1/batch`` body: an ``allocation-batch-request`` payload
  (:func:`batch_request_to_dict`); response: an ``allocation-batch``
  payload (:func:`batch_results_to_dict`) -- the *same* shape
  ``repro batch --json`` writes, results ordered like the requests.
* errors: a ``service-error`` payload (:func:`error_to_dict`) carrying
  the HTTP status and a human-readable reason.

Every helper validates the ``kind`` discriminator and raises
``ValueError`` on a malformed payload; the server maps those to HTTP
400 responses instead of tracebacks.

Versioning (v1)
---------------

Every payload carries an explicit ``schema_version`` field (currently
``1``); servers reject request versions they do not support with HTTP
400.  Request payloads also carry a routing hint -- a top-level
``fingerprint`` (``Problem.fingerprint()`` computed client-side, used
by the fleet coordinator to route without parsing the problem) -- and
responses carry a worker-computed ``content_key``.  Both are advisory
extras: deserialisers ignore them, canonical bytes never see them, and
the coordinator trusts only worker-reported keys.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from .json_io import (
    allocation_request_from_dict,
    allocation_request_to_dict,
    allocation_result_from_dict,
    allocation_result_to_dict,
    edit_from_dict,
    edit_to_dict,
    problem_from_dict,
    problem_to_dict,
)

__all__ = [
    "BATCH_REQUEST_KIND",
    "BATCH_RESULTS_KIND",
    "DELTA_REQUEST_KIND",
    "ERROR_KIND",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "allocate_request_payload",
    "batch_request_to_dict",
    "batch_request_from_dict",
    "batch_results_to_dict",
    "batch_results_from_dict",
    "check_schema_version",
    "delta_request_to_dict",
    "delta_request_from_dict",
    "error_to_dict",
]

BATCH_REQUEST_KIND = "allocation-batch-request"
BATCH_RESULTS_KIND = "allocation-batch"
DELTA_REQUEST_KIND = "delta-request"
ERROR_KIND = "service-error"

#: Wire schema version spoken by the ``/v1/*`` routes.
SCHEMA_VERSION = 1
#: Versions this package can parse; servers advertise the list in
#: ``/v1/healthz`` (``schema_versions``).
SUPPORTED_SCHEMA_VERSIONS = (1,)


def check_schema_version(data: Any) -> None:
    """Refuse a payload declaring a ``schema_version`` this package does
    not speak (``ValueError``, which the servers map to HTTP 400).  A
    payload that declares none is read as the current version.
    """
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version is not None and version not in SUPPORTED_SCHEMA_VERSIONS:
        raise ValueError(
            f"unsupported schema_version {version!r}; "
            f"supported: {list(SUPPORTED_SCHEMA_VERSIONS)}"
        )


def _fingerprint_hint(request: Any) -> Optional[str]:
    """Client-side ``Problem.fingerprint()``, or None if uncomputable."""
    try:
        return str(request.problem.fingerprint())
    except Exception:
        return None


def allocate_request_payload(request: Any) -> Dict[str, Any]:
    """Serialise a ``POST /v1/allocate`` body.

    The payload carries the version field plus a ``fingerprint``
    routing hint.  Hints are advisory: a wrong fingerprint only
    mis-routes (and so slows) the request that carried it --
    correctness and cache keys rest on worker-computed keys.
    """
    payload = allocation_request_to_dict(request)
    payload["schema_version"] = SCHEMA_VERSION
    fingerprint = _fingerprint_hint(request)
    if fingerprint is not None:
        payload["fingerprint"] = fingerprint
    return payload


def batch_request_to_dict(requests: Sequence[Any]) -> Dict[str, Any]:
    """Serialise a ``POST /v1/batch`` body from allocation requests."""
    return {
        "kind": BATCH_REQUEST_KIND,
        "requests": [allocate_request_payload(r) for r in requests],
        "schema_version": SCHEMA_VERSION,
    }


def batch_request_from_dict(data: Any) -> List[Any]:
    """Deserialise a ``POST /v1/batch`` body into allocation requests."""
    if not isinstance(data, dict) or data.get("kind") != BATCH_REQUEST_KIND:
        kind = data.get("kind") if isinstance(data, dict) else type(data).__name__
        raise ValueError(f"not an {BATCH_REQUEST_KIND} payload: {kind!r}")
    entries = data.get("requests")
    if not isinstance(entries, list):
        raise ValueError(f"{BATCH_REQUEST_KIND}: 'requests' must be a list")
    return [allocation_request_from_dict(entry) for entry in entries]


def batch_results_to_dict(results: Sequence[Any]) -> Dict[str, Any]:
    """Serialise result envelopes as an ``allocation-batch`` payload.

    This is the exact shape ``repro batch --json`` and ``repro merge
    --json`` write, so served batches diff cleanly against offline runs.
    """
    return {
        "kind": BATCH_RESULTS_KIND,
        "results": [allocation_result_to_dict(r) for r in results],
    }


def batch_results_from_dict(data: Any) -> List[Any]:
    """Deserialise an ``allocation-batch`` payload into result envelopes."""
    if not isinstance(data, dict) or data.get("kind") != BATCH_RESULTS_KIND:
        kind = data.get("kind") if isinstance(data, dict) else type(data).__name__
        raise ValueError(f"not an {BATCH_RESULTS_KIND} payload: {kind!r}")
    entries = data.get("results")
    if not isinstance(entries, list):
        raise ValueError(f"{BATCH_RESULTS_KIND}: 'results' must be a list")
    return [allocation_result_from_dict(entry) for entry in entries]


def delta_request_to_dict(request: Any) -> Dict[str, Any]:
    """Serialise a ``POST /v1/delta`` body from a
    :class:`~repro.engine.results.DeltaRequest`."""
    return {
        "kind": DELTA_REQUEST_KIND,
        "base_fingerprint": request.base_fingerprint,
        "base_problem": (
            problem_to_dict(request.base_problem)
            if request.base_problem is not None
            else None
        ),
        "edits": [edit_to_dict(edit) for edit in request.edits],
        "options": dict(request.options),
        "label": request.label,
    }


def delta_request_from_dict(data: Any) -> Any:
    """Deserialise a ``POST /v1/delta`` body into a
    :class:`~repro.engine.results.DeltaRequest`."""
    if not isinstance(data, dict) or data.get("kind") != DELTA_REQUEST_KIND:
        kind = data.get("kind") if isinstance(data, dict) else type(data).__name__
        raise ValueError(f"not a {DELTA_REQUEST_KIND} payload: {kind!r}")
    from ..engine.results import DeltaRequest

    entries = data.get("edits")
    if not isinstance(entries, list):
        raise ValueError(f"{DELTA_REQUEST_KIND}: 'edits' must be a list")
    base = data.get("base_problem")
    return DeltaRequest(
        edits=tuple(edit_from_dict(entry) for entry in entries),
        base_problem=problem_from_dict(base) if base is not None else None,
        base_fingerprint=data.get("base_fingerprint"),
        options=dict(data.get("options") or {}),
        label=data.get("label"),
    )


def error_to_dict(
    status: int, message: str, error_code: Optional[str] = None
) -> Dict[str, Any]:
    """Serialise a service error response body.

    ``error_code`` is a machine-matchable discriminator for typed
    failures the fleet coordinator emits -- ``"shed"`` (admission queue
    full, HTTP 429) and ``"worker_exhausted"`` (every requeue attempt
    died, HTTP 503) -- so clients can branch without parsing prose.
    """
    payload: Dict[str, Any] = {
        "kind": ERROR_KIND,
        "status": int(status),
        "error": str(message),
    }
    if error_code is not None:
        payload["error_code"] = error_code
    return payload
