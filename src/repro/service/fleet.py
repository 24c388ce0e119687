"""Fleet coordinator: fingerprint-routed fan-out over allocation workers.

:class:`FleetCoordinator` is an asyncio HTTP process (``repro fleet``)
that fronts N ``repro serve`` workers behind the *same* v1 wire surface
a single worker exposes -- ``POST /v1/allocate``, ``POST /v1/batch``,
``POST /v1/delta``, ``GET /v1/healthz``, ``GET /v1/stats`` -- so
:class:`~repro.service.ServiceClient` talks to a fleet exactly as it
talks to one server.

Four mechanisms, in request order:

* **Admission control** -- every request names a priority class
  (``interactive`` / ``normal`` / ``bulk``, default ``normal``); each
  class has a bounded in-coordinator queue.  A full class sheds with a
  typed HTTP 429 ``service-error`` (``error_code: "shed"``), and
  ``/v1/stats`` reports per-class p50/p95 latency and shed counts.
* **Fleet-wide dedup** -- requests carrying a ``fingerprint`` routing
  hint are checked against an in-memory LRU memo of response payloads
  and, below it, the shared result store the workers spill to
  (:class:`repro.engine.cache.ResultCache` with ``shared_dir``).
  Concurrent identical requests are single-flighted across the whole
  fleet, so N clients asking for the same solve cost one worker run.
  Memo **writes** are keyed by the worker-reported ``content_key``
  (computed from the parsed problem), never by the client's claimed
  fingerprint, and a request that joins a flight is served its result
  only when that key matches its own: a lying client can only
  mis-route or mis-serve itself.
* **Fingerprint routing** -- rendezvous (highest-random-weight) hashing
  of the routing key over the healthy workers, so one worker's death
  only remaps that worker's keys and repeated solves of one problem
  keep landing where the caches (result cache, delta replay artifacts)
  are already warm.
* **Health + requeue** -- a background probe loop marks workers
  dead/alive; a forward that fails at the transport level (connection
  refused, reset, timed out) marks the worker dead and requeues the
  request on the next-ranked worker, up to a bounded attempt budget,
  after which the client receives a typed HTTP 503
  (``error_code: "worker_exhausted"``).  Zero requests are lost when a
  worker is killed mid-batch.

Envelopes pass through byte-untouched except for the non-canonical
bookkeeping fields (``label``, ``cached``) that engine cache hits
rewrite too, so a fleet response is canonical-byte-identical to the
offline ``Engine.run_batch`` envelope for the same request.

:class:`WorkerPool` spawns and supervises local ``repro serve``
subprocesses (free ports, shared store wiring, health-gated startup)
for ``repro fleet --workers N``, the benchmark and the CI smoke;
:class:`FleetThread` runs a coordinator on a daemon thread for tests.
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from collections import OrderedDict, deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Awaitable,
    Deque,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)
from urllib.parse import urlsplit

from .. import __version__
from ..engine.cache import ResultCache
from ..engine.engine import (
    content_key_from_fingerprint,
    versioned_content_key,
)
from ..engine.results import DEFAULT_PRIORITY, PRIORITY_CLASSES
from ..io.service import (
    BATCH_REQUEST_KIND,
    BATCH_RESULTS_KIND,
    SCHEMA_VERSION,
    SUPPORTED_SCHEMA_VERSIONS,
)
from .http import (
    DEFAULT_MAX_BODY_BYTES,
    HttpError,
    HttpServerBase,
    ServerThreadBase,
    fetch_json,
)
from .primitives import SingleFlight, latency_summary

__all__ = [
    "DEFAULT_QUEUE_LIMITS",
    "FleetCoordinator",
    "FleetThread",
    "WorkerPool",
    "free_port",
    "spawn_worker",
]

#: Default per-class admission bounds (queued + in flight, per class).
DEFAULT_QUEUE_LIMITS: Mapping[str, int] = {
    "interactive": 16,
    "normal": 64,
    "bulk": 256,
}

_LATENCY_WINDOW = 1024
_MEMO_MAX_ENTRIES = 4096


@dataclass
class WorkerState:
    """What the coordinator knows about one worker."""

    url: str
    host: str
    port: int
    healthy: bool = True
    consecutive_failures: int = 0
    in_flight: int = 0
    forwards: int = 0
    pid: Optional[int] = None

    def snapshot(self) -> Dict[str, Any]:
        return {
            "url": self.url,
            "healthy": self.healthy,
            "in_flight": self.in_flight,
            "forwards": self.forwards,
            "consecutive_failures": self.consecutive_failures,
            "pid": self.pid,
        }


def _parse_worker_url(url: str) -> WorkerState:
    parts = urlsplit(url if "//" in url else f"http://{url}")
    if not parts.hostname or not parts.port:
        raise ValueError(
            f"worker url {url!r} needs an explicit host and port"
        )
    host, port = parts.hostname, parts.port
    return WorkerState(url=f"http://{host}:{port}", host=host, port=port)


#: Transport-level failures that mean "requeue on another worker".
_TRANSPORT_ERRORS = (
    OSError,
    ConnectionError,
    asyncio.TimeoutError,
    asyncio.IncompleteReadError,
)


class FleetCoordinator(HttpServerBase):
    """HTTP coordinator routing v1 requests over a worker fleet.

    Args:
        worker_urls: base URLs of the workers (``http://host:port``).
            Workers may be spawned by :class:`WorkerPool` or launched
            externally (``repro serve``); the coordinator only routes,
            it never restarts processes.
        host/port: coordinator bind address (``port=0`` picks freely).
        shared_dir: the shared result store the workers spill to; read
            through on memo misses so a solve cached by *any* worker
            (now or in a previous fleet) is served without a forward.
        queue_limits: per-priority-class admission bounds; missing
            classes take :data:`DEFAULT_QUEUE_LIMITS`.
        max_attempts: total forward attempts per request (first try +
            requeues) before a typed 503 ``worker_exhausted``.
        health_interval: seconds between background worker probes.
        health_timeout: per-probe socket budget.
        worker_timeout: per-forward socket budget (must exceed the
            longest legitimate solve; a hung worker is cut off here and
            the request requeued).
        memo_max_entries: LRU bound of the in-memory response memo.
    """

    def __init__(
        self,
        worker_urls: Sequence[str],
        host: str = "127.0.0.1",
        port: int = 0,
        shared_dir: Optional[Any] = None,
        queue_limits: Optional[Mapping[str, int]] = None,
        max_attempts: int = 3,
        health_interval: float = 0.5,
        health_timeout: float = 2.0,
        worker_timeout: float = 600.0,
        memo_max_entries: int = _MEMO_MAX_ENTRIES,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
    ) -> None:
        super().__init__(host=host, port=port, max_body_bytes=max_body_bytes)
        if not worker_urls:
            raise ValueError("FleetCoordinator needs at least one worker url")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.workers: List[WorkerState] = [
            _parse_worker_url(url) for url in worker_urls
        ]
        self.max_attempts = max_attempts
        self.health_interval = health_interval
        self.health_timeout = health_timeout
        self.worker_timeout = worker_timeout
        self.memo_max_entries = memo_max_entries
        self._store = (
            ResultCache(shared_dir) if shared_dir is not None else None
        )
        self._memo: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._flights: SingleFlight[Dict[str, Any]] = SingleFlight()
        limits = dict(DEFAULT_QUEUE_LIMITS)
        for name, limit in (queue_limits or {}).items():
            if name not in PRIORITY_CLASSES:
                raise ValueError(
                    f"unknown priority class {name!r}; "
                    f"classes: {PRIORITY_CLASSES}"
                )
            if limit < 1:
                raise ValueError(f"queue limit for {name!r} must be >= 1")
            limits[name] = int(limit)
        self._class_limits: Dict[str, int] = limits
        self._class_counts: Dict[str, int] = dict.fromkeys(PRIORITY_CLASSES, 0)
        self._class_admitted: Dict[str, int] = dict.fromkeys(
            PRIORITY_CLASSES, 0
        )
        self._class_shed: Dict[str, int] = dict.fromkeys(PRIORITY_CLASSES, 0)
        self._class_latencies: Dict[str, Deque[float]] = {
            name: deque(maxlen=_LATENCY_WINDOW) for name in PRIORITY_CLASSES
        }
        self._requests_total = 0
        self._completed = 0
        self._failed = 0
        self._deduplicated = 0
        self._memo_hits = 0
        self._store_hits = 0
        self._requeues = 0
        self._started_at = time.monotonic()
        self._health_task: Optional["asyncio.Task[None]"] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def _on_start(self) -> None:
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )

    async def _on_stop(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None

    # ------------------------------------------------------------------
    # health
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while True:
            await self._probe_workers()
            await asyncio.sleep(self.health_interval)

    async def _probe_workers(self) -> None:
        """Probe every worker once; flip ``healthy`` on the evidence."""

        async def probe(worker: WorkerState) -> None:
            try:
                status, _ = await fetch_json(
                    worker.host, worker.port, "GET", "/v1/healthz",
                    timeout=self.health_timeout,
                )
                alive = status == 200
            except _TRANSPORT_ERRORS:
                alive = False
            if alive:
                worker.healthy = True
                worker.consecutive_failures = 0
            else:
                worker.healthy = False
                worker.consecutive_failures += 1

        await asyncio.gather(*(probe(worker) for worker in self.workers))

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def ranked_workers(self, key: str) -> List[WorkerState]:
        """Healthy workers by rendezvous (HRW) score for ``key``, best
        first; falls back to all workers when none look healthy (the
        evidence may be stale -- the forward itself is the last word).
        """
        pool = [w for w in self.workers if w.healthy] or list(self.workers)
        return sorted(
            pool,
            key=lambda w: hashlib.sha256(
                f"{key}|{w.url}".encode("utf-8")
            ).digest(),
            reverse=True,
        )

    async def _route_and_forward(
        self, routing_key: str, path: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Forward to the ranked workers with bounded requeue.

        Transport failures (dead or hung worker) mark the worker
        unhealthy and requeue on the next-ranked one; a worker's
        non-200 *answer* is a deterministic refusal and propagates to
        the client without retry.
        """
        ranked = self.ranked_workers(routing_key)
        attempts = 0
        last_failure = "no workers"
        for worker in ranked:
            if attempts >= self.max_attempts:
                break
            attempts += 1
            worker.in_flight += 1
            try:
                status, body = await fetch_json(
                    worker.host, worker.port, "POST", path, payload,
                    timeout=self.worker_timeout,
                )
            except _TRANSPORT_ERRORS as exc:
                worker.healthy = False
                worker.consecutive_failures += 1
                self._requeues += 1
                last_failure = (
                    f"{worker.url}: {type(exc).__name__}: {exc}".rstrip(": ")
                )
                continue
            finally:
                worker.in_flight -= 1
            worker.healthy = True
            worker.consecutive_failures = 0
            worker.forwards += 1
            if status != 200:
                detail = body if isinstance(body, dict) else {}
                raise HttpError(
                    status,
                    str(detail.get("error") or f"worker answered {status}"),
                    error_code=detail.get("error_code"),
                )
            if not isinstance(body, dict):
                raise HttpError(502, f"worker {worker.url} answered non-JSON")
            return body
        raise HttpError(
            503,
            f"request failed on every worker tried "
            f"({attempts} attempt(s), budget {self.max_attempts}); "
            f"last: {last_failure}",
            error_code="worker_exhausted",
        )

    # ------------------------------------------------------------------
    # dedup: memo + shared store + single flight
    # ------------------------------------------------------------------
    @staticmethod
    def _lookup_key(entry: Mapping[str, Any]) -> Optional[str]:
        """The shared-store/memo key a *hinted* request can be looked
        up under: the same versioned content key the worker will
        compute, derived from the client's claimed fingerprint.  A lie
        here only serves the liar a wrong cached envelope; writes never
        use this key.
        """
        fingerprint = entry.get("fingerprint")
        allocator = entry.get("allocator")
        options = entry.get("options") or {}
        if not isinstance(fingerprint, str) or not fingerprint:
            return None
        if not isinstance(allocator, str) or not isinstance(options, dict):
            return None
        return versioned_content_key(
            content_key_from_fingerprint(fingerprint, allocator, options)
        )

    @staticmethod
    def _deterministic(payload: Mapping[str, Any]) -> bool:
        """Mirror of ``Engine._cache_store`` eligibility: success and
        infeasibility are facts; timeouts and crashes are not."""
        error = payload.get("error")
        return error is None or (
            isinstance(error, str) and error.startswith("infeasible")
        )

    def _memo_get(self, key: str) -> Optional[Dict[str, Any]]:
        hit = self._memo.get(key)
        if hit is not None:
            self._memo.move_to_end(key)
        return hit

    def _memo_put(self, key: str, payload: Dict[str, Any]) -> None:
        self._memo[key] = payload
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_max_entries:
            self._memo.popitem(last=False)

    def _memo_store_response(self, payload: Mapping[str, Any]) -> None:
        """Adopt a worker response into the memo, keyed by the
        *worker-reported* ``content_key`` -- the authoritative identity
        computed from the parsed problem, immune to client hints."""
        key = payload.get("content_key")
        if not isinstance(key, str) or not key:
            return
        if not self._deterministic(payload):
            return
        self._memo_put(key, dict(payload))

    def _store_read(self, key: str) -> Optional[str]:
        if self._store is None:
            return None
        try:
            return self._store.read(key)
        except OSError:
            return None

    # ------------------------------------------------------------------
    # request pipeline
    # ------------------------------------------------------------------
    @staticmethod
    def _class_of(entry: Mapping[str, Any]) -> str:
        name = entry.get("priority")
        if name is None:
            return DEFAULT_PRIORITY
        if name not in PRIORITY_CLASSES:
            raise HttpError(
                400,
                f"priority must be one of {list(PRIORITY_CLASSES)}, "
                f"got {name!r}",
            )
        return str(name)

    @contextlib.contextmanager
    def _admitted(self, wanted: Mapping[str, int]) -> Iterator[None]:
        """Hold admission slots for every class in ``wanted`` or shed
        the whole unit of work with a typed 429."""
        over = [
            name for name, count in wanted.items()
            if self._class_counts[name] + count > self._class_limits[name]
        ]
        if over:
            for name, count in wanted.items():
                self._class_shed[name] += count
            detail = ", ".join(
                f"{name} {self._class_counts[name]}/{self._class_limits[name]}"
                for name in sorted(over)
            )
            raise HttpError(
                429,
                f"admission queue full for class(es): {detail}; shed",
                error_code="shed",
            )
        for name, count in wanted.items():
            self._class_counts[name] += count
            self._class_admitted[name] += count
        try:
            yield
        finally:
            for name, count in wanted.items():
                self._class_counts[name] -= count

    async def _serve_entry(self, entry: Dict[str, Any]) -> Dict[str, Any]:
        """One allocation request end to end: memo -> shared store ->
        fleet-wide single flight -> routed forward with requeue."""
        memo_key = self._lookup_key(entry)
        hit = None if memo_key is None else await self._dedup_hit(memo_key)
        if hit is None:
            flight_key = (
                None if memo_key is None
                else f"{memo_key}@{entry.get('timeout')!r}"
            )
            payload, joined = await self._flights.run(
                flight_key, lambda: self._dispatch_entry(entry, memo_key)
            )
            if not joined:
                return dict(payload, schema_version=SCHEMA_VERSION)
            # The flight was keyed by a client's claimed fingerprint, so
            # its leader may have carried another problem: serve its
            # result only when the worker confirms this request's key.
            if payload.get("content_key") != memo_key:
                payload = await self._dispatch_entry(entry, memo_key)
                return dict(payload, schema_version=SCHEMA_VERSION)
            hit = payload
        # Re-labelled for this request like an engine cache hit (label
        # and ``cached`` are non-canonical).
        self._deduplicated += 1
        return dict(
            hit, label=entry.get("label"), cached=True,
            schema_version=SCHEMA_VERSION,
        )

    async def _dedup_hit(self, key: str) -> Optional[Dict[str, Any]]:
        """The memo's, else the shared store's, envelope for ``key``."""
        hit = self._memo_get(key)
        if hit is not None:
            self._memo_hits += 1
            return hit
        text = await asyncio.get_running_loop().run_in_executor(
            None, self._store_read, key
        )
        hit = self._adopt_store_entry(key, text) if text is not None else None
        if hit is not None:
            self._store_hits += 1
        return hit

    def _adopt_store_entry(
        self, key: str, text: str
    ) -> Optional[Dict[str, Any]]:
        """Parse a shared-store envelope and adopt it into the memo."""
        try:
            payload = json.loads(text)
        except ValueError:
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("kind") != "allocation-result"
        ):
            return None
        payload["content_key"] = key
        self._memo_put(key, payload)
        return payload

    async def _dispatch_entry(
        self, entry: Dict[str, Any], memo_key: Optional[str]
    ) -> Dict[str, Any]:
        routing_key = entry.get("fingerprint") or memo_key or _digest(entry)
        payload = await self._route_and_forward(
            str(routing_key), "/v1/allocate", entry
        )
        self._memo_store_response(payload)
        return payload

    async def _timed(
        self, cls: str, work: Awaitable[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Await one admitted unit of work with latency + outcome
        accounting."""
        self._requests_total += 1
        began = time.perf_counter()
        try:
            payload = await work
        except BaseException:
            self._failed += 1
            raise
        self._class_latencies[cls].append(time.perf_counter() - began)
        self._completed += 1
        if payload.get("error") is not None:
            self._failed += 1
        return payload

    # ------------------------------------------------------------------
    # endpoints (routed by HttpServerBase)
    # ------------------------------------------------------------------
    async def _handle_healthz(self) -> Dict[str, Any]:
        healthy = sum(1 for worker in self.workers if worker.healthy)
        return {
            "kind": "service-health",
            "status": "ok" if healthy else "degraded",
            "version": __version__,
            "role": "coordinator",
            "schema_versions": list(SUPPORTED_SCHEMA_VERSIONS),
            "workers": {"total": len(self.workers), "healthy": healthy},
        }

    async def _handle_stats(self) -> Dict[str, Any]:
        classes = {
            name: {
                "limit": self._class_limits[name],
                "in_flight": self._class_counts[name],
                "admitted": self._class_admitted[name],
                "shed": self._class_shed[name],
                **latency_summary(self._class_latencies[name]),
            }
            for name in PRIORITY_CLASSES
        }
        return {
            "kind": "service-stats",
            "role": "coordinator",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "requests_total": self._requests_total,
            "completed": self._completed,
            "failed": self._failed,
            "deduplicated": self._deduplicated,
            "requeues": self._requeues,
            "shed_total": sum(self._class_shed.values()),
            "memo": {
                "entries": len(self._memo),
                "max_entries": self.memo_max_entries,
                "hits": self._memo_hits,
                "store_hits": self._store_hits,
            },
            "classes": classes,
            "workers": [worker.snapshot() for worker in self.workers],
        }

    async def _handle_allocate(self, data: Any) -> Dict[str, Any]:
        if not isinstance(data, dict) or data.get("kind") != "allocation-request":
            raise HttpError(
                400,
                f"not an allocation-request payload: "
                f"{data.get('kind') if isinstance(data, dict) else data!r}",
            )
        cls = self._class_of(data)
        with self._admitted({cls: 1}):
            return await self._timed(cls, self._serve_entry(data))

    async def _handle_batch(self, data: Any) -> Dict[str, Any]:
        if not isinstance(data, dict) or data.get("kind") != BATCH_REQUEST_KIND:
            raise HttpError(
                400,
                f"not an {BATCH_REQUEST_KIND} payload: "
                f"{data.get('kind') if isinstance(data, dict) else data!r}",
            )
        entries = data.get("requests")
        if not isinstance(entries, list) or not all(
            isinstance(entry, dict) for entry in entries
        ):
            raise HttpError(
                400, f"{BATCH_REQUEST_KIND}: 'requests' must be a list of "
                     f"allocation-request payloads"
            )
        wanted: Dict[str, int] = {}
        labelled: List[Tuple[Dict[str, Any], str]] = []
        for entry in entries:
            cls = self._class_of(entry)
            wanted[cls] = wanted.get(cls, 0) + 1
            labelled.append((entry, cls))
        # All-or-nothing admission: a batch is one unit of work, and
        # partially shedding it would break results/requests alignment.
        with self._admitted(wanted):
            outcomes = await asyncio.gather(*(
                self._timed(cls, self._serve_entry(entry))
                for entry, cls in labelled
            ), return_exceptions=True)
        results: List[Dict[str, Any]] = []
        for outcome in outcomes:
            # Let every entry settle (requeues included) before failing
            # the batch on the first hard error.
            if isinstance(outcome, BaseException):
                raise outcome
            results.append(outcome)
        return {"kind": BATCH_RESULTS_KIND, "results": results}

    async def _handle_delta(self, data: Any) -> Dict[str, Any]:
        if not isinstance(data, dict):
            raise HttpError(400, "delta-request body must be a JSON object")
        cls = self._class_of(data)
        # Route by the base fingerprint so one base problem's delta
        # solves keep hitting the worker whose replay artifact is
        # already primed.  Deltas are not memoised (they are cheap by
        # design and their envelopes depend on the edit chain).
        routing_key = (
            data.get("fingerprint")
            or data.get("base_fingerprint")
            or _digest(data)
        )
        with self._admitted({cls: 1}):
            return await self._timed(cls, self._route_and_forward(
                str(routing_key), "/v1/delta", data
            ))


def _digest(payload: Mapping[str, Any]) -> str:
    """Routing key of a request that names no fingerprint."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


class FleetThread(ServerThreadBase):
    """Run a :class:`FleetCoordinator` on a daemon thread (tests)."""

    thread_name = "repro-fleet"

    def __init__(self, **coordinator_kwargs: Any) -> None:
        super().__init__()
        self._kwargs = coordinator_kwargs

    def _create(self) -> FleetCoordinator:
        return FleetCoordinator(**self._kwargs)


# ----------------------------------------------------------------------
# worker process management
# ----------------------------------------------------------------------

def free_port() -> int:
    """Bind-and-release a localhost port; the usual spawn handshake."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def spawn_worker(
    port: int,
    cache_dir: Optional[Any] = None,
    shared_cache_dir: Optional[Any] = None,
    executor: Optional[str] = None,
    max_concurrency: int = 4,
    default_timeout: Optional[float] = None,
) -> "subprocess.Popen[bytes]":
    """Spawn one ``repro serve`` worker subprocess on ``port``.

    The child runs this interpreter and this checkout (``sys.path``
    is propagated through ``PYTHONPATH``), so fleet workers always
    speak the coordinator's schema version.
    """
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--host", "127.0.0.1",
        "--port", str(port),
        "--workers", str(max_concurrency),
    ]
    if cache_dir is not None:
        cmd += ["--cache-dir", str(cache_dir)]
    if shared_cache_dir is not None:
        cmd += ["--shared-cache-dir", str(shared_cache_dir)]
    if executor is not None:
        cmd += ["--executor", executor]
    if default_timeout is not None:
        cmd += ["--timeout", str(default_timeout)]
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    return subprocess.Popen(
        cmd, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


class WorkerPool:
    """Spawn and supervise N local ``repro serve`` workers.

    Context manager: enter -> every worker answers ``/healthz`` (each
    with its own local cache directory spilling to one shared store);
    exit -> workers terminated, scratch directories removed.  Used by
    ``repro fleet --workers N``, the fleet benchmark, the CI smoke and
    the subprocess tests.
    """

    def __init__(
        self,
        count: int,
        shared_dir: Optional[Any] = None,
        cache_root: Optional[Any] = None,
        executor: str = "process",
        max_concurrency: int = 4,
        default_timeout: Optional[float] = None,
        startup_deadline: float = 60.0,
    ) -> None:
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self.count = count
        self.shared_dir = shared_dir
        self.executor = executor
        self.max_concurrency = max_concurrency
        self.default_timeout = default_timeout
        self.startup_deadline = startup_deadline
        self._cache_root = cache_root
        self._scratch: Optional[str] = None
        self.processes: List["subprocess.Popen[bytes]"] = []
        self.urls: List[str] = []

    def __enter__(self) -> "WorkerPool":
        from .client import ServiceClient

        if self._cache_root is None:
            self._scratch = tempfile.mkdtemp(prefix="repro-fleet-")
            self._cache_root = self._scratch
        root = Path(self._cache_root)
        try:
            for index in range(self.count):
                port = free_port()
                self.processes.append(spawn_worker(
                    port,
                    cache_dir=root / f"worker-{index}",
                    shared_cache_dir=self.shared_dir,
                    executor=self.executor,
                    max_concurrency=self.max_concurrency,
                    default_timeout=self.default_timeout,
                ))
                self.urls.append(f"http://127.0.0.1:{port}")
            for url in self.urls:
                ServiceClient(url, timeout=10.0).wait_healthy(
                    deadline_seconds=self.startup_deadline
                )
        except BaseException:
            self._shutdown()
            raise
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self._shutdown()

    def kill(self, index: int) -> None:
        """SIGKILL one worker (failure-injection for tests/CI)."""
        self.processes[index].send_signal(signal.SIGKILL)
        self.processes[index].wait(timeout=30.0)

    def _shutdown(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + 10.0
        for process in self.processes:
            if process.poll() is None:
                try:
                    process.wait(timeout=max(0.1, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=10.0)
        self.processes = []
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)
            self._scratch = None
