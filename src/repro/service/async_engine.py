"""Async front-end over :class:`repro.engine.Engine`.

:class:`AsyncEngine` lets an asyncio application (the HTTP service, a
notebook, another event loop) await allocation runs without ever
blocking the loop:

* every run executes on a worker thread (``await engine.run(request)``
  returns control to the loop immediately); when the underlying engine
  uses ``executor="process"`` the solve additionally runs in its own
  killable worker process, so even a *hung* solver costs one bounded
  thread, never the loop;
* a semaphore bounds how many runs are in flight at once -- excess
  requests queue in submission order;
* identical concurrent requests are **single-flighted**: the second
  request for the same problem/allocator/options/timeout awaits the
  first run instead of re-solving (the envelope is re-labelled per
  request, exactly like an engine cache hit), and only one entry is
  ever written to the shared result cache;
* :meth:`stats` aggregates what a service wants to export: in-flight
  and queued counts, completed/failed/deduplicated totals, p50/p95
  latency over a sliding window, cache hit rate, and the engine's
  process-executor counters.

Envelopes are exactly what ``Engine.run`` / ``Engine.run_batch``
produce -- same cache, same timeout normalisation -- so
``AllocationResult.canonical_json()`` stays byte-identical between the
async path and the offline batch path.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import Any, Deque, Dict, List, Optional, Sequence

from ..engine import AllocationRequest, AllocationResult, DeltaRequest, Engine
from ..engine.engine import request_content_key
from .primitives import SingleFlight, latency_summary

__all__ = ["AsyncEngine"]

_LATENCY_WINDOW = 1024


class AsyncEngine:
    """Awaitable, bounded, single-flighted wrapper around an ``Engine``.

    Args:
        engine: the underlying engine (default: a fresh ``Engine()``).
            Give it ``executor="process"`` to make every fresh solve
            preemptible -- the service relies on that so a hung solve
            can never exhaust the worker threads for longer than its
            timeout.
        max_concurrency: how many runs may execute at once; further
            requests queue in submission order.
        default_timeout: per-run wall-clock budget applied to requests
            that do not carry their own ``timeout``.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        max_concurrency: int = 4,
        default_timeout: Optional[float] = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self.engine = engine if engine is not None else Engine()
        self.max_concurrency = max_concurrency
        self.default_timeout = default_timeout
        self._semaphore = asyncio.Semaphore(max_concurrency)
        self._pool = ThreadPoolExecutor(
            max_workers=max_concurrency, thread_name_prefix="repro-serve"
        )
        self._flights: SingleFlight[AllocationResult] = SingleFlight()
        # The latency window IS read off-loop (the server offloads
        # /stats to a thread so the manifest rescan cannot stall the
        # loop), so appends and snapshots share a lock.
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._latency_lock = threading.Lock()
        self._running = 0
        self._queued = 0
        self._requests_total = 0
        self._completed = 0
        self._failed = 0
        self._deduplicated = 0
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    async def run(self, request: AllocationRequest) -> AllocationResult:
        """Execute one request without blocking the event loop.

        Cache hits, timeouts and failures come back as envelope fields,
        never exceptions, exactly like ``Engine.run``.
        """
        request = self._with_default_timeout(request)
        self._requests_total += 1
        result, joined = await self._flights.run(
            self._flight_key(request), lambda: self._execute(request)
        )
        if not joined:
            return result
        self._deduplicated += 1
        # The shared run carries the leader's label; echo this
        # request's own, as a cache hit would.
        return replace(result, label=request.label)

    async def run_batch(
        self,
        requests: Sequence[AllocationRequest],
        workers: Optional[int] = None,
    ) -> List[AllocationResult]:
        """Execute a batch concurrently; results align with requests.

        ``workers`` is advisory: this engine's ``max_concurrency``
        bound decides the fan-out, exactly as for every other request.
        """
        del workers  # advisory; max_concurrency decides
        return list(await asyncio.gather(*(self.run(r) for r in requests)))

    async def run_delta(self, request: DeltaRequest) -> AllocationResult:
        """Execute one delta solve without blocking the loop.

        Shares the concurrency bound, worker pool, latency window and
        the engine's executor with ordinary runs.  It is *not*
        single-flighted: the edited problem, whose content would key
        the flight, is known only once the engine has resolved the
        base on a worker thread; the engine's result cache still
        serves a repeated edit.
        """
        self._requests_total += 1
        return await self._submit(self.engine.run_delta, request)

    async def _execute(self, request: AllocationRequest) -> AllocationResult:
        return await self._submit(self.engine.run, request)

    async def _submit(self, fn: Any, request: Any) -> AllocationResult:
        """Run ``fn(request)`` on the bounded worker pool, stats-tracked."""
        loop = asyncio.get_running_loop()
        began = time.perf_counter()
        self._queued += 1
        try:
            async with self._semaphore:
                self._queued -= 1
                self._running += 1
                try:
                    result = await loop.run_in_executor(
                        self._pool, fn, request
                    )
                finally:
                    self._running -= 1
        except BaseException:
            self._failed += 1
            raise
        with self._latency_lock:
            self._latencies.append(time.perf_counter() - began)
        self._completed += 1
        if result.error is not None:
            self._failed += 1
        return result

    # ------------------------------------------------------------------
    # single-flight keying
    # ------------------------------------------------------------------
    def _with_default_timeout(
        self, request: AllocationRequest
    ) -> AllocationRequest:
        if request.timeout is None and self.default_timeout is not None:
            return replace(request, timeout=self.default_timeout)
        return request

    def _flight_key(self, request: AllocationRequest) -> Optional[str]:
        """Content key for single-flight dedup; ``None`` = no dedup.

        Built on the same :func:`repro.engine.request_content_key` the
        engine's cache key uses, so "same cached work" and "same live
        run" can never drift apart.  The timeout is appended: it is
        *not* part of the content key (timeouts are never cached
        facts) but two different budgets must not share one live run.
        """
        key = request_content_key(request)
        if key is None:
            return None  # no stable content identity: run it alone
        return f"{key}@{request.timeout!r}"

    # ------------------------------------------------------------------
    # statistics / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Service-level statistics (JSON-compatible).

        ``in_flight`` counts runs currently executing; ``queued`` those
        waiting on the concurrency bound.  Latency percentiles cover a
        sliding window of the last ``1024`` completed runs and include
        queueing time (what a client actually experienced).
        """
        with self._latency_lock:
            latency = latency_summary(self._latencies)
        # The in-memory cache view: a /stats poll must not hold the
        # cache lock through a full directory rescan while solves wait
        # on cache reads/writes.
        cache = self.engine.cache_stats(reconcile=False)
        hits = misses = 0
        if cache is not None:
            hits, misses = cache["hits"], cache["misses"]
        lookups = hits + misses
        return {
            "kind": "service-stats",
            "uptime_seconds": round(time.monotonic() - self._started_at, 3),
            "max_concurrency": self.max_concurrency,
            "in_flight": self._running,
            "queued": self._queued,
            "requests_total": self._requests_total,
            "completed": self._completed,
            "failed": self._failed,
            "deduplicated": self._deduplicated,
            **latency,
            "cache": cache,
            "cache_hit_rate": (
                round(hits / lookups, 4) if lookups else None
            ),
            "executor": self.engine.executor_stats_snapshot(),
        }

    def close(self) -> None:
        """Release the worker threads (idempotent)."""
        self._pool.shutdown(wait=False, cancel_futures=True)
