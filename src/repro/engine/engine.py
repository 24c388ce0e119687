"""The allocation engine: one front door for every allocation run.

:class:`Engine` executes :class:`~repro.engine.results.AllocationRequest`
objects -- singly (:meth:`Engine.run`) or in deterministic batches
(:meth:`Engine.run_batch`) -- and always returns
:class:`~repro.engine.results.AllocationResult` envelopes:

* strategies are resolved through the allocator registry, so every
  consumer shares one dispatch surface;
* infeasibility, timeouts and validation failures come back as result
  fields instead of exceptions, so a batch never dies on one bad case;
* ``run_batch`` fans out over a ``concurrent.futures`` process pool with
  result ordering guaranteed to match the request ordering regardless of
  completion order;
* an optional on-disk cache keyed by ``Problem.fingerprint()`` plus the
  strategy name and options makes repeated sweeps (experiments,
  benchmarks, CI) cheap;
* :meth:`Engine.run_delta` applies an edit sequence to a base problem
  and runs the edited problem like any other request.

The envelope of a run is deterministic: serial, pooled and cached
executions of the same request produce byte-for-byte identical
``AllocationResult.canonical_json()`` values.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from ..analysis.validate import ValidationError, validate_datapath
from ..core.delta import apply_edits
from ..core.problem import InfeasibleError, Problem
from ..core.solution import Datapath
from .registry import get_allocator
from .results import AllocationRequest, AllocationResult, DeltaRequest

__all__ = [
    "Engine",
    "content_key_from_fingerprint",
    "execute_request",
    "request_content_key",
    "versioned_content_key",
]

PathLike = Union[str, Path]


def execute_request(request: AllocationRequest) -> AllocationResult:
    """Run one request in the current process and envelope the outcome.

    This is the single execution path shared by serial runs and pool
    workers (it is a module-level function so it pickles for
    ``concurrent.futures``).  Never raises for infeasibility, solver
    timeouts or validation failures -- those become ``error`` /
    ``valid`` fields of the returned envelope.
    """
    fn = get_allocator(request.allocator)
    options = dict(request.options)
    began = time.perf_counter()
    datapath: Optional[Datapath] = None
    extras: Dict[str, Any] = {}
    error: Optional[str] = None
    try:
        outcome = fn(request.problem, **options)
        if isinstance(outcome, tuple):
            datapath, extras = outcome[0], dict(outcome[1])
        else:
            datapath = outcome
    except InfeasibleError as exc:
        error = f"infeasible: {exc}"
    except TimeoutError as exc:
        error = f"timeout: {exc}"
    except Exception as exc:  # noqa: BLE001 -- a batch never dies on one case
        error = f"error: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - began

    valid: Optional[bool] = None
    if datapath is not None:
        try:
            validate_datapath(request.problem, datapath)
            valid = True
        except ValidationError as exc:
            valid = False
            error = f"invalid: {exc}"

    if request.timeout is not None and seconds > request.timeout:
        # In-process solvers cannot be interrupted safely; a blown
        # budget is reported after the fact (the preemptive paths
        # additionally stop waiting / kill the worker -- see
        # Engine.run_batch and repro.engine.executor).  The envelope is
        # normalised to exactly what those paths produce -- same error
        # string (no wall-clock text), no datapath -- so
        # canonical_json() stays identical across execution modes; the
        # measured duration survives in ``seconds``.  This happens
        # regardless of any error the run reported: a preempted worker
        # never gets to say "infeasible" or "invalid", so an over-budget
        # serial run must not either.
        error = f"timeout: no result within {request.timeout:g}s"
        datapath = None
        extras = {}
        valid = None

    return AllocationResult(
        allocator=request.allocator,
        datapath=datapath,
        seconds=seconds,
        iterations=datapath.iterations if datapath is not None else 0,
        valid=valid,
        error=error,
        extras=extras,
        label=request.label,
    )


def _timeout_result(request: AllocationRequest) -> AllocationResult:
    return AllocationResult(
        allocator=request.allocator,
        datapath=None,
        seconds=float(request.timeout or 0.0),
        iterations=0,
        valid=None,
        error=f"timeout: no result within {request.timeout:g}s",
        extras={},
        label=request.label,
    )


def _error_result(request: AllocationRequest, exc: BaseException) -> AllocationResult:
    """Envelope for a pooled run whose *transport* failed (e.g. an
    unpicklable request or a broken worker) -- the allocator itself
    never got to report."""
    return AllocationResult(
        allocator=request.allocator,
        datapath=None,
        seconds=0.0,
        iterations=0,
        valid=None,
        error=f"error: {type(exc).__name__}: {exc}",
        extras={},
        label=request.label,
    )


def _delta_error(
    request: DeltaRequest, message: str, began: float, meta: Dict[str, Any]
) -> AllocationResult:
    """Error envelope of a delta that never reached a solve."""
    return AllocationResult(
        allocator="dpalloc",
        datapath=None,
        seconds=time.perf_counter() - began,
        iterations=0,
        valid=None,
        error=message,
        extras={},
        label=request.label,
        delta={**meta, "strategy": "error"},
    )


EXECUTORS = ("pool", "process")

# Entry bound of the engine's in-memory store of delta base problems.
# FIFO: a long interactive session forgets its oldest bases first.
BASE_MEMORY_BOUND = 256


def content_key_from_fingerprint(
    fingerprint: str, allocator: str, options: Any
) -> Optional[str]:
    """Content hash of ``(problem fingerprint, allocator, options)``.

    The fingerprint-keyed half of :func:`request_content_key`, split
    out so the fleet coordinator -- which sees a request's claimed
    fingerprint but never parses its :class:`Problem` -- can compute
    the identical key.  ``None`` when the options are not
    JSON-serialisable.
    """
    try:
        payload = json.dumps(
            {
                "problem": fingerprint,
                "allocator": allocator,
                "options": sorted(dict(options).items()),
            },
            sort_keys=True,
        )
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def versioned_content_key(content: Optional[str]) -> Optional[str]:
    """Mix the package version into a content key.

    This is the on-disk cache entry key: stale code never serves an
    entry it did not write.  The single definition is shared by
    ``Engine.cache_key``, the service's authoritative ``content_key``
    response field, and the fleet coordinator's shared-store lookups,
    so all three can never drift apart.  ``None`` passes through
    (uncacheable stays uncacheable).
    """
    if content is None:
        return None
    from .. import __version__

    return hashlib.sha256(
        f"{content}:{__version__}".encode("utf-8")
    ).hexdigest()


def _base_key(fingerprint: str) -> str:
    """Cache key of a stored delta base; never an envelope's key."""
    key = versioned_content_key(f"delta-base:{fingerprint}")
    assert key is not None
    return key


def request_content_key(request: AllocationRequest) -> Optional[str]:
    """Stable content hash of a request's (problem, allocator, options).

    The single source of truth for "are two requests the same work":
    the engine's cache key is this plus the package version, and the
    service layer's single-flight dedup is this plus the timeout.
    ``None`` when the request has no JSON identity (callable-table
    models, non-JSON options) -- such requests are uncacheable and
    never deduplicated.
    """
    try:
        fingerprint = request.problem.fingerprint()
    except (TypeError, ValueError):
        return None
    return content_key_from_fingerprint(
        fingerprint, request.allocator, request.options
    )


class Engine:
    """Batch/serial allocation runner over the allocator registry.

    Args:
        workers: default parallelism of :meth:`run_batch` (overridable
            per call).  ``None`` or ``1`` means serial in-process
            execution; ``N > 1`` fans out over a process pool.
        cache_dir: optional directory for the on-disk result cache.
            Created on first write.  Entries are JSON envelopes keyed by
            ``sha256(problem fingerprint + allocator + options)``; only
            deterministic outcomes (success or infeasibility) are
            cached, never timeouts.
        cache_max_mb: optional size budget for the cache directory;
            least-recently-used entries are evicted after each store to
            keep the total under the budget (see
            :class:`repro.engine.cache.ResultCache`).
        cache_shared_dir: optional shared backing store the cache
            spills to and reads through on local misses -- the fleet
            topology, where every worker's local cache shares one
            store (see :class:`repro.engine.cache.ResultCache`).
            Requires ``cache_dir``.
        executor: fresh-run execution mode.  ``"pool"`` (default)
            preserves the PR-1 behaviour: serial in-process runs, or a
            ``ProcessPoolExecutor`` fan-out whose timeout abandons (but
            cannot kill) a hung worker.  ``"process"`` routes every
            fresh run through
            :class:`repro.engine.executor.ProcessPerRunExecutor`: one
            process per run with a hard deadline, so ``timeout`` is a
            true per-solve budget, a blown budget SIGKILLs the worker,
            and queued requests never inherit a starved slot or a stale
            clock.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir: Optional[PathLike] = None,
        cache_max_mb: Optional[float] = None,
        executor: str = "pool",
        cache_shared_dir: Optional[PathLike] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if executor not in EXECUTORS:
            raise ValueError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.executor = executor
        self._cache: Optional["ResultCache"] = None
        if self.cache_dir is not None:
            from .cache import ResultCache

            self._cache = ResultCache(
                self.cache_dir,
                max_mb=cache_max_mb,
                shared_dir=cache_shared_dir,
            )
        elif cache_max_mb is not None:
            raise ValueError("cache_max_mb requires cache_dir")
        elif cache_shared_dir is not None:
            raise ValueError("cache_shared_dir requires cache_dir")
        # Cumulative ProcessPerRunExecutor counters across this engine's
        # process-mode runs (started/completed/timeouts/killed/crashed).
        # Accumulation is locked: the async service layer calls run()
        # from many worker threads against one shared engine.
        self.executor_stats: Dict[str, int] = {}
        self._stats_lock = threading.Lock()
        # Base problems of run_delta, by fingerprint, so a later delta
        # may name its base by fingerprint alone.  Bounded and in
        # memory; with a cache_dir each base is also one ResultCache
        # entry, which outlives the engine.
        self._bases: Dict[str, Problem] = {}
        self._bases_lock = threading.Lock()

    # ------------------------------------------------------------------
    # cache lifecycle
    # ------------------------------------------------------------------
    def cache_stats(self, reconcile: bool = True) -> Optional[Dict[str, Any]]:
        """Entry count / size / hit statistics; ``None`` without a cache.

        ``reconcile=False`` skips the per-call directory rescan (see
        :meth:`repro.engine.cache.ResultCache.stats`).
        """
        if self._cache is None:
            return None
        return self._cache.stats(reconcile=reconcile)

    def executor_stats_snapshot(self) -> Dict[str, int]:
        """A consistent copy of :attr:`executor_stats`.

        Taken under the accumulation lock so readers on other threads
        (the service's ``/stats``) never observe the dict mid-update.
        """
        with self._stats_lock:
            return dict(self.executor_stats)

    def prune_cache(self, max_mb: Optional[float] = None) -> Dict[str, int]:
        """LRU-evict cache entries down to ``max_mb`` (or the configured
        budget); no-op counters without a cache."""
        if self._cache is None:
            return {"evicted": 0, "reclaimed_bytes": 0, "remaining": 0}
        return self._cache.prune(max_mb)

    def clear_cache(self) -> int:
        """Drop every cache entry; returns the number removed."""
        return self._cache.clear() if self._cache is not None else 0

    # ------------------------------------------------------------------
    # cache keying and I/O
    # ------------------------------------------------------------------
    def cache_key(self, request: AllocationRequest) -> Optional[str]:
        """Stable cache key for ``request``; ``None`` if uncacheable."""
        if self.cache_dir is None:
            return None
        # The version mix-in means a persistent cache never serves
        # envelopes computed by older code.
        return versioned_content_key(request_content_key(request))

    def _cache_load(
        self, key: Optional[str], request: AllocationRequest
    ) -> Optional[AllocationResult]:
        if key is None or self._cache is None:
            return None
        text = self._cache.read(key)
        if text is None:
            return None
        from dataclasses import replace

        from ..io.json_io import allocation_result_from_dict

        try:
            result = allocation_result_from_dict(json.loads(text))
        except Exception:  # noqa: BLE001 -- any corrupt/wrong-shape
            # Drop the unusable entry (and recount the lookup as a
            # miss); the request falls through to a fresh run, which
            # re-caches a clean envelope.
            self._cache.invalidate(key)
            return None
        # The key excludes the label (it is bookkeeping, not content):
        # echo the *current* request's label, as a fresh run would.
        return replace(result, cached=True, label=request.label)

    def _cache_store(self, key: Optional[str], result: AllocationResult) -> None:
        if key is None or self._cache is None:
            return
        if result.error is not None and not result.error.startswith("infeasible"):
            return  # timeouts / validation failures are not deterministic facts
        from .. import __version__
        from ..io.json_io import allocation_result_to_dict

        self._cache.write(
            key,
            json.dumps(allocation_result_to_dict(result), sort_keys=True),
            version=__version__,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, request: AllocationRequest) -> AllocationResult:
        """Execute one request (cache-aware).

        ``executor="pool"`` engines run it in-process; ``"process"``
        engines run it in a dedicated killable worker process, making
        ``request.timeout`` a hard deadline even for a single run.
        """
        key = self.cache_key(request)
        hit = self._cache_load(key, request)
        if hit is not None:
            return hit
        if self.executor == "process":
            (result,) = self._run_preemptive([request], workers=1)
        else:
            result = execute_request(request)
        self._cache_store(key, result)
        if self._cache is not None:
            self._cache.flush()
        return result

    def run_delta(self, request: DeltaRequest) -> AllocationResult:
        """Solve an edited problem: a :meth:`run` of the edited request.

        Resolves the base problem -- ``request.base_problem``, else the
        one this engine stored under ``request.base_fingerprint`` --
        applies ``request.edits`` (:func:`repro.core.delta.apply_edits`)
        and runs the edited problem as a ``dpalloc`` request.  A delta
        therefore gets the result cache and the executor (a killable
        process under ``executor="process"``), and its canonical bytes
        are those of a cold solve by construction.  Both the base and
        the edited problem are stored, so a later delta (or a chain of
        them) may name either by fingerprint.

        The non-canonical ``delta`` field of the envelope carries
        ``base_fingerprint``, the number of ``edits`` and a
        ``strategy``: ``noop`` (the edits leave the base unchanged),
        ``cache`` (a result-cache hit), ``scratch`` (a fresh solve) or
        ``error``.  An unknown base fingerprint or an invalid edit comes
        back as an error envelope, never an exception.
        """
        began = time.perf_counter()
        base_fp = request.fingerprint()
        meta: Dict[str, Any] = {
            "base_fingerprint": base_fp,
            "edits": len(request.edits),
        }
        base = request.base_problem
        if base is None:
            base = self._recall_base(base_fp)
        if base is None:
            return _delta_error(
                request,
                f"delta: no stored base problem {base_fp} "
                "(supply base_problem)",
                began,
                meta,
            )
        try:
            edited = apply_edits(base, request.edits)
        except (KeyError, TypeError, ValueError) as exc:
            return _delta_error(
                request, f"delta: {type(exc).__name__}: {exc}", began, meta
            )
        self._remember_base(base)
        self._remember_base(edited)
        result = self.run(AllocationRequest(
            problem=edited,
            allocator="dpalloc",
            options=request.options,
            label=request.label,
        ))
        if edited.fingerprint() == base_fp:
            strategy = "noop"
        elif result.cached:
            strategy = "cache"
        else:
            strategy = "scratch"
        return replace(result, delta={**meta, "strategy": strategy})

    def _remember_base(self, problem: Problem) -> None:
        """Store ``problem`` as a delta base under its fingerprint."""
        fingerprint = problem.fingerprint()
        with self._bases_lock:
            if fingerprint in self._bases:
                return
            self._bases[fingerprint] = problem
            while len(self._bases) > BASE_MEMORY_BOUND:
                self._bases.pop(next(iter(self._bases)))
        if self._cache is not None:
            from .. import __version__
            from ..io.json_io import problem_to_dict

            self._cache.write(
                _base_key(fingerprint),
                json.dumps(problem_to_dict(problem), sort_keys=True),
                version=__version__,
            )

    def _recall_base(self, fingerprint: str) -> Optional[Problem]:
        """The base stored under ``fingerprint``; ``None`` if unknown."""
        with self._bases_lock:
            problem = self._bases.get(fingerprint)
        if problem is not None or self._cache is None:
            return problem
        key = _base_key(fingerprint)
        text = self._cache.read(key)
        if text is None:
            return None
        from ..io.json_io import problem_from_dict

        try:
            # problem_from_dict checks the payload's kind.
            return problem_from_dict(json.loads(text))
        except Exception:  # noqa: BLE001 -- a corrupt or foreign entry
            # is a miss; the next delta that carries the base rewrites it.
            self._cache.invalidate(key)
            return None

    def _run_preemptive(
        self, requests: Sequence[AllocationRequest], workers: int
    ) -> List[AllocationResult]:
        """Fresh runs through the process-per-run executor (stats kept)."""
        from .executor import ProcessPerRunExecutor

        runner = ProcessPerRunExecutor(workers=workers)
        try:
            return runner.run_many(requests)
        finally:
            with self._stats_lock:
                for name, value in runner.stats.items():
                    self.executor_stats[name] = (
                        self.executor_stats.get(name, 0) + value
                    )

    def run_batch(
        self,
        requests: Sequence[AllocationRequest],
        workers: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> List[AllocationResult]:
        """Execute a batch; results align index-for-index with requests.

        ``executor`` overrides the engine's mode for this call.

        In ``"process"`` mode every fresh (non-cached) request runs in
        its own worker process -- at most ``workers`` live at a time --
        with a hard deadline measured from its *own* process start: a
        blown budget kills the worker, and queued requests never pay
        for an earlier hung solve.

        In ``"pool"`` mode, with ``workers > 1`` the fresh requests fan
        out over a ``ProcessPoolExecutor``; completion order never
        affects result order.  A request whose ``timeout`` expires
        while pooled yields a timeout envelope; the pool is then shut
        down without waiting (abandoned workers finish in the
        background -- CPython cannot preempt a running C-level solve).
        The pooled timeout clock starts when the parent begins waiting
        on that request, so time a request spends queued behind earlier
        requests counts against its budget; treat the pooled ``timeout``
        as a batch-latency bound, not a precise per-solve limit -- use
        ``executor="process"`` for a true per-solve budget.
        """
        count = workers if workers is not None else (self.workers or 1)
        if count < 1:
            raise ValueError(f"workers must be >= 1, got {count}")
        mode = executor if executor is not None else self.executor
        if mode not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {mode!r}")

        results: List[Optional[AllocationResult]] = [None] * len(requests)
        keys: List[Optional[str]] = [self.cache_key(r) for r in requests]
        fresh: List[int] = []
        for index, request in enumerate(requests):
            hit = self._cache_load(keys[index], request)
            if hit is not None:
                results[index] = hit
            else:
                fresh.append(index)

        # A single fresh request normally skips the pool -- unless the
        # caller asked for pooled execution AND a timeout, in which
        # case the pool is what makes the timeout preemptive (a hung
        # solver must not block the batch).
        wants_preemption = count > 1 and any(
            requests[index].timeout is not None for index in fresh
        )
        if mode == "process":
            if fresh:
                fresh_results = self._run_preemptive(
                    [requests[index] for index in fresh],
                    workers=min(count, len(fresh)),
                )
                for index, result in zip(fresh, fresh_results):
                    results[index] = result
        elif count <= 1 or (len(fresh) <= 1 and not wants_preemption):
            for index in fresh:
                results[index] = execute_request(requests[index])
        elif fresh:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=min(count, len(fresh))
            )
            timed_out = False
            try:
                futures = {
                    index: pool.submit(execute_request, requests[index])
                    for index in fresh
                }
                for index in fresh:
                    request = requests[index]
                    try:
                        results[index] = futures[index].result(
                            timeout=request.timeout
                        )
                    except concurrent.futures.TimeoutError:
                        futures[index].cancel()
                        timed_out = True
                        results[index] = _timeout_result(request)
                    except Exception as exc:  # noqa: BLE001
                        # Transport failures (unpicklable request,
                        # broken pool) envelope like any other failed
                        # case instead of discarding the whole batch.
                        results[index] = _error_result(request, exc)
            finally:
                # After a timeout, don't let shutdown block on the
                # abandoned worker -- that would defeat the budget.
                # Every envelope is already collected, so whatever is
                # still running in the pool is abandoned work: kill it
                # (snapshot first -- shutdown clears ``_processes``) so
                # neither interpreter exit (the atexit join) nor the OS
                # keeps paying for it.
                workers_snapshot = (
                    list((getattr(pool, "_processes", None) or {}).values())
                    if timed_out else []
                )
                pool.shutdown(wait=not timed_out, cancel_futures=timed_out)
                for process in workers_snapshot:
                    process.kill()

        for index in fresh:
            result = results[index]
            assert result is not None
            self._cache_store(keys[index], result)
        if self._cache is not None:
            self._cache.flush()  # one manifest write per batch, not per store
        assert all(r is not None for r in results)
        return list(results)  # type: ignore[arg-type]
