"""Preemptive process-per-run execution: hard per-solve deadlines.

The engine's default pool path (``Engine.run_batch`` with ``workers >
1``) enforces timeouts by *abandoning* a worker: the parent stops
waiting, but the worker keeps running (CPython cannot interrupt a
C-level solve), keeps its pool slot occupied, and the next request's
clock only starts when the parent begins waiting on it -- one hung solve
cascades into spurious timeouts for everything queued behind it.

:class:`ProcessPerRunExecutor` makes ``timeout`` a true per-solve
budget: every request runs in its **own** ``multiprocessing`` process
with a hard deadline measured from the moment that process starts.  A
blown budget kills the worker (``SIGKILL``) and reaps it, so

* later requests never inherit a stale clock or a starved slot,
* no orphan processes survive the batch, and
* a crashed worker (segfault, ``os._exit``) becomes an error envelope
  instead of a hung batch.

Envelopes are normalised exactly like every other execution mode: a
preempted run yields the same ``timeout: no result within <t>s`` error
string the pooled path produces, so ``AllocationResult.canonical_json()``
stays byte-for-byte identical across serial, pooled and process-per-run
execution.

The per-run process costs a fork per request (~ms); prefer the pool path
for huge sweeps of fast, trusted solves and the process path whenever a
strategy may hang or a hard latency bound matters.  Like the pool path,
interactively registered allocators reach workers only under the
``fork`` start method (see :mod:`repro.engine.registry`).
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import time
from collections import deque
from typing import Dict, List, Optional, Sequence

from .engine import _error_result, _timeout_result, execute_request
from .results import AllocationRequest, AllocationResult

__all__ = ["ProcessPerRunExecutor", "WorkerCrashError"]

# How long to keep waiting for an OS-level reap after SIGKILL.
_REAP_GRACE_SECONDS = 5.0
# How long a worker that already reported may take to exit on its own
# before being killed.  Deliberately small: it bounds how long result
# collection can stall the scheduler loop (and therefore how late
# another worker's deadline kill can fire).
_COLLECT_GRACE_SECONDS = 0.05
# Upper bound on one scheduler wait: keeps the loop responsive to
# deadline expiry even when no connection becomes ready.
_MAX_WAIT_SECONDS = 0.05


class WorkerCrashError(RuntimeError):
    """A worker process died before reporting a result."""


def _child_main(
    conn: multiprocessing.connection.Connection,
    request: AllocationRequest,
) -> None:
    """Entry point of one worker process: run, report, exit.

    ``execute_request`` already envelopes every solver-level failure;
    the extra guard covers infrastructure failures inside the child
    (e.g. an allocator name that does not resolve in a ``spawn`` child)
    so the parent still receives an envelope rather than an EOF.
    """
    try:
        result = execute_request(request)
    except BaseException as exc:  # noqa: BLE001 -- report, never hang
        result = _error_result(request, exc)
    try:
        conn.send(result)
    except Exception:  # noqa: BLE001 -- unpicklable result: report that
        try:
            conn.send(_error_result(request, WorkerCrashError(
                "result could not be sent back to the parent"
            )))
        except Exception:  # noqa: BLE001 -- parent will see the EOF
            pass
    finally:
        conn.close()


class _LiveRun:
    """Bookkeeping for one in-flight worker process."""

    __slots__ = ("request", "process", "conn", "deadline")

    def __init__(
        self,
        request: AllocationRequest,
        process: multiprocessing.process.BaseProcess,
        conn: multiprocessing.connection.Connection,
        deadline: Optional[float],
    ) -> None:
        self.request = request
        self.process = process
        self.conn = conn
        self.deadline = deadline


class ProcessPerRunExecutor:
    """Run allocation requests in dedicated, killable worker processes.

    Args:
        workers: maximum number of concurrently live worker processes.
            Each request still gets its own process and its own deadline
            clock (started at process start, never while queued) --
            ``workers`` only bounds parallelism.
        start_method: ``multiprocessing`` start method (``fork`` /
            ``spawn`` / ``forkserver``); ``None`` uses the platform
            default.

    Attributes:
        stats: cumulative counters across ``run``/``run_many`` calls:
            ``started``, ``completed`` (result received), ``timeouts``
            (deadline hit), ``killed`` (processes SIGKILLed), ``crashed``
            (worker died without reporting).
    """

    def __init__(
        self,
        workers: int = 1,
        start_method: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._context = multiprocessing.get_context(start_method)
        self.stats: Dict[str, int] = {
            "started": 0,
            "completed": 0,
            "timeouts": 0,
            "killed": 0,
            "crashed": 0,
        }

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, request: AllocationRequest) -> AllocationResult:
        """Execute one request in its own process (hard deadline)."""
        return self.run_many([request])[0]

    def run_many(
        self, requests: Sequence[AllocationRequest]
    ) -> List[AllocationResult]:
        """Execute requests with at most ``self.workers`` live processes.

        Results align index-for-index with ``requests``; completion
        order never affects result order.  Never raises for a failed,
        hung or crashed run -- every outcome is an envelope.
        """
        results: List[Optional[AllocationResult]] = [None] * len(requests)
        pending = deque(range(len(requests)))
        live: Dict[int, _LiveRun] = {}
        try:
            while pending or live:
                while pending and len(live) < self.workers:
                    index = pending.popleft()
                    started = self._start(requests[index])
                    if isinstance(started, AllocationResult):
                        results[index] = started  # could not even start
                    else:
                        live[index] = started
                if not live:
                    continue
                self._wait(live)
                now = time.monotonic()
                for index in list(live):
                    run = live[index]
                    # Drain before checking the deadline: a result that
                    # arrived in time must not be discarded because the
                    # parent was slow to collect it (execute_request
                    # already normalised it if it ran over budget).
                    if run.conn.poll(0) or not run.process.is_alive():
                        results[index] = self._collect(run)
                        del live[index]
                    elif run.deadline is not None and now >= run.deadline:
                        results[index] = self._preempt(run)
                        del live[index]
        finally:
            # Unwind on an unexpected error: never leak worker processes.
            for run in live.values():
                self._kill(run)
        assert all(r is not None for r in results)
        return list(results)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # scheduling internals
    # ------------------------------------------------------------------
    def _start(self, request: AllocationRequest) -> "_LiveRun | AllocationResult":
        """Fork one worker; an un-startable request envelopes the error."""
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        # daemon: multiprocessing terminates the worker if the parent
        # exits normally first.  A parent killed by a signal leaves it
        # running -- the OS reparents orphans, it does not kill them --
        # which is why ``repro serve`` turns SIGTERM into a normal exit.
        process = self._context.Process(
            target=_child_main,
            args=(child_conn, request),
            daemon=True,
        )
        try:
            process.start()
        except Exception as exc:  # noqa: BLE001 -- e.g. unpicklable request
            parent_conn.close()
            child_conn.close()
            return _error_result(request, exc)
        child_conn.close()  # parent keeps only the read end: EOF works
        self.stats["started"] += 1
        deadline = (
            time.monotonic() + request.timeout
            if request.timeout is not None
            else None
        )
        return _LiveRun(request, process, parent_conn, deadline)

    def _wait(self, live: Dict[int, _LiveRun]) -> None:
        """Block until a worker reports, dies, or a deadline nears."""
        now = time.monotonic()
        timeout = _MAX_WAIT_SECONDS
        for run in live.values():
            if run.deadline is not None:
                timeout = min(timeout, max(0.0, run.deadline - now))
        # Sentinels wake the wait on process death (crash without send).
        waitables = [run.conn for run in live.values()]
        waitables += [run.process.sentinel for run in live.values()]
        multiprocessing.connection.wait(waitables, timeout=timeout)

    def _collect(self, run: _LiveRun) -> AllocationResult:
        """Reap a finished worker and return its envelope."""
        result: Optional[AllocationResult] = None
        try:
            if run.conn.poll(0):
                received = run.conn.recv()
                if isinstance(received, AllocationResult):
                    result = received
        except (EOFError, OSError):
            pass
        except Exception as exc:  # noqa: BLE001 -- torn/unpicklable payload
            result = _error_result(run.request, exc)
        # Short grace only: this runs inside the scheduler loop, and a
        # long blocking join here would delay deadline kills of OTHER
        # live workers.  A worker that reported but lingers past the
        # grace (e.g. a plugin allocator stuck in cleanup) is killed --
        # its result is already in hand, and the no-orphan guarantee
        # covers it too.
        run.process.join(_COLLECT_GRACE_SECONDS)
        self._kill(run)
        if result is None:
            self.stats["crashed"] += 1
            result = _error_result(run.request, WorkerCrashError(
                f"worker exited with code {run.process.exitcode} "
                f"before reporting a result"
            ))
        else:
            self.stats["completed"] += 1
        return result

    def _preempt(self, run: _LiveRun) -> AllocationResult:
        """Kill a worker whose deadline expired; envelope the timeout."""
        self._kill(run)
        self.stats["timeouts"] += 1
        return _timeout_result(run.request)

    def _kill(self, run: _LiveRun) -> None:
        if run.process.is_alive():
            run.process.kill()
            self.stats["killed"] += 1
            run.process.join(_REAP_GRACE_SECONDS)
        else:
            run.process.join(0)
        run.conn.close()
