"""The served path: ``repro fleet`` over ``WorkerPool`` workers, and its clients.

:class:`Fleet` launches the coordinator as its own process (``python -m
repro fleet --workers 2``), which spawns and reaps its two ``repro serve``
workers.  Every file either writes lives under the run's work directory:
the shared store directly, the workers' cache directories through
``TMPDIR``.

:func:`drive` is the load generator: ``CLIENTS`` closed-loop threads,
each a ``ServiceClient`` that takes the next post of the shared stream
only after its previous post answered -- a synthesis tool waits for its
datapath before it asks for the next one.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from repro.service import ServiceClient, ServiceError
from repro.service.fleet import free_port

SRC = Path(__file__).resolve().parent.parent / "src"
FLEET_WORKERS = 2
WORKER_CONCURRENCY = 2
CLIENTS = 2
HTTP_TIMEOUT = 120.0


class Fleet:
    """A coordinator process fronting ``FLEET_WORKERS`` worker processes."""

    def __init__(self, workdir: Path, name: str) -> None:
        self.root = workdir / name
        self.url = ""
        self.process: Optional[subprocess.Popen] = None

    def __enter__(self) -> "Fleet":
        tmp = self.root / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        port = free_port()
        env = dict(os.environ, TMPDIR=str(tmp), PYTHONPATH=str(SRC))
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "fleet",
                "--port", str(port),
                "--workers", str(FLEET_WORKERS),
                "--worker-concurrency", str(WORKER_CONCURRENCY),
                "--executor", "process",
                "--shared-cache-dir", str(self.root / "store"),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        self.url = f"http://127.0.0.1:{port}"
        try:
            client = ServiceClient(self.url, timeout=10.0)
            deadline = time.monotonic() + 90.0
            while True:
                if self.process.poll() is not None:
                    raise RuntimeError("repro fleet exited during start-up")
                try:
                    health = client.healthz()
                    if health["workers"]["healthy"] == FLEET_WORKERS:
                        break
                except ServiceError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError("repro fleet not healthy after 90 s")
                time.sleep(0.02)
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30.0)

    def stats(self) -> dict:
        """``/v1/stats`` of the coordinator and of every worker."""
        coordinator = ServiceClient(self.url, timeout=30.0).stats()
        workers = [
            ServiceClient(w["url"], timeout=30.0).stats()
            for w in coordinator["workers"]
        ]
        return {"coordinator": coordinator, "workers": workers}


@dataclass
class Outcome:
    """What one post got back, and how long the client waited."""

    index: int
    seconds: float
    results: List = field(default_factory=list)
    error: Optional[str] = None


def send(client: ServiceClient, post) -> List:
    if post.kind == "delta":
        return [client.run_delta(post.delta)]
    if post.kind == "batch":
        return client.run_batch(post.requests)
    return [client.run(post.requests[0])]


def drive(url: str, posts):
    """Serve ``posts`` with ``CLIENTS`` closed-loop clients.

    Returns the outcomes in stream order and the wall time from the
    first send to the last reply.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(posts)
    cursor = iter(range(len(posts)))
    lock = threading.Lock()
    sessions = [ServiceClient(url, timeout=HTTP_TIMEOUT) for _ in range(CLIENTS)]
    for session in sessions:
        session.schema_version  # negotiate before the clock starts

    def loop(session: ServiceClient) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            began = time.perf_counter()
            try:
                results = send(session, posts[index])
                error = None
            except ServiceError as exc:
                results, error = [], f"service error {exc.status}: {exc}"
            except OSError as exc:  # a socket timeout mid-response
                results, error = [], f"transport error: {exc}"
            outcomes[index] = Outcome(
                index, time.perf_counter() - began, list(results), error
            )

    threads = [
        threading.Thread(target=loop, args=(session,), daemon=True)
        for session in sessions
    ]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    return outcomes, elapsed
