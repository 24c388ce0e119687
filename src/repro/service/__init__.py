"""repro.service -- the allocation engine as an async network service.

Four layers, each usable on its own:

* :class:`AsyncEngine` -- ``await``-able front-end over
  :class:`repro.engine.Engine`: semaphore-bounded concurrency, worker
  threads (plus killable worker *processes* when the engine uses
  ``executor="process"``), and single-flight dedup of identical
  concurrent requests against one shared result cache.
* :class:`AllocationServer` / :class:`ServerThread` -- a stdlib-only
  asyncio HTTP/JSON worker (``repro serve``) exposing the versioned v1
  surface (``POST /v1/allocate``, ``/v1/batch``, ``/v1/delta``,
  ``GET /v1/healthz``, ``/v1/stats``).
* :class:`FleetCoordinator` / :class:`FleetThread` /
  :class:`WorkerPool` -- the fleet tier (``repro fleet``): fingerprint
  rendezvous routing over health-checked workers, fleet-wide dedup
  (response memo + shared result store + single flight), bounded
  requeue of work from dead or hung workers, and per-priority-class
  admission control with typed 429 shedding.
* :class:`ServiceClient` -- a thin synchronous client satisfying the
  :class:`repro.engine.Backend` protocol (``run`` / ``run_delta`` /
  ``run_batch``), with envelopes canonical-byte-identical to the
  offline ``Engine.run_batch`` path -- against a single worker and a
  coordinator alike.

:class:`AsyncEngine` and :class:`FleetCoordinator` single-flight through
one primitive, :class:`repro.service.primitives.SingleFlight`.

See ``docs/service.md`` for the wire schema and deployment notes.
"""

from .async_engine import AsyncEngine
from .client import ServiceClient, ServiceError
from .fleet import FleetCoordinator, FleetThread, WorkerPool
from .server import AllocationServer, ServerThread

__all__ = [
    "AllocationServer",
    "AsyncEngine",
    "FleetCoordinator",
    "FleetThread",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "WorkerPool",
]
