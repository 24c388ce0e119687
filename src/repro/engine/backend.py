"""The v1 Backend protocol: one surface for local and remote execution.

Everything that can execute allocation work -- the in-process
:class:`~repro.engine.Engine`, the asyncio front-end
:class:`~repro.service.AsyncEngine`, and the HTTP
:class:`~repro.service.ServiceClient` -- satisfies one structural
protocol::

    class Backend(Protocol):
        def run(request: AllocationRequest) -> AllocationResult
        def run_delta(request: DeltaRequest) -> AllocationResult
        def run_batch(requests: Sequence[AllocationRequest],
                      workers: int | None = None) -> list[AllocationResult]

with identical envelope semantics: solver-level failures (infeasible,
timeout, invalid, crashed worker) are ``error`` fields of a returned
envelope, never exceptions, and the canonical JSON of a result is
byte-identical whichever backend produced it.  Consumers -- the CLI
subcommands (``allocate``/``batch``/``compare``/``delta`` all take
``--url``), the experiment drivers, the tests -- accept
local-or-remote interchangeably and stop caring which one they hold.

:class:`AsyncEngine` satisfies the same protocol with ``await``-able
methods (structural check only looks at method presence); await its
returns from an event loop.

``isinstance(backend, Backend)`` works at runtime (the protocol is
``runtime_checkable``); it checks method presence, not signatures, so
the signature contract is additionally pinned by
``tests/test_service.py::TestBackendProtocol``.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, runtime_checkable

from .results import AllocationRequest, AllocationResult, DeltaRequest

__all__ = ["Backend"]


@runtime_checkable
class Backend(Protocol):
    """Anything that executes allocation work and returns envelopes."""

    def run(self, request: AllocationRequest) -> AllocationResult:
        """Execute one request; failures are envelope fields."""
        ...  # pragma: no cover -- protocol

    def run_delta(self, request: DeltaRequest) -> AllocationResult:
        """Solve a base problem with an edit sequence applied."""
        ...  # pragma: no cover -- protocol

    def run_batch(
        self,
        requests: Sequence[AllocationRequest],
        workers: Optional[int] = None,
    ) -> List[AllocationResult]:
        """Execute a batch; results align index-for-index with requests.

        ``workers`` is advisory: the local engine uses it as its
        fan-out width, remote backends let the server's own concurrency
        bound decide.
        """
        ...  # pragma: no cover -- protocol
