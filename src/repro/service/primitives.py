"""Primitives shared by :class:`~repro.service.AsyncEngine` and
:class:`~repro.service.FleetCoordinator`.

* :class:`SingleFlight` -- at most one live run per key; concurrent
  callers with the same key await that run instead of starting their own;
* :func:`latency_summary` -- the ``latency_p50_seconds`` /
  ``latency_p95_seconds`` / ``latency_window`` keys both ``/v1/stats``
  payloads report, from nearest-rank percentiles (:func:`nearest_rank`).
"""

from __future__ import annotations

import asyncio
import functools
import math
from typing import (
    Any,
    Awaitable,
    Callable,
    Dict,
    Generic,
    Iterable,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

__all__ = ["SingleFlight", "latency_summary", "nearest_rank"]

T = TypeVar("T")


class SingleFlight(Generic[T]):
    """A table of live runs, one per key.

    Only touched from the event-loop thread, so it needs no lock.
    """

    def __init__(self) -> None:
        self._flights: Dict[str, "asyncio.Future[T]"] = {}

    async def run(
        self, key: Optional[str], start: Callable[[], Awaitable[T]]
    ) -> Tuple[T, bool]:
        """Await the live run for ``key``, starting ``start()`` if none is.

        Returns the run's result and whether this caller *joined* a run
        another caller started.  The run is a shielded task: cancelling
        one awaiting caller never aborts a run others may wait on.  It
        leaves the table when it completes.  ``key=None`` (no stable
        identity) always runs ``start()`` alone.
        """
        if key is None:
            return await start(), False
        flight = self._flights.get(key)
        joined = flight is not None
        if flight is None:
            flight = asyncio.ensure_future(start())
            self._flights[key] = flight
            flight.add_done_callback(functools.partial(self._land, key))
        return await asyncio.shield(flight), joined

    def _land(self, key: str, _flight: "asyncio.Future[T]") -> None:
        self._flights.pop(key, None)


def nearest_rank(ordered: Sequence[float], fraction: float) -> Optional[float]:
    """Nearest-rank percentile of ascending samples (``None`` if empty).

    The smallest sample with at least ``fraction`` of the window at or
    below it: p50 of two samples is the lower one, p95 of twenty the
    19th.  The epsilon keeps ``0.95 * 20`` from rounding up a rank.
    """
    if not ordered:
        return None
    rank = math.ceil(fraction * len(ordered) - 1e-9)
    return round(ordered[max(rank, 1) - 1], 6)


def latency_summary(samples: Iterable[float]) -> Dict[str, Any]:
    """p50/p95 and size of a latency window, as ``/v1/stats`` reports."""
    ordered = sorted(samples)
    return {
        "latency_p50_seconds": nearest_rank(ordered, 0.50),
        "latency_p95_seconds": nearest_rank(ordered, 0.95),
        "latency_window": len(ordered),
    }
