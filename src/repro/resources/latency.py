"""Latency models: cycles a resource type needs per operation.

The paper fixes its latency model explicitly (section 1):

* every adder takes **2 cycles**, independent of wordlength;
* an ``n x m``-bit multiplier takes **ceil((n+m)/8)** cycles, an
  empirical formula derived for a fixed clock rate on the SONIC
  reconfigurable computing platform [12].

The essential structural property the algorithms rely on is
*monotonicity*: a resource that dominates another (componentwise wider)
is never faster.  :class:`TableLatencyModel` lets tests and users plug in
arbitrary per-kind latency functions; :func:`check_monotone` verifies the
property on a resource set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

from .types import ResourceType

__all__ = [
    "LatencyModel",
    "SonicLatencyModel",
    "TableLatencyModel",
    "check_monotone",
]

LatencyFn = Callable[[Tuple[int, ...]], int]


class LatencyModel:
    """Base class: latency (in cycles) of a resource-wordlength type."""

    def latency(self, resource: ResourceType) -> int:
        raise NotImplementedError

    def __call__(self, resource: ResourceType) -> int:
        return self.latency(resource)


@dataclass(frozen=True)
class SonicLatencyModel(LatencyModel):
    """The paper's SONIC-platform latency model.

    ``add``: constant 2 cycles.  ``mul``: ``ceil((n + m) / bits_per_cycle)``
    with ``bits_per_cycle = 8`` as in the paper.

    Raises:
        ValueError: a parameter is not an int of at least 1.
    """

    adder_cycles: int = 2
    bits_per_cycle: int = 8

    def __post_init__(self) -> None:
        for name in ("adder_cycles", "bits_per_cycle"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"SonicLatencyModel.{name} must be an int >= 1, "
                    f"got {value!r}"
                )

    def latency(self, resource: ResourceType) -> int:
        if resource.kind == "add":
            return self.adder_cycles
        if resource.kind == "mul":
            return max(1, math.ceil(sum(resource.widths) / self.bits_per_cycle))
        raise KeyError(f"SonicLatencyModel: unknown resource kind {resource.kind!r}")


@dataclass(frozen=True)
class TableLatencyModel(LatencyModel):
    """Latency from per-kind callables; for tests and custom platforms."""

    table: Dict[str, LatencyFn] = field(default_factory=dict)

    def latency(self, resource: ResourceType) -> int:
        try:
            fn = self.table[resource.kind]
        except KeyError:
            raise KeyError(
                f"TableLatencyModel: no entry for kind {resource.kind!r}"
            ) from None
        cycles = int(fn(resource.widths))
        if cycles < 1:
            raise ValueError(
                f"latency of {resource} must be >= 1 cycle, got {cycles}"
            )
        return cycles


def check_monotone(model: LatencyModel, resources: Sequence[ResourceType]) -> None:
    """Raise ``ValueError`` if a dominating resource is faster than the dominated.

    The refinement step of the paper deletes the *slowest* compatible
    resources of an operation to reduce its latency upper bound; this only
    converges if wider resources are never faster.
    """
    for a in resources:
        for b in resources:
            if a.dominates(b) and model.latency(a) < model.latency(b):
                raise ValueError(
                    f"latency model not monotone: {a} dominates {b} but is faster"
                )
