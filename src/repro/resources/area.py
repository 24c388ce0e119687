"""Area models: implementation cost of a resource-wordlength type.

The paper evaluates area "assuming the area model presented in [5]"
(Constantinides et al., Electronics Letters 36(17), 2000), which is not
reprinted in the paper.  We reconstruct the standard bit-parallel model
for the SONIC FPGA platform:

* an ``n x m``-bit array multiplier occupies ``n * m`` area units;
* an ``n``-bit ripple-carry adder occupies ``n`` area units.

The experiments only depend on area scaling multiplicatively with
multiplier operand widths and (roughly) linearly for adders -- the
relative penalties/premiums of Figs. 3-4 are invariant to the unit.  The
model is pluggable via :class:`TableAreaModel` for other technologies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Sequence, Tuple

from .types import ResourceType

__all__ = ["AreaModel", "SonicAreaModel", "TableAreaModel", "check_monotone_area"]

AreaFn = Callable[[Tuple[int, ...]], float]


class AreaModel:
    """Base class: area cost of a resource-wordlength type."""

    def area(self, resource: ResourceType) -> float:
        raise NotImplementedError

    def __call__(self, resource: ResourceType) -> float:
        return self.area(resource)


@dataclass(frozen=True)
class SonicAreaModel(AreaModel):
    """Reconstructed area model of ref. [5]: ``n*m`` multiplier, ``n`` adder.

    Raises:
        ValueError: a unit is not a finite, positive int or float.
    """

    mul_unit: float = 1.0
    add_unit: float = 1.0

    def __post_init__(self) -> None:
        for name in ("mul_unit", "add_unit"):
            unit = getattr(self, name)
            if (
                isinstance(unit, bool)
                or not isinstance(unit, (int, float))
                or not 0 < unit < math.inf
            ):
                raise ValueError(
                    f"SonicAreaModel.{name} must be a finite positive number, "
                    f"got {unit!r}"
                )

    def area(self, resource: ResourceType) -> float:
        if resource.kind == "mul":
            n, m = resource.widths
            return self.mul_unit * n * m
        if resource.kind == "add":
            (n,) = resource.widths
            return self.add_unit * n
        raise KeyError(f"SonicAreaModel: unknown resource kind {resource.kind!r}")


@dataclass(frozen=True)
class TableAreaModel(AreaModel):
    """Area from per-kind callables; for tests and custom platforms."""

    table: Dict[str, AreaFn] = field(default_factory=dict)

    def area(self, resource: ResourceType) -> float:
        try:
            fn = self.table[resource.kind]
        except KeyError:
            raise KeyError(
                f"TableAreaModel: no entry for kind {resource.kind!r}"
            ) from None
        cost = float(fn(resource.widths))
        if cost <= 0:
            raise ValueError(f"area of {resource} must be positive, got {cost}")
        return cost


def check_monotone_area(model: AreaModel, resources: Sequence[ResourceType]) -> None:
    """Raise ``ValueError`` if a dominating resource is cheaper than the dominated.

    Both the heuristic's cheapest-cover selection and the baselines assume
    that widening a resource never reduces its area.
    """
    for a in resources:
        for b in resources:
            if a.dominates(b) and model.area(a) < model.area(b):
                raise ValueError(
                    f"area model not monotone: {a} dominates {b} but is cheaper"
                )
