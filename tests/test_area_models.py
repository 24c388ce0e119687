"""Tests for area models (reconstructed model of ref. [5])."""

import math

import pytest

from repro.resources.area import (
    SonicAreaModel,
    TableAreaModel,
    check_monotone_area,
)
from repro.resources.types import ResourceType


class TestSonicAreaModel:
    def test_multiplier_is_product_of_widths(self):
        model = SonicAreaModel()
        assert model.area(ResourceType("mul", (16, 12))) == 192.0

    def test_adder_is_linear(self):
        assert SonicAreaModel().area(ResourceType("add", (12,))) == 12.0

    def test_unit_scaling(self):
        model = SonicAreaModel(mul_unit=0.5, add_unit=2.0)
        assert model.area(ResourceType("mul", (8, 8))) == 32.0
        assert model.area(ResourceType("add", (8,))) == 16.0

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            SonicAreaModel().area(ResourceType("mac", (8, 8)))

    def test_callable_shorthand(self):
        assert SonicAreaModel()(ResourceType("add", (4,))) == 4.0

    @pytest.mark.parametrize(
        "unit", (-1.0, 0.0, 0, math.nan, math.inf, True, "abc", None), ids=repr
    )
    def test_degenerate_unit_rejected(self, unit):
        with pytest.raises(ValueError, match="mul_unit"):
            SonicAreaModel(mul_unit=unit)
        with pytest.raises(ValueError, match="add_unit"):
            SonicAreaModel(add_unit=unit)

    def test_int_units_accepted(self):
        model = SonicAreaModel(mul_unit=2, add_unit=3)
        assert model.area(ResourceType("add", (4,))) == 12


class TestTableAreaModel:
    def test_lookup(self):
        model = TableAreaModel({"mul": lambda w: sum(w) ** 2})
        assert model.area(ResourceType("mul", (3, 4))) == 49.0

    def test_missing_kind(self):
        with pytest.raises(KeyError):
            TableAreaModel({}).area(ResourceType("add", (4,)))

    def test_nonpositive_area_rejected(self):
        with pytest.raises(ValueError):
            TableAreaModel({"add": lambda w: 0.0}).area(ResourceType("add", (4,)))


class TestMonotonicity:
    def test_sonic_is_monotone(self):
        resources = [
            ResourceType("mul", (n, m))
            for n in (4, 8, 16)
            for m in (4, 8, 16)
            if n >= m
        ]
        check_monotone_area(SonicAreaModel(), resources)

    def test_violation_detected(self):
        model = TableAreaModel({"add": lambda w: 100.0 / w[0]})
        resources = [ResourceType("add", (4,)), ResourceType("add", (8,))]
        with pytest.raises(ValueError, match="not monotone"):
            check_monotone_area(model, resources)
