"""Tests for latency models, including the paper's SONIC formula."""

import pytest

from repro.resources.latency import (
    SonicLatencyModel,
    TableLatencyModel,
    check_monotone,
)
from repro.resources.types import ResourceType


class TestSonicModel:
    """Paper section 1: adders take 2 cycles; an n x m multiplier takes
    ceil((n+m)/8) cycles on the SONIC platform."""

    def test_adder_is_two_cycles_regardless_of_width(self):
        model = SonicLatencyModel()
        assert model.latency(ResourceType("add", (4,))) == 2
        assert model.latency(ResourceType("add", (64,))) == 2

    @pytest.mark.parametrize(
        "widths,expected",
        [
            ((8, 8), 2),     # ceil(16/8)
            ((4, 4), 1),     # ceil(8/8)
            ((16, 12), 4),   # ceil(28/8)
            ((16, 16), 4),   # ceil(32/8)
            ((17, 16), 5),   # ceil(33/8)
            ((20, 18), 5),   # the Fig. 2 resource: ceil(38/8)
        ],
    )
    def test_multiplier_formula(self, widths, expected):
        assert SonicLatencyModel().latency(ResourceType("mul", widths)) == expected

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError):
            SonicLatencyModel().latency(ResourceType("divider", (8,)))

    def test_callable_shorthand(self):
        model = SonicLatencyModel()
        assert model(ResourceType("add", (8,))) == 2

    def test_custom_parameters(self):
        model = SonicLatencyModel(adder_cycles=1, bits_per_cycle=16)
        assert model.latency(ResourceType("add", (8,))) == 1
        assert model.latency(ResourceType("mul", (16, 16))) == 2

    @pytest.mark.parametrize("field", ("adder_cycles", "bits_per_cycle"))
    @pytest.mark.parametrize(
        "value", (-8, -1, 0, True, 2.5, 8.0, "abc", None), ids=repr
    )
    def test_degenerate_parameter_rejected(self, field, value):
        # Refinement assumes positive latencies; a zero divisor or a
        # negative adder would otherwise reach the solver.
        with pytest.raises(ValueError, match=f"SonicLatencyModel.{field}"):
            SonicLatencyModel(**{field: value})


class TestTableModel:
    def test_lookup(self):
        model = TableLatencyModel({"mul": lambda w: w[0], "add": lambda w: 1})
        assert model.latency(ResourceType("mul", (5, 3))) == 5
        assert model.latency(ResourceType("add", (9,))) == 1

    def test_missing_kind(self):
        with pytest.raises(KeyError):
            TableLatencyModel({}).latency(ResourceType("add", (4,)))

    def test_nonpositive_latency_rejected(self):
        model = TableLatencyModel({"add": lambda w: 0})
        with pytest.raises(ValueError):
            model.latency(ResourceType("add", (4,)))


class TestMonotonicity:
    def test_sonic_is_monotone(self):
        resources = [
            ResourceType("mul", (n, m))
            for n in range(4, 25, 4)
            for m in range(4, n + 1, 4)
        ] + [ResourceType("add", (n,)) for n in range(4, 25, 4)]
        check_monotone(SonicLatencyModel(), resources)

    def test_non_monotone_detected(self):
        model = TableLatencyModel({"mul": lambda w: 100 - w[0]})
        resources = [ResourceType("mul", (8, 8)), ResourceType("mul", (16, 8))]
        with pytest.raises(ValueError, match="not monotone"):
            check_monotone(model, resources)
