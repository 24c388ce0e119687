"""Tests for the named DSP workload kernels."""

import networkx as nx
import pytest

from repro import allocate, validate_datapath
from repro.gen.workloads import (
    dct4,
    fir_filter,
    iir_biquad,
    lattice_filter,
    motivational_example,
    rgb_to_ycbcr,
)
from tests.conftest import make_problem

ALL_KERNELS = [
    ("motivational", motivational_example),
    ("fir", fir_filter),
    ("biquad", iir_biquad),
    ("ycbcr", rgb_to_ycbcr),
    ("dct4", dct4),
    ("lattice", lattice_filter),
]


class TestStructure:
    @pytest.mark.parametrize("name,factory", ALL_KERNELS)
    def test_is_dag(self, name, factory):
        g = factory()
        assert nx.is_directed_acyclic_graph(nx.DiGraph(g.edges()))
        assert len(g) > 0

    @pytest.mark.parametrize("name,factory", ALL_KERNELS)
    def test_multiple_wordlengths_present(self, name, factory):
        """Every kernel must actually exercise the multiple-wordlength
        problem: at least two distinct requirements of one kind."""
        g = factory()
        by_kind = {}
        for op in g.operations:
            by_kind.setdefault(op.resource_kind, set()).add(op.requirement)
        assert any(len(reqs) > 1 for reqs in by_kind.values()), name

    def test_fir_sizes(self):
        g = fir_filter(taps=5)
        muls = [op for op in g.operations if op.kind == "mul"]
        adds = [op for op in g.operations if op.kind == "add"]
        assert len(muls) == 5 and len(adds) == 4

    def test_fir_validates_tap_widths(self):
        with pytest.raises(ValueError):
            fir_filter(taps=3, coeff_widths=[8, 8])
        with pytest.raises(ValueError):
            fir_filter(taps=0)

    def test_biquad_structure(self):
        g = iir_biquad()
        muls = [op for op in g.operations if op.kind == "mul"]
        assert len(muls) == 5
        assert len(g) == 9

    def test_biquad_width_validation(self):
        with pytest.raises(ValueError):
            iir_biquad(feedforward_widths=(8, 8))

    def test_ycbcr_structure(self):
        g = rgb_to_ycbcr()
        muls = [op for op in g.operations if op.kind == "mul"]
        adds = [op for op in g.operations if op.resource_kind == "add"]
        assert len(muls) == 9 and len(adds) == 6

    def test_lattice_scales_with_stages(self):
        assert len(lattice_filter(stages=3)) == 4 * 3
        with pytest.raises(ValueError):
            lattice_filter(stages=0)


class TestAllocatable:
    @pytest.mark.parametrize("name,factory", ALL_KERNELS)
    def test_allocates_at_lambda_min(self, name, factory):
        p = make_problem(factory(), relaxation=0.0)
        dp = allocate(p)
        validate_datapath(p, dp)

    @pytest.mark.parametrize("name,factory", ALL_KERNELS)
    def test_allocates_with_slack(self, name, factory):
        p = make_problem(factory(), relaxation=0.5)
        dp = allocate(p)
        validate_datapath(p, dp)
