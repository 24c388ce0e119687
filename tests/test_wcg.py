"""Tests for the wordlength compatibility graph."""

import pytest

from repro.core.wcg import WordlengthCompatibilityGraph
from repro.ir.ops import Operation
from repro.resources.latency import SonicLatencyModel
from repro.resources.types import ResourceType

LAT = SonicLatencyModel()


def wcg_for(ops, resources):
    return WordlengthCompatibilityGraph(ops, resources, LAT)


MULS = [
    ResourceType("mul", (8, 8)),
    ResourceType("mul", (16, 8)),
    ResourceType("mul", (16, 16)),
]
ADDS = [ResourceType("add", (8,)), ResourceType("add", (16,))]


class TestInitialEdges:
    def test_initial_h_is_coverage(self):
        ops = [Operation("m", "mul", (8, 8)), Operation("a", "add", (8, 8))]
        wcg = wcg_for(ops, MULS + ADDS)
        assert set(wcg.compatible_resources("m")) == set(MULS)
        assert set(wcg.compatible_resources("a")) == set(ADDS)

    def test_uncovered_op_rejected(self):
        ops = [Operation("m", "mul", (32, 32))]
        with pytest.raises(ValueError, match="no compatible"):
            wcg_for(ops, MULS)

    def test_explicit_non_coverage_edge_rejected(self):
        ops = [Operation("m", "mul", (16, 16))]
        cases = [
            (MULS, ResourceType("mul", (8, 8)), "not a coverage edge"),
            # Covers the op, but is not one of the graph's resources.
            (
                [ResourceType("mul", (8, 8)), ResourceType("mul", (16, 16))],
                ResourceType("mul", (32, 32)),
                r"edge \{m, 32x32 mul\} names a resource outside",
            ),
        ]
        for resources, edge, message in cases:
            with pytest.raises(ValueError, match=message):
                WordlengthCompatibilityGraph(
                    ops, resources, LAT, h_edges={"m": [edge]}
                )

    def test_ops_for_resource(self):
        ops = [Operation("m1", "mul", (8, 8)), Operation("m2", "mul", (16, 8))]
        wcg = wcg_for(ops, MULS)
        assert wcg.ops_for_resource(ResourceType("mul", (16, 8))) == ("m1", "m2")
        assert wcg.ops_for_resource(ResourceType("mul", (8, 8))) == ("m1",)

    def test_edge_count(self):
        ops = [Operation("m1", "mul", (8, 8)), Operation("m2", "mul", (16, 16))]
        wcg = wcg_for(ops, MULS)
        assert wcg.edge_count() == 3 + 1


class TestLatencyBounds:
    def test_upper_bound_is_slowest_compatible(self):
        ops = [Operation("m", "mul", (8, 8))]
        wcg = wcg_for(ops, MULS)
        # 16x16 -> ceil(32/8) = 4 cycles.
        assert wcg.upper_bound_latency("m") == 4
        assert wcg.min_latency("m") == 2

    def test_upper_bound_latencies_map(self):
        ops = [Operation("m", "mul", (8, 8)), Operation("a", "add", (4, 4))]
        wcg = wcg_for(ops, MULS + ADDS)
        assert wcg.upper_bound_latencies() == {"m": 4, "a": 2}


class TestRefinement:
    def test_refine_deletes_slowest_class(self):
        ops = [Operation("m", "mul", (8, 8))]
        wcg = wcg_for(ops, MULS)
        deleted = wcg.refine("m")
        assert deleted == [ResourceType("mul", (16, 16))]
        assert wcg.upper_bound_latency("m") == 3  # 16x8 -> ceil(24/8)

    def test_refine_deletes_whole_latency_class(self):
        resources = MULS + [ResourceType("mul", (17, 15))]  # also 4 cycles
        ops = [Operation("m", "mul", (8, 8))]
        wcg = wcg_for(ops, resources)
        deleted = wcg.refine("m")
        assert set(deleted) == {
            ResourceType("mul", (16, 16)),
            ResourceType("mul", (17, 15)),
        }

    def test_cannot_refine_single_class(self):
        ops = [Operation("a", "add", (8, 8))]
        wcg = wcg_for(ops, ADDS)  # all adders are 2 cycles
        assert not wcg.can_refine("a")
        with pytest.raises(ValueError, match="cannot be refined"):
            wcg.refine("a")

    def test_refinement_monotone_until_exhaustion(self):
        ops = [Operation("m", "mul", (8, 8))]
        wcg = wcg_for(ops, MULS)
        bounds = [wcg.upper_bound_latency("m")]
        while wcg.can_refine("m"):
            wcg.refine("m")
            bounds.append(wcg.upper_bound_latency("m"))
        assert bounds == sorted(bounds, reverse=True)
        assert len(set(bounds)) == len(bounds)  # strictly decreasing
        assert wcg.compatible_resources("m")  # never emptied

    def test_copy_isolated_from_refinement(self):
        ops = [Operation("m", "mul", (8, 8))]
        wcg = wcg_for(ops, MULS)
        clone = wcg.copy()
        wcg.refine("m")
        assert clone.upper_bound_latency("m") == 4


class TestSchedulingSet:
    def test_single_big_resource_suffices(self):
        ops = [Operation("m1", "mul", (8, 8)), Operation("m2", "mul", (16, 16))]
        wcg = wcg_for(ops, MULS)
        assert wcg.scheduling_set() == (ResourceType("mul", (16, 16)),)

    def test_two_members_after_refinement(self):
        ops = [Operation("m1", "mul", (8, 8)), Operation("m2", "mul", (16, 16))]
        wcg = wcg_for(ops, MULS)
        wcg.refine("m1")  # m1 loses the 16x16 edge class
        sched = wcg.scheduling_set()
        assert len(sched) == 2
        assert ResourceType("mul", (16, 16)) in sched

    def test_mixed_kinds(self):
        ops = [Operation("m", "mul", (8, 8)), Operation("a", "add", (8, 8))]
        wcg = wcg_for(ops, MULS + ADDS)
        kinds = {s.kind for s in wcg.scheduling_set()}
        assert kinds == {"mul", "add"}

    def test_members_covering(self):
        ops = [Operation("m1", "mul", (8, 8)), Operation("m2", "mul", (16, 16))]
        wcg = wcg_for(ops, MULS)
        sched = wcg.scheduling_set()
        assert wcg.members_covering("m1", sched) == sched
        # A member the graph does not know covers nothing.
        foreign = ResourceType("mul", (32, 32))
        assert wcg.members_covering("m1", sched + (foreign,)) == sched


class TestCompatibilityEdges:
    def test_edges_follow_finish_before_start(self):
        ops = [Operation("m1", "mul", (8, 8)), Operation("m2", "mul", (8, 8))]
        wcg = wcg_for(ops, MULS)
        schedule = {"m1": 0, "m2": 4}
        latencies = {"m1": 4, "m2": 4}
        edges = wcg.compatibility_edges(schedule, latencies)
        assert ("m1", "m2") in edges and ("m2", "m1") not in edges

    def test_overlap_has_no_edge(self):
        ops = [Operation("m1", "mul", (8, 8)), Operation("m2", "mul", (8, 8))]
        wcg = wcg_for(ops, MULS)
        edges = wcg.compatibility_edges({"m1": 0, "m2": 2}, {"m1": 4, "m2": 4})
        assert not edges

    def test_transitivity(self):
        ops = [Operation(f"m{i}", "mul", (8, 8)) for i in range(3)]
        wcg = wcg_for(ops, MULS)
        schedule = {"m0": 0, "m1": 4, "m2": 8}
        latencies = {name: 4 for name in schedule}
        edges = wcg.compatibility_edges(schedule, latencies)
        assert ("m0", "m1") in edges and ("m1", "m2") in edges
        assert ("m0", "m2") in edges  # transitive orientation
