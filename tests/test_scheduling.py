"""Tests for scheduling with incomplete wordlength information (Eqn. 3).

The four reconstruction clues of DESIGN.md §4.2 are verified here:
strictness vs Eqn. 2, degeneration when |S| = |Y|, exactness under full
wordlength information, and rejection of the paper's Fig. 2 scenario.
"""

from fractions import Fraction

import pytest

from repro.core.problem import InfeasibleError
from repro.core.scheduling import (
    Eqn2Tracker,
    Eqn3Tracker,
    critical_path_priorities,
    list_schedule_outcome,
    serial_schedule,
)
from repro.core.wcg import WordlengthCompatibilityGraph
from repro.ir.ops import Operation
from repro.ir.seqgraph import SequencingGraph
from repro.resources.latency import SonicLatencyModel
from repro.resources.types import ResourceType
from tests.oracles import Eqn3TrackerReference

LAT = SonicLatencyModel()

BIG = ResourceType("mul", (20, 18))  # 5 cycles
SMALL = ResourceType("mul", (8, 8))  # 2 cycles


def fig2_wcg(refined: bool):
    """Two multiplies; optionally o1 loses its edge to the big resource.

    This is the paper's Fig. 2 refinement example: after deleting
    {o1, '20x18 mult'}, the graph cannot be implemented with one
    multiplier even if the ops are serialised.
    """
    o1 = Operation("o1", "mul", (8, 8))
    o2 = Operation("o2", "mul", (20, 18))
    h = {"o1": [BIG, SMALL], "o2": [BIG]}
    if refined:
        h["o1"] = [SMALL]
    return WordlengthCompatibilityGraph([o1, o2], [BIG, SMALL], LAT, h_edges=h)


def graph_two_serial_muls():
    g = SequencingGraph()
    g.add("o1", "mul", (8, 8))
    g.add("o2", "mul", (20, 18))
    g.add_dependency("o1", "o2")
    return g


def graph_two_parallel_muls():
    g = SequencingGraph()
    g.add("o1", "mul", (8, 8))
    g.add("o2", "mul", (20, 18))
    return g


class TestPriorities:
    def test_longest_path_to_sink(self):
        g = graph_two_serial_muls()
        pri = critical_path_priorities(g, {"o1": 2, "o2": 5})
        assert pri == {"o1": 7, "o2": 5}

    def test_parallel_ops(self):
        g = graph_two_parallel_muls()
        pri = critical_path_priorities(g, {"o1": 2, "o2": 5})
        assert pri == {"o1": 2, "o2": 5}


class TestEqn3Clues:
    def test_clue4_degenerates_to_eqn2_with_one_member(self):
        """|S| = |Y|: the LHS equals peak per-step concurrency."""
        wcg = fig2_wcg(refined=False)
        tracker = Eqn3Tracker(wcg, {"mul": 1})
        assert tracker.scheduling_set == (BIG,)
        # Serialised ops are fine with one unit.
        assert tracker.admits("o1", 0, 5)
        tracker.place("o1", 0, 5)
        assert not tracker.admits("o2", 3, 5)  # overlap refused
        assert tracker.admits("o2", 5, 5)  # back-to-back accepted
        tracker.place("o2", 5, 5)
        assert tracker.lhs("mul") == 1

    def test_clue6_fig2_scenario_rejected_even_serialised(self):
        """After refinement, two resource-wordlengths are forced, so
        N_mul = 1 must be rejected although the ops never overlap --
        the situation Eqn. 2 misses."""
        wcg = fig2_wcg(refined=True)
        tracker = Eqn3Tracker(wcg, {"mul": 1})
        assert len(tracker.scheduling_set) == 2
        tracker.place("o1", 0, 2)
        assert not tracker.admits("o2", 10, 5)  # serialised but still 2 units
        # Eqn. 2 wrongly accepts the same serialised placement.
        eqn2 = Eqn2Tracker(wcg, {"mul": 1})
        eqn2.place("o1", 0, 2)
        assert eqn2.admits("o2", 10, 5)

    def test_clue6_two_units_accept(self):
        wcg = fig2_wcg(refined=True)
        tracker = Eqn3Tracker(wcg, {"mul": 2})
        tracker.place("o1", 0, 2)
        assert tracker.admits("o2", 10, 5)

    def test_clue5_exact_with_full_information(self):
        """|S(o)| = 1 everywhere: the bound equals the exact number of
        units needed per member."""
        wcg = fig2_wcg(refined=True)
        tracker = Eqn3Tracker(wcg, {"mul": 2})
        tracker.place("o1", 0, 2)
        tracker.place("o2", 0, 5)
        assert tracker.lhs("mul") == 2

    def test_clue3_at_least_as_strict_as_eqn2(self):
        """Whenever Eqn. 3 admits a placement sequence, per-step counts
        never exceed N (so Eqn. 2 holds a fortiori)."""
        wcg = fig2_wcg(refined=False)
        tracker = Eqn3Tracker(wcg, {"mul": 2})
        placements = [("o1", 0, 2), ("o2", 1, 5)]
        per_step = {}
        for name, start, duration in placements:
            assert tracker.admits(name, start, duration)
            tracker.place(name, start, duration)
            for t in range(start, start + duration):
                per_step[t] = per_step.get(t, 0) + 1
        assert max(per_step.values()) <= 2

    def test_shares_are_fractional(self):
        wcg = fig2_wcg(refined=False)
        tracker = Eqn3Tracker(wcg, {"mul": 1})
        assert tracker.share("o1") == Fraction(1, 1)  # S(o1) = {BIG}

    def test_unconstrained_kind_always_admits(self):
        wcg = fig2_wcg(refined=True)
        tracker = Eqn3Tracker(wcg, {})
        assert tracker.admits("o1", 0, 2)


class TestListSchedule:
    def test_no_constraints_is_asap(self):
        g = graph_two_serial_muls()
        wcg = fig2_wcg(refined=False)
        lat = {"o1": 5, "o2": 5}
        assert list_schedule_outcome(g, wcg, lat) == {"o1": 0, "o2": 5}

    def test_one_multiplier_serialises_parallel_ops(self):
        g = graph_two_parallel_muls()
        wcg = fig2_wcg(refined=False)
        lat = {"o1": 5, "o2": 5}
        schedule = list_schedule_outcome(g, wcg, lat, {"mul": 1})
        starts = sorted(schedule.values())
        assert starts[1] - starts[0] >= 5  # no overlap

    def test_two_multipliers_allow_overlap(self):
        g = graph_two_parallel_muls()
        wcg = fig2_wcg(refined=False)
        lat = {"o1": 5, "o2": 5}
        schedule = list_schedule_outcome(g, wcg, lat, {"mul": 2})
        assert schedule == {"o1": 0, "o2": 0}

    def test_infeasible_constraint_detected(self):
        g = graph_two_parallel_muls()
        wcg = fig2_wcg(refined=True)
        lat = {"o1": 2, "o2": 5}
        with pytest.raises(InfeasibleError):
            list_schedule_outcome(g, wcg, lat, {"mul": 1})

    def test_dependencies_respected_under_constraints(self):
        g = graph_two_serial_muls()
        wcg = fig2_wcg(refined=False)
        lat = {"o1": 5, "o2": 5}
        schedule = list_schedule_outcome(g, wcg, lat, {"mul": 1})
        assert schedule["o2"] >= schedule["o1"] + 5

    def test_eqn2_variant_runs(self):
        g = graph_two_parallel_muls()
        wcg = fig2_wcg(refined=False)
        lat = {"o1": 5, "o2": 5}
        schedule = list_schedule_outcome(g, wcg, lat, {"mul": 1}, constraint="eqn2")
        starts = sorted(schedule.values())
        assert starts[1] - starts[0] >= 5

    def test_unknown_constraint_name(self):
        g = graph_two_parallel_muls()
        wcg = fig2_wcg(refined=False)
        with pytest.raises(ValueError, match="unknown constraint"):
            list_schedule_outcome(g, wcg, {"o1": 5, "o2": 5}, {"mul": 1}, constraint="eqn9")


class TestSerialFallback:
    def test_serial_schedule_respects_dependencies(self):
        g = graph_two_serial_muls()
        lat = {"o1": 5, "o2": 5}
        schedule = serial_schedule(g, lat, {"mul"})
        assert schedule["o2"] >= schedule["o1"] + 5

    def test_serial_schedule_serialises_kind(self):
        g = SequencingGraph()
        for i in range(4):
            g.add(f"m{i}", "mul", (8, 8))
        lat = {f"m{i}": 2 for i in range(4)}
        schedule = serial_schedule(g, lat, {"mul"})
        starts = sorted(schedule.values())
        assert starts == [0, 2, 4, 6]

    def test_unconstrained_kind_runs_asap(self):
        g = SequencingGraph()
        g.add("a0", "add", (8, 8))
        g.add("a1", "add", (8, 8))
        schedule = serial_schedule(g, {"a0": 2, "a1": 2}, set())
        assert schedule == {"a0": 0, "a1": 0}


class TestGreedyWedgeFallback:
    """The greedy pass can permanently block an op whose scheduling-set
    members' peaks were exhausted by earlier aggressive placements; the
    scheduler must then fall back to the provably feasible serialised
    schedule instead of declaring infeasibility."""

    S1 = ResourceType("mul", (20, 18))  # covers o1, o2
    S2 = ResourceType("mul", (24, 6))   # covers o1, o3

    def build(self):
        g = SequencingGraph()
        g.add("o1", "mul", (8, 4))     # covered by both members
        g.add("o2", "mul", (20, 18))   # only S1
        g.add("o3", "mul", (24, 6))    # only S2
        ops = list(g.operations)
        wcg = WordlengthCompatibilityGraph(ops, [self.S1, self.S2], LAT)
        return g, wcg

    def test_scheduling_set_is_both_members(self):
        _, wcg = self.build()
        assert set(wcg.scheduling_set()) == {self.S1, self.S2}

    def test_greedy_pass_actually_wedges(self):
        from repro.core.scheduling import _GreedyWedge, _greedy_schedule

        g, wcg = self.build()
        latencies = {n: wcg.upper_bound_latency(n) for n in g.names}
        with pytest.raises(_GreedyWedge):
            _greedy_schedule(g, Eqn3Tracker(wcg, {"mul": 2}), latencies)

    def test_wedge_recovers_via_serial_schedule(self):
        g, wcg = self.build()
        latencies = {n: wcg.upper_bound_latency(n) for n in g.names}
        # Greedy places o1 (share 1/2 on both members) and o2 at step 0,
        # pushing S1's peak to 1.5; o3 then needs S2 at peak >= 1, and
        # 1.5 + 1 > N = 2 wedges the greedy pass permanently.
        schedule = list_schedule_outcome(g, wcg, latencies, {"mul": 2})
        intervals = sorted(
            (schedule[n], schedule[n] + latencies[n]) for n in g.names
        )
        for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
            assert f1 <= s2  # serial fallback: pairwise disjoint

    def test_constraint_below_coverage_bound_is_infeasible(self):
        g, wcg = self.build()
        latencies = {n: wcg.upper_bound_latency(n) for n in g.names}
        # |S_mul| = 2 is a hard lower bound on implementable unit counts.
        with pytest.raises(InfeasibleError):
            list_schedule_outcome(g, wcg, latencies, {"mul": 1})


class TestManyOpsStress:
    def test_wide_graph_single_unit(self):
        g = SequencingGraph()
        ops = []
        for i in range(10):
            op = g.add(f"m{i}", "mul", (8, 8))
            ops.append(op)
        wcg = WordlengthCompatibilityGraph(ops, [SMALL, BIG], LAT)
        lat = {f"m{i}": 5 for i in range(10)}
        schedule = list_schedule_outcome(g, wcg, lat, {"mul": 1})
        intervals = sorted((schedule[n], schedule[n] + 5) for n in schedule)
        for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
            assert f1 <= s2


class TestScaledIntegerTrackerEquivalence:
    """The scaled-integer Eqn3Tracker vs the Fraction oracle.

    Both trackers are driven through identical query/placement streams;
    exact agreement on ``admits``/``lhs`` is the
    shared-denominator invariant the byte-identity contract rests on.
    """

    def _universe(self, rng, n_ops, n_res):
        import random  # noqa: F401  (documents the rng parameter's type)

        resources = [
            ResourceType("mul", (8 + 2 * j, 8 + 2 * j)) for j in range(n_res)
        ]
        ops = [Operation(f"o{i}", "mul", (8, 8)) for i in range(n_ops)]
        h = {
            op.name: rng.sample(resources, rng.randint(1, n_res))
            for op in ops
        }
        wcg = WordlengthCompatibilityGraph(ops, resources, LAT, h_edges=h)
        return wcg, tuple(sorted(resources))

    def test_randomized_agreement_with_fraction_reference(self):
        import random

        rng = random.Random(1234)
        placements = 0
        for _trial in range(40):
            n_res = rng.randint(2, 6)
            wcg, sched_set = self._universe(rng, rng.randint(3, 12), n_res)
            limits = {"mul": rng.randint(1, n_res)}
            fast = Eqn3Tracker(wcg, limits, sched_set)
            ref = Eqn3TrackerReference(wcg, limits, sched_set)
            names = [op.name for op in wcg.operations]
            for _step in range(12):
                name = rng.choice(names)
                start = rng.randint(0, 15)
                duration = rng.randint(1, 5)
                assert fast.admits(name, start, duration) == ref.admits(
                    name, start, duration
                ), (name, start, duration)
                if rng.random() < 0.7:
                    fast.place(name, start, duration)
                    ref.place(name, start, duration)
                    placements += 1
                assert fast.lhs("mul") == ref.lhs("mul")
                assert fast.share(name) == ref.share(name)
        assert placements > 300  # "hundreds of placements"

    def test_large_lcm_denominator_stays_exact(self):
        """|S(o)| spanning the first 14 primes: D > 2**53.

        Beyond 2**53 consecutive integers stop being representable as
        floats, so any float shortcut would go wrong here; integer
        arithmetic must agree with the Fraction reference exactly.
        """
        import math
        import random

        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
        resources = [
            ResourceType("mul", (8 + 2 * j, 8 + 2 * j)) for j in range(max(primes))
        ]
        ops = [Operation(f"o{i}", "mul", (8, 8)) for i in range(len(primes))]
        h = {f"o{i}": resources[:p] for i, p in enumerate(primes)}
        wcg = WordlengthCompatibilityGraph(ops, resources, LAT, h_edges=h)
        sched_set = tuple(sorted(resources))
        limits = {"mul": 3}
        fast = Eqn3Tracker(wcg, limits, sched_set)
        ref = Eqn3TrackerReference(wcg, limits, sched_set)
        assert fast.denominator == math.lcm(*primes)
        assert fast.denominator > 2**53
        rng = random.Random(99)
        names = [op.name for op in wcg.operations]
        for _step in range(60):
            name = rng.choice(names)
            start = rng.randint(0, 10)
            duration = rng.randint(1, 4)
            assert fast.admits(name, start, duration) == ref.admits(
                name, start, duration
            )
            if rng.random() < 0.8:
                fast.place(name, start, duration)
                ref.place(name, start, duration)
            assert fast.lhs("mul") == ref.lhs("mul")

    def test_unknown_scheduling_set_member_covers_nothing(self):
        wcg = fig2_wcg(refined=False)
        sched_set = (BIG, ResourceType("mul", (32, 32)))
        fast = Eqn3Tracker(wcg, {"mul": 1}, sched_set)
        ref = Eqn3TrackerReference(wcg, {"mul": 1}, sched_set)
        assert fast.members_of("o1") == ref.members_of("o1") == (BIG,)
        fast.place("o1", 0, 5)
        ref.place("o1", 0, 5)
        assert fast.lhs("mul") == ref.lhs("mul") == 1

    def test_admission_boundary_is_exact(self):
        """admits() at lhs == N exactly: <= must pass, one share over fails."""
        r1 = ResourceType("mul", (8, 8))
        r2 = ResourceType("mul", (10, 10))
        r3 = ResourceType("mul", (12, 12))
        ops = [
            Operation("a", "mul", (8, 8)),
            Operation("b", "mul", (8, 8)),
            Operation("c", "mul", (8, 8)),
        ]
        h = {"a": [r1, r2], "b": [r1, r2, r3], "c": [r1, r2, r3]}
        wcg = WordlengthCompatibilityGraph(ops, [r1, r2, r3], LAT, h_edges=h)
        sched_set = (r1, r2, r3)
        for limits in ({"mul": 1}, {"mul": 2}):
            fast = Eqn3Tracker(wcg, limits, sched_set)
            ref = Eqn3TrackerReference(wcg, limits, sched_set)
            # a (share 1/2) and b (share 1/3) overlapping at step 0:
            # peaks 5/6 on r1 and r2, 1/3 on r3 -> lhs = 2.
            fast.place("a", 0, 3)
            ref.place("a", 0, 3)
            assert fast.admits("b", 0, 3) == ref.admits("b", 0, 3)
            fast.place("b", 0, 3)
            ref.place("b", 0, 3)
            assert fast.lhs("mul") == ref.lhs("mul") == Fraction(2)
            # c at the same window adds exactly 1/3 per member: the
            # hypothetical lhs is exactly 3 -- admitted iff N >= 3.
            assert fast.admits("c", 0, 3) == ref.admits("c", 0, 3)
            assert fast.admits("c", 0, 3) is False
        limits = {"mul": 3}
        fast = Eqn3Tracker(wcg, limits, sched_set)
        ref = Eqn3TrackerReference(wcg, limits, sched_set)
        for name in ("a", "b"):
            fast.place(name, 0, 3)
            ref.place(name, 0, 3)
        # Boundary: hypothetical lhs == 3 == N exactly, so <= admits.
        assert fast.admits("c", 0, 3) is True
        assert ref.admits("c", 0, 3) is True
