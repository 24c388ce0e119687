"""Tests for the wordlength-refinement machinery (paper section 2.4)."""

import pytest

from repro.core.binding import Binding, BoundClique
from repro.core.problem import InfeasibleError
from repro.core.refinement import (
    RefinementStep,
    bound_critical_path,
    candidate_set,
    choose_refinement_op,
    refine_once,
)
from repro.core.wcg import WordlengthCompatibilityGraph
from repro.ir.ops import Operation
from repro.ir.seqgraph import SequencingGraph
from repro.resources.latency import SonicLatencyModel
from repro.resources.types import ResourceType
from tests.oracles import reference_bound_critical_path

LAT = SonicLatencyModel()
SMALL = ResourceType("mul", (8, 8))    # 2 cycles
MID = ResourceType("mul", (12, 8))     # 3 cycles
BIG = ResourceType("mul", (16, 16))    # 4 cycles
ADD = ResourceType("add", (16,))       # 2 cycles


def seq_graph(names, edges=()):
    graph = SequencingGraph()
    for name in names:
        graph.add(name, "mul", (8, 8))
    for u, v in edges:
        graph.add_dependency(u, v)
    return graph


class TestAugmentedEdges:
    """``S_b`` (Eqn. 7) seen through ``Q_b``.

    A slow independent op ``c`` fixes the deadline at 4, so ``a`` and
    ``b`` are critical exactly when an augmented edge chains them.
    """

    def q_b(self, edges, schedule, cliques):
        binding = Binding(tuple(cliques) + (BoundClique(BIG, ("c",)),))
        graph = seq_graph(("a", "b", "c"), edges)
        schedule = dict(schedule, c=0)
        latencies = {"a": 2, "b": 2, "c": 4}
        q_b = bound_critical_path(graph, schedule, binding, latencies)
        assert q_b == reference_bound_critical_path(
            graph.names, graph.edges(), schedule, binding, latencies
        )
        return q_b

    def test_sequencing_edges_kept(self):
        clique = BoundClique(SMALL, ("a", "b"))
        assert self.q_b((("a", "b"),), {"a": 0, "b": 5}, [clique]) == {
            "a", "b", "c",
        }

    def test_back_to_back_same_unit_adds_edge(self):
        clique = BoundClique(SMALL, ("a", "b"))
        assert self.q_b((), {"a": 0, "b": 2}, [clique]) == {"a", "b", "c"}

    def test_gap_on_same_unit_adds_no_edge(self):
        clique = BoundClique(SMALL, ("a", "b"))
        assert self.q_b((), {"a": 0, "b": 3}, [clique]) == {"c"}

    def test_different_units_add_no_edge(self):
        cliques = [BoundClique(SMALL, ("a",)), BoundClique(SMALL, ("b",))]
        assert self.q_b((), {"a": 0, "b": 2}, cliques) == {"c"}


class TestBoundCriticalPath:
    def test_pure_chain_is_fully_critical(self):
        binding = Binding(
            (BoundClique(SMALL, ("a",)), BoundClique(SMALL, ("b",)))
        )
        q_b = bound_critical_path(
            seq_graph(("a", "b"), (("a", "b"),)), {"a": 0, "b": 2}, binding,
            {"a": 2, "b": 2},
        )
        assert q_b == {"a", "b"}

    def test_short_side_branch_not_critical(self):
        # a -> c and b -> c; a is slow (4), b fast (2): b has slack.
        binding = Binding(
            (
                BoundClique(BIG, ("a",)),
                BoundClique(SMALL, ("b",)),
                BoundClique(ADD, ("c",)),
            )
        )
        q_b = bound_critical_path(
            seq_graph(("a", "b", "c"), (("a", "c"), ("b", "c"))),
            {"a": 0, "b": 0, "c": 4},
            binding,
            {"a": 4, "b": 2, "c": 2},
        )
        assert q_b == {"a", "c"}

    def test_binding_chain_makes_ops_critical(self):
        # Two independent ops back-to-back on one unit form a bound
        # critical path even without data dependencies.
        binding = Binding((BoundClique(SMALL, ("a", "b")),))
        q_b = bound_critical_path(
            seq_graph(("a", "b")), {"a": 0, "b": 2}, binding, {"a": 2, "b": 2}
        )
        assert q_b == {"a", "b"}


class TestCandidateSet:
    def test_w_filters_by_upper_bound_finish(self):
        q_b = {"a", "b"}
        schedule = {"a": 0, "b": 6}
        upper = {"a": 4, "b": 4}
        assert candidate_set(q_b, schedule, upper, latency_constraint=8) == {"a"}

    def test_w_empty_when_all_overshoot(self):
        q_b = {"a"}
        assert candidate_set(q_b, {"a": 8}, {"a": 4}, 8) == set()


class TestChooseRefinementOp:
    def make_wcg(self):
        ops = [Operation("a", "mul", (8, 8)), Operation("b", "mul", (12, 8))]
        return WordlengthCompatibilityGraph(ops, [SMALL, MID, BIG], LAT)

    def test_unrefinable_candidates_rejected(self):
        ops = [Operation("a", "add", (8, 8))]
        wcg = WordlengthCompatibilityGraph(ops, [ADD], LAT)
        assert choose_refinement_op(wcg, {"a"}, None) is None

    def test_min_edge_loss_preferred(self):
        wcg = self.make_wcg()
        # a: H = {SMALL, MID, BIG}, deleting BIG loses 1 of its 5
        # neighbourhood edges; b: H = {MID, BIG}, deleting BIG loses 1 of
        # 4 -- so 'a' (1/5 < 1/4) must be chosen.
        chosen = choose_refinement_op(wcg, {"a", "b"}, None)
        assert chosen == "a"

    def test_name_order_selector(self):
        wcg = self.make_wcg()
        assert choose_refinement_op(wcg, {"a", "b"}, None, "name-order") == "a"

    def test_unknown_selector(self):
        wcg = self.make_wcg()
        with pytest.raises(ValueError):
            choose_refinement_op(wcg, {"a"}, None, "random")

    def test_tie_break_prefers_faster_bound_op(self):
        ops = [Operation("a", "mul", (8, 8)), Operation("b", "mul", (8, 8))]
        wcg = WordlengthCompatibilityGraph(ops, [SMALL, BIG], LAT)
        # Both lose the same proportion; 'b' is bound to SMALL (faster
        # than its upper bound), so it is preferred despite name order.
        binding = Binding(
            (BoundClique(BIG, ("a",)), BoundClique(SMALL, ("b",)))
        )
        assert choose_refinement_op(wcg, {"a", "b"}, binding) == "b"


class TestRefineOnce:
    def test_mutates_wcg_and_reports(self):
        ops = [Operation("a", "mul", (8, 8)), Operation("b", "mul", (8, 8))]
        wcg = WordlengthCompatibilityGraph(ops, [SMALL, BIG], LAT)
        binding = Binding((BoundClique(BIG, ("a", "b")),))
        step = refine_once(
            wcg,
            seq_graph(("a", "b"), (("a", "b"),)),
            {"a": 0, "b": 4},
            binding,
            latency_constraint=6,
        )
        assert isinstance(step, RefinementStep)
        assert BIG in step.deleted
        assert wcg.upper_bound_latency(step.operation) == 2

    def test_raises_when_nothing_refinable(self):
        ops = [Operation("a", "add", (8, 8))]
        wcg = WordlengthCompatibilityGraph(ops, [ADD], LAT)
        binding = Binding((BoundClique(ADD, ("a",)),))
        with pytest.raises(InfeasibleError):
            refine_once(wcg, seq_graph(("a",)), {"a": 0}, binding, 1)

    def test_pool_restriction(self):
        # 'a' is bound-critical; 'b' is not (has slack).  Restricting the
        # pools to W/Qb must refine a critical op.
        ops = [
            Operation("a", "mul", (8, 8)),
            Operation("b", "mul", (8, 8)),
            Operation("c", "mul", (8, 8)),
        ]
        wcg = WordlengthCompatibilityGraph(ops, [SMALL, BIG], LAT)
        binding = Binding(
            (
                BoundClique(BIG, ("a", "c")),
                BoundClique(BIG, ("b",)),
            )
        )
        schedule = {"a": 0, "c": 4, "b": 0}
        step = refine_once(
            wcg, seq_graph(("a", "b", "c"), (("a", "c"),)), schedule, binding,
            latency_constraint=20, pools=("W", "Qb"),
        )
        assert step.operation in {"a", "c"}


class TestTopologicalOrder:
    def test_networkx_not_imported_by_refinement(self):
        """The per-iteration hot path must not require networkx."""
        import repro.core.refinement as refinement

        assert not hasattr(refinement, "nx")
        assert "networkx" not in refinement.__loader__.get_source(
            "repro.core.refinement"
        ).split('"""', 2)[2]  # allowed in the docstring, not in code


class TestBoundPathEngine:
    """The ``Q_b`` sweep against the Kahn reference on solver-like inputs."""

    def _solver_loop_states(self, num_ops=16, sample=0, relaxation=0.0):
        """Replicate the DPAlloc loop, yielding per-iteration inputs."""
        from repro.core.binding import bindselect
        from repro.core.scheduling import list_schedule_outcome
        from repro.experiments import build_case

        problem = build_case(num_ops, sample, relaxation).problem
        graph = problem.graph
        wcg = WordlengthCompatibilityGraph(
            graph.operations, problem.resource_set(), problem.latency_model
        )
        for _ in range(12):
            bounds = wcg.upper_bound_latencies()
            schedule = list_schedule_outcome(graph, wcg, bounds)
            binding = bindselect(
                wcg, schedule, bounds, problem.area_model
            )
            bound_latencies = binding.bound_latencies(wcg)
            yield graph, wcg, schedule, binding, bound_latencies
            refinable = sorted(n for n in graph.names if wcg.can_refine(n))
            if not refinable:
                return
            wcg.refine(refinable[0])

    def test_matches_scratch_across_solver_iterations(self):
        for num_ops in (16, 24, 32):
            iterations = 0
            for graph, _, schedule, binding, lat in self._solver_loop_states(
                num_ops
            ):
                swept = bound_critical_path(graph, schedule, binding, lat)
                reference = reference_bound_critical_path(
                    graph.names, graph.edges(), schedule, binding, lat
                )
                assert swept == reference, (num_ops, iterations)
                iterations += 1
            assert iterations > 3

    def test_single_op_graph(self):
        binding = Binding((BoundClique(SMALL, ("a",)),))
        assert bound_critical_path(
            seq_graph(("a",)), {"a": 0}, binding, {"a": 2}
        ) == {"a"}


class TestRefineOncePrecomputedQb:
    def _fixture(self):
        ops = [
            Operation("a", "mul", (8, 8)),
            Operation("b", "mul", (8, 8)),
            Operation("c", "mul", (8, 8)),
        ]
        wcg = WordlengthCompatibilityGraph(ops, [SMALL, BIG], LAT)
        binding = Binding(
            (BoundClique(BIG, ("a", "c")), BoundClique(BIG, ("b",)))
        )
        schedule = {"a": 0, "c": 4, "b": 0}
        return wcg, binding, schedule

    def test_unknown_pool_rejected(self):
        wcg, binding, schedule = self._fixture()
        with pytest.raises(ValueError, match="unknown candidate pool"):
            refine_once(
                wcg, seq_graph(("a", "b", "c"), (("a", "c"),)), schedule,
                binding, latency_constraint=20, pools=("mystery",),
            )
