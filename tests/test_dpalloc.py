"""End-to-end tests for Algorithm DPAlloc."""

import pytest

from repro import (
    AllocationRequest,
    DPAllocOptions,
    Engine,
    InfeasibleError,
    Problem,
    allocate,
    validate_datapath,
)
from repro.experiments import build_case
from repro.gen.workloads import fir_filter, motivational_example
from tests.conftest import make_problem


class TestBasics:
    def test_empty_graph(self):
        from repro.ir.seqgraph import SequencingGraph

        dp = allocate(Problem(SequencingGraph(), latency_constraint=1))
        assert dp.area == 0.0 and dp.makespan == 0

    def test_single_op(self, problem_factory, chain_graph):
        from repro.ir.seqgraph import SequencingGraph

        g = SequencingGraph()
        g.add("m", "mul", (8, 8))
        p = make_problem(g)
        dp = allocate(p)
        validate_datapath(p, dp)
        assert dp.unit_count() == 1
        assert dp.area == 64.0

    def test_chain_graph_valid(self, chain_graph):
        p = make_problem(chain_graph, relaxation=0.2)
        dp = allocate(p)
        validate_datapath(p, dp)

    def test_diamond_graph_valid(self, diamond_graph):
        p = make_problem(diamond_graph, relaxation=0.2)
        dp = allocate(p)
        validate_datapath(p, dp)

    def test_feasible_at_lambda_min(self, parallel_muls_graph):
        p = make_problem(parallel_muls_graph, relaxation=0.0)
        dp = allocate(p)
        validate_datapath(p, dp)
        assert dp.makespan <= p.latency_constraint

    def test_deterministic(self, diamond_graph):
        p = make_problem(diamond_graph, relaxation=0.1)
        a, b = allocate(p), allocate(p)
        assert a.schedule == b.schedule
        assert a.binding == b.binding
        assert a.area == b.area


class TestAreaVsSlackTrend:
    def test_area_never_increases_with_relaxation_fir(self):
        graph = fir_filter(taps=4)
        areas = []
        for relaxation in (0.0, 0.25, 0.5, 1.0, 2.0):
            p = make_problem(graph, relaxation)
            dp = allocate(p)
            validate_datapath(p, dp)
            areas.append(dp.area)
        assert all(a >= b for a, b in zip(areas, areas[1:])), areas

    def test_large_slack_reaches_single_unit_per_kind(self):
        graph = fir_filter(taps=4)
        p = make_problem(graph, relaxation=5.0)
        dp = allocate(p)
        assert dp.unit_count("mul") == 1
        assert dp.unit_count("add") == 1


class TestMotivationalExample:
    """The Fig. 1 trade-off: slack lets small multiplies share the big
    multiplier at the cost of longer latency."""

    def test_tight_constraint_uses_parallel_units(self):
        p = make_problem(motivational_example(), relaxation=0.0)
        dp = allocate(p)
        validate_datapath(p, dp)
        assert dp.unit_count("mul") >= 2

    def test_slack_shares_the_wide_multiplier(self):
        p = make_problem(motivational_example(), relaxation=4.0)
        dp = allocate(p)
        validate_datapath(p, dp)
        assert dp.unit_count("mul") == 1
        # The shared unit must cover the widest multiply (16x12).
        mul_units = dp.units_by_kind()["mul"]
        assert mul_units[0].widths >= (16, 12)

    def test_slack_saves_area(self):
        tight = allocate(make_problem(motivational_example(), 0.0))
        loose = allocate(make_problem(motivational_example(), 4.0))
        assert loose.area < tight.area


class TestInfeasibility:
    def test_constraint_below_lambda_min(self, chain_graph):
        p = Problem(chain_graph, latency_constraint=2)
        assert p.minimum_latency() > 2
        with pytest.raises(InfeasibleError):
            allocate(p)

    def test_user_resource_constraint_respected(self, parallel_muls_graph):
        p = make_problem(parallel_muls_graph, relaxation=10.0)
        p = Problem(
            p.graph,
            latency_constraint=p.latency_constraint,
            resource_constraints={"mul": 2},
        )
        dp = allocate(p)
        validate_datapath(p, dp)
        assert dp.unit_count("mul") <= 2

    def test_impossible_user_constraint(self, parallel_muls_graph):
        # lambda_min demands parallelism but only one multiplier allowed.
        p = Problem(
            parallel_muls_graph,
            latency_constraint=Problem(
                parallel_muls_graph, latency_constraint=10**6
            ).minimum_latency(),
            resource_constraints={"mul": 1},
        )
        with pytest.raises(InfeasibleError):
            allocate(p)

    def test_max_iterations_cap(self, diamond_graph):
        p = make_problem(diamond_graph, relaxation=0.0)
        options = DPAllocOptions(max_iterations=1)
        with pytest.raises(InfeasibleError, match="iteration bound"):
            allocate(p, options)


class TestOptions:
    def test_asap_mode_valid(self, diamond_graph):
        p = make_problem(diamond_graph, relaxation=0.3)
        dp = allocate(p, DPAllocOptions(mode="asap"))
        validate_datapath(p, dp)

    def test_asap_mode_never_beats_min_units_on_slack(self):
        graph = fir_filter(taps=4)
        p = make_problem(graph, relaxation=2.0)
        paper = allocate(p)
        asap = allocate(p, DPAllocOptions(mode="asap"))
        assert paper.area <= asap.area

    def test_eqn2_mode_valid(self, diamond_graph):
        p = make_problem(diamond_graph, relaxation=0.3)
        dp = allocate(p, DPAllocOptions(constraint="eqn2"))
        validate_datapath(p, dp)

    def test_grow_and_shrink_toggles(self, diamond_graph):
        p = make_problem(diamond_graph, relaxation=0.3)
        for grow in (False, True):
            for shrink in (False, True):
                dp = allocate(p, DPAllocOptions(grow=grow, shrink=shrink))
                validate_datapath(p, dp)

    def test_blind_refinement_valid(self, diamond_graph):
        p = make_problem(diamond_graph, relaxation=0.1)
        dp = allocate(p, DPAllocOptions(blind_refinement=True))
        validate_datapath(p, dp)

    def test_best_mode_never_worse_than_either(self, diamond_graph):
        for relaxation in (0.0, 0.3, 1.0):
            p = make_problem(diamond_graph, relaxation)
            best = allocate(p, DPAllocOptions(mode="best"))
            validate_datapath(p, best)
            paper = allocate(p, DPAllocOptions(mode="min-units"))
            asap = allocate(p, DPAllocOptions(mode="asap"))
            assert best.area <= min(paper.area, asap.area) + 1e-9

    def test_best_mode_infeasible_when_both_are(self, chain_graph):
        p = Problem(chain_graph, latency_constraint=2)
        with pytest.raises(InfeasibleError):
            allocate(p, DPAllocOptions(mode="best"))

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            DPAllocOptions(mode="warp-speed")

    def test_invalid_constraint_rejected_at_construction(self):
        with pytest.raises(ValueError, match="constraint"):
            DPAllocOptions(constraint="eqn7")

    def test_invalid_selector_rejected_at_construction(self):
        with pytest.raises(ValueError, match="selector"):
            DPAllocOptions(selector="random")

    @pytest.mark.parametrize("options", [
        {"grow": "false"},
        {"shrink": 0},
        {"blind_refinement": None},
        {"trace": "yes"},
        {"max_iterations": -1},
        {"max_iterations": 0},
        {"max_iterations": 2.5},
        {"max_iterations": True},
    ])
    def test_ill_typed_flag_or_cap_is_an_uncached_error(self, options, tmp_path):
        engine = Engine(cache_dir=tmp_path)
        result = engine.run(AllocationRequest(
            build_case(24, 0, 0.0).problem, "dpalloc", options=options
        ))
        assert result.error.startswith("error: ValueError: "), result.error
        assert engine.cache_stats()["entries"] == 0


class TestBestModeIterationCap:
    """mode='best' shares max_iterations across both sub-modes and
    reports the winning variant's iteration count."""

    def test_cap_applies_to_both_submodes(self, diamond_graph):
        p = make_problem(diamond_graph, relaxation=0.0)
        # Cap below what either sub-mode needs: both must fail.
        assert allocate(p).iterations > 1
        with pytest.raises(InfeasibleError):
            allocate(p, DPAllocOptions(mode="best", max_iterations=1))

    def test_iterations_reflect_winning_variant(self, diamond_graph):
        for relaxation in (0.0, 0.3, 1.0):
            p = make_problem(diamond_graph, relaxation)
            cap = 64
            best = allocate(p, DPAllocOptions(mode="best", max_iterations=cap))
            assert best.iterations <= cap
            winner = min(
                (
                    allocate(p, DPAllocOptions(mode=mode, max_iterations=cap))
                    for mode in ("min-units", "asap")
                ),
                key=lambda dp: (dp.area, dp.makespan),
            )
            assert best.iterations == winner.iterations
            assert best.area == winner.area

    def test_cap_allows_feasible_submode_to_win(self, diamond_graph):
        # With generous slack both modes finish in one iteration; the
        # cap of 1 must not reject the run.
        p = make_problem(diamond_graph, relaxation=5.0)
        best = allocate(p, DPAllocOptions(mode="best", max_iterations=1))
        assert best.iterations == 1


class TestBottleneckKindTies:
    def test_tie_resolves_to_smallest_name(self):
        from repro.core.solver import _bottleneck_kind
        from repro.ir.seqgraph import SequencingGraph

        g = SequencingGraph()
        g.add("alpha", "add", (8, 8))
        g.add("beta", "mul", (8, 8))
        p = Problem(g, latency_constraint=10)
        schedule = {"alpha": 0, "beta": 0}
        bound_latencies = {"alpha": 3, "beta": 3}
        # Both finish at step 3; the lexicographically smallest name
        # ("alpha", an add) must win -- not the largest ("beta").
        assert _bottleneck_kind(p, schedule, bound_latencies) == "add"

    def test_strict_maximum_still_wins(self):
        from repro.core.solver import _bottleneck_kind
        from repro.ir.seqgraph import SequencingGraph

        g = SequencingGraph()
        g.add("alpha", "add", (8, 8))
        g.add("beta", "mul", (8, 8))
        p = Problem(g, latency_constraint=10)
        schedule = {"alpha": 0, "beta": 1}
        bound_latencies = {"alpha": 3, "beta": 3}
        assert _bottleneck_kind(p, schedule, bound_latencies) == "mul"


class TestIterationAccounting:
    def test_refinement_trace_recorded(self):
        p = make_problem(motivational_example(), relaxation=0.0)
        dp = allocate(p)
        assert dp.iterations == len(dp.refinements) + 1 or dp.iterations >= 1

    def test_first_iteration_feasible_with_huge_slack(self):
        p = make_problem(motivational_example(), relaxation=50.0)
        dp = allocate(p)
        assert dp.iterations == 1
        assert dp.refinements == ()
